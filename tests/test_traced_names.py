"""The benchmark's tracer still finds every function it wraps, the benchmark
harness still starts on every workload, and its driver check knows every
driver status.

`perfbench/tracing.py` names the traced functions by module and attribute
path, and `perfbench/workloads.py` lists the driver statuses it accepts;
renaming or deleting one of them, adding a status, or an error at package
import would otherwise show only as a failed benchmark run.  So would a
mord-towers input stream that runs dry before the run's time is up.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weightedres.cli  # noqa: F401  (loads every module the tracer patches)
from weightedres.blowup import DriverStatus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", TRACING.with_stem(name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_over_the_package():
    tracer = _perfbench_module("tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_the_driver_check_accepts_exactly_the_driver_statuses():
    # resolve-drivers calls a status outside DONE + GIVE_UP a wrong answer
    workloads = _perfbench_module("workloads")
    assert sorted(workloads.DONE + workloads.GIVE_UP) == sorted(s.value for s in DriverStatus)


HARNESS = r"""
import sys
from pathlib import Path

perfbench, src, workdir = sys.argv[1:]
sys.path[:0] = [perfbench, src]
import run
from tracing import Tracer
from workloads import CRASHED, WRONG, make_workloads

for name, workload in make_workloads(Path(workdir)).items():
    wr, stream, first = run.setup(workload, 1)
    for item in first:
        out, err, _, _ = run.call_once(workload, wr, item)
        v = run.verdict(workload, wr, item, out, err)
        assert v not in (CRASHED, WRONG), (name, item.payload, v, repr(err))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    print(name, len(first))
"""


def test_every_benchmark_workload_sets_up_runs_a_cycle_and_traces(tmp_path):
    # the benchmark's own start on each workload: a fresh import, the
    # warm-up pass, the first timed cycle with no crashed or wrong item, and
    # the tracer installed over the fresh package.  A subprocess, because
    # the harness replaces weightedres in sys.modules.
    root = TRACING.parents[1]
    env = {k: v for k, v in os.environ.items() if k != "WEIGHTEDRES_DEGREE_CAP"}
    done = subprocess.run(
        [sys.executable, "-c", HARNESS, str(root / "perfbench"), str(root / "src"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()] == [
        "mord-towers",
        "resolve-drivers",
        "cli-corpus",
    ]


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="ROADMAP item 1: the two mord-towers monomial families hold 276 payloads "
    "each and repeat none, so Stream.draw raises on cycle 277",
)
def test_the_mord_towers_stream_lasts_600_cycles():
    # a 30 s run at about 420 calls/s, twice the rate at which the stream
    # runs dry, draws 600 cycles of 21 calls; only the draws, no engine call
    workloads = _perfbench_module("workloads")
    towers = workloads.MordTowers()
    warm = workloads.Stream(towers, 1, "warmup").warmup()
    stream = workloads.Stream(towers, 1, "timed", exclude={item.payload for item in warm})
    for _ in range(600):
        stream.next_cycle()
    assert stream.cycles == 600
