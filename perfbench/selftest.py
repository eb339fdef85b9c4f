"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It shows that a deliberately wrong
answer lands in failed_frac, that calibration scales each stretch of
calls by the probes around it, that typed refusals and crashes are told
apart, that the traced run leaves no alias of a wrapped function unwrapped,
that traced counts repeat exactly across processes, that the trace
reproduces the 959 derivative_extend calls on 36 distinct ideals of
x0^7+...+x5^7, and that the benchmark refuses to run with a degree-cap
override or without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import calibrate
import run as bench
from tracing import LAYERS, Tracer
from workloads import CRASHED, REFUSED, WRONG, Item

ROOT = bench.ROOT
FERMAT = "+".join(f"x{i}^7" for i in range(6))


def wrong_answers(wr):
    """Per workload, an output that no checker may accept for any input."""
    x2 = wr.blowup.principalize(wr.textio.parse_ideal("x^2"))
    return {
        "mord-towers": {"mord": ["0"]},
        "resolve-drivers": (x2, {"status": "bogus"}),
        "cli-corpus": (0, '{"bogus": true}'),
    }


class Lying:
    """A workload whose every call returns a wrong answer."""

    def __init__(self, workload, answer):
        self.workload, self.answer = workload, answer

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def call(self, wr, item):
        return self.answer


def test_wrong_answers_land_in_failed_frac():
    for name, workload in bench.make_workloads(bench.OUT_DIR).items():
        wr, stream, first = bench.setup(workload, 11)
        liar = Lying(workload, wrong_answers(wr)[name])
        samples, tally, _ = bench.timed_loop(liar, wr, stream, first, 0.0, 0)
        assert tally.counts[WRONG] == len(samples) >= bench.MIN_CALLS, (name, tally.counts)
        assert tally.fractions()["failed_frac"] == 1.0, name


def test_calibration_scales_each_stretch_by_its_probes():
    probes = iter([(0.012, 0.003), (0.004, 0.003), (0.006, 0.006)])
    real, calibrate.probe = calibrate.probe, lambda: next(probes)
    try:
        samples = bench.Samples()
        samples.add(bench.STRETCH_S, 0.1)  # closes the stretch: probes 1 and 2
        samples.add(0.2, 0.2)
        samples.close()  # probes 2 and 3
    finally:
        calibrate.probe = real
    ref = calibrate.REF_KERNEL_S
    want = [(bench.STRETCH_S * ref / 0.008, 0.1 * ref / 0.003), (0.2 * ref / 0.005, 0.2 * ref / 0.0045)]
    assert len(samples) == 2 and samples.raw == [(bench.STRETCH_S, 0.1), (0.2, 0.2)]
    assert all(abs(a - b) < 1e-12 for got, exp in zip(samples.scaled, want) for a, b in zip(got, exp))


def test_refusals_and_crashes_are_told_apart():
    workloads = bench.make_workloads(bench.OUT_DIR)
    wr = bench.import_fresh()
    cases = [
        ("resolve-drivers", Item("curve", ("x^5 - y^11", "principalize", None), (None, None)), REFUSED),
        ("mord-towers", Item("shear2", "3*(x1 + 2*x2^2)^8 - 2*x2^5", (5, 8)), REFUSED),
        ("cli-corpus", Item("malformed", ("mord", "1/0*x"), None), CRASHED),
        ("cli-corpus", Item("malformed", ("rees", "[x^2,y^3]", "--root", "0"), None), CRASHED),
    ]
    for name, item, expected in cases:
        workload = workloads[name]
        out, err, _, _ = bench.call_once(workload, wr, item)
        assert bench.verdict(workload, wr, item, out, err) == expected, (name, item)
    untyped = bench.verdict(workloads["mord-towers"], wr, cases[1][1], None, ValueError())
    assert untyped == CRASHED


def test_trace_leaves_no_alias_unwrapped():
    wr = bench.import_fresh()
    staircase = sys.modules["weightedres.staircase"]
    tubes = sys.modules["weightedres.tubes"]
    original = wr.invariant.multiorder
    tracer = Tracer()
    tracer.install()
    try:
        assert wr.blowup.multiorder is wr.invariant.multiorder is not original
        assert wr.cli.rounding is wr.centers.rounding
        assert tubes.build_charts is wr.blowup.build_charts
        assert tubes.strict_transform is wr.blowup.strict_transform
        assert wr.cli.render_staircase is staircase.staircase
        assert sys.modules["weightedres"].multiorder is wr.invariant.multiorder
        assert all(hasattr(getattr(wr.poly.Polynomial, f), "__wrapped__") for f in ("__mul__", "__pow__"))
    finally:
        tracer.uninstall()
    assert wr.invariant.multiorder is original and wr.blowup.multiorder is original


def test_fermat_tower_counts():
    wr = bench.import_fresh()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_call(0)
        result = wr.invariant.multiorder(wr.textio.parse_ideal(FERMAT))
        tracer.end_call()
    finally:
        tracer.uninstall()
    assert [str(e) for e in result.mord.entries] == ["7"] * 6
    table = tracer.layer_table()
    assert table["poly.derivative_extend"]["calls"] == 959, table["poly.derivative_extend"]
    assert tracer.distinct["poly.derivative_extend"] == 36
    assert table["invariant.multiorder"]["calls"] == 1
    assert tracer.levels == 6
    assert set(table) == set(LAYERS)


def _run_bench(args, env=None, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def test_traced_counts_repeat_exactly():
    exact = ("calls", "distinct_frac", "levels", "steps", "points_tracked", "failed_frac", "refused_frac")
    for name in ("mord-towers", "resolve-drivers", "cli-corpus"):
        runs = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = _run_bench(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1"], env)
            assert proc.returncode == 0, proc.stderr
            layers = json.loads(proc.stdout.splitlines()[-2])["report"]["per_layer"]
            runs.append({k: v["value"] for k, v in layers.items() if k.rsplit(".", 1)[1] in exact})
        assert runs[0] == runs[1], (name, {k for k in runs[0] if runs[0][k] != runs[1][k]})


def test_refuses_degree_cap_override():
    env = dict(os.environ, WEIGHTEDRES_DEGREE_CAP="64")
    proc = _run_bench(["--workload", "cli-corpus", "--seed", "1", "--seconds", "1"], env)
    assert proc.returncode == 2 and not proc.stdout


def test_fails_without_sources():
    bare = bench.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run_bench(["--workload", "mord-towers", "--seed", "1", "--seconds", "1"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as err:
                failures += 1
                print(f"FAIL {name}: {err!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
