"""Benchmark runner for weightedres.

    python3 perfbench/run.py --workload mord-towers --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  One run is one single-threaded
process and one closed-loop client: the next call starts when the previous
one returns.

A run sets up SETUP_REPEATS times (fresh `import weightedres`, seeded input
generation, one untimed warm-up pass on a disjoint seeded stream) and
reports the median as setup_s.  It then times whole input cycles until the
timed calls add up to --seconds and at least MIN_CALLS calls ran, checking
every output outside the timed region.  With --trace 1 it then replays the
first `trace_cycles` cycles of the same stream with every public function
of the package wrapped in a span (see tracing.py), and reports per-layer
numbers instead of the end-to-end ones.

Every reported time is scaled to the reference machine speed by the
calibration kernel of calibrate.py, timed around each set-up and each
stretch of about STRETCH_S of calls; the raw times go to the report line.

The second-to-last line of standard output is a JSON report with every
figure (sample counts, failed_frac, refused_frac, the full per-layer
table); the last line is the result object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import calibrate
from tracing import DISTINCT, Tracer
from workloads import CRASHED, OK, REFUSED, WRONG, Stream, make_workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MIN_CALLS = 100
STRETCH_S = 0.25
MODULES = ("errors", "poly", "lattice", "centers", "invariant", "blowup", "textio", "cli")

# BENCHMARK.json names the metrics of the result line and their units; the
# report line carries every figure the run computes.
SPEC = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def import_fresh() -> types.SimpleNamespace:
    """Import weightedres from ./src as if for the first time."""
    for name in [n for n in sys.modules if n == "weightedres" or n.startswith("weightedres.")]:
        del sys.modules[name]
    pkg = importlib.import_module("weightedres")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "weightedres":
        raise BenchError(f"imported weightedres from {pkg.__file__}, not ./src")
    wr = types.SimpleNamespace(
        **{m: importlib.import_module(f"weightedres.{m}") for m in MODULES}
    )
    if wr.errors.degree_cap() != wr.errors.DEFAULT_DEGREE_CAP:
        raise BenchError("the degree cap is not the package default")
    return wr


def call_once(workload, wr, item):
    """One timed call: (output or None, exception or None, wall s, cpu s)."""
    wall, cpu = time.perf_counter, time.process_time
    w0, c0 = wall(), cpu()
    try:
        out, err = workload.call(wr, item), None
    except Exception as exc:  # classified by verdict(); never hidden
        out, err = None, exc
    c1, w1 = cpu(), wall()
    return out, err, w1 - w0, c1 - c0


def verdict(workload, wr, item, out, err) -> str:
    if err is not None:
        # a malformed CLI input must exit with a JSON error, never raise
        typed = isinstance(err, wr.errors.WeightedResError) and item.family != "malformed"
        return REFUSED if typed else CRASHED
    try:
        return workload.check(wr, item, out)
    except Exception:  # an output of the wrong shape is a wrong answer
        return WRONG


def setup(workload, seed: int):
    """Fresh import, seeded inputs, one warm-up pass; returns (wr, stream, first cycle)."""
    wr = import_fresh()
    warm = Stream(workload, seed, "warmup")
    warm_items = warm.warmup()
    stream = Stream(workload, seed, "timed", exclude={item.payload for item in warm_items})
    first = stream.next_cycle()
    for item in warm_items:
        call_once(workload, wr, item)
    return wr, stream, first


class Tally:
    def __init__(self):
        self.counts = {OK: 0, REFUSED: 0, CRASHED: 0, WRONG: 0}
        self.malformed = 0

    def add(self, item, v: str) -> None:
        self.counts[v] += 1
        self.malformed += item.family == "malformed"

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts[CRASHED] + self.counts[WRONG]

    def fractions(self) -> dict:
        valid = self.attempted - self.malformed
        return {
            "failed_frac": self.failed / self.attempted,
            "refused_frac": self.counts[REFUSED] / valid if valid else 0.0,
        }


class Samples:
    """Per-call (wall, cpu) times, raw and scaled to the reference speed.

    Calls are timed in stretches of about STRETCH_S of wall time with a
    calibration probe before and after each stretch (calibrate.py); every
    call of a stretch is scaled by the factors of its two probes.
    """

    def __init__(self):
        self.raw, self.scaled, self.pending = [], [], []
        self.probe = calibrate.probe()

    def add(self, wall: float, cpu: float) -> None:
        self.pending.append((wall, cpu))
        if sum(w for w, _ in self.pending) >= STRETCH_S:
            self.close()

    def close(self) -> None:
        if not self.pending:
            return
        after = calibrate.probe()
        fw, fc = calibrate.scales(self.probe, after)
        self.raw += self.pending
        self.scaled += [(w * fw, c * fc) for w, c in self.pending]
        self.pending, self.probe = [], after

    def __len__(self) -> int:
        return len(self.raw) + len(self.pending)

    def wall_sum(self) -> float:
        return sum(w for w, _ in self.raw) + sum(w for w, _ in self.pending)


def timed_loop(workload, wr, stream, first, seconds: float, keep: int):
    """Closed loop over whole cycles; returns per-call samples, tally, kept items."""
    samples, tally, kept = Samples(), Tally(), []
    cycle = first
    while True:
        for item in cycle:
            out, err, w, c = call_once(workload, wr, item)
            samples.add(w, c)
            tally.add(item, verdict(workload, wr, item, out, err))
            if len(kept) < keep:
                kept.append((item, digest(workload, out, err)))
        if samples.wall_sum() >= seconds and len(samples) >= max(MIN_CALLS, keep):
            samples.close()
            return samples, tally, kept
        cycle = stream.next_cycle()


def time_figures(walls: list[float], cpus: list[float]) -> dict:
    n = len(walls)
    return {
        "calls_per_s": n / sum(walls),
        "call_p50_ms": statistics.median(walls) * 1000,
        "call_p90_ms": statistics.quantiles(walls, n=10, method="inclusive")[8] * 1000,
        "cpu_ms_per_call": sum(cpus) / n * 1000,
    }


def digest(workload, out, err) -> str:
    return f"raised {type(err).__name__}" if err is not None else workload.digest(out)


def traced_pass(workload, wr, kept, tally: Tally) -> tuple[Tracer, float]:
    """Replay the kept items with spans on; returns the tracer and its cpu overhead.

    Each item also runs once untraced right next to its traced call, the two
    in alternating order, so both see the same machine state; the overhead
    is the ratio of their cpu times, minus 1.
    """
    tracer = Tracer()
    cpu = {False: 0.0, True: 0.0}
    for i, (item, expected) in enumerate(kept):
        for traced in (True, False) if i % 2 else (False, True):
            if traced:
                tracer.install()
                tracer.begin_call(i)
            try:
                result = call_once(workload, wr, item)
            finally:
                if traced:
                    tracer.end_call()
                    tracer.uninstall()
            cpu[traced] += result[3]
            if traced:
                out, err = result[:2]
        v = verdict(workload, wr, item, out, err)
        if digest(workload, out, err) != expected:
            v = WRONG  # tracing must not change any output
        tally.add(item, v)
    return tracer, cpu[True] / cpu[False] - 1.0


def per_layer_metrics(tracer: Tracer, overhead: float, tally: Tally, scale: float) -> dict:
    """Every per-layer figure of a traced pass, by metric name; span times
    are multiplied by `scale`, the calibration factor of the pass."""
    full = {}
    for name, row in tracer.layer_table().items():
        full[f"{name}.calls"] = row["calls"]
        full[f"{name}.self_s"] = row["self_s"] * scale
        full[f"{name}.total_s"] = row["total_s"] * scale
        if name in DISTINCT:
            full[f"{name}.distinct_frac"] = tracer.distinct[name] / max(row["calls"], 1)
    full["poly.new.calls"] = tracer.new_polys
    full["invariant.levels"] = tracer.levels
    full["blowup.steps"] = tracer.steps
    full["blowup.points_tracked"] = tracer.points_tracked
    for key, value in tally.fractions().items():
        full[f"errors.{key}"] = value
    full["trace.overhead_frac"] = overhead
    return full


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "frac" if name.endswith("_frac") else "count"


def metrics(spec: list[dict], values: dict) -> dict:
    """The result-line metrics named by one BENCHMARK.json section."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run(args) -> tuple[dict, dict]:
    if "WEIGHTEDRES_DEGREE_CAP" in os.environ:
        raise BenchError("WEIGHTEDRES_DEGREE_CAP is set; the benchmark measures the defaults")
    if not (ROOT / "src" / "weightedres" / "__init__.py").is_file():
        raise BenchError("no ./src/weightedres to benchmark")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    workloads = make_workloads(OUT_DIR)
    workload = workloads[args.workload]

    setups, raw_setups = [], []
    before = calibrate.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wr, stream, first = setup(workload, args.seed)
        raw_setups.append(time.perf_counter() - t0)
        after = calibrate.probe()
        setups.append(raw_setups[-1] * calibrate.scales(before, after)[0])
        before = after

    keep = workload.trace_cycles * len(first) if args.trace else 0
    samples, tally, kept = timed_loop(workload, wr, stream, first, args.seconds, keep)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(samples)
    end_to_end = {
        "setup_s": statistics.median(setups),
        **time_figures(*zip(*samples.scaled)),
        "peak_rss_mb": rss_mb,
    }
    raw = {"setup_s": statistics.median(raw_setups), **time_figures(*zip(*samples.raw))}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "timed_calls": n,
        "cycles": stream.cycles,
        "samples": {"setup_s": len(setups), "call_latency": n},
        "end_to_end": metrics(spec["end_to_end"], end_to_end),
        "raw": metrics([m for m in spec["end_to_end"] if m["name"] in raw], raw),
        **{k: {"value": v, "unit": "frac"} for k, v in tally.fractions().items()},
        "verdicts": dict(tally.counts),
    }
    result = {"correct": tally.counts[WRONG] == 0, "attempted": tally.attempted, "failed": tally.failed}
    if not args.trace:
        result["metrics"] = report["end_to_end"]
        return report, result

    trace_tally = Tally()
    before = calibrate.probe()
    tracer, overhead = traced_pass(workload, wr, kept, trace_tally)
    scale = calibrate.scales(before, calibrate.probe())[0]
    full = per_layer_metrics(tracer, overhead, trace_tally, scale)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
    tracer.write_spans(spans_path)
    report["traced_calls"] = len(kept)
    report["spans"] = {"count": len(tracer.span_name), "file": str(spans_path.relative_to(ROOT))}
    report["per_layer"] = {k: {"value": v, "unit": unit_of(k)} for k, v in full.items()}
    result["attempted"] += trace_tally.attempted
    result["failed"] += trace_tally.failed
    result["correct"] = result["correct"] and trace_tally.counts[WRONG] == 0
    result["metrics"] = metrics(spec["per_layer"], full)
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mord-towers", "resolve-drivers", "cli-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args)
    except (BenchError, ImportError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
