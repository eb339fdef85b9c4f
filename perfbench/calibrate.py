"""Machine-speed calibration for the timed figures.

The reference machine is a shared container whose CPU speed drifts by up to
1.8x over seconds to minutes, so raw wall and cpu times of the same code move
more between runs than any useful regression bound.  The benchmark therefore
times, between short stretches of calls, a fixed pure-Python kernel that
does the kind of work the package does (sparse polynomial products and
derivatives over Q, in dicts of exponent tuples) and shares no code with it.
Every time measured in a stretch is multiplied by REF_KERNEL_S over the
kernel's duration around that stretch: the figure the code would show on a
machine that runs the kernel in exactly REF_KERNEL_S.  The kernel never
changes between commits, so a faster program still reads faster.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the kernel's duration at the reference speed, about its mean on the
# 2-core reference container (Python 3.11)
REF_KERNEL_S = 0.006
PROBE_REPS = 3


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e, a in p.items():
        for f, b in q.items():
            g = tuple(x + y for x, y in zip(e, f))
            c = out.get(g, 0) + a * b
            if c:
                out[g] = c
            else:
                out.pop(g, None)
    return out


def _diff(p: dict, i: int) -> dict:
    out = {}
    for e, a in p.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = a * e[i]
    return out


_P = {(2, 0, 0): Fraction(3, 2), (0, 3, 0): Fraction(-5), (1, 1, 1): Fraction(7, 3), (0, 0, 1): Fraction(1)}
_Q = {(1, 0, 0): Fraction(2), (0, 1, 0): Fraction(-1, 4), (0, 0, 2): Fraction(9, 5)}


def kernel() -> int:
    """Fixed work: a product tower and its derivatives; returns a checksum."""
    p, total = dict(_P), 0
    for _ in range(5):
        p = _mul(p, _Q)
        for i in range(3):
            total += len(_diff(p, i))
    return total + len(p)


_EXPECTED = kernel()


def probe() -> tuple[float, float]:
    """(wall s, cpu s) of one kernel run: means of PROBE_REPS runs.

    Means, not medians: a call preempted by another process takes longer in
    wall time, and so does a kernel run, as often."""
    walls, cpus = [], []
    for _ in range(PROBE_REPS):
        w0, c0 = time.perf_counter(), time.process_time()
        if kernel() != _EXPECTED:
            raise AssertionError("calibration kernel changed its result")
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
    return statistics.fmean(walls), statistics.fmean(cpus)


def scales(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """(wall, cpu) factors for a stretch between two probes."""
    wall = (before[0] + after[0]) / 2
    cpu = (before[1] + after[1]) / 2
    return REF_KERNEL_S / wall, REF_KERNEL_S / max(cpu, 1e-9)
