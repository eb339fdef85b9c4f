"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracing.py` names the traced functions by module and attribute
path; renaming or deleting one of them would otherwise show only as a failed
traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import weightedres.cli  # noqa: F401  (loads every module the tracer patches)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_the_tracer_installs_over_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
