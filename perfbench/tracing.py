"""Traced run: spans around the public functions of each weightedres module.

The wrappers live here, outside the package.  `Tracer.install` wraps every
function listed in LAYERS and re-binds every name that refers to it in any
`weightedres.*` module namespace (for example `blowup.multiorder`,
`cli.rounding`, `tubes.build_charts`), then scans the package and refuses to
run if any reference to an unwrapped original is left, so no call escapes
its span.

A span is (name, start, end, parent span, benchmark call id).  Spans are
kept in memory in flat arrays and written out by `write_spans` when the
run ends.  A span's self time is its duration minus the durations of its
direct child spans.  Counter bookkeeping (distinct ideals, chain lengths,
driver steps) runs after the child span has closed, so its cost lands in
the parent's self time; `trace.overhead_frac` reports the total cost of
tracing.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

# span name -> (module, attribute path) of every function the span covers
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("cli", "main"),),
    "textio.parse": tuple(
        ("textio", f)
        for f in (
            "parse_polynomial",
            "parse_ideal",
            "parse_center",
            "parse_multiorder",
            "parse_rational",
        )
    ),
    "textio.encode": tuple(
        ("textio", f)
        for f in (
            "multiorder_json",
            "center_json",
            "invariant_json",
            "ideal_json",
            "trace_json",
            "tube_json",
            "certificate_json",
        )
    ),
    "poly.derivative_extend": (("poly", "PolyIdeal.derivative_extend"),),
    "poly.derivative": (("poly", "Polynomial.derivative"),),
    "poly.restrict": (("poly", "Polynomial.restrict"), ("poly", "PolyIdeal.restrict")),
    "poly.substitute": (
        ("poly", "Polynomial.substitute"),
        ("poly", "PolyIdeal.substitute"),
    ),
    "poly.mul": (("poly", "Polynomial.__mul__"), ("poly", "Polynomial.__pow__")),
    "poly.divide": (
        ("poly", "Polynomial.divide_exact"),
        ("poly", "Polynomial.divide_by_variable_power"),
    ),
    "poly.evaluate": (("poly", "Polynomial.evaluate"),),
    "centers.align": tuple(
        ("centers", f)
        for f in (
            "AlignStep.apply_aligned",
            "AlignStep.apply_original",
            "CoordinateChange.to_aligned",
            "CoordinateChange.to_original",
            "CoordinateChange.to_aligned_ideal",
            "CoordinateChange.to_original_ideal",
        )
    ),
    "centers.is_admissible": (("centers", "is_admissible"),),
    "centers.rounding": (("centers", "rounding"),),
    "centers.leading_term": tuple(
        ("centers", f)
        for f in (
            "leading_term_basis",
            "leading_term_decomposition",
            "leading_term_projection",
        )
    ),
    "invariant.multiorder": (("invariant", "multiorder"),),
    "blowup.build_charts": (("blowup", "build_charts"),),
    "blowup.controlled_transform": (("blowup", "controlled_transform"),),
    "blowup.strict_transform": (("blowup", "strict_transform"),),
    "blowup.point_invariant": (("blowup", "point_invariant"),),
    "blowup.driver": (("blowup", "principalize"), ("blowup", "embedded_resolve")),
    "lattice.is_in_mord": (("lattice", "is_in_mord"),),
    "lattice.staircase": (
        ("lattice", "LatticeIdeal.minimal_generators"),
        ("lattice", "LatticeIdeal.complement"),
    ),
    "tschirnhaus.verify": (("tschirnhaus", "verify_tschirnhaus"),),
    "tschirnhaus.make": (("tschirnhaus", "make_tschirnhaus"),),
    "tubes.build": (
        ("tubes", "constant_tube"),
        ("tubes", "tube_center_correspondence"),
    ),
    "tubes.rank": (("tubes", "TubeAlgebra.rank"),),
    "staircase.render": (("staircase", "staircase"),),
}

# spans whose argument ideals are counted for distinct_frac
DISTINCT = ("poly.derivative_extend", "invariant.multiorder")


def _package_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "weightedres" or name.startswith("weightedres."))
    ]


def _resolve(module: types.ModuleType, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder for one traced pass; see the module docstring."""

    def __init__(self):
        self.names = list(LAYERS)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.stack = [-1]
        self.call_id = -1
        self.new_polys = 0
        self.levels = 0
        self.steps = 0
        self.points_tracked = 0
        self.distinct = {name: 0 for name in DISTINCT}
        self._seen = {name: set() for name in DISTINCT}
        self._patches: list[tuple[object, str, object]] = []

    # -- per benchmark call ---------------------------------------------------

    def begin_call(self, call_id: int) -> None:
        self.call_id = call_id

    def end_call(self) -> None:
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()

    # -- wrapping -------------------------------------------------------------

    def _after(self, name: str, args, result) -> None:
        if name in self._seen:
            self._seen[name].add(args[0])
        if name == "invariant.multiorder":
            self.levels += len(result.chain)
        elif name == "blowup.driver":
            self.steps += len(result.steps)
            self.points_tracked += sum(
                len(chart.tracked) for step in result.steps for chart in step.charts
            )

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        perf = time.perf_counter
        stack = self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, calls = self.span_parent, self.span_call
        after = self._after if name in DISTINCT or name == "blowup.driver" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            calls.append(tracer.call_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                starts[sid] = start
                ends[sid] = end
            if after is not None:
                after(name, args, result)
            return result

        return wrapper

    def _count_new(self, init):
        tracer = self

        @functools.wraps(init)
        def counting_init(self, *args, **kwargs):
            tracer.new_polys += 1
            return init(self, *args, **kwargs)

        return counting_init

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every LAYERS function and re-bind all its module aliases."""
        replaced: dict[int, tuple[object, object]] = {}
        for name, targets in LAYERS.items():
            for modname, path in targets:
                owner, attr = _resolve(sys.modules[f"weightedres.{modname}"], path)
                fn = owner.__dict__[attr]
                wrapper = self._wrap(name, fn)
                replaced[id(fn)] = (fn, wrapper)
                self._patch(owner, attr, wrapper)
        poly_cls = sys.modules["weightedres.poly"].Polynomial
        self._patch(poly_cls, "__init__", self._count_new(poly_cls.__dict__["__init__"]))
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, hit[1])
        escaped = find_escapes({i: fn for i, (fn, _) in replaced.items()})
        if escaped:
            self.uninstall()
            raise RuntimeError("unwrapped references remain: " + ", ".join(escaped))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name, from the recorded spans."""
        n = len(self.span_name)
        cover = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                cover[p] += ends[i] - starts[i]
        table = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            row = table[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += dur - cover[i]
            row["total_s"] += dur
        return table

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tcall\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}"
                    f"\t{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_call[i]}\n"
                )


def find_escapes(originals: dict[int, object]) -> list[str]:
    """Names in the package that still reach an unwrapped original function:
    module globals, class attributes, module-level containers and function
    defaults."""
    found = []

    def hit(value) -> bool:
        return id(value) in originals and originals[id(value)] is value

    for module in _package_modules():
        for key, value in vars(module).items():
            where = f"{module.__name__}.{key}"
            if hit(value):
                found.append(where)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hit(member):
                        found.append(f"{where}.{attr}")
            elif isinstance(value, (list, tuple, set, frozenset, dict)):
                items = value.values() if isinstance(value, dict) else value
                found.extend(f"{where}[...]" for v in items if hit(v))
            elif isinstance(value, types.FunctionType):
                defaults = (value.__defaults__ or ()) + tuple(
                    (value.__kwdefaults__ or {}).values()
                )
                found.extend(f"{where} default" for v in defaults if hit(v))
    return found
