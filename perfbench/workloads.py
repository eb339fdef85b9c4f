"""The three benchmark workloads: seeded inputs, the timed call, the checker.

Every workload is a closed loop with one client.  Its inputs come in cycles
with a fixed composition: each cycle holds the same families in the same
numbers, and the seed picks the parameters and the order inside the cycle.
So two seeds give different inputs with the same mix, which keeps the
figures of different seeds comparable.

Each checker's expected values come from outside the engine under test:
closed forms, invariance under a coordinate shear, brute-force lattice
counts written here, the monomial oracle (which shares no code with the
invariant recursion), `invariant_drop_check`, and values from the paper.
A checker returns one verdict per call:

  OK       the output passed its check
  REFUSED  a valid input answered with a typed refusal: a WeightedResError,
           a give-up driver status, or a CLI JSON error
  CRASHED  an untyped exception escaped the call
  WRONG    the call returned a value its check rejects, or a malformed
           CLI input did not exit 1 or 2 with a JSON error
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

OK, REFUSED, CRASHED, WRONG = "ok", "refused", "crashed", "wrong"


class Item(NamedTuple):
    family: str
    payload: object  # what the program receives
    expect: object  # what the checker compares against


# -- independent helpers (no engine code) --------------------------------------


def fracs(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def minimal_exponents(ds, threshold=Fraction(1)) -> set[tuple[int, ...]]:
    """Minimal a in N^k with sum a_i/d_i >= threshold, by brute force."""
    ds = fracs(ds)
    box = [math.ceil(threshold * d) for d in ds]
    members = [
        a
        for a in itertools.product(*(range(b + 1) for b in box))
        if sum(Fraction(x) / d for x, d in zip(a, ds)) >= threshold
    ]
    return {
        a
        for a in members
        if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in members)
    }


def complement_count(ds) -> int:
    """#{a in N^k : sum a_i/d_i < 1}, by brute force."""
    ds = fracs(ds)
    return sum(
        1
        for a in itertools.product(*(range(math.ceil(d)) for d in ds))
        if sum(Fraction(x) / d for x, d in zip(a, ds)) < 1
    )


def monomial_key(text: str) -> frozenset:
    """'x^4*y^2' -> {('x', 4), ('y', 2)}; '1' -> {}."""
    if text == "1":
        return frozenset()
    out = {}
    for factor in text.split("*"):
        name, _, exp = factor.partition("^")
        out[name] = out.get(name, 0) + (int(exp) if exp else 1)
    return frozenset(out.items())


def monomial_set(names, vectors) -> set[frozenset]:
    return {frozenset((n, e) for n, e in zip(names, a) if e) for a in vectors}


def poly_sum(terms) -> str:
    """[(coeff, body), ...] -> 'body - 3*body + ...' in the program's grammar."""
    out = []
    for i, (c, body) in enumerate(terms):
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        if i == 0:
            out.append(("-" if c < 0 else "") + mag + body)
        else:
            out.append((" - " if c < 0 else " + ") + mag + body)
    return "".join(out)


def power(var: str, e: int) -> str:
    return var if e == 1 else f"{var}^{e}"


def coeff(rng: random.Random, top: int = 9) -> int:
    return rng.choice([c for c in range(-top, top + 1) if c])


# -- stream machinery ------------------------------------------------------------


class Stream:
    """Deterministic cycles of items for one seed.

    `exclude` holds payloads the stream may not emit (the warm-up stream's,
    and for workloads that forbid repeats every payload emitted so far).
    """

    def __init__(self, workload, seed: int, kind: str, exclude=frozenset()):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}:{kind}")
        self.exclude = set(exclude)
        self.cycles = 0

    def draw(self, make: Callable[[random.Random], Item]) -> Item:
        for _ in range(10_000):
            item = make(self.rng)
            if item.payload not in self.exclude:
                if self.workload.unique:
                    self.exclude.add(item.payload)
                return item
        raise RuntimeError(f"{self.workload.name}: input family exhausted")

    def next_cycle(self) -> list[Item]:
        items = [self.draw(make) for make in self.workload.cycle_makers(self)]
        self.rng.shuffle(items)
        self.cycles += 1
        return items

    def warmup(self) -> list[Item]:
        return [self.draw(make) for make in self.workload.warmup_makers(self)]


# -- mord-towers ---------------------------------------------------------------


def bp_item(exps: tuple[int, ...]):
    """Brieskorn-Pham sum c1*x1^e1 + ... + cn*xn^en over a seeded permutation
    of `exps`; mord = sorted exps."""

    def make(rng):
        es = rng.sample(exps, len(exps))
        text = poly_sum([(coeff(rng), power(f"x{i+1}", e)) for i, e in enumerate(es)])
        return Item(f"bp{len(es)}", text, fracs(sorted(es)))

    return make


def sheared_item(exps: tuple[int, ...], shears: dict[int, tuple[int, ...]]):
    """c1*(x1 + s1*m1)^e1 + ... : a Brieskorn-Pham sum under the triangular
    shear x_i -> x_i + s_i*m_i, where m_i is the monomial over the later
    coordinates listed in shears[i] (degree >= 2).  The shear is an
    automorphism fixing the origin, so mord is still the sorted exponents.
    The seed picks the coefficients c_i and s_i."""

    def make(rng):
        names = [f"x{i+1}" for i in range(len(exps))]
        terms = []
        for i, e in enumerate(exps):
            base = names[i]
            if i in shears:
                m = "*".join(names[j] for j in shears[i])
                c = coeff(rng, 3)
                base = f"({base} {'+' if c > 0 else '-'} {abs(c)}*{m})"
            terms.append((coeff(rng), f"{base}^{e}"))
        return Item(f"shear{len(exps)}", poly_sum(terms), fracs(sorted(exps)))

    return make


def xy_item(n: int):
    """The paper's a*x*y^n + b*y^(n+2); mord = (n+1, n+1)."""

    def make(rng):
        x, y = rng.choice((("x", "y"), ("y", "x")))
        terms = [(coeff(rng), f"{x}*{power(y, n)}"), (coeff(rng), power(y, n + 2))]
        return Item("xy", poly_sum(terms), fracs((n + 1, n + 1)))

    return make


def _monomial_text(names, gens) -> str:
    return ", ".join(
        "*".join(power(v, e) for v, e in zip(names, a) if e) for a in sorted(gens)
    )


def primary_monomial_item(pure: tuple[int, ...]):
    """Pure powers x_i^pure_i plus two seeded mixed monomials under them;
    expected invariant from the monomial oracle."""

    def make(rng):
        names = [f"x{i+1}" for i in range(len(pure))]
        gens = {tuple(p if j == i else 0 for j in range(len(pure))) for i, p in enumerate(pure)}
        while len(gens) < len(pure) + 2:
            gens.add(tuple(rng.randint(1, p - 1) for p in pure))
        return Item(f"mono{len(pure)}", _monomial_text(names, gens), "oracle")

    return make


def random_monomial_item(n: int, top: int, names=None):
    """Two or three seeded monomials in n variables with exponents <= top;
    expected invariant from the monomial oracle."""
    names = names or [f"x{i+1}" for i in range(n)]

    def make(rng):
        gens, k = set(), rng.randint(2, 3)
        while len(gens) < k:
            a = tuple(rng.randint(0, top) for _ in range(n))
            if any(a):
                gens.add(a)
        return Item(f"mono{n}", _monomial_text(names, gens), "oracle")

    return make


class MordTowers:
    """parse_ideal -> invariant.multiorder -> invariant_json, no repeats.

    Every cycle holds the same sizes and shapes (exponent tuples, shears,
    n of the xy family, monomial shapes), covering n = 2..6 and e = 4..9;
    the seed picks the variable order, the coefficients and the mixed
    monomials.  Shears come in both exponent orders: with the smallest
    exponent on a sheared coordinate the contact aligns, with it on an
    unsheared later coordinate the engine answers ContactAlignmentError,
    which counts as a refusal.
    """

    name = "mord-towers"
    unique = True
    trace_cycles = 3
    BP = ((4, 9), (5, 7), (6, 8), (4, 6, 8), (5, 5, 7), (4, 5, 6, 6), (4, 4, 5, 5, 5), (4,) * 6)
    SHEAR = (  # (exponents, {sheared coordinate: monomial coordinates})
        ((5, 8), {0: (1, 1)}),
        ((8, 5), {0: (1, 1)}),
        ((4, 5, 7), {0: (1, 2), 1: (2, 2, 2)}),
        ((4, 5, 6), {0: (1, 2), 1: (2, 2)}),
        ((6, 5, 4), {0: (1, 2), 1: (2, 2)}),
        ((4, 4, 5, 5), {0: (2, 3), 1: (3, 3)}),
        ((4,) * 5, {0: (1, 4), 2: (3, 3)}),
    )
    XY = (3, 6, 10)

    def cycle_makers(self, stream):
        return (
            [bp_item(e) for e in self.BP]
            + [sheared_item(e, m) for e, m in self.SHEAR]
            + [xy_item(n) for n in self.XY]
            + [primary_monomial_item((5, 7)), primary_monomial_item((3, 4, 5))]
            + [random_monomial_item(3, 3)]
        )

    def warmup_makers(self, stream):
        return [
            bp_item((4, 5)),
            sheared_item((4, 5), {0: (1, 1)}),
            xy_item(4),
            random_monomial_item(2, 3),
        ]

    def call(self, wr, item):
        ideal = wr.textio.parse_ideal(item.payload)
        return wr.textio.invariant_json(wr.invariant.multiorder(ideal))

    def check(self, wr, item, out):
        expect = item.expect
        if expect == "oracle":
            expect = wr.invariant.monomial_center_oracle(
                wr.textio.parse_ideal(item.payload)
            ).mord.entries
        return OK if fracs(out["mord"]) == tuple(expect) else WRONG

    def digest(self, out):
        return json.dumps(out, sort_keys=True)


# -- resolve-drivers -----------------------------------------------------------

DONE = ("principalized", "resolved")
GIVE_UP = ("resource-capped", "irrational-point", "stopped-generic-point")

# paper examples: (ideal, driver, codim, step-1 mord or None, status)
FLAGSHIPS = (
    ("x^5 + x^3*y^3 + y^7", "principalize", None, (5, 7), "principalized"),
    ("x*y^2 + y^4", "principalize", None, (3, 3), "principalized"),
    ("x^4, x*y^4, x^2*y*z^2", "principalize", None, ("4", "16/3", "32/5"), "principalized"),
    ("x^2 - y^3", "embedded", 1, (2, 3), "resolved"),
    ("x^2, y^2, x*y*z", "embedded", 2, (2, 2), "stopped-generic-point"),
    ("(x^2 - 2*y^2)^2 + y^7", "principalize", None, None, "irrational-point"),
)


def curve_item(driver):
    """x^a - y^b; step-1 mord = (a, b)."""

    def make(rng):
        a = rng.randint(2, 7)
        b = rng.randint(a + 1, a + 6)
        codim = 1 if driver == "embedded" else None
        return Item("curve", (f"x^{a} - y^{b}", driver, codim), (fracs((a, b)), None))

    return make


def mixed_item(driver, sizes=((3, 6), (1, 5))):
    """x^a + k*x^c*y^d + y^b with c/a + d/b > 1: the middle term lies above
    the Newton segment, so step-1 mord = (a, b).  sizes bounds a and b - a."""

    def make(rng):
        a = rng.randint(*sizes[0])
        b = a + rng.randint(*sizes[1])
        pairs = [
            (c, d) for c in range(1, a) for d in range(1, b) if c * b + d * a > a * b
        ]
        c, d = rng.choice(pairs)
        text = poly_sum([(1, f"x^{a}"), (coeff(rng, 5), f"{power('x', c)}*{power('y', d)}"), (1, f"y^{b}")])
        codim = 1 if driver == "embedded" else None
        return Item("mixed", (text, driver, codim), (fracs((a, b)), None))

    return make


def surface_item(driver):
    """x^a + y^b + z^c; step-1 mord = sorted (a, b, c)."""

    def make(rng):
        es = [rng.randint(2, 5) for _ in range(3)]
        text = " + ".join(f"{v}^{e}" for v, e in zip("xyz", es))
        codim = 1 if driver == "embedded" else None
        return Item("surface", (text, driver, codim), (fracs(sorted(es)), None))

    return make


def driver_monomial_item(rng):
    """A small monomial ideal under principalize; step-1 mord from the oracle."""
    n = rng.randint(2, 3)
    text = random_monomial_item(n, 3, "xyz"[:n])(rng).payload
    return Item("mono", (text, "principalize", None), ("oracle", None))


class ResolveDrivers:
    """parse_ideal -> principalize or embedded_resolve -> trace_json."""

    name = "resolve-drivers"
    unique = False
    trace_cycles = 8

    def cycle_makers(self, stream):
        # one paper example per cycle, in turn
        text, driver, codim, mord, status = FLAGSHIPS[stream.cycles % len(FLAGSHIPS)]
        flagship = Item(
            "flagship",
            (text, driver, codim),
            (fracs(mord) if mord else None, status),
        )
        return [
            curve_item("principalize"),
            curve_item("principalize"),
            curve_item("embedded"),
            mixed_item("principalize"),
            mixed_item("principalize"),
            mixed_item("embedded"),
            surface_item("principalize"),
            surface_item("embedded"),
            driver_monomial_item,
            driver_monomial_item,
            lambda rng: flagship,
        ]

    def warmup_makers(self, stream):
        small = ((3, 3), (2, 2))
        return [mixed_item("principalize", small), mixed_item("embedded", small)]

    def call(self, wr, item):
        text, driver, codim = item.payload
        ideal = wr.textio.parse_ideal(text)
        if driver == "principalize":
            trace = wr.blowup.principalize(ideal)
        else:
            trace = wr.blowup.embedded_resolve(ideal, codim)
        return trace, wr.textio.trace_json(trace)

    def check(self, wr, item, out):
        trace, doc = out
        mord, status = item.expect
        if doc["status"] != trace.status or trace.status not in DONE + GIVE_UP:
            return WRONG
        if status is not None and trace.status != status:
            return WRONG
        if mord == "oracle":
            mord = wr.invariant.monomial_center_oracle(
                wr.textio.parse_ideal(item.payload[0])
            ).mord.entries
        if mord is not None and trace.steps and fracs(doc["steps"][0]["mord"]) != tuple(mord):
            return WRONG
        if trace.status in GIVE_UP:
            return REFUSED
        if not trace.steps or not wr.blowup.invariant_drop_check(trace):
            return WRONG
        return OK

    def digest(self, out):
        return json.dumps(out[1], sort_keys=True)


# -- cli-corpus ----------------------------------------------------------------

KNOWN_CRASHES = (("mord", "1/0*x"), ("rees", "[x^2,y^3]", "--root", "0"))
PARSE_ERRORS = (
    ("mord", "x^^2"),
    ("mord", "x^2+"),
    ("center", "(x+y"),
    ("round", "[x^2, y^3"),
    ("tube", "(2,"),
    ("principalize", "x^2 -* y^3"),
    ("mord", "x^2 + y^3)"),
)
DOMAIN_ERRORS = (
    ("tube", "(1/2, 3)"),
    ("mord", "0"),
    ("staircase", "(2, 3, 4)"),
    ("rees", "[x^5, y^7]", "--root", "3"),
    ("embed-resolve", "x^2 - y^3", "--codim", "0"),
    ("tube", "(3, 2)"),
    ("round", "[x^2, y^0]"),
    ("tschirnhaus", "x^2 + y^3", "[x^3, y^3]"),
)
FLAGSHIP_ROUND = {"x^5", "x^4*y^2", "x^3*y^3", "x^2*y^5", "x*y^6", "y^8"}
FLAGSHIP_REES = {"x^5", "x^4*y^2", "x^3*y^3", "x^2*y^5", "x*y^6", "y^7"}
WORKED_MORD = (
    ("x^5+x^3*y^3+y^7", (5, 7)),
    ("x^5+x^3*y^3+y^8", (5, "15/2")),
    ("x^4, x*y^4, x^2*y*z^2", (4, "16/3", "32/5")),
)


def _mord_is(expect):
    expect = fracs(expect)
    return lambda wr, doc: fracs(doc["mord"]) == expect


def _center_is(expect):
    expect = fracs(expect)
    return lambda wr, doc: (
        fracs(doc["mord"]) == expect
        and not doc["center"]["s"]
        and fracs(t["exp"] for t in doc["center"]["t"]) == expect
    )


def _trace_is(status, mord):
    mord = fracs(mord)
    return lambda wr, doc: doc["status"] == status and fracs(doc["steps"][0]["mord"]) == mord


def _certificate_is(expect):
    def check(wr, doc):
        cert = doc["certificate"]
        if expect is None:
            return cert is None
        return cert is not None and fracs(t["exp"] for t in cert["center"]["t"]) == fracs(expect)

    return check


def _generators_are(expected: set[frozenset]):
    return lambda wr, doc: {monomial_key(g) for g in doc["generators"]} == expected


def _tube_is(width, rank):
    width = fracs(width)
    return lambda wr, doc: doc["rank"] == rank and fracs(doc["width"]) == width


def _rees_is(expected: dict[str, set[frozenset]]):
    return lambda wr, doc: set(doc) == set(expected) and all(
        {monomial_key(g) for g in doc[k]} == v for k, v in expected.items()
    )


def _staircase_is(ds):
    gens, dots = len(minimal_exponents(ds)), complement_count(ds)

    def check(wr, doc):
        grid = [line.split()[1:] for line in doc.splitlines()[1:-2]]
        return sum(r.count("G") for r in grid) == gens and sum(
            r.count(".") for r in grid
        ) == dots

    return check


def _mord_oracle(text):
    def check(wr, doc):
        oracle = wr.invariant.monomial_center_oracle(wr.textio.parse_ideal(text))
        return fracs(doc["mord"]) == oracle.mord.entries

    return check


def _width(rng, k):
    return sorted(rng.randint(2, 5) for _ in range(k))


def _fmt_width(ds) -> str:
    return "(" + ", ".join(str(Fraction(d)) for d in ds) + ")"


def _fmt_center(names, ds) -> str:
    parts = []
    for v, d in zip(names, fracs(ds)):
        parts.append(f"{v}^{d}" if d.denominator == 1 else f"{v}^({d})")
    return "[" + ", ".join(parts) + "]"


def _bp_text(rng, n):
    es = [rng.randint(2, 6) for _ in range(n)]
    return poly_sum([(coeff(rng, 5), power(v, e)) for v, e in zip("xyz", es)]), sorted(es)


def c_mord_worked(text, mord):
    return lambda rng: Item("mord", ("mord", text), _mord_is(mord))


def c_mord_bp(rng):
    text, es = _bp_text(rng, rng.randint(2, 3))
    return Item("mord", ("mord", text), _mord_is(es))


def c_mord_xy(rng):
    item = xy_item(rng.randint(2, 12))(rng)
    return Item("mord", ("mord", item.payload), _mord_is(item.expect))


def c_mord_mono(rng):
    text = random_monomial_item(2, 4)(rng).payload
    return Item("mord", ("mord", text), _mord_oracle(text))


def c_center_worked(rng):
    return Item("center", ("center", "x^5+x^3*y^3+y^8"), _center_is((5, "15/2")))


def c_center_bp(rng):
    text, es = _bp_text(rng, rng.randint(2, 3))
    return Item("center", ("center", text), _center_is(es))


def c_center_xy(rng):
    item = xy_item(rng.randint(2, 12))(rng)
    return Item("center", ("center", item.payload), _center_is(item.expect))


def c_round_worked(rng):
    expect = {monomial_key(m) for m in FLAGSHIP_ROUND}
    return Item("round", ("round", "[x^5, y^(15/2)]"), _generators_are(expect))


def c_round_seeded(k):
    def make(rng):
        names = "xyz"[:k]
        ds = _width(rng, k)
        if rng.random() < 0.5:
            ds[-1] = Fraction(2 * ds[-1] + 1, 2)
        expect = monomial_set(names, minimal_exponents(ds))
        return Item("round", ("round", _fmt_center(names, ds)), _generators_are(expect))

    return make


def c_tsch_canonical(rng):
    argv = ("tschirnhaus", "x^5+x^3*y^3+y^7", "[x^5, y^7]")
    return Item("tschirnhaus", argv, _certificate_is((5, 7)))


def c_tsch_not_canonical(rng):
    # admissible but not canonical: no certificate
    argv = ("tschirnhaus", "x^5+x^3*y^3+y^7", "[x^4, y^7]")
    return Item("tschirnhaus", argv, _certificate_is(None))


def c_tsch_bp(make_flag):
    def make(rng):
        a = rng.randint(2, 6)
        b = rng.randint(a + 1, a + 4)
        argv = ("tschirnhaus", f"x^{a} + y^{b}", f"[x^{a}, y^{b}]") + ("--make",) * make_flag
        return Item("tschirnhaus", argv, _certificate_is((a, b)))

    return make


def c_principalize_worked(rng):
    return Item(
        "principalize",
        ("principalize", "x^5 + x^3*y^3 + y^7"),
        _trace_is("principalized", (5, 7)),
    )


def c_principalize_curve(rng):
    a = rng.randint(2, 4)
    b = rng.randint(a + 1, 6)
    return Item("principalize", ("principalize", f"x^{a} - y^{b}"), _trace_is("principalized", (a, b)))


def c_embed_worked(rng):
    return Item(
        "embed-resolve",
        ("embed-resolve", "x^2, y^2, x*y*z", "--codim", "2"),
        _trace_is("stopped-generic-point", (2, 2)),
    )


def c_embed_curve(rng):
    a = rng.randint(2, 4)
    b = rng.randint(a + 1, 7)
    return Item(
        "embed-resolve",
        ("embed-resolve", f"x^{a} - y^{b}", "--codim", "1"),
        _trace_is("resolved", (a, b)),
    )


def c_tube_worked(rng):
    return Item("tube", ("tube", "(5,7)"), _tube_is((5, 7), 23))


def c_tube_width(rng):
    ds = _width(rng, rng.randint(1, 3))
    return Item("tube", ("tube", _fmt_width(ds)), _tube_is(ds, complement_count(ds)))


def c_tube_fraction(ds):
    ds = fracs(ds)
    return lambda rng: Item("tube", ("tube", _fmt_width(ds)), _tube_is(ds, complement_count(ds)))


def c_tube_center(rng):
    a = rng.randint(2, 4)
    b = rng.randint(a, 6)
    return Item("tube", ("tube", f"[x^{a}, y^{b}]"), _tube_is((a, b), complement_count((a, b))))


def c_rees_worked(rng):
    expect = {"35": {monomial_key(m) for m in FLAGSHIP_REES}}
    return Item("rees", ("rees", "[x^5, y^7]", "--root", "35", "--degree", "35"), _rees_is(expect))


def c_rees_seeded(full):
    def make(rng):
        a = rng.randint(2, 4)
        b = rng.randint(a, 5)
        N = a * b // math.gcd(a, b)
        degrees = range(N + 1) if full else [rng.randint(0, N)]
        expect = {
            str(n): monomial_set("xy", minimal_exponents((a, b), Fraction(n, N)))
            for n in degrees
        }
        argv = ("rees", f"[x^{a}, y^{b}]", "--root", str(N))
        if not full:
            argv += ("--degree", str(degrees[0]))
        return Item("rees", argv, _rees_is(expect))

    return make


def c_staircase_seeded(rng):
    a = rng.randint(2, 6)
    b = rng.randint(a, 8)
    return Item("staircase", ("staircase", f"({a},{b})"), _staircase_is((a, b)))


def c_staircase_worked(rng):
    return Item("staircase", ("staircase", "(5,15/2)"), _staircase_is((5, "15/2")))


def c_known_crash(rng):
    return Item("malformed", rng.choice(KNOWN_CRASHES), None)


def c_parse_error(rng):
    return Item("malformed", rng.choice(PARSE_ERRORS), None)


def c_domain_error(rng):
    return Item("malformed", rng.choice(DOMAIN_ERRORS), None)


BATCH_LINES = (c_mord_bp, c_tube_width, c_round_seeded(2), c_staircase_seeded)


class CliCorpus:
    """In-process cli.main(argv) with stdout captured."""

    name = "cli-corpus"
    unique = False
    trace_cycles = 4

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def batch_maker(self, rng):
        lines = [rng.choice(BATCH_LINES)(rng) for _ in range(2)]
        text = "".join(
            " ".join(json.dumps(a) for a in item.payload) + "\n" for item in lines
        )
        name = hashlib.sha1(text.encode()).hexdigest()[:16]
        path = self.workdir / f"batch-{name}.txt"
        if not path.exists():
            self.workdir.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return Item("batch", ("batch", str(path)), tuple(item.expect for item in lines))

    def cycle_makers(self, stream):
        return [
            *(c_mord_worked(text, mord) for text, mord in WORKED_MORD),
            c_mord_bp, c_mord_xy, c_mord_mono,
            c_center_worked, c_center_bp, c_center_bp, c_center_xy,
            c_round_worked, c_round_seeded(2), c_round_seeded(3), c_round_seeded(2),
            c_tsch_canonical, c_tsch_not_canonical, c_tsch_bp(False), c_tsch_bp(True),
            c_principalize_worked, c_principalize_curve,
            c_embed_worked, c_embed_curve,
            c_tube_worked, c_tube_width, c_tube_center,
            c_tube_fraction((5, "15/2")), c_tube_fraction((4, "16/3", "32/5")),
            c_rees_worked, c_rees_seeded(False), c_rees_seeded(False), c_rees_seeded(True),
            c_staircase_seeded, c_staircase_seeded, c_staircase_worked,
            self.batch_maker, self.batch_maker,
            c_known_crash, c_known_crash, c_parse_error, c_domain_error,
        ]  # fmt: skip

    def warmup_makers(self, stream):
        return [
            c_mord_bp, c_center_bp, c_round_seeded(2), c_tsch_bp(True),
            c_principalize_curve, c_embed_curve, c_tube_width, c_rees_seeded(False),
            c_staircase_seeded, self.batch_maker, c_parse_error,
        ]  # fmt: skip

    def call(self, wr, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = wr.cli.main(list(item.payload))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def _documents(text: str) -> list:
        decoder, docs, pos = json.JSONDecoder(), [], 0
        text = text.strip()
        while pos < len(text):
            doc, pos = decoder.raw_decode(text, pos)
            docs.append(doc)
            while pos < len(text) and text[pos].isspace():
                pos += 1
        return docs

    def check(self, wr, item, out):
        code, text = out
        try:
            docs = self._documents(text)
        except ValueError:
            return WRONG
        is_error = len(docs) == 1 and isinstance(docs[0], dict) and "error" in docs[0]
        if item.family == "malformed":
            return OK if code in (1, 2) and is_error else WRONG
        if code in (1, 2) and is_error:
            return REFUSED
        checks = item.expect if item.family == "batch" else (item.expect,)
        if code != 0 or len(docs) != len(checks):
            return WRONG
        return OK if all(check(wr, doc) for check, doc in zip(checks, docs)) else WRONG

    def digest(self, out):
        return json.dumps(out)


def make_workloads(workdir: Path) -> dict:
    return {w.name: w for w in (MordTowers(), ResolveDrivers(), CliCorpus(workdir))}
