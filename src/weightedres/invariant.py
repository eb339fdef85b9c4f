"""The multiorder invariant and canonical center of an ideal at the origin.

The computation runs a marked-collection recursion.  A marked collection is
a list of (ideal, weight) pairs; its order is

    delta(M) = min over entries of ord(ideal) / weight.

Starting from M_1 = {(I, 1)}, level i reads off d_i = delta(M_i), picks an
order-one element of the (ord-1)-st derivative ideal of the minimizing entry
(the maximal contact), aligns it to a coordinate by a triangular change, and
restricts the derivative tower of every entry to that hyperplane:

    M_{i+1} = { (D^j(J)|_{v_i=0}, w - j/d_i) : (J, w) in M_i, w - j/d_i > 0 }.

Zero entries are dropped; the recursion stops when the collection empties,
and then mord = (d_1, ..., d_n) with center [v_1^{d_1}, ..., v_n^{d_n}]
through the accumulated change.  The weight bookkeeping keeps every level's
order directly readable as d_i, avoiding factorial renormalizations.

Dominated entries are merged: of the entries sharing one ideal, only the
first of largest weight survives, in its own position.  Everything later
depends on the ideal alone, so a lighter copy's descendants are the
heavier copy's with smaller weights and never attain delta, and a tie's
later copy always trails its twin; delta, the minimizer, the contact and
the center are unchanged (see `_merge_dominated`).  Derivative towers are
memoized for the duration of one call, keyed by the ordered generator
tuple, so the contact search and the restriction loop share D^{o-1}(J0).

Contact choice is deterministic: derivative-ideal generators are scanned in
construction order and the first usable degree-one candidate wins, with ties
broken by ambient variable order.  A contact that cannot be written as
(variable + tail free of that variable), or as variable * unit, cannot be
aligned polynomially and raises a typed error instead of guessing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .centers import AlignStep, CenterPresentation, CoordinateChange
from .errors import (
    ContactAlignmentError,
    DomainError,
    NoContactError,
)
from .lattice import GT, MultiOrder, is_in_mord, mord_compare
from .poly import INFINITY, Polynomial, PolyIdeal, fresh_name


class MarkedIdealCollection:
    """Weighted list of ideals over one ambient; zero ideals are dropped."""

    __slots__ = ("variables", "entries")

    def __init__(
        self, variables: Iterable[str], entries: Iterable[tuple[PolyIdeal, Fraction]]
    ):
        vs = tuple(variables)
        kept = []
        for ideal, weight in entries:
            if ideal.variables != vs:
                raise DomainError("marked entry ambient mismatch")
            w = Fraction(weight)
            if w <= 0:
                raise DomainError("marked weights must be positive")
            if ideal.is_zero():
                continue
            kept.append((ideal, w))
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "entries", tuple(kept))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MarkedIdealCollection is immutable")

    def __len__(self) -> int:
        return len(self.entries)


def delta(M: MarkedIdealCollection) -> Fraction | float:
    """min of ord/weight over the entries; +inf when the collection is empty."""
    best: Fraction | float = INFINITY
    for ideal, weight in M.entries:
        value = ideal.order() / weight
        if value < best:
            best = value
    return best


@dataclass(frozen=True)
class ContactStep:
    """Record of one recursion level: invariant entry and aligning data."""

    level: int
    order: Fraction
    contact: Polynomial  # in the coordinates current at that level
    variable: str
    step: AlignStep | None  # None when the contact was already a variable


@dataclass(frozen=True)
class InvariantResult:
    mord: MultiOrder
    center: CenterPresentation | None
    chain: tuple[ContactStep, ...]


def _align_contact(g: Polynomial) -> tuple[str, AlignStep | None, Polynomial]:
    """Normalize a degree-one candidate into an aligned coordinate.

    Preference order per candidate: a linear variable absent from the
    nonlinear support (classic  v + tail  shape), then the pure-multiple
    shape  v * unit  which cuts out the same hyperplane germ as v itself.
    Returns (variable, elementary step or None, normalized contact).
    """
    lin = g.linear_part()
    nonlin = g.nonlinear_support()
    for v in g.variables:
        c = lin.get(v)
        if c is None:
            continue
        if v not in nonlin:
            normalized = g.scale(Fraction(1) / c)
            tail = normalized - Polynomial.variable(v, g.variables)
            if tail.is_zero():
                return v, None, normalized
            return v, AlignStep(v, Fraction(1), tail), normalized
    for v in g.variables:
        if v in lin and g.min_power_of(v) >= 1:
            # g = v * (unit): same hyperplane germ, take the variable itself
            return v, None, Polynomial.variable(v, g.variables)
    raise ContactAlignmentError(
        f"no polynomially alignable contact in {g}: the candidate's linear "
        "variables all reappear in its nonlinear part"
    )


def _choose_contact(dd: PolyIdeal) -> tuple[str, AlignStep | None, Polynomial]:
    """Align the first usable degree-one generator of dd = D^{o-1}(J).

    Generators are scanned in construction order; when none aligns, the
    last candidate's ContactAlignmentError is raised.
    """
    last_error: ContactAlignmentError | None = None
    for g in dd.generators:
        if not g.linear_part():
            continue
        try:
            return _align_contact(g)
        except ContactAlignmentError as err:
            last_error = err
    raise last_error or ContactAlignmentError(
        "no degree-one element found in the derivative ideal"
    )


def maximal_contact(I: PolyIdeal, d: int) -> Polynomial:
    """An order-one element of D^{d-1}(I), normalized and deterministic."""
    if d < 1:
        raise NoContactError("a unit ideal has no maximal contact")
    if I.order() != d:
        raise DomainError(f"ideal has order {I.order()}, expected {d}")
    return _choose_contact(I.derivative_ideal(d - 1))[2]


_Towers = dict[tuple[Polynomial, ...], list[PolyIdeal]]


def _tower_level(towers: _Towers, J: PolyIdeal, k: int) -> PolyIdeal:
    """D^k(J), each step built at most once per generator tuple.

    The key is the ordered generator tuple rather than PolyIdeal equality,
    which ignores order: the contact choice scans generators in order.
    """
    levels = towers.setdefault(J.generators, [J])
    while len(levels) <= k:
        levels.append(levels[-1].derivative_extend())
    return levels[k]


def _merge_dominated(
    entries: list[tuple[PolyIdeal, Fraction]],
) -> list[tuple[PolyIdeal, Fraction]]:
    """Drop every entry whose ideal recurs with a larger weight, or with the
    same weight at an earlier position; survivors keep their own positions.

    Sound because all later data depend only on the ideal: orders,
    derivative ideals and restrictions to the contact hyperplane are
    ideal-theoretic.  A dropped copy (J, w) has a kept twin (J, w') with
    w' >= w, and each descendant of the copy, (D^j(J)|..., w - s), has the
    twin descendant (D^j(J)|..., w' - s), which exists whenever the first
    does.  With w' > w the copy's descendant has the larger ord/weight, so
    it never attains delta; with w' = w the twin precedes it in the list.
    Either way no level's delta, emptiness or first minimizer changes, and
    neither do the contact, the chain or the center.
    """
    best: dict[PolyIdeal, tuple[Fraction, int]] = {}
    for i, (J, w) in enumerate(entries):
        kept = best.get(J)
        if kept is None or w > kept[0]:
            best[J] = (w, i)
    keep = {i for _, i in best.values()}
    return [entry for i, entry in enumerate(entries) if i in keep]


def multiorder(I: PolyIdeal) -> InvariantResult:
    """Compute mord(I) and the canonical center at the origin.

    The unit ideal gets the zero invariant and no center.  The zero ideal is
    rejected.  The returned exponent tuple always satisfies the witness
    condition; this is asserted rather than assumed.
    """
    if I.is_zero():
        raise DomainError("the zero ideal has no multiorder")
    if I.is_unit_at_origin():
        return InvariantResult(MultiOrder.zero(), None, ())
    ambient = I.variables
    change = CoordinateChange.identity(ambient)
    entries: list[tuple[PolyIdeal, Fraction]] = [(I, Fraction(1))]
    ds: list[Fraction] = []
    coords: list[str] = []
    chain: list[ContactStep] = []
    towers: _Towers = {}

    # each level restricts one more variable to zero and every child keeps
    # positive order, so the collection is empty after len(ambient) levels
    for level in itertools.count(1):
        collection = MarkedIdealCollection(ambient, entries)
        d = delta(collection)
        if d == INFINITY:
            break
        d = Fraction(d)
        minimizer = next(
            (J, w) for J, w in collection.entries if J.order() / w == d
        )
        J0, w0 = minimizer
        o = J0.order()
        assert o == d * w0 and Fraction(o).denominator == 1

        var, step, contact = _choose_contact(_tower_level(towers, J0, int(o) - 1))

        aligned = list(collection.entries)
        if step is not None:
            aligned = [(step.apply_aligned(J), w) for J, w in aligned]
            change = change.then(step)
        ds.append(d)
        coords.append(var)
        chain.append(ContactStep(level, d, contact, var, step))

        children: list[tuple[PolyIdeal, Fraction]] = []
        for J, w in aligned:
            j = 0
            while w - Fraction(j) / d > 0:
                restricted = _tower_level(towers, J, j).restrict(var)
                if not restricted.is_zero():
                    children.append((restricted, w - Fraction(j) / d))
                j += 1
        entries = _merge_dominated(children)

    mord = MultiOrder(ds)
    if not is_in_mord(mord):
        raise DomainError(
            f"computed invariant {mord} fails the witness condition; "
            "this indicates an input outside the supported class"
        )
    center = CenterPresentation(ambient, change, tuple(coords), mord)
    return InvariantResult(mord, center, tuple(chain))


# -- independent brute-force oracle for monomial ideals ----------------------


def _prefix_slacks(prefix: tuple[Fraction, ...], cache: dict) -> tuple[Fraction, ...]:
    """All positive values 1 - sum a_j/d_j over the natural witness box, memoized in `cache`."""
    cached = cache.get(prefix)
    if cached is not None:
        return cached
    slacks: set[Fraction] = set()
    boxes = [range(int(d) + 1) for d in prefix]

    def rec(j: int, used: Fraction):
        if used > 1:
            return
        if j == len(prefix):
            if used < 1:
                slacks.add(1 - used)
            return
        for a in boxes[j]:
            rec(j + 1, used + Fraction(a) / prefix[j])

    rec(0, Fraction(0))
    result = tuple(sorted(slacks))
    cache[prefix] = result
    return result


def _ascending_candidates(slacks: tuple[Fraction, ...], lower: Fraction):
    """Yield, in ascending order, every possible next entry after the prefix.

    A usable next entry d_i must satisfy a witness equation
    sum_{j<i} a_j/d_j + a_i/d_i = 1 with a_i >= 1, so the candidates are
    exactly a_i/slack over the finitely many positive slacks of the prefix.
    The stream is infinite; the caller stops it via a monotone break.
    """
    if not slacks:
        return
    # per-slack pointers into the arithmetic progressions a/s, a = 1, 2, ...
    nexts = []
    for s in slacks:
        a = max(1, math.ceil(lower * s))
        while Fraction(a) / s < lower:
            a += 1
        nexts.append(a)
    emitted: set[Fraction] = set()
    while True:
        best_i = min(range(len(slacks)), key=lambda i: Fraction(nexts[i]) / slacks[i])
        value = Fraction(nexts[best_i]) / slacks[best_i]
        nexts[best_i] += 1
        if value in emitted:
            continue
        emitted.add(value)
        yield value


def _monomial_nu(exps, assignment: dict[int, Fraction]) -> Fraction:
    total = Fraction(0)
    for i, d in assignment.items():
        total += Fraction(exps[i]) / d
    return total


def monomial_center_oracle(I: PolyIdeal) -> InvariantResult:
    """Brute-force canonical center of a monomial ideal.

    Enumerates variable subsets and weight tuples generated by the witness
    equation, keeps the admissible integral ones, and returns the largest
    under the invariant order.  The enumeration never extends an already
    admissible prefix, because under the shorter-is-greater convention an
    extension only lowers the invariant.  Used to validate `multiorder`.
    """
    if not I.is_monomial():
        raise DomainError("the oracle only accepts monomial ideals")
    if I.is_unit_at_origin():
        return InvariantResult(MultiOrder.zero(), None, ())
    exps = I.monomial_exponents()
    nvars = len(I.variables)

    best: tuple[MultiOrder, tuple[int, ...]] | None = None
    slack_cache: dict[tuple[Fraction, ...], tuple[Fraction, ...]] = {}

    def admissible(assignment: dict[int, Fraction]) -> bool:
        return all(_monomial_nu(e, assignment) >= 1 for e in exps)

    def feasible_with_tail(assignment: dict[int, Fraction], d: Fraction) -> bool:
        # most generous completion: every unused variable weighted d
        # (increasing tuples force later weights >= d, which only lower nu)
        trial = dict(assignment)
        for i in range(nvars):
            trial.setdefault(i, d)
        return admissible(trial)

    def consider(order_vars: tuple[int, ...], ds: tuple[Fraction, ...]):
        nonlocal best
        m = MultiOrder(ds)
        if not is_in_mord(m):
            return
        if best is None or mord_compare(m, best[0]) == GT:
            best = (m, order_vars)

    def decided_smaller(prefix: tuple[Fraction, ...]) -> bool:
        # lexicographically below the incumbent already at some position:
        # no extension can recover (extensions only append entries)
        if best is None:
            return False
        for p, b in zip(prefix, best[0].entries):
            if p < b:
                return True
            if p > b:
                return False
        return False

    def rec(order_vars: tuple[int, ...], ds: tuple[Fraction, ...]):
        assignment = {i: d for i, d in zip(order_vars, ds)}
        if ds and admissible(assignment):
            # a proper truncation of the canonical center is never
            # admissible, so stopping at first admissibility is complete;
            # extending would only lower the invariant
            consider(order_vars, ds)
            return
        if len(ds) == nvars:
            return
        lower = ds[-1] if ds else Fraction(1)
        feasible_cands: list[Fraction] = []
        for cand in _ascending_candidates(_prefix_slacks(ds, slack_cache), lower):
            if any(
                i not in assignment
                and feasible_with_tail({**assignment, i: cand}, cand)
                for i in range(nvars)
            ):
                feasible_cands.append(cand)
            elif cand > lower:
                # feasibility is monotone decreasing in the candidate value
                break
        # descend from the largest candidate so the incumbent binds early
        for cand in reversed(feasible_cands):
            if decided_smaller(ds + (cand,)):
                continue
            for i in range(nvars):
                if i in assignment:
                    continue
                if ds and cand == ds[-1] and i < order_vars[-1]:
                    continue  # tie block: permutations give the same weights
                if not feasible_with_tail({**assignment, i: cand}, cand):
                    continue
                rec(order_vars + (i,), ds + (cand,))

    rec((), ())
    if best is None:
        raise DomainError(f"no admissible integral center found for {I}")
    m, order_vars = best
    coords = tuple(I.variables[i] for i in order_vars)
    center = CenterPresentation(
        I.variables, CoordinateChange.identity(I.variables), coords, m
    )
    return InvariantResult(m, center, ())


def reembedding_check(I: PolyIdeal, c: int) -> bool:
    """mord(I + (s_1, ..., s_c)) must equal (1, ..., 1, mord(I))."""
    if c < 1:
        raise DomainError("re-embedding needs at least one fresh variable")
    base = multiorder(I).mord
    ambient = list(I.variables)
    fresh = []
    for k in range(1, c + 1):
        fresh.append(fresh_name(f"s{k}", ambient + fresh))
    big = fresh + ambient
    gens = [Polynomial.variable(s, big) for s in fresh]
    gens += I.extend_ambient(big).generators
    extended = multiorder(PolyIdeal(big, gens)).mord
    if base.is_zero():
        # a unit ideal stays a unit ideal; the principle degenerates
        return extended.is_zero()
    expected = MultiOrder((Fraction(1),) * c + base.entries)
    return extended == expected
