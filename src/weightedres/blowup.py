"""Weighted blowup charts and the principalization / resolution drivers.

For a center [u_1^{d_1}, ..., u_m^{d_m}] and a multiple N of the least root
order L of its grading (L, w_L), chart k of the stacky N-th root blowup
substitutes

    u_k -> s^{w_k},     u_j -> s^{w_j} * u_j'   (j != k),     w = (N/L) * w_L,

on the aligned coordinates, with s the exceptional coordinate and the chart
carrying a residual action of order w_k (recorded, not quotiented: the
grading is checked symbolically instead).  This is a monomial map, so a
transform aligns the whole ideal in one pass and then, like a chart
transition, acts on exponent vectors without multiplying polynomials.  The
same map divides by the exceptional coordinate: the controlled transform
subtracts N from every s-exponent, the strict transform the least
s-exponent of each generator, and the degree cap sees only the terms that
are kept.

The principalization driver repeats: compute the canonical center at every
tracked rational point, blow up, transform, and record the invariant, until
all transforms are unit ideals.  A step aligns its ideal once and reads each
chart's transform and recorded substitution off those exponent vectors.
Tracked points are chart origins plus the rational zeros of the transform on
the exceptional divisor found by root search on each distinct axis profile;
a singular continuation point with no rational representative stops the run
with a typed status rather than passing.  The fiber is searched on integer
coefficients: the s-free terms of each transform generator are read once
into a primitive integer term map, and the root search, the repeated-factor
test, the eliminants and the check of each candidate point run on those
maps without Fraction arithmetic.  A one-coordinate weight-one center cuts
out a regular hypersurface, whose blowup is an isomorphism: that step just
divides the ideal by the equation, the level-1 contact of its invariant.
The point invariants dominate the cost of a run: on the resolve-drivers
benchmark inputs `multiorder` takes about two thirds of the call time, the
fiber search about 5% and the shift of tracked points to the origin about
2.5%.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from fractions import Fraction
from typing import NamedTuple
from .centers import CenterPresentation
from .errors import (
    AdmissibilityError,
    ContactAlignmentError,
    DomainError,
    InvalidMultiOrderError,
    ResourceLimitError,
)
from .invariant import InvariantResult, multiorder
from .lattice import LT, LatticeIdeal, MultiOrder, grading, is_in_mord, mord_compare
from .poly import Polynomial, PolyIdeal, check_degree, fresh_name, int_str, monomial_str

# largest integral leading or trailing coefficient whose divisors the
# rational-root search enumerates (about 10^6 trial divisions each)
ROOT_SEARCH_BOUND = 10**12


def minimal_root(d: MultiOrder) -> int:
    """Smallest positive N with N/d_i natural for every entry."""
    if d.is_zero():
        raise InvalidMultiOrderError("the zero invariant admits no root order")
    if not is_in_mord(d):
        raise InvalidMultiOrderError(f"{d} fails the witness condition")
    return grading(d)[0]


def rees_generators(
    center: CenterPresentation, N: int, degree: int | None = None
) -> dict[int, list[tuple[int, ...]]]:
    """Graded generators of the center's N-th root Rees algebra.

    Degree n is the ideal of elements of valuation >= n/N; its monomial
    generators on the center coordinates are the minimal exponent vectors a
    with N * sum a_k/d_k >= n, the staircase of the scaled tuple d * n/N
    (degree 0 is generated by 1).  Returns {degree: minimal generators} for
    all degrees up to N (or just the requested one).  Degree n is generated
    by monomials u^a t^n, each of total degree at least n, so the degree cap
    refuses a request whose largest degree is above it before any is built.
    """
    if N < 1:
        raise DomainError(f"the root order N must be positive, got {N}")
    for e in center.exponents:
        if N % e.numerator:
            raise DomainError(f"N={N} does not clear the exponent {e}")
    if degree is not None and not 0 <= degree <= N:
        raise DomainError("Rees degrees are requested in the range 0..N")
    check_degree(N if degree is None else degree, "Rees")
    out: dict[int, list[tuple[int, ...]]] = {}
    for n in range(N + 1) if degree is None else (degree,):
        if n == 0:
            out[n] = [(0,) * len(center.exponents)]
        else:
            scaled = MultiOrder([e * Fraction(n, N) for e in center.exponents])
            out[n] = LatticeIdeal(scaled).minimal_generators()
    return out


class WeightedChart(NamedTuple):
    """One affine chart of the stacky root blowup of a center.

    The chart keeps every ambient position: the chart coordinate's position
    holds the exceptional coordinate s, every other center coordinate u_j
    becomes its primed name u_j', and the remaining variables stay.
    """

    center: CenterPresentation
    N: int
    chart_index: int
    exceptional: str
    weights: tuple[int, ...]
    ambient: tuple[str, ...]
    primes: dict[str, str]
    stabilizer_order: int
    positions: tuple[int, ...]  # of the center coordinates, in either ambient

    def _pull_aligned(self, aligned: tuple[Polynomial, ...], shift: int | None) -> PolyIdeal:
        """The chart's monomial map on aligned generators, each divided by
        s^shift (by the largest power of s it can, if None).

        On an exponent vector e it replaces the chart coordinate's entry with
        sum_j w_j * e_j - shift, the exponent of s, and keeps every other
        entry.  It is injective, so no two terms meet.  A negative s-exponent
        on any term of a generator raises AdmissibilityError; then a kept
        term whose total degree is above the degree cap raises
        ResourceLimitError, as the product that computes it would.
        """
        weighted = tuple(zip(self.positions, self.weights))
        k = self.positions[self.chart_index]
        gens = []
        for g in aligned:
            s_exp = {exp: sum(w * exp[p] for p, w in weighted) for exp in g.terms}
            least = min(s_exp.values(), default=0) if shift is None else shift
            if any(v < least for v in s_exp.values()):
                raise AdmissibilityError(
                    f"pullback of {g} is not divisible by "
                    f"{self.exceptional}^{least}: broken center"
                )
            terms = {}
            for exp, c in g.terms.items():
                e = exp[:k] + (s_exp[exp] - least,) + exp[k + 1 :]
                check_degree(sum(e))
                terms[e] = c
            gens.append(Polynomial(self.ambient, terms))
        return PolyIdeal(self.ambient, gens)


def build_charts(center: CenterPresentation, N: int) -> list[WeightedChart]:
    L, w = grading(center.exponents)
    if N % L:
        raise DomainError(f"N={N} is not a common root order for {center}")
    weights = tuple(N // L * wj for wj in w)
    positions = tuple(center.ambient.index(v) for v in center.coords)
    taken = list(center.ambient)
    s = fresh_name("s", taken)
    taken.append(s)
    drawn: dict[str, str] = {}
    for v in center.coords:
        drawn[v] = fresh_name(v + "'", taken)
        taken.append(drawn[v])
    charts = []
    for k, chart_coord in enumerate(center.coords):
        primes = {v: p for v, p in drawn.items() if v != chart_coord}
        ambient = tuple(
            s if v == chart_coord else primes.get(v, v) for v in center.ambient
        )
        charts.append(
            WeightedChart(
                center=center, N=N, chart_index=k, exceptional=s, weights=weights,
                ambient=ambient, primes=primes, stabilizer_order=weights[k],
                positions=positions,
            )
        )
    return charts


def controlled_transform(I: PolyIdeal, chart: WeightedChart, aligned=None) -> PolyIdeal:
    """Align I once, pull it back and divide exactly by s^N, s the exceptional.

    I may be written over some of the center's variables in any order, as in
    `strict_transform`.  The chart substitution is injective on monomials
    and sends an aligned monomial of valuation v to s^(N*v) times an s-free
    monomial, so no terms cancel and s^N divides a pulled-back generator
    exactly when every term has valuation >= 1.  The division therefore
    fails, with AdmissibilityError, exactly when the center is not
    admissible for I.  The charts of one blowup can share the alignment:
    `aligned`, if given, is the tuple `chart.center._aligned(I).generators`.
    """
    return chart._pull_aligned(aligned or chart.center._aligned(I).generators, chart.N)


def strict_transform(Z: PolyIdeal, chart: WeightedChart, aligned=None) -> PolyIdeal:
    """Align Z once, pull it back and saturate each generator by s.

    Z may be written over some of the center's variables in any order (one
    outside them is AmbientMismatchError).  Each generator is divided once
    by its largest power of s; generator-wise saturation is exact for
    principal and monomial ideals, which is the supported desk-scale class.
    `aligned` is as in `controlled_transform`.
    """
    return chart._pull_aligned(aligned or chart.center._aligned(Z).generators, None)


def chart_grading_ok(chart: WeightedChart, transform: PolyIdeal) -> bool:
    """Each term of a controlled transform has residual weight -N modulo the
    stabilizer order w_k.  The stabilizer acts by s -> zeta*s and
    u_j' -> zeta^(-w_j)*u_j', so the pullback is invariant and dividing it
    by s^N leaves weight -N.  On an exponent vector that weight is
    e_s - sum_{j != k} w_j * e_j, which is e_s - sum_j w_j * e_j modulo w_k,
    since s sits at the chart coordinate's position."""
    s = chart.positions[chart.chart_index]
    weighted = tuple(zip(chart.positions, chart.weights))
    return all(
        (exp[s] - sum(w * exp[p] for p, w in weighted) + chart.N) % chart.stabilizer_order == 0
        for g in transform.generators
        for exp in g.terms
    )


# -- chart transition (overlap) check ----------------------------------------


def transition_agrees(
    center: CenterPresentation, N: int, i: int, j: int, I: PolyIdeal
) -> bool:
    """Controlled transforms on charts i and j agree on the overlap.

    From chart j to chart i the transition is a monomial map with rational
    exponents: s_j = s_i * u_j'^(1/w_j), u_i'' = u_j'^(-w_i/w_j) and
    u_k'' = u_k' * u_j'^(-w_k/w_j) for the other center coordinates.  On a
    chart-j exponent vector e, s keeps its exponent, which moves to position
    i; position j gets (e_s - sum_{k != j} w_k * e_k) / w_j; every other
    entry is copied (for i = j the map is the identity).  Each transform
    generator of chart j must map to the matching generator of chart i
    times one common monomial unit.
    """
    charts = build_charts(center, N)
    Ta = controlled_transform(I, charts[i])
    Tb = controlled_transform(I, charts[j])
    w, pos = charts[i].weights, charts[i].positions

    def to_chart_i(e: tuple[int, ...]) -> tuple[Fraction, ...]:
        out: list = list(e)
        if i != j:
            rest = sum(w[k] * e[pos[k]] for k in range(len(pos)) if k != j)
            out[pos[i]], out[pos[j]] = out[pos[j]], Fraction(e[pos[j]] - rest, w[j])
        return tuple(out)

    for ga, gb in zip(Ta.generators, Tb.generators):
        lhs = {to_chart_i(e): c for e, c in gb.terms.items()}
        if len(lhs) != len(ga.terms):
            return False
        # compare up to one common monomial unit factor
        (le, lc), (re_, rc) = min(lhs.items()), min(ga.terms.items())
        shift = tuple(a - b for a, b in zip(le, re_))
        for exp, c in ga.terms.items():
            if lhs.get(tuple(a + b for a, b in zip(exp, shift))) != c * lc / rc:
                return False
    return True


# -- drivers ------------------------------------------------------------------


class TrackedPoint(NamedTuple):
    coords: tuple[tuple[str, Fraction], ...]
    mord_after: MultiOrder
    resolved: bool


class ChartRecord(NamedTuple):
    index: int
    coordinate: str
    weights: tuple[int, ...]
    exceptional: str
    substitution: tuple[tuple[str, str], ...]
    transform: PolyIdeal
    tracked: tuple[TrackedPoint, ...]


class BlowupStep(NamedTuple):
    label: str
    ideal: PolyIdeal
    mord: MultiOrder
    center: CenterPresentation | None
    N: int
    charts: tuple[ChartRecord, ...]
    note: str = ""


class DriverStatus(str, Enum):
    """How a driver run ended; the value is its JSON and text spelling."""

    PRINCIPALIZED = "principalized"
    RESOLVED = "resolved"
    RESOURCE_CAPPED = "resource-capped"
    IRRATIONAL_POINT = "irrational-point"
    STOPPED_GENERIC_POINT = "stopped-generic-point"


class PrincipalizationTrace:
    """A driver run: its mode, how it ended, and its steps in order."""

    def __init__(self, mode: str, status: DriverStatus):
        self.mode = mode
        self.status = status
        self.steps: list[BlowupStep] = []

    def step_count(self) -> int:
        return len(self.steps)


def _rational_roots(p: list[int]) -> list[Fraction]:
    """Rational roots, ascending, of the dense integer p, lowest degree
    first; a constant has none.  Candidates +-a/b in lowest terms come from
    trial division of the trailing and leading coefficients once the root 0
    is split off, up to ROOT_SEARCH_BOUND.  Each is tested in integers:
    b^n p(a/b) by Horner on the coefficients c_(n-k) b^k."""
    if len(p) < 2:
        return []
    low = next(k for k, c in enumerate(p) if c)
    trailing, leading = abs(p[low]), abs(p[-1])
    if max(trailing, leading) > ROOT_SEARCH_BOUND:
        raise ResourceLimitError(
            f"rational-root search needs the divisors of {int_str(max(trailing, leading))}, "
            f"above the bound {ROOT_SEARCH_BOUND}"
        )

    def divisors(n: int) -> list[int]:
        out = []
        i = 1
        while i * i <= n:
            if n % i == 0:
                out.append(i)
                out.append(n // i)
            i += 1
        return sorted(set(out))

    roots = {Fraction(0)} if low else set()
    for b in divisors(leading):
        homogenized = [c * b**k for k, c in enumerate(reversed(p[low:]))]
        for a in divisors(trailing):
            if math.gcd(a, b) > 1:
                continue  # a/b in lowest terms is a candidate of its own
            for r in (a, -a):
                acc = 0
                for c in homogenized:
                    acc = acc * r + c
                if acc == 0:
                    roots.add(Fraction(r, b))
    return sorted(roots)


def _primitive(p: list[int]) -> list[int]:
    """The nonzero dense integer p divided by the gcd of its coefficients,
    with a positive last entry."""
    g = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return [c // g for c in p]


def _divide_root(p: list[int], a: int, b: int) -> list[int] | None:
    """Synthetic division of the dense integer p by b*x - a, top down: the
    integral quotient, or None when b*x - a does not divide p."""
    q, carry = [], 0
    for c in reversed(p[1:]):
        carry, rest = divmod(c + a * carry, b)
        if rest:
            return None
        q.append(carry)
    return q[::-1] if p[0] + a * carry == 0 else None


def _has_irrational_singular_fiber_point(p: list[int]) -> bool:
    """Univariate fiber p, dense integer coefficients: a repeated
    non-rational factor marks a singular continuation point that cannot be
    represented over the rationals.

    The repeated factors of p make up g = gcd(p, p'), taken by primitive
    pseudo-remainders; the point is irrational exactly when g keeps positive
    degree once its rational roots a/b are divided out, as the factors
    b*x - a of the primitive g over the integers (Gauss's lemma).
    """
    g, h = p, [k * c for k, c in enumerate(p)][1:]
    while h:
        while len(g) >= len(h):
            top, shift = g[-1], len(g) - len(h)
            g = [h[-1] * c for c in g]
            for k, c in enumerate(h):
                g[shift + k] -= top * c
            while g and not g[-1]:
                g.pop()
        g, h = h, _primitive(g) if g else []
    g = _primitive(g)
    for r in _rational_roots(g):
        while (q := _divide_root(g, r.numerator, r.denominator)) is not None:
            g = q
    return len(g) > 1


# a fiber polynomial is an integer term map: exponent vector -> int
TermMap = dict[tuple[int, ...], int]


def _pseudo_remainder(f: TermMap, g: TermMap, v: int) -> TermMap:
    """Pseudo-remainder of f by g in the variable at index v, its content
    divided out.  With head(h) the terms of h of top v-degree, that degree
    lowered by deg_v g, each step f -> head(g) * f - head(f) * g cancels the
    top v-terms of f, so deg_v f strictly drops and the loop ends.  The
    degree cap sees each step's two products, as `*` on polynomials would."""
    dg = max(e[v] for e in g)

    def head(h: TermMap, d: int) -> TermMap:
        return {e[:v] + (d - dg,) + e[v + 1 :]: c for e, c in h.items() if e[v] == d}

    lc_g = head(g, dg)
    deg_lc, deg_g = max(map(sum, lc_g)), max(map(sum, g))
    while f and (d := max(e[v] for e in f)) >= dg:
        top = head(f, d)
        check_degree(deg_lc + max(map(sum, f)))
        check_degree(max(map(sum, top)) + deg_g)
        out: TermMap = {}
        for a, b, sign in ((lc_g, f, 1), (top, g, -1)):
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = tuple(map(operator.add, ea, eb))
                    out[e] = out.get(e, 0) + sign * ca * cb
        f = {e: c for e, c in out.items() if c}
    if f:
        content = math.gcd(*f.values())
        f = {e: c // content for e, c in f.items()}
    return f


def _eliminate_variable(fiber: list[TermMap], u: int, v: int) -> list[Fraction]:
    """Candidate values of the variable at index u at common zeros: the
    rational roots of the first pseudo-remainder sequence, over pairs of the
    fiber polynomials containing v in order of v-degree, that ends in a
    nonzero v-free polynomial.  That end lies in the ideal of its pair, so
    it vanishes at every common zero; in a two-variable fiber it is a
    polynomial in u alone.  [] when every pair ends in zero."""

    def degree(h: TermMap) -> int:
        return max((e[v] for e in h), default=0)

    with_v = sorted((h for h in fiber if degree(h)), key=degree)
    for f, g in itertools.combinations(with_v, 2):
        while degree(g) > 0:
            f, g = g, _pseudo_remainder(f, g, v)
        if g:
            p = [0] * (max(e[u] for e in g) + 1)
            for e, c in g.items():
                p[e[u]] = c
            return _rational_roots(_primitive(p))
    return []


def _vanishes(h: TermMap, point: list[tuple[int, Fraction]]) -> bool:
    """h is zero at the point, given as (index, a/b) pairs for every
    variable of h: the homogenized sum of c * a^e * b^(D - e) over the
    terms, D the degree of h in each variable, is zero, so no fraction is
    formed."""
    scaled = [(i, r.numerator, r.denominator, max(e[i] for e in h)) for i, r in point]
    total = 0
    for e, c in h.items():
        for i, a, b, top in scaled:
            c *= a ** e[i] * b ** (top - e[i])
        total += c
    return total == 0


def _fiber_points(
    transform: PolyIdeal, chart: WeightedChart
) -> tuple[list[tuple[tuple[str, Fraction], ...]], bool]:
    """Rational points on the exceptional divisor where the transform
    vanishes: the chart origin (), axis-restricted rational roots, and for
    two-variable fibers the roots of pairwise eliminants, each point as its
    sorted nonzero (variable, value) pairs.  Every combination of candidate
    values is tested: each candidate set holds rational roots of a fiber
    polynomial, so the degree cap bounds it.  Returns (points,
    irrational_flag).

    The fiber is read once, as integer term maps: the s-free terms of each
    generator over their common denominator, content divided out.  Distinct
    restrictions are kept once each, zero ones dropped."""
    s = chart.ambient.index(chart.exceptional)
    restricted = []  # (content, denominator, primitive term map)
    for g in transform.generators:
        terms = [(e, c) for e, c in g.terms.items() if not e[s]]
        if terms:
            den = math.lcm(*(c.denominator for _, c in terms))
            ints = {e: c.numerator * (den // c.denominator) for e, c in terms}
            content = math.gcd(*ints.values())
            entry = (content, den, {e: c // content for e, c in ints.items()})
            if entry not in restricted:
                restricted.append(entry)
    fiber = [h for _, _, h in restricted]
    active = sorted({i for h in fiber for e in h for i, k in enumerate(e) if k})
    profiles: dict[int, set[tuple[int, ...]]] = {i: set() for i in active}
    for h in fiber:
        axes: dict[int, dict[int, int]] = {i: {} for i in active}
        for e, c in h.items():
            t = sum(e)
            for i in active:
                if e[i] == t:  # no other variable occurs
                    axes[i][t] = c
        for i, axis in axes.items():
            if axis:
                profiles[i].add(tuple(_primitive([axis.get(k, 0) for k in range(max(axis) + 1)])))
    irrational = False
    if len(active) == 1 and len(fiber) == 1:
        (p,) = profiles[active[0]]  # the one fiber polynomial, in one variable
        irrational = _has_irrational_singular_fiber_point(list(p))
    candidates = {  # each distinct axis profile is root-searched once
        i: {Fraction(0)}.union(*map(_rational_roots, profiles[i])) for i in active
    }
    if len(active) == 2:
        u, v = active
        candidates[u].update(_eliminate_variable(fiber, u, v))
        candidates[v].update(_eliminate_variable(fiber, v, u))
    points = [()]
    for combo in itertools.product(*(sorted(candidates[i]) for i in active)):
        point = list(zip(active, combo))
        if any(combo) and all(_vanishes(h, point) for h in fiber):
            points.append(tuple(sorted((chart.ambient[i], r) for i, r in point if r)))
    return points, irrational


def _ord1_divisor(ideal: PolyIdeal) -> Polynomial | None:
    """An order-one generator dividing every generator, if there is one.

    Such an ideal equals (divisor) times a unit ideal locally, its invariant
    is (1), and its canonical center is the regular hypersurface the divisor
    cuts out, even when that hypersurface cannot be aligned to a coordinate
    by a polynomial substitution.
    """
    for g in ideal.generators:
        if g.order() == 1:
            if all(h.divide_exact(g) is not None for h in ideal.generators):
                return g
    return None


def point_invariant(
    ideal: PolyIdeal,
) -> tuple[MultiOrder, InvariantResult | None, Polynomial | None]:
    """Invariant at the origin with a divisor fallback.

    Returns (mord, full result or None, fallback divisor or None); the
    fallback fires when the maximal contact exists but is not polynomially
    alignable while the ideal is a unit multiple of a principal divisor.
    """
    try:
        res = multiorder(ideal)
        return res.mord, res, None
    except ContactAlignmentError:
        p = _ord1_divisor(ideal)
        if p is None:
            raise
        return MultiOrder((1,)), None, p


def _rendered_images(chart: WeightedChart) -> tuple[tuple[str, str], ...]:
    """The chart map u_k -> s^{w_k}, u_j -> s^{w_j} * u_j' as sorted (u_j,
    image) strings, each image read off the map on u_j's unit vector; an
    image above the degree cap raises ResourceLimitError, as the map would."""
    k, n = chart.positions[chart.chart_index], len(chart.ambient)
    images = []
    for v, p, w in zip(chart.center.coords, chart.positions, chart.weights):
        image = [w if i == k else int(i == p) for i in range(n)]
        check_degree(sum(image))
        images.append((v, monomial_str(chart.ambient, image)))
    return tuple(sorted(images))


def _run_driver(
    I: PolyIdeal, max_steps: int, regular: MultiOrder | None
) -> PrincipalizationTrace:
    """FIFO queue of points, each carrying the invariant it was tracked with.

    A point is finished when its invariant is (0) or equals `regular`, the
    invariant (1, ..., 1) of a smooth point of the embedded driver's
    subscheme; `regular` is None when principalizing.
    """
    if regular is None:
        trace = PrincipalizationTrace("principalize", DriverStatus.PRINCIPALIZED)
    else:
        trace = PrincipalizationTrace("embedded", DriverStatus.RESOLVED)
    queue: list[tuple[PolyIdeal, str, tuple]] = []

    def track(ideal: PolyIdeal, label: str, coords=()) -> TrackedPoint:
        invariant = point_invariant(ideal)
        mord = invariant[0]
        finished = mord.is_zero() or mord == regular
        if not finished:
            queue.append((ideal, label, invariant))
        return TrackedPoint(coords, mord, finished)

    track(I, "start")
    try:
        while queue:
            ideal, label, (mord, res, divisor) = queue.pop(0)
            if len(trace.steps) >= max_steps:
                trace.status = DriverStatus.RESOURCE_CAPPED
                return trace

            irrational_hit = False
            if regular is None and mord.entries == (1,):
                # the fallback divisor or a one-coordinate weight-one center,
                # whose coordinate is the level-1 contact in the original
                # variables
                if divisor is None:
                    divisor = res.chain[0].contact
                gens = [g.divide_exact(divisor) for g in ideal.generators]
                if any(q is None for q in gens):
                    raise AdmissibilityError(f"{ideal} not divisible by the divisor {divisor}")
                new_ideal = PolyIdeal(ideal.variables, gens)
                N, note = 1, "divisor center: blowup is an isomorphism, ideal divided"
                rendered = str(divisor)
                records = [
                    ChartRecord(
                        index=0,
                        coordinate=rendered,
                        weights=(1,),
                        exceptional=rendered,
                        substitution=((rendered, "divided out"),),
                        transform=new_ideal,
                        tracked=(track(new_ideal, label + "/div"),),
                    )
                ]
            else:
                if res is None:
                    raise ContactAlignmentError(
                        "embedded driver hit a non-alignable divisor point"
                    )
                N, note = minimal_root(res.mord), ""
                records = []
                transform = controlled_transform if regular is None else strict_transform
                aligned = res.center._aligned(ideal).generators
                for chart in build_charts(res.center, N):
                    T = transform(ideal, chart, aligned)
                    points, irrational = _fiber_points(T, chart)
                    irrational_hit = irrational_hit or irrational
                    tracked = []
                    for coords in points:
                        where = ",".join(f"{v}={r}" for v, r in coords)
                        tracked.append(
                            track(
                                T.translate(dict(coords)),
                                f"{label}/c{chart.chart_index}@{where}",
                                coords,
                            )
                        )
                    records.append(
                        ChartRecord(
                            index=chart.chart_index,
                            coordinate=res.center.coords[chart.chart_index],
                            weights=chart.weights,
                            exceptional=chart.exceptional,
                            substitution=_rendered_images(chart),
                            transform=T,
                            tracked=tuple(tracked),
                        )
                    )
                if regular is not None and all(
                    any(g.is_constant() and not g.is_zero() for g in r.transform.generators)
                    for r in records
                ):
                    # every chart's strict transform is globally trivial: the
                    # center swallowed the subscheme and the next transform
                    # would not be birational, so the run stops without
                    # modifying it
                    note = "center contains a generic point; subscheme left unmodified"
                    trace.status = DriverStatus.STOPPED_GENERIC_POINT
                    queue.clear()
            trace.steps.append(
                BlowupStep(
                    label=label,
                    ideal=ideal,
                    mord=mord,
                    center=res.center if res else None,
                    N=N,
                    charts=tuple(records),
                    note=note,
                )
            )
            if irrational_hit:
                trace.status = DriverStatus.IRRATIONAL_POINT
                return trace
    except ResourceLimitError:
        # a cap hit after the start ends the run; the steps so far are kept
        trace.status = DriverStatus.RESOURCE_CAPPED
    return trace


def principalize(I: PolyIdeal, max_steps: int = 10) -> PrincipalizationTrace:
    """Iterated canonical-center blowups until every tracked transform is
    the unit ideal."""
    if I.is_zero():
        raise DomainError("cannot principalize the zero ideal")
    return _run_driver(I, max_steps, None)


def embedded_resolve(
    Z: PolyIdeal, codim: int, max_steps: int = 10
) -> PrincipalizationTrace:
    """Strict-transform driver; a tracked point is finished when its
    invariant is (1, ..., 1) of length `codim`, which is at most the
    number of variables."""
    if Z.is_zero():
        raise DomainError("cannot resolve the zero ideal")
    if codim < 1:
        raise DomainError("codimension must be positive")
    if codim > len(Z.variables):
        raise DomainError(
            f"codimension {codim} exceeds the number of variables ({len(Z.variables)})"
        )
    return _run_driver(Z, max_steps, MultiOrder((1,) * codim))


def invariant_drop_check(trace: PrincipalizationTrace) -> bool:
    """Strict invariant decrease at every tracked point of every step."""
    for step in trace.steps:
        for chart in step.charts:
            for pt in chart.tracked:
                if mord_compare(pt.mord_after, step.mord) != LT:
                    return False
    return True
