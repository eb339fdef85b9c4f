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
with a typed status rather than passing.  A one-coordinate weight-one center
cuts out a regular hypersurface, whose blowup is an isomorphism: that step
just divides the ideal by the equation.  The start point's invariant, on the
full ideal, dominates the cost of a run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
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
from .poly import Polynomial, PolyIdeal, check_degree, fresh_name, monomial_str

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


@dataclass(frozen=True)
class WeightedChart:
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
    _positions: tuple[int, ...]  # of the center coordinates, in either ambient

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
        weighted = tuple(zip(self._positions, self.weights))
        k = self._positions[self.chart_index]
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
                _positions=positions,
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
    s = chart._positions[chart.chart_index]
    weighted = tuple(zip(chart._positions, chart.weights))
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
    w, pos = charts[i].weights, charts[i]._positions

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


@dataclass(frozen=True)
class TrackedPoint:
    coords: tuple[tuple[str, Fraction], ...]
    mord_after: MultiOrder
    resolved: bool


@dataclass(frozen=True)
class ChartRecord:
    index: int
    coordinate: str
    weights: tuple[int, ...]
    exceptional: str
    substitution: tuple[tuple[str, str], ...]
    transform: PolyIdeal
    tracked: tuple[TrackedPoint, ...]


@dataclass(frozen=True)
class BlowupStep:
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


@dataclass
class PrincipalizationTrace:
    mode: str
    status: DriverStatus
    steps: list[BlowupStep] = field(default_factory=list)

    def step_count(self) -> int:
        return len(self.steps)


def _axis_profile(g: Polynomial, var: str) -> tuple[Fraction, ...]:
    """Dense coefficients, lowest degree first, of the terms of g in which no
    variable but `var` occurs: g restricted to the `var` axis.  The last entry
    is nonzero; the zero polynomial gives the empty tuple."""
    i = g.variables.index(var)
    axis = {e[i]: c for e, c in g.terms.items() if sum(e) == e[i]}
    return tuple(axis.get(k, Fraction(0)) for k in range(max(axis, default=-1) + 1))


def _horner(p: list, r: Fraction) -> tuple[list, Fraction]:
    """Synthetic division of the dense p by (x - r): (quotient, p(r))."""
    values = list(itertools.accumulate(reversed(p), lambda acc, c: acc * r + c))
    return values[-2::-1], values[-1]


def _rational_roots(p: list[Fraction]) -> list[Fraction]:
    """Rational roots, ascending, of the dense p; a constant has none.
    Candidates +-a/b in lowest terms come from trial division of the integral
    trailing and leading coefficients once the root 0 is split off, up to
    ROOT_SEARCH_BOUND.  Each is tested in integers: b^n p(a/b) by Horner on
    the coefficients c_(n-k) b^k, so no fraction is formed."""
    if len(p) < 2:
        return []
    low = next(k for k, c in enumerate(p) if c)
    lcm = math.lcm(*(c.denominator for c in p))
    ints = [int(c * lcm) for c in p[low:]]
    trailing, leading = abs(ints[0]), abs(ints[-1])
    if max(trailing, leading) > ROOT_SEARCH_BOUND:
        raise ResourceLimitError(
            f"rational-root search needs the divisors of {max(trailing, leading)}, "
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
        homogenized = [c * b**k for k, c in enumerate(reversed(ints))]
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


def _monic_remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b, scaled monic; dense coefficient lists, lowest
    degree first, with a nonzero last entry (the empty list is 0)."""
    a = list(a)
    while len(a) >= len(b):
        q, shift = a[-1] / b[-1], len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return [c / a[-1] for c in a] if a else []


def _has_irrational_singular_fiber_point(fiber: list[Polynomial], var: str) -> bool:
    """Univariate fiber p: a repeated non-rational factor marks a singular
    continuation point that cannot be represented over the rationals.

    The repeated factors of p make up g = gcd(p, p'); the point is irrational
    exactly when g keeps positive degree once its rational roots are divided
    out.
    """
    if len(fiber) != 1:
        return False
    p = _axis_profile(fiber[0], var)
    g, b = p, [k * c for k, c in enumerate(p)][1:]
    while b:
        g, b = b, _monic_remainder(g, b)
    for r in _rational_roots(g):
        q, value = _horner(g, r)
        while value == 0:
            g = q
            q, value = _horner(g, r)
    return len(g) > 1


def _pseudo_remainder(f: Polynomial, g: Polynomial, v: str) -> Polynomial:
    """Pseudo-remainder of f by g in v.  With head(h) the terms of h of top
    v-degree, that degree lowered by deg_v g, each step f -> head(g) * f -
    head(f) * g cancels the top v-terms of f, so deg_v f strictly drops and
    the loop ends."""
    i, dg = f.variables.index(v), g.degree_in(v)

    def head(h: Polynomial) -> Polynomial:
        d = h.degree_in(v)
        return Polynomial(
            h.variables,
            {e[:i] + (d - dg,) + e[i + 1 :]: c for e, c in h.terms.items() if e[i] == d},
        )

    lc_g = head(g)
    while not f.is_zero() and f.degree_in(v) >= dg:
        f = lc_g * f - head(f) * g
    return f


def _eliminate_variable(fiber: list[Polynomial], u: str, v: str) -> list[Fraction]:
    """Candidate u-values of common zeros: the rational roots of the first
    pseudo-remainder sequence, over pairs of the generators containing v in
    order of v-degree, that ends in a nonzero v-free polynomial.  That end
    lies in the ideal of its pair, so it vanishes at every common zero.  []
    when every pair ends in zero."""
    with_v = sorted((g for g in fiber if v in g.support()), key=lambda p: p.degree_in(v))
    for f, g in itertools.combinations(with_v, 2):
        while g.degree_in(v) > 0:
            f, g = g, _pseudo_remainder(f, g, v)
        if not g.is_zero():
            return _rational_roots(_axis_profile(g, u))
    return []


def _fiber_points(
    transform: PolyIdeal, chart: WeightedChart
) -> tuple[list[tuple[tuple[str, Fraction], ...]], bool]:
    """Rational points on the exceptional divisor where the transform
    vanishes: the chart origin (), axis-restricted rational roots, and for
    two-variable fibers the roots of pairwise eliminants, each point as its
    sorted nonzero (variable, value) pairs.  Every combination of candidate
    values is tested: each candidate set holds rational roots of a fiber
    polynomial, so the degree cap bounds it.  Returns (points,
    irrational_flag)."""
    s = chart.exceptional
    fiber = list(transform.restrict(s).generators)
    active = sorted(
        {v for g in fiber for v in g.support() if v != s},
        key=chart.ambient.index,
    )
    irrational = len(active) == 1 and _has_irrational_singular_fiber_point(
        fiber, active[0]
    )
    candidates = {  # each distinct axis profile is root-searched once
        v: {Fraction(0)}.union(*map(_rational_roots, {_axis_profile(g, v) for g in fiber}))
        for v in active
    }
    if len(active) == 2:
        u, v = active
        candidates[u].update(_eliminate_variable(fiber, u, v))
        candidates[v].update(_eliminate_variable(fiber, v, u))
    points = [()]
    for combo in itertools.product(*(sorted(candidates[v]) for v in active)):
        point = {v: r for v, r in zip(active, combo) if r != 0}
        if point and all(h.evaluate(point) == 0 for h in fiber):
            points.append(tuple(sorted(point.items())))
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
    k, n = chart._positions[chart.chart_index], len(chart.ambient)
    images = []
    for v, p, w in zip(chart.center.coords, chart._positions, chart.weights):
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
                # the fallback divisor or a one-coordinate weight-one center
                if divisor is None:
                    divisor = res.center.coordinate_polynomials()[0]
                gens = [g.divide_exact(divisor) for g in ideal.generators]
                if any(q is None for q in gens):
                    raise AdmissibilityError(f"{ideal} not divisible by the divisor {divisor}")
                new_ideal = PolyIdeal(ideal.variables, gens)
                N, note = 1, "divisor center: blowup is an isomorphism, ideal divided"
                records = [
                    ChartRecord(
                        index=0,
                        coordinate=str(divisor),
                        weights=(1,),
                        exceptional=str(divisor),
                        substitution=((str(divisor), "divided out"),),
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
