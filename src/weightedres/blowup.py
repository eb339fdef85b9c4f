"""Weighted blowup charts and the principalization / resolution drivers.

For a center [u_1^{d_1}, ..., u_m^{d_m}] and the smallest N with every
N/d_k integral, chart k of the stacky N-th root blowup substitutes

    u_k -> s^{w_k},     u_j -> s^{w_j} * u_j'   (j != k),     w = N/d,

on the aligned coordinates, with s the exceptional coordinate and the chart
carrying a residual action of order w_k (recorded, not quotiented: the
grading is checked symbolically instead).  The controlled transform divides
every pulled-back generator exactly by s^N; the strict transform divides
each generator by its own maximal s-power.

The principalization driver repeats: compute the canonical center at every
tracked rational point, blow up, transform, and record the invariant, until
all transforms are unit ideals.  Tracked points are chart origins plus the
rational zeros of the transform on the exceptional divisor found by
axis-restricted root search; a singular continuation point with no rational
representative stops the run with a typed status rather than passing.  A
one-coordinate weight-one center cuts out a regular hypersurface, whose
blowup is an isomorphism: that step just divides the ideal by the equation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from .centers import CenterPresentation, is_admissible
from .errors import (
    AdmissibilityError,
    ContactAlignmentError,
    DomainError,
    InvalidMultiOrderError,
    ResourceLimitError,
)
from .invariant import InvariantResult, multiorder
from .lattice import LT, MultiOrder, is_in_mord, mord_compare
from .poly import Polynomial, PolyIdeal, fresh_name


def minimal_root(d: MultiOrder) -> int:
    """Smallest positive N with N/d_i natural for every entry."""
    if d.is_zero():
        raise InvalidMultiOrderError("the zero invariant admits no root order")
    if not is_in_mord(d):
        raise InvalidMultiOrderError(f"{d} fails the witness condition")
    N = 1
    for e in d.entries:
        N = N * e.numerator // math.gcd(N, e.numerator)
    return N


def rees_generators(
    center: CenterPresentation, N: int, degree: int | None = None
) -> dict[int, list[tuple[int, ...]]]:
    """Graded generators of the center's N-th root Rees algebra.

    Degree n is the ideal of elements of valuation >= n/N; its monomial
    generators on the center coordinates are the minimal exponent vectors a
    with N * sum a_k/d_k >= n.  Returns {degree: minimal generators} for all
    degrees up to N (or just the requested one).
    """
    if N < 1:
        raise DomainError(f"the root order N must be positive, got {N}")
    ws = [Fraction(1) / e for e in center.exponents]
    for e in center.exponents:
        if (Fraction(N) / e).denominator != 1:
            raise DomainError(f"N={N} does not clear the exponent {e}")
    degrees = [degree] if degree is not None else list(range(N + 1))
    out: dict[int, list[tuple[int, ...]]] = {}
    for n in degrees:
        if n < 0 or n > N:
            raise DomainError("Rees degrees are requested in the range 0..N")
        bound_box = [
            max(1, math.ceil(Fraction(n, N) * e)) for e in center.exponents
        ]
        members = [
            a
            for a in itertools.product(*(range(b + 1) for b in bound_box))
            if N * sum(x * w for x, w in zip(a, ws)) >= n
        ]
        minimal = [
            a
            for a in members
            if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in members)
        ]
        minimal.sort(key=lambda t: tuple(-e for e in t))
        out[n] = minimal
    return out


@dataclass(frozen=True)
class WeightedChart:
    """One affine chart of the stacky root blowup of a center."""

    center: CenterPresentation
    N: int
    chart_index: int
    exceptional: str
    weights: tuple[int, ...]
    ambient: tuple[str, ...]
    substitution: dict[str, Polynomial]
    primes: dict[str, str]
    stabilizer_order: int

    def transform_poly(self, f: Polynomial) -> Polynomial:
        aligned = self.center.change.to_aligned(f)
        return aligned.substitute(self.substitution, self.ambient)


def build_charts(center: CenterPresentation, N: int) -> list[WeightedChart]:
    weights = []
    for e in center.exponents:
        w = Fraction(N) / e
        if w.denominator != 1:
            raise DomainError(f"N={N} is not a common root order for {center}")
        weights.append(int(w))
    charts = []
    for k, chart_coord in enumerate(center.coords):
        taken = list(center.ambient)
        s = fresh_name("s", taken)
        taken.append(s)
        primes: dict[str, str] = {}
        for v in center.coords:
            if v == chart_coord:
                continue
            p = fresh_name(v + "'", taken)
            primes[v] = p
            taken.append(p)
        ambient = tuple(
            s if v == chart_coord else primes.get(v, v) for v in center.ambient
        )
        s_poly = Polynomial.variable(s, ambient)
        sub: dict[str, Polynomial] = {chart_coord: s_poly ** weights[k]}
        for j, v in enumerate(center.coords):
            if v == chart_coord:
                continue
            sub[v] = (s_poly ** weights[j]) * Polynomial.variable(primes[v], ambient)
        charts.append(
            WeightedChart(
                center=center,
                N=N,
                chart_index=k,
                exceptional=s,
                weights=tuple(weights),
                ambient=ambient,
                substitution=sub,
                primes=primes,
                stabilizer_order=weights[k],
            )
        )
    return charts


def controlled_transform(I: PolyIdeal, chart: WeightedChart) -> PolyIdeal:
    """Pull back and divide exactly by the N-th power of the exceptional."""
    if not is_admissible(I, chart.center):
        raise AdmissibilityError("controlled transform requires an admissible center")
    gens = []
    for g in I.generators:
        pulled = chart.transform_poly(g)
        divided = pulled.divide_by_variable_power(chart.exceptional, chart.N)
        if divided is None:
            raise AdmissibilityError(
                f"pullback of {g} is not divisible by "
                f"{chart.exceptional}^{chart.N}: broken center"
            )
        gens.append(divided)
    return PolyIdeal(chart.ambient, gens)


def strict_transform(Z: PolyIdeal, chart: WeightedChart) -> PolyIdeal:
    """Pull back and saturate each generator by the exceptional coordinate.

    Generator-wise division is iterated until stable; it is exact for
    principal and monomial ideals, which is the supported desk-scale class.
    """
    gens = [chart.transform_poly(g) for g in Z.generators]
    changed = True
    while changed:
        changed = False
        out = []
        for g in gens:
            k = g.min_power_of(chart.exceptional)
            if k > 0 and not g.is_zero():
                g = g.divide_by_variable_power(chart.exceptional, k)
                changed = True
            out.append(g)
        gens = out
    return PolyIdeal(chart.ambient, gens)


def chart_grading_ok(chart: WeightedChart, transform: PolyIdeal) -> bool:
    """Each generator is homogeneous for the residual action and its weight
    vanishes modulo the stabilizer order."""
    order = chart.stabilizer_order
    s_idx = chart.ambient.index(chart.exceptional)
    prime_weight = {}
    for j, v in enumerate(chart.center.coords):
        if v in chart.primes:
            prime_weight[chart.ambient.index(chart.primes[v])] = chart.weights[j]
    for g in transform.generators:
        for exp in g.terms:
            w = exp[s_idx] - sum(exp[i] * wt for i, wt in prime_weight.items())
            if w % order != 0:
                return False
    return True


# -- chart transition (overlap) check ----------------------------------------


def _fractional_substitute(
    g: Polynomial, images: dict[str, tuple[Fraction, dict[str, Fraction]]]
):
    """Evaluate g under a monomial substitution with rational exponents.

    Each image is (coefficient, {var: exponent}); the result is a map from
    fractional exponent vectors to coefficients.  Used only to verify chart
    transitions, where roots of unit coordinates appear.
    """
    names = sorted({v for _, mono in images.values() for v in mono})
    out: dict[tuple[Fraction, ...], Fraction] = {}
    for exp, coeff in g.terms.items():
        c = coeff
        total = {n: Fraction(0) for n in names}
        for v, e in zip(g.variables, exp):
            if e == 0:
                continue
            cf, mono = images[v]
            c *= cf**e
            for n, p in mono.items():
                total[n] += p * e
        key = tuple(total[n] for n in names)
        s = out.get(key, Fraction(0)) + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def transition_agrees(
    center: CenterPresentation, N: int, i: int, j: int, I: PolyIdeal
) -> bool:
    """Controlled transforms on charts i and j agree on the overlap.

    The transition expresses chart-j coordinates as fractional monomials in
    chart-i coordinates and must carry each transform generator of chart j
    to the matching generator of chart i times one common monomial unit.
    """
    charts = build_charts(center, N)
    ca, cb = charts[i], charts[j]
    Ta = controlled_transform(I, ca)
    Tb = controlled_transform(I, cb)
    # chart-j coordinates in terms of chart-i coordinates
    coords = center.coords
    wj = Fraction(cb.weights[j])
    uj_prime = ca.primes[coords[j]]
    images: dict[str, tuple[Fraction, dict[str, Fraction]]] = {}
    images[cb.exceptional] = (
        Fraction(1),
        {ca.exceptional: Fraction(1), uj_prime: Fraction(1) / wj},
    )
    for k, v in enumerate(coords):
        wk = Fraction(ca.weights[k])
        if v == coords[j]:
            continue
        if v == coords[i]:
            images[cb.primes[v]] = (Fraction(1), {uj_prime: -wk / wj})
        else:
            images[cb.primes[v]] = (
                Fraction(1),
                {ca.primes[v]: Fraction(1), uj_prime: -wk / wj},
            )
    for v in center.ambient:
        if v not in coords:
            images[v] = (Fraction(1), {v: Fraction(1)})
    for ga, gb in zip(Ta.generators, Tb.generators):
        lhs = _fractional_substitute(gb, images)
        rhs = _fractional_substitute(
            ga, {v: (Fraction(1), {v: Fraction(1)}) for v in ga.variables}
        )
        if not lhs or not rhs:
            return lhs == rhs
        # compare up to one common monomial unit factor
        le, lc = sorted(lhs.items())[0]
        re_, rc = sorted(rhs.items())[0]
        shift = tuple(a - b for a, b in zip(le, re_))
        scale = lc / rc
        for exp, c in rhs.items():
            key = tuple(a + b for a, b in zip(exp, shift))
            if lhs.get(key) != c * scale:
                return False
        if len(lhs) != len(rhs):
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


@dataclass
class PrincipalizationTrace:
    mode: str
    steps: list[BlowupStep] = field(default_factory=list)
    status: str = "principalized"

    def step_count(self) -> int:
        return len(self.steps)


def _rational_roots(coeffs: dict[int, Fraction]) -> list[Fraction]:
    """Rational roots of a univariate polynomial given as degree -> coeff."""
    if not coeffs:
        return []
    lcm = 1
    for c in coeffs.values():
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = {k: int(c * lcm) for k, c in coeffs.items()}
    degs = sorted(ints)
    low = degs[0]
    ints = {k - low: v for k, v in ints.items()}
    roots = []
    if low > 0:
        roots.append(Fraction(0))
    trailing = abs(ints.get(0, 0))
    leading = abs(ints[max(ints)])
    if trailing == 0:
        return roots

    def divisors(n: int) -> list[int]:
        out = []
        i = 1
        while i * i <= n:
            if n % i == 0:
                out.append(i)
                out.append(n // i)
            i += 1
        return sorted(set(out))

    for p in divisors(trailing):
        for q in divisors(leading):
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                if sum(c * r**k for k, c in ints.items()) == 0 and r not in roots:
                    roots.append(r)
    return sorted(roots)


def _univariate_profile(g: Polynomial, var: str) -> dict[int, Fraction]:
    i = g.variables.index(var)
    out: dict[int, Fraction] = {}
    for exp, c in g.terms.items():
        if any(e != 0 for k, e in enumerate(exp) if k != i):
            raise ValueError("not univariate")
        out[exp[i]] = out.get(exp[i], Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def _has_irrational_singular_fiber_point(fiber: list[Polynomial], var: str) -> bool:
    """Univariate fiber: a repeated non-rational factor marks a singular
    continuation point that cannot be represented over the rationals."""
    try:
        prof = _univariate_profile(fiber[0], var)
    except ValueError:
        return False
    if len(fiber) != 1 or not prof:
        return False
    coeffs = dict(prof)
    roots = _rational_roots(coeffs)
    # deflate rational roots and the origin factor completely
    var_poly = Polynomial.variable(var, fiber[0].variables)
    g = fiber[0]
    for r in roots:
        factor = var_poly - Polynomial.constant(r, g.variables)
        while True:
            q = g.divide_exact(factor)
            if q is None:
                break
            g = q
    if g.total_degree() < 2:
        return False
    gp = g.derivative(var)
    # repeated factor <=> nonconstant gcd with the derivative; test by
    # checking whether g divides gp^deg(g) after clearing (desk heuristic:
    # use resultant-free square-freeness via exact division attempts)
    prof_g = _univariate_profile(g, var)
    prof_gp = _univariate_profile(gp, var)
    disc_free = _univariate_gcd_degree(prof_g, prof_gp) == 0
    return not disc_free


def _univariate_gcd_degree(a: dict[int, Fraction], b: dict[int, Fraction]) -> int:
    def norm(p: dict[int, Fraction]) -> dict[int, Fraction]:
        return {k: v for k, v in p.items() if v != 0}

    a, b = norm(a), norm(b)
    while b:
        da, db = max(a), max(b)
        if da < db:
            a, b = b, a
            continue
        lead = a[da] / b[db]
        for k, v in list(b.items()):
            a[k + da - db] = a.get(k + da - db, Fraction(0)) - lead * v
        a = norm(a)
        if not a:
            a, b = b, {}
            break
        if max(a) < db:
            a, b = b, a
    return max(a) if a else 0


def _coefficients_in(g: Polynomial, v: str) -> dict[int, Polynomial]:
    """Collect g as a polynomial in v with coefficients free of v."""
    i = g.variables.index(v)
    slices: dict[int, dict] = {}
    for exp, c in g.terms.items():
        e = list(exp)
        k = e[i]
        e[i] = 0
        slices.setdefault(k, {})[tuple(e)] = c
    return {k: Polynomial(g.variables, t) for k, t in slices.items()}


def _pseudo_remainder(f: Polynomial, g: Polynomial, v: str) -> Polynomial:
    dg = g.degree_in(v)
    lc_g = _coefficients_in(g, v).get(dg, Polynomial.zero(g.variables))
    i = f.variables.index(v)
    guard = 0
    while not f.is_zero() and f.degree_in(v) >= dg:
        df = f.degree_in(v)
        lc_f = _coefficients_in(f, v)[df]
        shift = [0] * len(f.variables)
        shift[i] = df - dg
        f = lc_g * f - lc_f * Polynomial.monomial(tuple(shift), f.variables) * g
        guard += 1
        if guard > 200:
            raise ResourceLimitError("pseudo-division does not terminate")
    return f


def _eliminate_variable(fiber: list[Polynomial], u: str, v: str) -> list[Fraction]:
    """Candidate u-values of common zeros: rational roots of a v-eliminant
    obtained by a pseudo-remainder sequence of the first two generators."""
    pair = [g for g in fiber if v in g.support()]
    if len(pair) < 2:
        return []
    f, g = sorted(pair[:4], key=lambda p: p.degree_in(v))[:2]
    try:
        while g.degree_in(v) > 0:
            r = _pseudo_remainder(f, g, v)
            if r.is_zero():
                return []  # positive-dimensional overlap: give up here
            f, g = g, r
    except ResourceLimitError:
        return []
    if g.is_zero() or u not in g.support():
        return []
    try:
        return _rational_roots(_univariate_profile(g, u))
    except ValueError:
        return []


def _fiber_points(
    transform: PolyIdeal, chart: WeightedChart
) -> tuple[list[dict[str, Fraction]], bool]:
    """Rational points on the exceptional divisor where the transform
    vanishes: the chart origin, axis-restricted rational roots, and for
    two-variable fibers the roots of pairwise eliminants.
    Returns (points, irrational_flag)."""
    s = chart.exceptional
    fiber = [g.restrict(s) for g in transform.generators]
    fiber = [g for g in fiber if not g.is_zero()]
    points: list[dict[str, Fraction]] = [dict()]
    active = sorted(
        {v for g in fiber for v in g.support() if v != s},
        key=chart.ambient.index,
    )
    irrational = False
    if len(active) == 1 and fiber:
        irrational = _has_irrational_singular_fiber_point(fiber, active[0])
    # per-variable candidate values from axis-restricted root searches
    candidates: dict[str, set[Fraction]] = {v: {Fraction(0)} for v in active}
    for v in active:
        for g in fiber:
            g0 = g
            for other in active:
                if other != v:
                    g0 = g0.restrict(other)
            if g0.is_zero() or v not in g0.support():
                continue
            try:
                prof = _univariate_profile(g0, v)
            except ValueError:
                continue
            candidates[v].update(_rational_roots(prof))
    if len(active) == 2 and len(fiber) >= 2:
        u, v = active
        candidates[u].update(_eliminate_variable(fiber, u, v))
        candidates[v].update(_eliminate_variable(fiber, v, u))
    seen = {()}
    if active and all(len(candidates[v]) <= 8 for v in active):
        combos = itertools.product(*(sorted(candidates[v]) for v in active))
    else:
        combos = iter(())
    for combo in combos:
        candidate = {v: r for v, r in zip(active, combo) if r != 0}
        if not candidate:
            continue
        if all(h.evaluate(candidate) == 0 for h in fiber):
            key = tuple(sorted(candidate.items()))
            if key not in seen:
                seen.add(key)
                points.append(candidate)
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


def _divisor_step(
    ideal: PolyIdeal,
    mord: MultiOrder,
    center: CenterPresentation | None,
    divisor: Polynomial,
    label: str,
) -> tuple[BlowupStep, PolyIdeal]:
    """Blowup of a one-coordinate weight-one center: exact division."""
    gens = []
    for g in ideal.generators:
        q = g.divide_exact(divisor)
        if q is None:
            raise AdmissibilityError(
                f"generator {g} not divisible by the divisor {divisor}"
            )
        gens.append(q)
    new_ideal = PolyIdeal(ideal.variables, gens)
    after, _, _ = point_invariant(new_ideal)
    record = ChartRecord(
        index=0,
        coordinate=str(divisor),
        weights=(1,),
        exceptional=str(divisor),
        substitution=((str(divisor), "divided out"),),
        transform=new_ideal,
        tracked=(TrackedPoint((), after, after.is_zero()),),
    )
    step = BlowupStep(
        label=label,
        ideal=ideal,
        mord=mord,
        center=center,
        N=1,
        charts=(record,),
        note="divisor center: blowup is an isomorphism, ideal divided",
    )
    return step, new_ideal


def _run_driver(
    I: PolyIdeal,
    mode: str,
    max_steps: int,
    codim: int | None = None,
) -> PrincipalizationTrace:
    trace = PrincipalizationTrace(mode=mode)
    queue: list[tuple[PolyIdeal, str]] = [(I, "start")]
    while queue:
        ideal, label = queue.pop(0)
        mord, res, divisor = point_invariant(ideal)
        if mord.is_zero():
            continue
        if mode == "embedded" and mord == MultiOrder((1,) * codim):
            continue  # regular point: certified, nothing to do
        if len(trace.steps) >= max_steps:
            trace.status = "resource-capped"
            return trace

        if mode == "principalize" and (
            divisor is not None
            or (len(res.center.coords) == 1 and res.center.exponents[0] == 1)
        ):
            if divisor is None:
                divisor = res.center.coordinate_polynomials()[0]
            step, new_ideal = _divisor_step(
                ideal, mord, res.center if res else None, divisor, label
            )
            trace.steps.append(step)
            if not step.charts[0].tracked[0].resolved:
                queue.append((new_ideal, label + "/div"))
            continue
        if res is None:
            raise ContactAlignmentError(
                "embedded driver hit a non-alignable divisor point"
            )

        N = minimal_root(res.mord)
        charts = build_charts(res.center, N)
        records = []
        irrational_hit = False
        chart_trivial = []
        for chart in charts:
            if mode == "principalize":
                T = controlled_transform(ideal, chart)
            else:
                T = strict_transform(ideal, chart)
            chart_trivial.append(
                any(g.is_constant() and not g.is_zero() for g in T.generators)
            )
            points, irrational = _fiber_points(T, chart)
            irrational_hit = irrational_hit or irrational
            tracked = []
            for pt in points:
                local = T.translate(pt) if pt else T
                sub_mord, _, _ = point_invariant(local)
                resolved = sub_mord.is_zero() or (
                    mode == "embedded" and sub_mord == MultiOrder((1,) * codim)
                )
                tracked.append(
                    TrackedPoint(tuple(sorted(pt.items())), sub_mord, resolved)
                )
                if not resolved and not irrational_hit:
                    queue.append(
                        (
                            local,
                            f"{label}/c{chart.chart_index}@"
                            + ",".join(f"{v}={r}" for v, r in sorted(pt.items())),
                        )
                    )
            records.append(
                ChartRecord(
                    index=chart.chart_index,
                    coordinate=res.center.coords[chart.chart_index],
                    weights=chart.weights,
                    exceptional=chart.exceptional,
                    substitution=tuple(
                        (v, str(p)) for v, p in sorted(chart.substitution.items())
                    ),
                    transform=T,
                    tracked=tuple(tracked),
                )
            )
        note = ""
        if mode == "embedded" and chart_trivial and all(chart_trivial):
            # every chart's strict transform is globally trivial: the center
            # swallowed the subscheme and the next transform would not be
            # birational, so the run stops without modifying it
            note = "center contains a generic point; subscheme left unmodified"
            trace.status = "stopped-generic-point"
            queue.clear()
        trace.steps.append(
            BlowupStep(
                label=label,
                ideal=ideal,
                mord=res.mord,
                center=res.center,
                N=N,
                charts=tuple(records),
                note=note,
            )
        )
        if irrational_hit:
            trace.status = "irrational-point"
            return trace
    if trace.status == "principalized" and mode == "embedded":
        trace.status = "resolved"
    return trace


def principalize(I: PolyIdeal, max_steps: int = 10) -> PrincipalizationTrace:
    """Iterated canonical-center blowups until every tracked transform is
    the unit ideal."""
    if I.is_zero():
        raise DomainError("cannot principalize the zero ideal")
    return _run_driver(I, "principalize", max_steps)


def embedded_resolve(
    Z: PolyIdeal, codim: int, max_steps: int = 10
) -> PrincipalizationTrace:
    """Strict-transform driver; a tracked point is finished when its
    invariant is (1, ..., 1) of length `codim`."""
    if Z.is_zero():
        raise DomainError("cannot resolve the zero ideal")
    if codim < 1:
        raise DomainError("codimension must be positive")
    return _run_driver(Z, "embedded", max_steps, codim=codim)


def invariant_drop_check(trace: PrincipalizationTrace) -> bool:
    """Strict invariant decrease at every tracked point of every step."""
    for step in trace.steps:
        for chart in step.charts:
            for pt in chart.tracked:
                if mord_compare(pt.mord_after, step.mord) != LT:
                    return False
    return True
