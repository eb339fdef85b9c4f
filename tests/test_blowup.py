import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from weightedres import (
    MultiOrder,
    build_charts,
    chart_grading_ok,
    controlled_transform,
    embedded_resolve,
    invariant_drop_check,
    is_admissible,
    leading_term_projection,
    minimal_root,
    multiorder,
    nu_valuation,
    parse_ideal,
    principalize,
    rees_generators,
    rounding,
    strict_transform,
    transition_agrees,
)
from weightedres.blowup import (
    BlowupStep,
    TrackedPoint,
    _eliminate_variable,
)
from weightedres.centers import AlignStep, leading_term_decomposition
from weightedres.cli import main
from weightedres.errors import (
    DEFAULT_DEGREE_CAP,
    AdmissibilityError,
    AmbientMismatchError,
    DomainError,
    ResourceLimitError,
    using_degree_cap,
)
from weightedres.poly import Polynomial, PolyIdeal
from weightedres.textio import parse_polynomial
from weightedres.lattice import LatticeIdeal
from weightedres.textio import parse_center

F = Fraction
GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


# -- root orders ----------------------------------------------------------------


def test_minimal_root_values():
    assert minimal_root(MultiOrder((5, 7))) == 35
    # smallest N with N/5 and N/(15/2) integral: 15/5 = 3 and 2*15/15 = 2
    assert minimal_root(MultiOrder((5, F(15, 2)))) == 15
    assert minimal_root(MultiOrder((2,))) == 2
    assert minimal_root(MultiOrder((2, 3))) == 6
    assert minimal_root(MultiOrder((4, F(16, 3), F(32, 5)))) == 32


# -- Rees gradings ----------------------------------------------------------------


def test_rees_generators_simple():
    J = parse_center("[x^2]")
    grading = rees_generators(J, 2)
    assert grading[2] == [(2,)]
    assert grading[1] == [(1,)]
    assert grading[0] == [(0,)]


def test_rees_top_degree_is_the_staircase():
    J = parse_center("[x^5, y^7]")
    grading = rees_generators(J, 35)
    assert set(grading[35]) == set(LatticeIdeal(MultiOrder((5, 7))).minimal_generators())
    J2 = parse_center("[x^5, y^(15/2)]")
    grading2 = rees_generators(J2, 30)
    assert set(grading2[30]) == set(
        LatticeIdeal(MultiOrder((5, F(15, 2)))).minimal_generators()
    )


# -- transforms -------------------------------------------------------------------


def test_controlled_transform_of_the_flagship_example():
    I = parse_ideal("x^5 + x^3*y^3 + y^7")
    J = parse_center("[x^5, y^7]")
    charts = build_charts(J, 35)
    x_chart, y_chart = charts
    Tx = controlled_transform(I, x_chart)
    assert [str(g) for g in Tx.generators] == ["1 + s*y'^3 + y'^7"]
    Ty = controlled_transform(I, y_chart)
    assert [str(g) for g in Ty.generators] == ["1 + x'^3*s + x'^5"]


ORACLE_CENTERS = [
    parse_center(text, ("x", "y", "z"))
    for text in (
        "[x^5, y^7]",
        "[(x + y^2)^3, y^7]",  # a shear
        "[x^4, y^(16/3), z^(32/5)]",
        "[(x + y*z)^2, y^3, z^4]",  # a shear on a three-coordinate center
        "[z^2, x^3]",
    )
]


@st.composite
def oracle_polynomials(draw):
    names = draw(st.permutations(("x", "y", "z")))
    exps = st.tuples(*[st.integers(0, 4)] * 3)
    terms = draw(st.dictionaries(exps, st.integers(-5, 5), min_size=1, max_size=4))
    return Polynomial(names, terms)


def chart_images(chart) -> dict[str, Polynomial]:
    """The chart as a polynomial substitution: u_k -> s^{w_k} for the chart
    coordinate u_k, u_j -> s^{w_j} * u_j' for every other center coordinate."""
    s = Polynomial.variable(chart.exceptional, chart.ambient)
    primed = {v: Polynomial.variable(p, chart.ambient) for v, p in chart.primes.items()}
    return {v: s**w * primed.get(v, s**0) for v, w in zip(chart.center.coords, chart.weights)}


def _pullback_or_cap(pull):
    try:
        return pull()
    except ResourceLimitError:
        return ResourceLimitError


@settings(max_examples=60, deadline=None)
@given(
    oracle_polynomials(),
    st.sampled_from(ORACLE_CENTERS),
    st.one_of(st.integers(1, 24), st.just(DEFAULT_DEGREE_CAP)),
)
def test_chart_pullback_matches_the_substitution(f, center, cap):
    # the monomial-map pullback against the polynomial substitution it
    # replaces: both return the same polynomial or both hit the degree cap,
    # under the drawn cap and on either side of the pullback's degree.  Both
    # sides re-embed f in the center's ambient before aligning it, so no
    # alignment step re-embeds its tail (which alone could meet a low cap),
    # and an all-zero f is the zero transform on both
    I = PolyIdeal(f.variables, [f])

    def pull(chart):  # align, then map, both under the cap in force
        return chart._pull_aligned(center._aligned(I).generators, 0)

    for chart in build_charts(center, minimal_root(center.exponents)):
        images = chart_images(chart)
        with using_degree_cap(10**6):
            top = max((g.total_degree() for g in pull(chart).generators), default=0)
        for c in {cap, max(1, top - 1), max(1, top)}:
            with using_degree_cap(c):
                new = _pullback_or_cap(lambda: pull(chart))
                old = _pullback_or_cap(
                    lambda: center.change.to_aligned(I.extend_ambient(center.ambient))
                    .substitute(images, chart.ambient)
                )
            assert new == old


def _first_refusal(kept_gens, c):
    """The error a generator-wise chart pass meets first under degree cap c:
    a generator it cannot divide (None), or a kept term above the cap."""
    for kept in kept_gens:
        if kept is None:
            return AdmissibilityError
        if kept.total_degree() > c:
            return ResourceLimitError
    return None


@settings(max_examples=80, deadline=None)
@given(
    st.lists(oracle_polynomials(), min_size=1, max_size=3),
    st.sampled_from(ORACLE_CENTERS),
    st.integers(1, 60),
)
# s-exponents N - 1 and N: one short of admissible, and exactly admissible
@example([Polynomial(("x", "y", "z"), {(2, 4, 0): 1, (5, 0, 0): 1})], ORACLE_CENTERS[0], 8)
@example([Polynomial(("x", "y", "z"), {(5, 0, 0): 1, (0, 0, 3): 2})], ORACLE_CENTERS[0], 8)
def test_one_chart_pass_matches_pull_then_divide(fs, center, cap):
    # the transforms align the whole ideal once and divide by the exceptional
    # on exponent vectors; the reference aligns, re-embeds and pulls back each
    # generator on its own and divides it afterwards.  Z is written in the
    # first drawn ambient, a permutation of the center's; I is Z re-embedded.
    names = fs[0].variables
    Z = PolyIdeal(names, [f.extend_ambient(names) for f in fs])
    I = Z.extend_ambient(center.ambient)
    for chart in build_charts(center, minimal_root(center.exponents)):
        s = chart.exceptional
        with using_degree_cap(10**6):
            full = [
                center.change.to_aligned(g)
                .extend_ambient(center.ambient)
                .substitute(chart_images(chart), chart.ambient)
                for g in Z.generators
            ]
            controlled = [p.divide_by_variable_power(s, chart.N) for p in full]
            strict = [p.divide_by_variable_power(s, p.min_power_of(s)) for p in full]
            for ideal in (Z, I):
                assert strict_transform(ideal, chart) == PolyIdeal(chart.ambient, strict)
            if None in controlled:
                with pytest.raises(AdmissibilityError):
                    controlled_transform(I, chart)
            else:
                assert controlled_transform(I, chart) == PolyIdeal(chart.ambient, controlled)
        if center.change.steps:
            continue  # a shear's own products meet the cap before the chart map
        # the cap sees only the kept terms, on either side of their degree
        for kept_gens, transform in ((controlled, controlled_transform), (strict, strict_transform)):
            tops = [k.total_degree() for k in kept_gens if k is not None]
            for c in {cap} | {max(1, t + d) for t in tops for d in (-1, 0)}:
                with using_degree_cap(c):
                    try:
                        transform(I, chart)
                        raised = None
                    except (AdmissibilityError, ResourceLimitError) as err:
                        raised = type(err)
                    assert raised is _first_refusal(kept_gens, c), (str(I), chart.chart_index, c)


def test_controlled_transform_trivial():
    I = parse_ideal("x^2")
    J = parse_center("[x^2]")
    (chart,) = build_charts(J, 2)
    assert [str(g) for g in controlled_transform(I, chart).generators] == ["1"]


def test_controlled_transform_requires_admissibility():
    I = parse_ideal("y", ("x", "y"))
    J = parse_center("[x^2, y^3]")
    with pytest.raises(AdmissibilityError):
        controlled_transform(I, build_charts(J, 6)[0])


def test_transform_and_projection_reject_an_ideal_in_another_ambient():
    I = parse_ideal("x^2 + z^3", ("x", "z"))
    J = parse_center("[x^2, y^3]")
    with pytest.raises(AmbientMismatchError):
        controlled_transform(I, build_charts(J, 6)[0])
    with pytest.raises(AmbientMismatchError):
        leading_term_projection(I, J)


def test_strict_transform_and_leading_terms_reject_a_missing_center_variable():
    I = parse_ideal("x^2 + z^3", ("x", "z"))
    J = parse_center("[x^2, y^3]")
    with pytest.raises(AmbientMismatchError):
        strict_transform(I, build_charts(J, 6)[0])
    with pytest.raises(AmbientMismatchError):
        leading_term_decomposition(I.generators[0], J)
    # f lacks the aligning step's w, so it is read on (x, y, w): there
    # x^2 = (x + w)^2 - 2*(x + w)*w + w^2 has terms below the center
    sheared = parse_center("[(x + w)^2, y^3]", ("x", "y", "w"))
    with pytest.raises(AdmissibilityError, match="term of valuation 1/2"):
        leading_term_decomposition(parse_polynomial("x^2 + y^3", ("x", "y")), sheared)


def test_an_ideal_aligns_once_per_step(monkeypatch):
    calls = []
    apply = AlignStep._apply

    def counted(self, f, a, b):
        calls.append(self.var)
        return apply(self, f, a, b)

    J = ORACLE_CENTERS[1]  # [(x + y^2)^3, y^7]: one shear step
    u, v = J.coordinate_polynomials()
    z = Polynomial.variable("z", J.ambient)
    I = PolyIdeal(J.ambient, [u**3, v**7, u**3 * z])
    two_steps = parse_center("[(x + y^2)^3, (y + z)^5]", ("x", "y", "z"))
    assert len(two_steps.change.steps) == 2
    monkeypatch.setattr(AlignStep, "_apply", counted)
    controlled_transform(I, build_charts(J, minimal_root(J.exponents))[0])
    assert calls == ["x"]
    calls.clear()
    assert len(leading_term_projection(I, J).rows) == 3
    assert calls == ["x"]
    calls.clear()
    two_steps.coordinate_polynomials()
    assert calls == ["y", "x"]


def _over_first(f: Polynomial, k: int) -> Polynomial:
    """f with its variables after the first k set to 1."""
    terms: dict = {}
    for e, c in f.terms.items():
        terms[e[:k]] = terms.get(e[:k], 0) + c
    return Polynomial(f.variables[:k], terms)


def _projection_or_refusal(I, center):
    try:
        return leading_term_projection(I, center)
    except AdmissibilityError:
        return AdmissibilityError


@settings(max_examples=60, deadline=None)
@given(st.lists(oracle_polynomials(), min_size=1, max_size=3), st.integers(1, 3))
def test_center_readers_take_an_ideal_over_part_of_the_ambient_in_any_order(fs, k):
    # Z is written over the first k variables of the first drawn (permuted)
    # ambient; every reader must answer it as it answers Z re-embedded in
    # the center's ambient, and the projection's one aligned pass must give
    # the rows of the generator-wise decompositions
    names = fs[0].variables
    Z = PolyIdeal(names[:k], [_over_first(f.extend_ambient(names), k) for f in fs])
    for center in ORACLE_CENTERS:
        I = Z.extend_ambient(center.ambient)
        assert is_admissible(Z, center) == is_admissible(I, center)
        for g, h in zip(Z.generators, I.generators):
            assert nu_valuation(g, center) == nu_valuation(h, center)
        projection = _projection_or_refusal(Z, center)
        assert projection == _projection_or_refusal(I, center)
        if projection is not AdmissibilityError:
            rows = [tuple(leading_term_decomposition(g, center).items()) for g in Z.generators]
            assert projection.rows == tuple(row for row in rows if row)


def test_a_unit_in_a_reordered_ambient_is_read_on_the_center_ambient():
    # aligning f = 1 in its own ambient (z, y, x) would re-embed the shear's
    # tail y^2 there, which alone meets cap 1; read on the center's ambient,
    # both orders give the same refusal: 1 is not in the center
    J = ORACLE_CENTERS[1]  # [(x + y^2)^3, y^7]
    with using_degree_cap(1):
        for names in (("z", "y", "x"), J.ambient):
            with pytest.raises(AdmissibilityError):
                leading_term_decomposition(Polynomial.constant(1, names), J)


@st.composite
def admissibility_cases(draw):
    center = draw(st.sampled_from(ORACLE_CENTERS))
    inside = rounding(center).generators
    gens = []
    for f in draw(st.lists(oracle_polynomials(), min_size=1, max_size=3)):
        g = f.extend_ambient(center.ambient)
        if draw(st.booleans()):  # a multiple of a rounding generator lies in the center
            g = g * draw(st.sampled_from(inside))
        gens.append(g)
    return PolyIdeal(center.ambient, gens), center


@settings(max_examples=80, deadline=None)
@given(admissibility_cases())
def test_is_admissible_is_nu_at_least_one_on_every_generator(case):
    I, center = case
    assert is_admissible(I, center) == all(nu_valuation(g, center) >= 1 for g in I.generators)


def test_strict_transform_mechanics():
    # a deliberately non-adapted center exercises pure saturation mechanics
    Z = parse_ideal("y^2 - x^3")
    J = parse_center("[x^2, y^3]")
    charts = build_charts(J, 6)
    assert charts[0].weights == (3, 2)
    Sx = strict_transform(Z, charts[0])
    assert [str(g) for g in Sx.generators] == ["y'^2 - s^5"]
    Sy = strict_transform(Z, charts[1])
    assert [str(g) for g in Sy.generators] == ["1 - x'^3*s^5"]


def test_strict_transform_of_a_divisor():
    Z = parse_ideal("x", ("x",))
    J = parse_center("[x]", ("x",))
    (chart,) = build_charts(J, 1)
    assert [str(g) for g in strict_transform(Z, chart).generators] == ["1"]


# -- drivers ----------------------------------------------------------------------


def test_principalize_a_single_power():
    trace = principalize(parse_ideal("x^2"))
    assert trace.status == "principalized"
    assert trace.step_count() == 1
    assert invariant_drop_check(trace)


def test_principalize_the_flagship_example():
    trace = principalize(parse_ideal("x^5 + x^3*y^3 + y^7"))
    assert trace.status == "principalized"
    assert trace.step_count() <= 10
    assert invariant_drop_check(trace)
    first = trace.steps[0]
    assert first.N == 35
    transforms = {str(c.transform) for c in first.charts}
    assert transforms == {"(1 + s*y'^3 + y'^7)", "(1 + x'^3*s + x'^5)"}
    # the continuation happens at the rational point y' = -1 on the fiber
    tracked = {pt.coords for c in first.charts for pt in c.tracked}
    assert (("y'", F(-1)),) in tracked


def test_principalize_the_tangent_example():
    trace = principalize(parse_ideal("x*y^2 + y^4"))
    assert trace.steps[0].mord == MultiOrder((3, 3))
    assert trace.status == "principalized"
    assert invariant_drop_check(trace)


def test_principalize_the_three_variable_example():
    trace = principalize(parse_ideal("x^4, x*y^4, x^2*y*z^2"))
    assert trace.status == "principalized"
    assert trace.step_count() <= 10
    assert invariant_drop_check(trace)


def test_drop_check_rejects_a_corrupted_trace():
    trace = principalize(parse_ideal("x^2"))
    step = trace.steps[0]
    bad_point = TrackedPoint((), step.mord, False)  # no drop recorded
    bad_chart = step.charts[0].__class__(
        index=step.charts[0].index,
        coordinate=step.charts[0].coordinate,
        weights=step.charts[0].weights,
        exceptional=step.charts[0].exceptional,
        substitution=step.charts[0].substitution,
        transform=step.charts[0].transform,
        tracked=(bad_point,),
    )
    trace.steps[0] = BlowupStep(
        label=step.label,
        ideal=step.ideal,
        mord=step.mord,
        center=step.center,
        N=step.N,
        charts=(bad_chart,),
    )
    assert not invariant_drop_check(trace)


def test_embedded_resolution_of_the_cusp():
    Z = parse_ideal("x^2 - y^3")
    trace = embedded_resolve(Z, 1)
    assert trace.status == "resolved"
    assert trace.step_count() == 1
    assert invariant_drop_check(trace)
    # all tracked continuation points are regular: invariant (1)
    for chart in trace.steps[0].charts:
        for pt in chart.tracked:
            assert pt.resolved


def test_embedded_resolution_of_a_hyperplane_is_empty():
    trace = embedded_resolve(parse_ideal("x", ("x", "y")), 1)
    assert trace.step_count() == 0
    assert trace.status == "resolved"


def test_embedded_resolution_of_the_higher_cusp():
    Z = parse_ideal("y^2 - x^5")
    assert multiorder(Z).mord == MultiOrder((2, 5))
    trace = embedded_resolve(Z, 1)
    assert trace.status == "resolved"
    assert invariant_drop_check(trace)


@pytest.mark.parametrize("codim", [3, 200000])
def test_embedded_resolution_rejects_a_codimension_above_the_ambient(codim):
    with pytest.raises(DomainError, match="exceeds the number of variables"):
        embedded_resolve(parse_ideal("x^2 - y^3"), codim)
    # the codimension may equal the number of variables
    assert embedded_resolve(parse_ideal("x, y"), 2).status == "resolved"


def test_embedded_resolution_separates_tangent_branches():
    # y^2 - x^4 = (y - x^2)(y + x^2): both branch points are tracked
    trace = embedded_resolve(parse_ideal("y^2 - x^4"), 1)
    assert trace.status == "resolved"
    points = [pt for c in trace.steps[0].charts for pt in c.tracked]
    roots = {pt.coords for pt in points if pt.coords}
    assert len(roots) >= 2
    assert all(pt.resolved for pt in points)
    assert invariant_drop_check(trace)


def test_step_cap_returns_a_typed_status():
    trace = principalize(parse_ideal("x^5 + x^3*y^3 + y^7"), max_steps=1)
    assert trace.status == "resource-capped"
    assert trace.step_count() == 1


BINOMIAL_CURVES = [(a, b) for a in range(2, 8) for b in range(a + 1, a + 7)]


@pytest.mark.parametrize("a, b", BINOMIAL_CURVES)
def test_binomial_curves_finish_under_the_default_cap(a, b):
    # every pullback carries s^lcm(a, b), above the cap for the larger
    # curves; the kept transforms are small, and the cap sees only those
    I = parse_ideal(f"x^{a} - y^{b}")
    trace = principalize(I)
    assert trace.status == "principalized"
    assert invariant_drop_check(trace)
    trace = embedded_resolve(I, 1)
    assert trace.status == "resolved"
    assert invariant_drop_check(trace)


def test_a_kept_transform_above_the_cap_is_still_refused(capsys):
    # the alignment brings in y^30, so chart 0 keeps a transform of degree 72:
    # the first step is refused, and the run ends capped with no step
    assert main(["principalize", "x^6 + 5*x^5*y^5 + y^9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "resource-capped"
    assert doc["steps"] == []


def test_a_chart_image_above_the_cap_is_refused():
    # the center (2, 3, 23) has weights (69, 46, 6) at N = 138: every kept
    # transform is small, but the recorded image s^69 is above the default
    # cap of 64, so the run ends capped with no step; a cap of 70 admits it
    I = parse_ideal("x^2 + y^3 + z^23")
    assert principalize(I).status == "resource-capped"
    assert embedded_resolve(I, 1).status == "resource-capped"
    assert principalize(I).steps == []
    with using_degree_cap(70):
        trace = principalize(I)
        assert trace.status == "principalized"
        assert trace.steps[0].charts[0].weights == (69, 46, 6)
        assert embedded_resolve(I, 1).status == "resolved"


def test_a_cap_hit_after_the_first_step_keeps_that_step(monkeypatch):
    from weightedres import blowup

    calls = []

    def capped_after_one(center, N):
        calls.append(center)
        if len(calls) == 2:
            raise ResourceLimitError("product degree 65 exceeds cap 64")
        return build_charts(center, N)

    # steps: (3, 3) with charts, a divisor step, then (2) with charts
    I = parse_ideal("x*y^2 + y^4")
    full = principalize(I)
    monkeypatch.setattr(blowup, "build_charts", capped_after_one)
    trace = principalize(I)
    assert trace.status == "resource-capped"
    assert trace.steps == full.steps[:2]
    assert trace.steps[0].mord == MultiOrder((3, 3))


def test_a_cap_hit_in_a_later_step_ends_the_cli_run_with_its_steps(capsys):
    argv = ["embed-resolve", "x^2 + y*z, x^2 + y*z + z^5", "--codim", "2"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "resource-capped"
    assert len(doc["steps"]) == 3


def test_a_cap_hit_at_the_start_point_is_still_an_error(capsys):
    assert main(["--degree-cap", "5", "principalize", "x^40*y + y^41"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "resource-cap"


def test_corpus_terminates_within_ten_steps(corpus):
    for I in corpus:
        trace = principalize(I)
        assert trace.status == "principalized"
        assert trace.step_count() <= 10
        assert invariant_drop_check(trace)


@pytest.mark.parametrize(
    "text, codim",
    [
        ("x^5 + x^3*y^3 + y^7", None),
        ("x^2 + y^3 + z^5", None),
        ("x^4, x*y^4, x^2*y*z^2", None),
        ("y^2 - x^4", 1),
    ],
)
def test_each_tracked_point_has_its_invariant_computed_once(monkeypatch, text, codim):
    from weightedres import blowup

    calls = []
    original = blowup.point_invariant

    def counting(ideal):
        calls.append(ideal)
        return original(ideal)

    monkeypatch.setattr(blowup, "point_invariant", counting)
    I = parse_ideal(text)
    trace = principalize(I) if codim is None else embedded_resolve(I, codim)
    tracked = [pt for step in trace.steps for chart in step.charts for pt in chart.tracked]
    assert isinstance(trace.status, blowup.DriverStatus)
    assert len(calls) == 1 + len(tracked)


def _driver_cases() -> list[tuple[str, int | None, int]]:
    """(ideal, codim or None to principalize, max steps): every driver case of
    the CLI golden corpus, then seeded curves, surfaces and monomial ideals
    under both drivers."""
    cases = []
    for entry in json.loads(GOLDEN.read_text()):
        verb, text, *opts = entry["argv"]
        if verb in ("principalize", "embed-resolve") and text != "0":
            flags = dict(zip(opts[::2], opts[1::2]))
            codim = int(flags["--codim"]) if verb == "embed-resolve" else None
            if codim != 0:
                cases.append((text, codim, int(flags.get("--max-steps", 10))))
    rng = random.Random(7)
    for _ in range(4):
        a = rng.randint(2, 6)
        curve = f"x^{a} - {rng.randint(2, 5)}*y^{rng.randint(a + 1, a + 5)}"
        surface = " + ".join(f"{v}^{rng.randint(2, 5)}" for v in "xyz")
        monomials = ", ".join(
            "*".join(f"{v}^{rng.randint(1, 3)}" for v in rng.sample("xyz", rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        )
        cases += [(text, codim, 10) for text in (curve, surface, monomials) for codim in (None, 1)]
    return cases


def _record_mismatches(trace, embedded: bool, tamper=lambda chart: chart) -> list[tuple]:
    """(step, chart, what) wherever a driver record differs from the public
    per-chart functions on its step's ideal: the transform, generator by
    generator, and the rendered substitution; a divisor step's transform is
    its ideal divided by the divisor.  `tamper` edits each rebuilt chart."""
    transform = strict_transform if embedded else controlled_transform
    out = []
    for n, step in enumerate(trace.steps):
        if step.note.startswith("divisor center"):
            (record,) = step.charts
            divisor = parse_polynomial(record.coordinate, step.ideal.variables)
            quotient = [g.divide_exact(divisor) for g in step.ideal.generators]
            quotient = PolyIdeal(divisor.variables, quotient)
            if record.transform.generators != quotient.generators:
                out.append((n, 0, "divisor"))
            continue
        charts = build_charts(step.center, step.N)
        for record in step.charts:
            chart = tamper(charts[record.index])
            try:
                expected = transform(step.ideal, chart).generators
            except AdmissibilityError:
                expected = None
            if record.transform.generators != expected:
                out.append((n, record.index, "transform"))
            if dict(record.substitution) != {v: str(p) for v, p in chart_images(chart).items()}:
                out.append((n, record.index, "substitution"))
    return out


def test_driver_records_match_the_per_chart_functions():
    # the driver aligns a step's ideal once and reads every chart, and its
    # recorded substitution, off the aligned exponent vectors
    checked = 0
    for text, codim, max_steps in _driver_cases():
        I = parse_ideal(text)
        if codim is None:
            trace = principalize(I, max_steps)
        else:
            trace = embedded_resolve(I, codim, max_steps)
        assert _record_mismatches(trace, codim is not None) == [], (text, codim)
        checked += sum(len(step.charts) for step in trace.steps)
    assert checked > 100


@pytest.mark.parametrize("text, codim", [("x^5 + x^3*y^3 + y^7", None), ("x^3 - y^5", 1)])
def test_the_record_check_sees_a_changed_chart_weight(text, codim):
    def heavier(chart):
        return dataclasses.replace(chart, weights=(chart.weights[0] + 1,) + chart.weights[1:])

    I = parse_ideal(text)
    trace = principalize(I) if codim is None else embedded_resolve(I, codim)
    found = {what for _, _, what in _record_mismatches(trace, codim is not None, heavier)}
    assert found == {"transform", "substitution"}


def test_bivariate_fiber_points_include_non_axis_zeros():
    # when the first generator pair shares the factor u - v, its
    # pseudo-remainder sequence ends in zero and the next pair is tried
    from weightedres.blowup import _fiber_points

    amb = ("s", "u", "v")
    chart_stub = type("Stub", (), {"exceptional": "s", "ambient": amb})()
    cases = {
        "u^2 + v^2 - 25, u*v - 12": {(3, 4), (4, 3), (-3, -4), (-4, -3)},
        "(u-v)*(u+v-7), (u-v)*(u-2*v+2), u^2+v^2-25": {(4, 3)},
        "(u-v)*(u+v-7), (u-v)*(u-2*v+2), (u-v)*(u*v-12), (u-v)*(v-3), (u-4)*(u+v-7)": {
            (F(7, 2), F(7, 2)),
            (4, 3),
            (4, 4),
        },
    }
    for text, expected in cases.items():
        points, irrational = _fiber_points(parse_ideal(text, amb), chart_stub)
        assert points[0] == () and not irrational
        assert {tuple(r for _, r in p) for p in points[1:]} == expected, text



# -- the Fraction fiber search, kept as the reference for the integer one -----


def _ref_axis_profile(g, var):
    i = g.variables.index(var)
    axis = {e[i]: c for e, c in g.terms.items() if sum(e) == e[i]}
    return tuple(axis.get(k, F(0)) for k in range(max(axis, default=-1) + 1))


def _ref_horner(p, r):
    values = list(itertools.accumulate(reversed(p), lambda acc, c: acc * r + c))
    return values[-2::-1], values[-1]


ROOT_REFUSAL = "rational-root search needs the divisors of"


def _ref_rational_roots(p, content_free=False):
    if len(p) < 2:
        return []
    low = next(k for k, c in enumerate(p) if c)
    lcm = math.lcm(*(c.denominator for c in p))
    ints = [int(c * lcm) for c in p[low:]]
    if content_free:
        ints = [c // math.gcd(*ints) for c in ints]
    trailing, leading = abs(ints[0]), abs(ints[-1])
    if max(trailing, leading) > 10**12:
        raise ResourceLimitError(f"{ROOT_REFUSAL} {max(trailing, leading)}")
    divisors = [
        sorted({d for i in range(1, math.isqrt(n) + 1) if n % i == 0 for d in (i, n // i)})
        for n in (trailing, leading)
    ]
    roots = {F(0)} if low else set()
    for b in divisors[1]:
        homogenized = [c * b**k for k, c in enumerate(reversed(ints))]
        for a in divisors[0]:
            if math.gcd(a, b) > 1:
                continue
            for r in (a, -a):
                acc = 0
                for c in homogenized:
                    acc = acc * r + c
                if acc == 0:
                    roots.add(F(r, b))
    return sorted(roots)


def _ref_monic_remainder(a, b):
    a = list(a)
    while len(a) >= len(b):
        q, shift = a[-1] / b[-1], len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return [c / a[-1] for c in a] if a else []


def _ref_irrational(fiber, var, roots):
    if len(fiber) != 1:
        return False
    p = _ref_axis_profile(fiber[0], var)
    g, b = p, [k * c for k, c in enumerate(p)][1:]
    while b:
        g, b = b, _ref_monic_remainder(g, b)
    for r in roots(g):
        q, value = _ref_horner(g, r)
        while value == 0:
            g = q
            q, value = _ref_horner(g, r)
    return len(g) > 1


def _ref_degree_in(g, v):
    i = g.variables.index(v)
    return max((e[i] for e in g.terms), default=0)


def _ref_pseudo_remainder(f, g, v):
    i, dg = f.variables.index(v), _ref_degree_in(g, v)

    def head(h):
        d = _ref_degree_in(h, v)
        return Polynomial(
            h.variables,
            {e[:i] + (d - dg,) + e[i + 1 :]: c for e, c in h.terms.items() if e[i] == d},
        )

    lc_g = head(g)
    while not f.is_zero() and _ref_degree_in(f, v) >= dg:
        f = lc_g * f - head(f) * g
    return f


def _ref_eliminate(fiber, u, v, roots):
    with_v = sorted((g for g in fiber if v in g.support()), key=lambda p: _ref_degree_in(p, v))
    for f, g in itertools.combinations(with_v, 2):
        while _ref_degree_in(g, v) > 0:
            f, g = g, _ref_pseudo_remainder(f, g, v)
        if not g.is_zero():
            return roots(_ref_axis_profile(g, u))
    return []


def reference_fiber_points(transform, chart, content_free=False):
    """The Fraction search; with content_free, the root search reads its
    bound off the coefficients with their content divided out."""

    def roots(p):
        return _ref_rational_roots(p, content_free)

    s = chart.exceptional
    fiber = list(transform.restrict(s).generators)
    active = sorted({v for g in fiber for v in g.support() if v != s}, key=chart.ambient.index)
    irrational = len(active) == 1 and _ref_irrational(fiber, active[0], roots)
    candidates = {
        v: {F(0)}.union(*map(roots, {_ref_axis_profile(g, v) for g in fiber}))
        for v in active
    }
    if len(active) == 2:
        u, v = active
        candidates[u].update(_ref_eliminate(fiber, u, v, roots))
        candidates[v].update(_ref_eliminate(fiber, v, u, roots))
    points = [()]
    for combo in itertools.product(*(sorted(candidates[v]) for v in active)):
        point = {v: r for v, r in zip(active, combo) if r != 0}
        if point and all(h.evaluate(point) == 0 for h in fiber):
            points.append(tuple(sorted(point.items())))
    return points, irrational


def _seeded_fibers(rng, amb):
    """Transforms over amb = (s, *fiber variables) whose fibers are products
    of rational linear factors and irreducible quadratics, some repeated,
    with rational scalars; a second generator is sometimes a scalar multiple
    of the first on the fiber, or shares a factor with it."""
    s, *xs = (Polynomial.variable(v, amb) for v in amb)

    def const(c):
        return Polynomial.constant(c, amb)

    def linear():
        form = const(F(rng.randint(-4, 4), rng.randint(1, 3)))
        for x in xs:
            form = form + x.scale(F(rng.randint(1, 3) * rng.choice((1, -1)), rng.randint(1, 2)))
        return form

    def quadratic():
        x = rng.choice(xs)
        return x * x + const(rng.choice((-2, 1, 3, F(-3, 2)))) + x.scale(rng.choice((0, 1)))

    def factor():
        base = linear() if rng.random() < 0.6 else quadratic()
        return base ** rng.choice((1, 1, 2, 3))

    def product(k):
        g = const(F(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1)))
        for _ in range(k):
            g = g * factor()
        return g

    def lift():
        return s * rng.choice(xs + [const(1)]) ** rng.randint(0, 2)

    first = product(rng.randint(1, 3))
    gens = [first + lift()]
    shape = rng.choice(("alone", "alone", "multiple", "shared", "other"))
    if shape == "multiple":
        gens.append(first.scale(rng.choice((2, F(-1, 3)))) + s * s)
    elif shape == "shared":
        gens.append(first * factor() + s * xs[-1])
    elif shape == "other":
        gens.append(product(rng.randint(1, 2)) + s)
    return PolyIdeal(amb, gens)


def test_fiber_search_agrees_with_the_fraction_reference():
    # the same points, in the same order, and the same irrational flag as the
    # Fraction search on seeded fibers, and the same degree-cap verdicts.  The
    # one difference: the integer search bounds the root search by the
    # content-free coefficients, so an eliminant whose Fraction form carries
    # a large content is searched where the Fraction search refused it
    from weightedres.blowup import _fiber_points

    def outcome(search, *args):
        try:
            with using_degree_cap(cap):
                return search(*args)
        except ResourceLimitError as err:
            return str(err)

    rng = random.Random(32)
    transforms = [
        parse_ideal(text, ("s", "u", "v"))
        for text in (
            "u^2 + v^2 - 25, u*v - 12",
            "(u-v)*(u+v-7), (u-v)*(u-2*v+2), u^2+v^2-25",
            "(u-v)*(u+v-7), (u-v)*(u-2*v+2), (u-v)*(u*v-12), (u-v)*(v-3), (u-4)*(u+v-7)",
        )
    ]
    transforms += [_seeded_fibers(rng, ("s", "u")) for _ in range(60)]
    transforms += [_seeded_fibers(rng, ("s", "u", "v")) for _ in range(60)]
    flags, found, capped, searched = set(), 0, 0, 0
    for T in transforms:
        chart = type("Stub", (), {"exceptional": "s", "ambient": T.variables})()
        for cap in (6, 10, DEFAULT_DEGREE_CAP):
            got = outcome(_fiber_points, T, chart)
            expected = outcome(reference_fiber_points, T, chart)
            if str(expected).startswith(ROOT_REFUSAL) and not isinstance(got, str):
                expected = outcome(reference_fiber_points, T, chart, True)
                searched += 1
            if isinstance(expected, str):
                if expected.startswith(ROOT_REFUSAL):  # the numbers may differ
                    expected, got = ROOT_REFUSAL, got[: len(ROOT_REFUSAL)]
                assert got == expected, (T, cap)
                capped += 1
            else:
                assert got == expected, (T, cap)
                flags.add(got[1])
                found += len(got[0]) - 1
    assert flags == {True, False} and found > 100 and capped > 10 and searched > 0


def test_univariate_fiber_points_are_every_rational_root():
    # a one-active-variable fiber, the product of k distinct rational linear
    # factors: the chart origin and exactly the k nonzero roots, however many
    from weightedres.blowup import _fiber_points

    amb = ("s", "u")
    chart_stub = type("Stub", (), {"exceptional": "s", "ambient": amb})()
    s, u = (Polynomial.variable(v, amb) for v in amb)
    values = sorted({F(a, b) for a in range(-6, 7) if a for b in (1, 2, 3)})
    rng = random.Random(8)
    for k in range(1, 13):
        roots = rng.sample(values, k)
        g = Polynomial.constant(rng.randint(1, 5), amb)
        for r in roots:
            g = g * (u - Polynomial.constant(r, amb))
        points, irrational = _fiber_points(PolyIdeal(amb, [g + s * u]), chart_stub)
        assert points[0] == () and len(points) == k + 1
        assert set(points[1:]) == {(("u", r),) for r in roots}
        assert not irrational


def test_every_line_of_an_eight_line_product_is_visited():
    # each chart's fiber has 8 nonzero rational roots; the driver tracks them
    # all and goes on past the first step until every point is principalized
    I = parse_ideal("*".join(f"(x-{k}*y)" for k in range(1, 9)))
    trace = principalize(I, max_steps=40)
    assert trace.status == "principalized" and trace.step_count() > 1
    for chart in trace.steps[0].charts:
        coords = [pt.coords for pt in chart.tracked]
        assert coords[0] == () and len(coords) == 9
        assert all(len(c) == 1 and c[0][1] != 0 for c in coords[1:])
    assert invariant_drop_check(trace)

def integer_coefficients(coeffs) -> list[int]:
    """Dense rational coefficients over their common denominator, content
    divided out: the integer form the fiber search works on."""
    den = math.lcm(*(F(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def dense(g: Polynomial, var: str) -> list[Fraction]:
    """The coefficients, lowest degree first, of g in the one variable var."""
    i = g.variables.index(var)
    out = [F(0)] * (max(e[i] for e in g.terms) + 1)
    for e, c in g.terms.items():
        out[e[i]] = c
    return out


def term_map(g: Polynomial) -> dict:
    """g's terms over their common denominator, content divided out."""
    ints = integer_coefficients(list(g.terms.values()))
    return dict(zip(g.terms, ints))


def test_irrational_singular_fiber_point_needs_a_repeated_irrational_factor():
    from weightedres.blowup import _has_irrational_singular_fiber_point

    cases = {
        "(u^2 - 2)^2*(u - 1)": True,
        "u^3*(u^2 + 1)^3*(3*u + 2)^2": True,
        "(u^3 - 5)^2": True,
        "(u^2 - 2)*(u - 1)^3*u^2": False,  # only the rational roots repeat
        "(u^2 - 3)*(u^2 + 1)": False,  # irrational but simple
        "(2*u - 1)^4*(u + 5)^2": False,
    }
    for text, expected in cases.items():
        p = integer_coefficients(dense(parse_polynomial(text, ("s", "u")), "u"))
        assert _has_irrational_singular_fiber_point(p) is expected, text


def test_rational_root_search_refuses_huge_coefficients():
    from weightedres.blowup import ROOT_SEARCH_BOUND, _rational_roots
    from weightedres.errors import ResourceLimitError

    assert _rational_roots([-ROOT_SEARCH_BOUND, 0, 1]) == [F(-(10**6)), F(10**6)]
    with pytest.raises(ResourceLimitError):
        _rational_roots([-(ROOT_SEARCH_BOUND + 1), 0, 0, 1])


def test_root_search_agrees_with_a_fraction_horner_reference():
    # end coefficients with many divisors (360, 720, ...), so many candidate
    # pairs a/b share a factor; half the polynomials get rational linear
    # factors and some a power of u, so roots are found, 0 among them
    from weightedres.blowup import _rational_roots

    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    def reference(p):
        low = next(k for k, c in enumerate(p) if c)
        ends = [abs(c * math.lcm(*(c.denominator for c in p))) for c in (p[low], p[-1])]
        candidates = {
            F(sign * a, b)
            for a in divisors(int(ends[0]))
            for b in divisors(int(ends[1]))
            for sign in (1, -1)
        }
        roots = {F(0)} if low else set()
        for r in candidates:
            value = F(0)
            for c in reversed(p):
                value = value * r + c
            if value == 0:
                roots.add(r)
        return sorted(roots)

    rng = random.Random(23)
    found = 0
    for _ in range(40):
        ends = (rng.choice((360, 720, 240, 120)), rng.choice((360, 720, 60, 12)))
        middle = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        p = [F(rng.choice((1, -1)) * ends[0]), *map(F, middle), F(ends[1])]
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                a, b = rng.choice((1, 2, 3, 4, 5, 6)), rng.choice((1, 2, 3, 4))
                p = [F(0), *p]  # (b*u - a) * p, with a shared factor or not
                p = [b * p[k] - a * (p[k + 1] if k + 1 < len(p) else 0) for k in range(len(p))]
            p = [F(0)] * rng.randint(0, 1) + [c * F(rng.randint(1, 3), 7) for c in p]
        roots = _rational_roots(integer_coefficients(p))
        assert roots == reference(p), p
        found += len(roots)
    assert found > 10


def test_root_search_agrees_with_sympy():
    # seeded products over Q of rational linear factors and irreducible
    # quadratics or cubics, each to a power 1-3, times a rational scalar
    sympy = pytest.importorskip("sympy")
    from weightedres.blowup import _has_irrational_singular_fiber_point, _rational_roots

    u = sympy.Symbol("u")
    rng = random.Random(41)
    verdicts = set()
    for _ in range(60):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                f = rng.randint(1, 3) * u - rng.randint(-3, 3)
            else:
                d = rng.choice((2, 3))
                f = rng.randint(1, 3) * u**d + sum(rng.randint(-3, 3) * u**k for k in range(d))
                while not sympy.Poly(f, u).is_irreducible:
                    f += rng.randint(-3, 3)
            factors.append(f ** rng.randint(1, 3))
        scalar = sympy.Rational(rng.randint(1, 4), rng.randint(1, 4))
        P = sympy.Poly(scalar * sympy.Mul(*factors), u, domain="QQ")
        p = integer_coefficients([F(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())])
        assert _rational_roots(p) == sorted(F(int(r.p), int(r.q)) for r in P.ground_roots())
        expected = any(g.degree() >= 2 and m >= 2 for g, m in P.factor_list()[1])
        assert _has_irrational_singular_fiber_point(p) is expected, P
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_divisor_fallback_for_unalignable_regular_points():
    # the invariant refuses to align x + x^2 + y^3, but the driver still
    # principalizes it: the ideal is the divisor itself, divided out exactly
    trace = principalize(parse_ideal("x + x^2 + y^3"))
    assert trace.status == "principalized"
    assert trace.step_count() == 1
    assert trace.steps[0].mord == MultiOrder((1,))
    assert "divisor" in trace.steps[0].note
    assert invariant_drop_check(trace)


def test_a_divisor_step_divides_by_its_center_coordinate():
    # the driver takes a divisor step's divisor from the level-1 contact, not
    # from the center's inverse alignment; the two are the same polynomial
    checked = 0
    for text, codim, max_steps in _driver_cases():
        I = parse_ideal(text)
        if codim is None:
            trace = principalize(I, max_steps)
        else:
            trace = embedded_resolve(I, codim, max_steps)
        for step in trace.steps:
            if step.note.startswith("divisor center") and step.center is not None:
                divisor = step.center.coordinate_polynomials()[0]
                (record,) = step.charts
                assert record.coordinate == record.exceptional == str(divisor), text
                assert record.substitution == ((str(divisor), "divided out"),)
                quotient = [g.divide_exact(divisor) for g in step.ideal.generators]
                assert record.transform.generators == PolyIdeal(divisor.variables, quotient).generators
                checked += 1
    assert checked > 10


def test_fiber_elimination_gives_up_under_a_small_degree_cap():
    amb = ("x", "y")
    fiber = [
        parse_polynomial("x^2*y^3 + y - 1", amb),
        parse_polynomial("x^3*y^2 + x*y + 2", amb),
    ]
    # the pseudo-remainder sequence needs degree 8: the cap hit propagates,
    # so the driver ends the run resource-capped instead of dropping points
    with using_degree_cap(6), pytest.raises(ResourceLimitError):
        _eliminate_variable([term_map(g) for g in fiber], 0, 1)


def test_irrational_singular_point_is_a_typed_status():
    # (x^2 - 2 y^2)^2 + y^7 has a singular fiber point with x'^2 = 2
    trace = principalize(parse_ideal("(x^2 - 2*y^2)^2 + y^7"))
    assert trace.status == "irrational-point"


def test_mixed_weight_one_center_blowup():
    # (x, y^2) carries the invariant (1, 2); both charts must clear it
    trace = principalize(parse_ideal("x, y^2"))
    assert trace.steps[0].mord == MultiOrder((1, 2))
    assert trace.status == "principalized"
    assert invariant_drop_check(trace)


# -- chart geometry ----------------------------------------------------------------


def test_chart_transition_compatibility():
    for text in (
        "x^5 + x^3*y^3 + y^7",
        "x^4, x*y^4, x^2*y*z^2",  # three charts, N = 32
        "x^5 + x^3*y^3 + y^8",  # a fractional entry, N = 15
        "(x+y^2)^3 + y^7",  # a sheared center
    ):
        I = parse_ideal(text)
        res = multiorder(I)
        N = minimal_root(res.mord)
        for i, j in itertools.product(range(len(res.center.coords)), repeat=2):
            assert transition_agrees(res.center, N, i, j, I), (text, i, j)


def test_stacky_grading_and_stabilizers():
    J = multiorder(parse_ideal("x^5 + x^3*y^3 + y^7")).center
    assert [c.stabilizer_order for c in build_charts(J, 35)] == [7, 5]
    # residual weight -N mod w_k, not 0: the two differ on a chart whose w_k
    # does not divide N, as for a fractional entry
    for text, roots in (
        ("x^5 + x^3*y^3 + y^7", (35,)),
        ("x^5 + x^3*y^3 + y^8", (15, 30)),
        ("x^4, x*y^4, x^2*y*z^2", (32,)),
    ):
        I = parse_ideal(text)
        J = multiorder(I).center
        for N in roots:
            for chart in build_charts(J, N):
                assert chart_grading_ok(chart, controlled_transform(I, chart)), (text, N)


def test_chart_names_are_drawn_once_per_blowup():
    # the exceptional name and each coordinate's prime are the same on every
    # chart, even where a drawn name collides with the ambient
    J = parse_center("[x^2, x'^3, y^4]", ("x", "x'", "s", "y'", "y"))
    charts = build_charts(J, 12)
    assert {c.exceptional for c in charts} == {"s1"}
    assert [c.primes for c in charts] == [
        {"x'": "x''", "y": "y'1"},
        {"x": "x'1", "y": "y'1"},
        {"x": "x'1", "x'": "x''"},
    ]


def test_grading_check_refuses_a_term_of_the_wrong_residual_weight():
    J = parse_center("[x^5, y^7]")
    chart = build_charts(J, 35)[0]  # stabilizer order 7
    s = Polynomial.variable(chart.exceptional, chart.ambient)
    assert not chart_grading_ok(chart, PolyIdeal(chart.ambient, [s]))
    assert chart_grading_ok(chart, PolyIdeal(chart.ambient, [s**7]))


def _one_more_on_the_last_term(g):
    top, c = max(g.terms.items())
    return {**g.terms, top: c + 1}


def _one_extra_term(g):
    top = max(g.terms)
    return {**g.terms, tuple(e + 1 for e in top): 1}


@pytest.mark.parametrize("tamper", [_one_more_on_the_last_term, _one_extra_term])
def test_transition_check_refuses_a_tampered_chart(monkeypatch, tamper):
    from weightedres import blowup

    I = parse_ideal("x^5 + x^3*y^3 + y^7")
    J = multiorder(I).center
    assert transition_agrees(J, 35, 0, 1, I) and transition_agrees(J, 35, 1, 0, I)
    original = blowup.controlled_transform

    def tampered(ideal, chart):
        T = original(ideal, chart)
        if chart.chart_index != 1:
            return T
        g = T.generators[0]
        return PolyIdeal(T.variables, [Polynomial(g.variables, tamper(g))])

    monkeypatch.setattr(blowup, "controlled_transform", tampered)
    assert not transition_agrees(J, 35, 0, 1, I)
    assert not transition_agrees(J, 35, 1, 0, I)


def test_exact_divisibility_is_checked_not_assumed():
    I = parse_ideal("x^4, x*y^4, x^2*y*z^2")
    J = multiorder(I).center
    for chart in build_charts(J, 32):
        T = controlled_transform(I, chart)  # raises if any division fails
        assert all(not g.is_zero() for g in T.generators)
