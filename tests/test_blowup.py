import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weightedres import (
    MultiOrder,
    build_charts,
    controlled_transform,
    embedded_resolve,
    invariant_drop_check,
    leading_term_projection,
    minimal_root,
    multiorder,
    parse_ideal,
    principalize,
    rees_generators,
    strict_transform,
)
from weightedres.blowup import (
    BlowupStep,
    TrackedPoint,
    _eliminate_variable,
    chart_grading_ok,
    transition_agrees,
)
from weightedres.errors import (
    DEFAULT_DEGREE_CAP,
    AdmissibilityError,
    AmbientMismatchError,
    DomainError,
    ResourceLimitError,
    set_degree_cap,
    using_degree_cap,
)
from weightedres.poly import Polynomial
from weightedres.textio import parse_polynomial
from weightedres.lattice import LatticeIdeal
from weightedres.textio import parse_center

F = Fraction


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
    # under the drawn cap and on either side of the pullback's degree
    for chart in build_charts(center, minimal_root(center.exponents)):
        images = chart.substitution
        s = Polynomial.variable(chart.exceptional, chart.ambient)
        for v, w in zip(center.coords, chart.weights):
            prime = chart.primes.get(v)
            unit = Polynomial.variable(prime, chart.ambient) if prime else s**0
            assert images[v] == s**w * unit
        with using_degree_cap(10**6):
            top = chart.transform_poly(f).total_degree()
        for c in {cap, max(1, top - 1), max(1, top)}:
            with using_degree_cap(c):
                new = _pullback_or_cap(lambda: chart.transform_poly(f))
                old = _pullback_or_cap(
                    lambda: center.change.to_aligned(f).substitute(images, chart.ambient)
                )
            assert new == old


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


def test_bivariate_fiber_points_include_non_axis_zeros():
    from weightedres.blowup import _fiber_points

    amb = ("s", "u", "v")
    fiber_system = parse_ideal("u^2 + v^2 - 25, u*v - 12", amb)
    chart_stub = type("Stub", (), {"exceptional": "s", "ambient": amb})()
    points, irrational = _fiber_points(fiber_system, chart_stub)
    found = {tuple(sorted((k, int(x)) for k, x in p.items())) for p in points if p}
    assert found == {
        (("u", 3), ("v", 4)),
        (("u", 4), ("v", 3)),
        (("u", -3), ("v", -4)),
        (("u", -4), ("v", -3)),
    }
    assert not irrational


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
        fiber = [parse_polynomial(text, ("s", "u"))]
        assert _has_irrational_singular_fiber_point(fiber, "u") is expected, text


def test_rational_root_search_refuses_huge_coefficients():
    from weightedres.blowup import ROOT_SEARCH_BOUND, _rational_roots
    from weightedres.errors import ResourceLimitError

    assert _rational_roots({0: F(-ROOT_SEARCH_BOUND), 2: F(1)}) == [
        F(-(10**6)),
        F(10**6),
    ]
    with pytest.raises(ResourceLimitError):
        _rational_roots({0: F(-(ROOT_SEARCH_BOUND + 1)), 3: F(1)})


def test_divisor_fallback_for_unalignable_regular_points():
    # the invariant refuses to align x + x^2 + y^3, but the driver still
    # principalizes it: the ideal is the divisor itself, divided out exactly
    trace = principalize(parse_ideal("x + x^2 + y^3"))
    assert trace.status == "principalized"
    assert trace.step_count() == 1
    assert trace.steps[0].mord == MultiOrder((1,))
    assert "divisor" in trace.steps[0].note
    assert invariant_drop_check(trace)


def test_fiber_elimination_gives_up_under_a_small_degree_cap():
    amb = ("x", "y")
    fiber = [
        parse_polynomial("x^2*y^3 + y - 1", amb),
        parse_polynomial("x^3*y^2 + x*y + 2", amb),
    ]
    set_degree_cap(6)  # the pseudo-remainder sequence needs degree 8
    try:
        assert _eliminate_variable(fiber, "x", "y") == []
    finally:
        set_degree_cap(DEFAULT_DEGREE_CAP)


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
    I = parse_ideal("x^5 + x^3*y^3 + y^7")
    J = multiorder(I).center
    charts = build_charts(J, 35)
    assert [c.stabilizer_order for c in charts] == [7, 5]
    for chart in charts:
        assert chart_grading_ok(chart, controlled_transform(I, chart))


def test_exact_divisibility_is_checked_not_assumed():
    I = parse_ideal("x^4, x*y^4, x^2*y*z^2")
    J = multiorder(I).center
    for chart in build_charts(J, 32):
        T = controlled_transform(I, chart)  # raises if any division fails
        assert all(not g.is_zero() for g in T.generators)
