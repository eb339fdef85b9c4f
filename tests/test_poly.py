import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weightedres import (
    AmbientMismatchError,
    Polynomial,
    PolyIdeal,
    ResourceLimitError,
    parse_ideal,
    parse_polynomial,
)
from weightedres.errors import using_degree_cap

VARS = ("x", "y")


def P(text: str, variables=VARS) -> Polynomial:
    return parse_polynomial(text, variables)


# -- arithmetic ---------------------------------------------------------------


def test_add_cancels():
    assert P("x + y") + P("x - y") == P("2*x")


def test_mul_difference_of_squares():
    assert P("x + y^2") * P("x - y^2") == P("x^2 - y^4")


def test_power_coefficient_matches_binomial_expansion():
    # oracle: expand (x + y^2)^5 by repeated multiplication, never by pow
    base = P("x + y^2")
    expanded = P("1")
    for _ in range(5):
        expanded = expanded * base
    coeff = expanded.terms[(3, 4)]
    assert coeff == math.comb(5, 2) == 10
    assert base**5 == expanded


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatchError):
        P("x") + parse_polynomial("x", ("x", "z"))


# -- substitution -------------------------------------------------------------


def test_substitute_square_of_shift():
    f = P("x^2")
    assert f.substitute({"x": P("x + y")}) == P("x^2 + 2*x*y + y^2")


def test_substitute_chart_map():
    # the (5,7)-chart map x -> s^7, y -> s^5 y
    f = parse_polynomial("x^5 + x^3*y^3 + y^7", ("x", "y"))
    target = ("s", "y")
    image = f.substitute(
        {
            "x": parse_polynomial("s^7", target),
            "y": parse_polynomial("s^5*y", target),
        },
        target,
    )
    assert image == parse_polynomial("s^35 + s^36*y^3 + s^35*y^7", target)


def test_substitute_translation():
    f = parse_polynomial("y - (x - t)^2", ("x", "y", "t"))
    shifted = f.substitute({"x": parse_polynomial("x + t", ("x", "y", "t"))})
    assert shifted == parse_polynomial("y - x^2", ("x", "y", "t"))


# -- derivatives --------------------------------------------------------------


def test_derivative_ideal_contains_expected_partial():
    I = parse_ideal("x^4, x*y^4, x^2*y*z^2")
    d1 = I.derivative_ideal(1)
    target = parse_polynomial("y^4", I.variables)
    assert any(g == target for g in d1.generators)


@pytest.mark.parametrize("n", range(1, 6))
def test_full_derivative_tower_reaches_a_unit(n):
    I = parse_ideal(f"x*y^{n} + y^{n + 2}")
    assert I.derivative_ideal(n + 1).order() == 0
    assert I.derivative_ideal(n).order() > 0  # order is exactly n + 1


def test_zeroth_derivative_is_identity():
    I = parse_ideal("x^2, y^3")
    assert I.derivative_ideal(0) == I


# -- order --------------------------------------------------------------------


def test_order_examples():
    assert P("x*y^2 + y^4").order() == 3
    assert P("x^5 + x^3*y^3 + y^7").order() == 5
    assert P("1 + x*y").order() == 0
    assert Polynomial.zero(VARS).order() == math.inf
    assert PolyIdeal(VARS, []).order() == math.inf


# -- degree guard -------------------------------------------------------------


def test_degree_cap_stops_runaway_products():
    with using_degree_cap(16):
        with pytest.raises(ResourceLimitError):
            _ = P("x^9") * P("x^9")


def test_degree_cap_must_be_positive():
    with pytest.raises(ValueError):
        with using_degree_cap(0):
            pass


# -- property tests -----------------------------------------------------------


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exp = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if coeff:
            terms[exp] = coeff
    return Polynomial(VARS, terms)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_substitution_is_a_homomorphism(f, g):
    images = {"x": P("x + y^2"), "y": P("y - x")}
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


def reference_substitute(f, images, variables):
    """The term-by-term substitution that `Polynomial.substitute` replaced:
    an unmapped variable is sent to itself as a polynomial, each term is one
    product per factor, and the terms are added one at a time."""
    target = tuple(variables)
    imap = []
    for v in f.variables:
        img = images.get(v)
        imap.append(Polynomial.variable(v, target) if img is None else img)
    result = Polynomial.zero(target)
    for exp, coeff in f.terms.items():
        term = Polynomial.constant(coeff, target)
        for img, e in zip(imap, exp):
            if e:
                term = term * img**e
        result = result + term
    return result


def capped(compute, cap):
    """compute() under the degree cap, or ResourceLimitError if it refuses."""
    try:
        with using_degree_cap(cap):
            return compute()
    except ResourceLimitError:
        return ResourceLimitError


XYZ = ("x", "y", "z")
# targets: the same ambient, its reversal, and a larger one in another order
TARGETS = (XYZ, ("z", "y", "x"), ("w", "z", "x", "u", "y"))


xyz_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-4, 4), max_size=4
).map(lambda terms: Polynomial(XYZ, terms))


@st.composite
def substitutions(draw):
    """(f, images, target): f in x, y, z; each of its variables is kept, sent
    to zero, sent to one of x, y, z (so a swap can be drawn) or sent to a
    small polynomial in the target."""
    f = draw(xyz_polys)
    target = draw(st.sampled_from(TARGETS))
    images = {}
    for v in XYZ:
        kind = draw(st.sampled_from(("kept", "zero", "variable", "polynomial")))
        if kind == "zero":
            images[v] = Polynomial.zero(target)
        elif kind == "variable":
            images[v] = Polynomial.variable(draw(st.sampled_from(XYZ)), target)
        elif kind == "polynomial":
            # monomials of degree at most 2, so every term stays below 64
            n = len(target)
            monomials = st.lists(st.integers(0, n - 1), max_size=2).map(
                lambda picks: tuple(picks.count(j) for j in range(n))
            )
            terms = draw(
                st.dictionaries(monomials, st.integers(-3, 3), min_size=1, max_size=3)
            )
            images[v] = Polynomial(target, terms)
    return f, images, target


SWAP = {"x": P("y", XYZ), "y": P("x", XYZ)}


@settings(max_examples=150, deadline=None)
@given(substitutions(), st.integers(1, 12))
@example((P("x^3*y*z + 2*x - y^2", XYZ), SWAP, XYZ), 12)
@example((P("x*y^2 - z", XYZ), {"y": P("0", TARGETS[2])}, TARGETS[2]), 2)
@example((P("x*y^2*z^2", XYZ), {"x": P("0", XYZ)}, XYZ), 3)
def test_substitute_matches_the_term_by_term_reference(drawn, cap):
    f, images, target = drawn
    # terms have degree at most 18, below the default cap: results agree
    assert f.substitute(images, target) == reference_substitute(f, images, target)
    got = capped(lambda: f.substitute(images, target), cap)
    expected = capped(lambda: reference_substitute(f, images, target), cap)
    if got is ResourceLimitError and expected is not ResourceLimitError:
        # the reference stops checking a term at its first zero factor, while
        # the kernel checks the term's moved exponents before any factor
        assert any(images[v].is_zero() for v in f.support() & set(images))
    else:
        assert got == expected
    if set(XYZ) <= set(target):
        assert capped(lambda: f.extend_ambient(target), cap) == capped(
            lambda: reference_substitute(f, {}, target), cap
        )


@settings(max_examples=100, deadline=None)
@given(substitutions(), st.lists(xyz_polys, max_size=2), st.integers(1, 12))
@example((P("x^3*y + z", XYZ), SWAP, XYZ), [P("x*y^2*z^2", XYZ)], 4)
def test_an_ideal_substitutes_as_its_generators_do(drawn, more, cap):
    f, images, target = drawn
    I = PolyIdeal(XYZ, [f, *more])

    def per_generator():
        return PolyIdeal(target, [g.substitute(images, target) for g in I.generators])

    got = capped(lambda: I.substitute(images, target), cap)
    expected = capped(per_generator, cap)
    if expected is ResourceLimitError:
        assert got is ResourceLimitError
    else:
        assert got.generators == expected.generators


def test_an_ideal_computes_each_image_power_once(monkeypatch):
    I = PolyIdeal(XYZ, [P("x^3 + y", XYZ), P("x^3*z", XYZ), P("x^3 - z^2", XYZ)])
    image = P("x + y", XYZ)
    calls = []
    power = Polynomial.__pow__

    def counted(self, k):
        calls.append(k)
        return power(self, k)

    monkeypatch.setattr(Polynomial, "__pow__", counted)
    I.substitute({"x": image})
    assert calls == [3]


def test_a_swap_is_simultaneous():
    assert P("x^2*y*z", XYZ).substitute(SWAP) == P("x*y^2*z", XYZ)


def test_substitution_errors_are_unchanged():
    with pytest.raises(ValueError):
        P("x*y").substitute({"x": P("x", ("x", "z"))}, ("x", "z"))  # y is unmapped
    with pytest.raises(AmbientMismatchError):
        P("x*y").substitute({"x": P("x"), "y": P("y", ("x", "y", "z"))})
    # only the images of f's own variables are checked
    assert P("x").substitute({"x": P("y"), "w": P("w", ("w",))}) == P("y")


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_order_additivity(f, g):
    if not f.is_zero() and not g.is_zero():
        assert (f * g).order() == f.order() + g.order()
    s = f + g
    if not s.is_zero():
        assert s.order() >= min(f.order(), g.order())


@settings(max_examples=25, deadline=None)
@given(small_polys(), small_polys())
def test_derivative_tower_is_monotone(f, g):
    I = PolyIdeal(VARS, [f, g])
    previous = I
    for k in range(1, 3):
        current = I.derivative_ideal(k)
        # monotone by construction: every earlier generator is kept
        kept = set(previous.generators)
        assert kept.issubset(set(current.generators))
        previous = current


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), st.integers(min_value=1, max_value=4))
def test_chained_derivative_steps_match_fresh_steps(f, g, k):
    # a tower carries state from step to step; a fresh PolyIdeal carries none
    I = PolyIdeal(VARS, [f, g])
    chained, fresh = I, I
    for _ in range(k):
        chained = chained.derivative_extend()
        fresh = PolyIdeal(fresh.variables, fresh.generators).derivative_extend()
        assert chained.generators == fresh.generators


def test_derivative_monotonicity_by_membership_for_monomials():
    # monomial towers stay monomial, so membership is divisibility
    I = parse_ideal("x^4, x*y^4")
    for k in range(3):
        smaller = I.derivative_ideal(k)
        larger = I.derivative_ideal(k + 1)
        for g in smaller.generators:
            exp, _ = g.leading()
            assert any(
                all(a >= b for a, b in zip(exp, h.leading()[0]))
                for h in larger.generators
            )


def test_exact_division():
    f = P("x^2 - y^4")
    g = P("x + y^2")
    q = f.divide_exact(g)
    assert q == P("x - y^2")
    assert P("x^2 + y").divide_exact(g) is None


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_divmod_is_graded_lex_division_with_a_unique_remainder(f, g, h):
    assume(not g.is_zero())
    q, r = f.divmod(g)
    assert f == q * g + r
    lead, _ = g.leading()
    assert not any(all(a >= b for a, b in zip(exp, lead)) for exp in r.terms)
    assert (f.divide_exact(g) is None) == (not r.is_zero())
    # the remainder is the normal form modulo (g): it ignores multiples of g
    assert (f + h * g).divmod(g)[1] == r


def test_parse_round_trip():
    for text in ("x^5 + x^3*y^3 + y^7", "1/2*x^2 - 3*y", "x*y - 1"):
        f = P(text)
        assert parse_polynomial(str(f), VARS) == f
