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
from weightedres.poly import echelon, monomial_str

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


# -- one-term powers -------------------------------------------------------------


def reference_power(f, n):
    """The square-and-multiply power that `Polynomial.__pow__` keeps for a
    base of several terms, here applied to any base."""
    result = Polynomial.constant(1, f.variables)
    base = f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


@st.composite
def one_term_bases(draw):
    variables = XYZ[: draw(st.integers(1, 3))]
    exp = tuple(draw(st.integers(0, 3)) for _ in variables)  # all 0: a constant
    coeff = draw(
        st.one_of(
            st.sampled_from((1, -1)),
            st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
        )
    )
    return Polynomial(variables, {exp: coeff})


@settings(max_examples=300, deadline=None)
@given(one_term_bases(), st.integers(0, 70), st.integers(1, 200))
@example(Polynomial(("x",), {(1,): -1}), 64, 64)
@example(Polynomial(("x", "y"), {(2, 1): Fraction(-2, 3)}), 22, 65)
@example(Polynomial(("x", "y"), {(0, 0): Fraction(3, 2)}), 70, 1)
def test_a_one_term_power_is_the_square_and_multiply_power(f, n, cap):
    got = capped(lambda: f**n, cap)
    expected = capped(lambda: reference_power(f, n), cap)
    if expected is ResourceLimitError:
        assert got is ResourceLimitError
    else:
        assert got == expected and len(got.terms) == 1


# -- translation ---------------------------------------------------------------


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(xyz_polys, min_size=1, max_size=3),
    st.dictionaries(st.sampled_from(XYZ), rationals, min_size=1, max_size=3),
    st.integers(1, 12),
)
@example([P("x^2 - 2*x + 1", XYZ), P("y*z - z", XYZ)], {"x": 1, "y": 1}, 12)
@example([P("x^3*y^2 - 3*x", XYZ)], {"x": Fraction(-1, 2), "y": 0}, 4)
def test_translate_is_the_substitution_of_shifted_variables(gens, point, cap):
    # the first example cancels to x^2 and y*z: terms meet and drop to zero
    I = PolyIdeal(XYZ, gens)
    images = {
        v: Polynomial.variable(v, XYZ) + Polynomial.constant(a, XYZ)
        for v, a in point.items()
        if a
    }
    if not images:
        assert I.translate(point) is I  # nothing moves, so nothing is capped
        return
    assert I.translate(point).generators == I.substitute(images).generators
    got = capped(lambda: I.translate(point), cap)
    expected = capped(lambda: I.substitute(images), cap)
    if expected is ResourceLimitError:
        assert got is ResourceLimitError
    else:
        assert got.generators == expected.generators


def test_translate_to_the_origin_and_by_a_foreign_name():
    I = PolyIdeal(XYZ, [P("x^2 + y", XYZ)])
    assert I.translate({}) is I
    assert I.translate({"x": 0, "y": Fraction(0)}) is I
    with pytest.raises(ValueError):
        I.translate({"w": 1})


def test_translate_multiplies_no_polynomials(monkeypatch):
    I = PolyIdeal(XYZ, [P("x^3*y^2 + z", XYZ), P("x*y*z - 2", XYZ)])
    calls = []
    mul = Polynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    I.translate({"x": Fraction(1, 3), "y": -2})
    assert calls == []


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


def reference_divmod(f, divisor):
    """The division `Polynomial.divmod` replaced: every step subtracts a whole
    product `divisor * monomial` from what is left, as polynomials."""
    vs = f.variables
    lead_exp, lead_c = divisor.leading()
    q, r = {}, {}
    rest = f
    while not rest.is_zero():
        exp, c = rest.leading()
        diff = tuple(a - b for a, b in zip(exp, lead_exp))
        if any(d < 0 for d in diff):
            r[exp] = c
            rest = rest - Polynomial(vs, {exp: c})
        else:
            q[diff] = c / lead_c
            rest = rest - divisor * Polynomial(vs, {diff: c / lead_c})
    return Polynomial(vs, q), Polynomial(vs, r)


@settings(max_examples=150, deadline=None)
@given(small_polys(), small_polys(), small_polys(), st.integers(1, 8))
@example(P("x^3 + y"), P("2*x - 3*y^2"), P("0"), 3)  # inexact, non-monic
@example(P("0"), P("3*x*y + 1/2*x"), P("x^2 - y"), 4)  # exact, non-monic
def test_divmod_matches_the_polynomial_product_loop(f, g, h, cap):
    assume(not g.is_zero())
    f = f + h * g
    assert f.divmod(g) == reference_divmod(f, g)
    # a cancelled term above the cap refuses, as the product would
    assert capped(lambda: f.divmod(g), cap) == capped(lambda: reference_divmod(f, g), cap)


def test_parse_round_trip():
    for text in ("x^5 + x^3*y^3 + y^7", "1/2*x^2 - 3*y", "x*y - 1"):
        f = P(text)
        assert parse_polynomial(str(f), VARS) == f


def reference_str(f):
    """The rendering `Polynomial.__str__` replaced: sign and magnitude by
    `abs`, comparison and `str` on the Fraction coefficients."""
    if not f.terms:
        return "0"
    parts = []
    for exp, coeff in f.sorted_terms():
        mono = monomial_str(f.variables, exp)
        c = coeff if not parts else abs(coeff)
        if not any(exp):
            body = str(c)
        elif abs(c) == 1:
            body = mono if c > 0 else f"-{mono}"
        else:
            body = f"{c}*{mono}"
        parts.append(body if not parts else ("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coefficients, max_size=5),
    st.one_of(st.none(), coefficients),
)
@example({}, None)  # the zero polynomial
@example({(1, 0, 0): -1, (0, 2, 1): 1}, Fraction(-3, 2))  # -3/2 - x + y^2*z
def test_str_matches_the_fraction_renderer(terms, constant):
    if constant is not None:
        terms = {**terms, (0, 0, 0): constant}
    f = Polynomial(("x", "y", "z"), terms)
    assert str(f) == reference_str(f)
    assert parse_polynomial(str(f), f.variables) == f


def test_juxtaposition_is_multiplication():
    assert P("2x y^2") == P("2*x*y^2")
    assert P("x(x+y)") == P("x*(x+y)")


# -- row echelon kernel ---------------------------------------------------------

entries = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=4)
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=6)
    )
)
@example([[1, 2], [2, 4], [0, 0]])  # a dependent row and a zero row
@example([[0, 1, 1], [1, 1, 0], [1, 0, 0]])  # a later row pivots left of an earlier one
def test_echelon_is_a_reduced_basis_of_the_row_span(rows):
    sympy = pytest.importorskip("sympy")
    basis = echelon(rows)
    assert len(basis) == (sympy.Matrix(rows).rank() if rows else 0)
    for p, b in basis.items():
        assert not any(b[:p]) and b[p] == 1
        assert all(b[q] == 0 for q in basis if q != p)
    # reduced: a row of the span is the combination of the basis rows that
    # its own entries at the pivots give
    for row in rows:
        combination = [sum(row[p] * b[j] for p, b in basis.items()) for j in range(len(row))]
        assert combination == list(row)
