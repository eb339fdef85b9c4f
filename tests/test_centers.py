import math
import random
from fractions import Fraction

import pytest

from weightedres import (
    AdmissibilityError,
    CenterPresentation,
    LatticeIdeal,
    MultiOrder,
    Polynomial,
    PolyIdeal,
    ResourceLimitError,
    is_admissible,
    is_in_mord,
    leading_term_basis,
    leading_term_projection,
    multiorder,
    nu_valuation,
    parse_ideal,
    parse_polynomial,
    rounding,
    witness_vectors,
)
from weightedres.centers import CoordinateChange, AlignStep
from weightedres.errors import using_degree_cap
from weightedres.textio import parse_center

F = Fraction


def center(text, variables=None):
    return parse_center(text, variables)


# -- valuation -----------------------------------------------------------------


def test_nu_values():
    J = center("[x^5, y^7]")
    assert nu_valuation(parse_polynomial("x^3*y^3", J.ambient), J) == F(36, 35)
    assert nu_valuation(parse_polynomial("y^7", J.ambient), J) == 1
    J2 = center("[x^5, y^(15/2)]")
    assert nu_valuation(parse_polynomial("y^7", J2.ambient), J2) == F(14, 15)


def test_nu_of_zero_is_infinite():
    J = center("[x^2]")
    assert nu_valuation(Polynomial.zero(J.ambient), J) == math.inf


def test_nu_through_a_coordinate_change():
    J = center("[(x + y^2)^5, y^11]", variables=("x", "y"))
    f = parse_polynomial("(x + y^2)^5 + y^11", ("x", "y"))
    assert nu_valuation(f, J) == 1
    # the aligned coordinate has exactly its weight; the bare variable x
    # rewrites to X - y^2, whose y-part values lower
    assert nu_valuation(parse_polynomial("x + y^2", ("x", "y")), J) == F(1, 5)
    assert nu_valuation(parse_polynomial("x", ("x", "y")), J) == F(2, 11)


# -- admissibility ---------------------------------------------------------------


def test_admissibility_examples():
    assert is_admissible(parse_ideal("x^5 + x^3*y^3 + y^7"), center("[x^5, y^7]"))
    assert is_admissible(
        parse_ideal("x^5 + x^3*y^3 + y^8"), center("[x^5, y^(15/2)]")
    )
    assert not is_admissible(parse_ideal("y", ("x", "y")), center("[y^2]", ("x", "y")))


# -- roundings -------------------------------------------------------------------


def test_rounding_five_seven():
    gens = {str(g) for g in rounding(center("[x^5, y^7]")).generators}
    assert gens == {"x^5", "x^4*y^2", "x^3*y^3", "x^2*y^5", "x*y^6", "y^7"}


def test_rounding_five_fifteen_halves():
    gens = {str(g) for g in rounding(center("[x^5, y^(15/2)]")).generators}
    assert gens == {"x^5", "x^4*y^2", "x^3*y^3", "x^2*y^5", "x*y^6", "y^8"}


def test_rounding_trivial():
    assert {str(g) for g in rounding(center("[x^2]")).generators} == {"x^2"}


def test_rounding_is_admissible_with_exact_monomial_values():
    for text in ("[x^5, y^7]", "[x^5, y^(15/2)]", "[x^2, y^3]"):
        J = center(text)
        R = rounding(J)
        assert is_admissible(R, J)
        d = J.t_exponents()
        for g, a in zip(R.generators, LatticeIdeal(d).minimal_generators()):
            assert nu_valuation(g, J) == sum(F(x) / e for x, e in zip(a, d))


@pytest.mark.parametrize(
    "text",
    [
        "[(x + y^2)^2, y^(7/2)]",
        "[(2*x + y^2 - 3*z^3)^3, (y + z^2)^4, z^5]",
        "[(x + z^2) | (y - x*z)^2, z^3]",
        # the center multiorder returns for the paper's example
        "(x+y*z)^4 + (y+z^3)^6 + z^9",
    ],
)
def test_rounding_through_a_change_expands_the_coordinate_products(text):
    # sympy is the oracle: generator k is the expansion of the k-th product
    # of coordinate polynomials, s-coordinates first, then the staircase
    sympy = pytest.importorskip("sympy")
    if text.startswith("["):
        J = center(text)
    else:
        J = multiorder(parse_ideal(text)).center
        assert len(J.change.steps) == 2
    assert J.change.steps

    def expr(p):
        return sympy.sympify(str(p).replace("^", "**"))

    coords = [expr(p) for p in J.coordinate_polynomials()]
    s = J.s_count()
    products = coords[:s] + [
        sympy.Mul(*(c**e for c, e in zip(coords[s:], a)))
        for a in LatticeIdeal(J.t_exponents()).minimal_generators()
    ]
    gens = rounding(J).generators
    assert len(gens) == len(products)
    for g, product in zip(gens, products):
        assert sympy.expand(expr(g) - product) == 0


@pytest.mark.parametrize(
    "text",
    [
        # mapped back one alignment step at a time, the generator x'^4 would
        # expand through degree 36 before cancelling to (x + z^3)^4, of 12
        "[(x + z^3)^4, y, (z - y^3)]",
        "[(2*x + y^2 - 3*z^3)^3, (y + z^2)^4, z^5]",
    ],
)
def test_rounding_meets_the_cap_exactly_when_a_generator_exceeds_it(text):
    J = center(text)
    R = rounding(J)
    top = max(g.total_degree() for g in R.generators)
    with using_degree_cap(top):
        assert rounding(J) == R
    with pytest.raises(ResourceLimitError), using_degree_cap(top - 1):
        rounding(J)


def test_canonical_center_of_rounding_recovers_random_integral_centers():
    # curated integral tuples in two and three variables
    tuples = [
        (2,),
        (3,),
        (2, 2),
        (2, 3),
        (3, 4),
        (3, F(9, 2)),
        (5, 7),
        (5, F(15, 2)),
        (4, F(16, 3)),
        (2, 2, 2),
        (2, 3, 4),
        (2, 2, 3),
        (4, F(16, 3), F(32, 5)),
    ]
    names = ("x", "y", "z")
    for entries in tuples:
        d = MultiOrder(entries)
        assert is_in_mord(d)
        ambient = names[: len(entries)]
        J = CenterPresentation(ambient, CoordinateChange.identity(ambient), ambient, d)
        res = multiorder(rounding(J))
        assert res.mord == d
        assert res.center == J


# -- leading terms ---------------------------------------------------------------


def test_leading_term_bases():
    def basis_monomials(J):
        lt = leading_term_basis(J)
        out = set()
        for exp in lt.basis:
            out.add(
                "*".join(
                    f"{v}^{e}" if e > 1 else v
                    for v, e in zip(lt.coords, exp)
                    if e
                )
            )
        return out

    assert basis_monomials(center("[x^5, y^7]")) == {"x^5", "y^7"}
    assert basis_monomials(center("[x^5, y^(15/2)]")) == {"x^5", "x^3*y^3", "x*y^6"}
    assert basis_monomials(center("[x^4, y^(16/3), z^(32/5)]")) == {
        "x^4",
        "x*y^4",
        "x^2*y*z^2",
        "y^2*z^4",
    }


def test_leading_term_projection_spans():
    J = center("[x^5, y^7]")
    lt = leading_term_projection(parse_ideal("x^5 + x^3*y^3 + y^7"), J)
    assert {e for row in lt.rows for e, _ in row} == {(5, 0), (0, 7)}

    J2 = center("[x^5, y^(15/2)]")
    lt2 = leading_term_projection(parse_ideal("x^5 + x^3*y^3 + y^8"), J2)
    assert {e for row in lt2.rows for e, _ in row} == {(5, 0), (3, 3)}

    J3 = center("[x^4, y^(16/3), z^(32/5)]")
    lt3 = leading_term_projection(parse_ideal("x^4, x*y^4, x^2*y*z^2"), J3)
    assert {e for row in lt3.rows for e, _ in row} == {(4, 0, 0), (1, 4, 0), (2, 1, 2)}


def test_projection_requires_admissibility():
    with pytest.raises(AdmissibilityError):
        leading_term_projection(parse_ideal("y", ("x", "y")), center("[y^2]", ("x", "y")))


def test_basis_cardinality_matches_witness_count():
    for text in ("[x^5, y^7]", "[x^5, y^(15/2)]", "[x^4, y^(16/3), z^(32/5)]"):
        J = center(text)
        d = J.t_exponents()
        lt = leading_term_basis(J)
        assert len(lt.basis) == len(witness_vectors(d, len(d)))


def test_nu_superadditivity_and_monomial_equality():
    rng = random.Random(3)
    J = center("[x^2, y^3]")
    amb = J.ambient
    for _ in range(30):
        terms_f = {
            (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
            for _ in range(3)
        }
        terms_g = {
            (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
            for _ in range(3)
        }
        f, g = Polynomial(amb, terms_f), Polynomial(amb, terms_g)
        if f.is_zero() or g.is_zero():
            continue
        assert nu_valuation(f * g, J) >= nu_valuation(f, J) + nu_valuation(g, J)
        mf = Polynomial(amb, {(rng.randint(0, 3), rng.randint(0, 3)): 1})
        mg = Polynomial(amb, {(rng.randint(0, 3), rng.randint(0, 3)): 1})
        assert nu_valuation(mf * mg, J) == nu_valuation(mf, J) + nu_valuation(mg, J)


def test_change_round_trip():
    amb = ("x", "y")
    step = AlignStep("x", F(1), parse_polynomial("y^2", amb))
    change = CoordinateChange(amb, (step,))
    for text in ("x^5 + x^3*y^3 + y^7", "x + y", "x*y^2 - 1/2"):
        f = parse_polynomial(text, amb)
        assert change.to_original(change.to_aligned(f)) == f
        assert change.to_aligned(change.to_original(f)) == f


def test_a_step_maps_an_ideal_as_it_maps_each_generator():
    rng = random.Random(7)
    amb = ("x", "y", "z")

    def poly(free=None):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = [rng.randint(0, 3) for _ in amb]
            if free is not None:
                exp[amb.index(free)] = 0
            terms[tuple(exp)] = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        return Polynomial(amb, terms)

    for _ in range(30):
        var = rng.choice(amb)
        step = AlignStep(var, F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)), poly(var))
        J = PolyIdeal(amb, [poly() for _ in range(rng.randint(1, 3))])
        aligned = step.apply_aligned(J)
        assert aligned.generators == tuple(step.apply_aligned(g) for g in J.generators)
        assert step.apply_original(aligned).generators == J.generators
