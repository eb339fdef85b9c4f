import itertools
import random
from fractions import Fraction

import pytest

from weightedres import (
    CenterPresentation,
    CoordinateChange,
    DomainError,
    MarkedIdealCollection,
    MultiOrder,
    Polynomial,
    PolyIdeal,
    delta,
    is_admissible,
    is_in_mord,
    maximal_contact,
    monomial_center_oracle,
    mord_compare,
    multiorder,
    parse_ideal,
    parse_polynomial,
    reembedding_check,
    rounding,
)
from weightedres.invariant import _merge_dominated
from weightedres.lattice import GT, LatticeIdeal

F = Fraction


# -- delta ---------------------------------------------------------------------


def test_delta_of_the_input_collection():
    I = parse_ideal("x^5 + x^3*y^3 + y^7")
    assert delta(MarkedIdealCollection(I.variables, [(I, F(1))])) == 5


def test_delta_of_the_level_two_collection():
    amb = ("y", "z")
    entries = [
        (parse_ideal("y^4", amb), F(3, 4)),
        (parse_ideal("y^3, y*z^2, y^4", amb), F(1, 2)),
        (parse_ideal("y^2, y*z, z^2", amb), F(1, 4)),
    ]
    assert delta(MarkedIdealCollection(amb, entries)) == F(16, 3)


def test_delta_empty_is_infinite():
    import math

    assert delta(MarkedIdealCollection(("x",), [])) == math.inf


def test_merge_keeps_the_heaviest_copy_of_each_ideal_in_place():
    amb = ("x", "y")
    A = parse_ideal("x^2, y^3", amb)
    A_reordered = parse_ideal("y^3, x^2", amb)  # same generator set
    B = parse_ideal("x*y", amb)
    entries = [(A, F(1, 2)), (B, F(1)), (A_reordered, F(3, 4)), (A, F(3, 4)), (B, F(1))]
    assert _merge_dominated(entries) == [(B, F(1)), (A_reordered, F(3, 4))]
    assert _merge_dominated(entries)[1][0].generators == A_reordered.generators


# -- maximal contact -----------------------------------------------------------


def test_contact_examples():
    assert maximal_contact(parse_ideal("x*y^2 + y^4"), 3) == parse_polynomial(
        "y", ("x", "y")
    )
    assert maximal_contact(parse_ideal("x^5 + x^3*y^3 + y^7"), 5) == parse_polynomial(
        "x", ("x", "y")
    )
    assert maximal_contact(parse_ideal("(x+y^2)^5 + y^11"), 5) == parse_polynomial(
        "x + y^2", ("x", "y")
    )


def test_contact_rejects_units():
    from weightedres.errors import NoContactError

    with pytest.raises(NoContactError):
        maximal_contact(parse_ideal("1 + x", ("x",)), 0)


def test_contact_extracts_a_pure_variable_factor():
    # y*(1 + y) cuts the same hyperplane germ as y itself
    assert maximal_contact(parse_ideal("y + y^2", ("x", "y")), 1) == parse_polynomial(
        "y", ("x", "y")
    )


def test_unalignable_contact_is_a_typed_error():
    # x + x^2 + y^3 is a regular parameter, but only after inverting a unit,
    # which is outside polynomial changes; the invariant refuses honestly
    from weightedres.errors import ContactAlignmentError

    with pytest.raises(ContactAlignmentError):
        multiorder(parse_ideal("x + x^2 + y^3"))


# -- the invariant -------------------------------------------------------------


def test_invariant_corpus():
    cases = [
        ("x^5 + x^3*y^3 + y^7", (5, 7), ["x^5", "y^7"]),
        ("x^5 + x^3*y^3 + y^8", (5, F(15, 2)), ["x^5", "y^(15/2)"]),
        (
            "x^4, x*y^4, x^2*y*z^2",
            (4, F(16, 3), F(32, 5)),
            ["x^4", "y^(16/3)", "z^(32/5)"],
        ),
    ]
    for text, expected, center_parts in cases:
        res = multiorder(parse_ideal(text))
        assert res.mord == MultiOrder(expected)
        assert str(res.center) == "[" + ", ".join(center_parts) + "]"


@pytest.mark.parametrize("n", range(1, 6))
def test_invariant_of_the_tangent_family(n):
    res = multiorder(parse_ideal(f"x*y^{n} + y^{n + 2}"))
    assert res.mord == MultiOrder((n + 1, n + 1))
    # the first contact is y, the second an order-one polynomial in x
    assert res.center.coords[0] == "y"


def test_invariant_of_rounded_center():
    I = parse_ideal("x^5, x^4*y^2, x^3*y^3, x^2*y^5, x*y^6, y^8")
    assert multiorder(I).mord == MultiOrder((5, F(15, 2)))


def test_invariant_through_nested_coordinate_changes():
    I = parse_ideal("(x + z^2)^2, (y + z^3)^3", ("x", "y", "z"))
    res = multiorder(I)
    assert res.mord == MultiOrder((2, 3))
    assert str(res.center) == "[(x + z^2)^2, (y + z^3)^3]"
    assert is_admissible(I, res.center)


def test_unit_ideal_gets_the_zero_invariant():
    res = multiorder(parse_ideal("1 + x*y"))
    assert res.mord.is_zero()
    assert res.center is None


def test_zero_ideal_rejected():
    with pytest.raises(DomainError):
        multiorder(PolyIdeal(("x",), []))


def test_invariant_lies_in_the_witness_set(corpus):
    for I in corpus:
        res = multiorder(I)
        assert is_in_mord(res.mord)


def test_center_is_admissible_and_locally_maximal(corpus):
    rng = random.Random(17)
    for I in corpus:
        res = multiorder(I)
        assert is_admissible(I, res.center)
        # no sampled admissible diagonal perturbation beats the invariant
        names = I.variables
        for _ in range(25):
            k = rng.randint(1, len(names))
            chosen = rng.sample(range(len(names)), k)
            entries = sorted(
                F(rng.randint(1, 9), rng.randint(1, 2)) for _ in chosen
            )
            try:
                d = MultiOrder(entries)
            except DomainError:
                continue
            if not is_in_mord(d):
                continue
            coords = tuple(names[i] for i in sorted(chosen))
            J = CenterPresentation(names, CoordinateChange.identity(names), coords, d)
            if is_admissible(I, J):
                assert mord_compare(d, res.mord) != GT


def test_idempotence_on_roundings(corpus):
    for I in corpus:
        res = multiorder(I)
        again = multiorder(rounding(res.center))
        assert again.mord == res.mord


# -- the monomial oracle ---------------------------------------------------------


def test_oracle_examples():
    r = monomial_center_oracle(parse_ideal("x^5, x^4*y^2, x^3*y^3, x^2*y^5, x*y^6, y^7"))
    assert r.mord == MultiOrder((5, 7))
    assert str(r.center) == "[x^5, y^7]"
    assert monomial_center_oracle(parse_ideal("x^2")).mord == MultiOrder((2,))
    full = parse_ideal("x^4, x*y^4, x^2*y*z^2, y^2*z^4")  # rounding of the 3-var center
    assert monomial_center_oracle(full).mord == MultiOrder((4, F(16, 3), F(32, 5)))


def test_oracle_leaves_no_state_in_its_module():
    from weightedres import invariant

    def containers():
        return {
            name: repr(value)
            for name, value in vars(invariant).items()
            if isinstance(value, (dict, list, set))
        }

    before = containers()
    monomial_center_oracle(parse_ideal("x^5, x^4*y^2, x^3*y^3, x^2*y^5, x*y^6, y^7"))
    assert containers() == before


def test_oracle_rejects_non_monomial_input():
    with pytest.raises(DomainError):
        monomial_center_oracle(parse_ideal("x + y"))


def test_oracle_agrees_with_the_recursion_on_random_ideals():
    rng = random.Random(20240809)
    for _ in range(40):
        n = rng.choice([2, 3])
        names = ("x", "y", "z")[:n]
        gens = []
        for _ in range(rng.randint(1, 4)):
            while True:
                exp = tuple(rng.randint(0, 6) for _ in range(n))
                if 1 <= sum(exp) <= 12:
                    break
            gens.append(Polynomial(names, {exp: 1}))
        I = PolyIdeal(names, gens)
        assert multiorder(I).mord == monomial_center_oracle(I).mord


# -- re-embedding -----------------------------------------------------------------


def test_reembedding_examples():
    assert reembedding_check(parse_ideal("x^5 + x^3*y^3 + y^7"), 1)
    assert reembedding_check(parse_ideal("x", ("x",)), 2)
    assert reembedding_check(parse_ideal("x^4, x*y^4, x^2*y*z^2"), 2)


def test_reembedding_values_are_prefixed_ones():
    I = parse_ideal("x^5 + x^3*y^3 + y^7")
    from weightedres.poly import fresh_name

    name = fresh_name("s1", I.variables)
    big = (name,) + I.variables
    gens = [Polynomial.variable(name, big)] + [g.extend_ambient(big) for g in I.generators]
    assert multiorder(PolyIdeal(big, gens)).mord == MultiOrder((1, 5, 7))


def test_substitution_invariance(corpus):
    rng = random.Random(77)
    for I in corpus:
        base = multiorder(I)
        for _ in range(5):
            sigma = _random_triangular(rng, I.variables)
            res = multiorder(I.substitute(sigma, I.variables))
            assert res.mord == base.mord


def _random_triangular(rng, names):
    images = {}
    n = len(names)
    for i, v in enumerate(names):
        img = Polynomial.variable(v, names).scale(rng.choice([1, 1, 2, -1]))
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                exp = [0] * n
                exp[j] = rng.randint(1, 2)
                img = img + Polynomial(names, {tuple(exp): rng.choice([1, -1, 2])})
        images[v] = img
    return images


# -- the invariant set on a grid -------------------------------------------------


def test_a_tuple_is_an_invariant_exactly_when_its_lattice_ideal_returns_it():
    """ROADMAP item 14(a).  I_d is the monomial ideal on the minimal
    generators of d's lattice ideal.  The witness walk (`is_in_mord`) and the
    derivative recursion (`multiorder`) must agree: d is an invariant exactly
    when mord(I_d) = d, and otherwise mord(I_d) is an invariant r above d
    whose center contains I_d, so that I_d lies in I_r.  The grid: n = 1..3,
    weakly increasing entries p/q with p <= 7, q <= 3 and p/q >= 1."""
    values = sorted({F(p, q) for q in (1, 2, 3) for p in range(q, 8)})
    members = outside = 0
    for n in (1, 2, 3):
        names = ("x", "y", "z")[:n]
        for entries in itertools.combinations_with_replacement(values, n):
            d = MultiOrder(entries)
            gens = LatticeIdeal(d).minimal_generators()
            I_d = PolyIdeal(names, [Polynomial(names, {a: 1}) for a in gens])
            result = multiorder(I_d)
            if is_in_mord(d):
                members += 1
                assert result.mord == d, d
            else:
                outside += 1
                r = result.mord
                assert is_in_mord(r) and mord_compare(r, d) == GT, (d, r)
                assert is_admissible(I_d, result.center), (d, r)
    assert (members, outside) == (119, 440)
