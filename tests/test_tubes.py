import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from weightedres import (
    DomainError,
    LatticeIdeal,
    MultiOrder,
    Polynomial,
    PolyIdeal,
    TubeAlgebra,
    center_from_tube,
    constant_tube,
    is_in_mord,
    multiorder,
    parameter_check,
    parse_ideal,
    parse_polynomial,
    rees_restriction_check,
    rounding,
    split_gt1,
    tight_presentation_check,
    tube_center_correspondence,
    tubular_rees_piece,
    verify_split_tube,
    width,
)
from weightedres.cli import main
from weightedres.errors import NotATubeError, UnrepresentableError
from weightedres.textio import parse_center

F = Fraction


# -- constant tubes -------------------------------------------------------------


def test_constant_tube_ranks():
    assert constant_tube(MultiOrder((2,))).rank() == 2
    assert constant_tube(MultiOrder((5, 7))).rank() == 23
    T = constant_tube(MultiOrder((2, 2)))
    assert T.rank() == 3
    assert set(T.relations) == {(2, 0), (1, 1), (0, 2)}


def test_constant_tube_width_must_exceed_one():
    with pytest.raises(DomainError):
        constant_tube(MultiOrder((1, 2)))


def test_an_empty_width_is_the_base_itself(capsys):
    for text in ("()", "[x, y]"):
        assert main(["tube", text]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 1 and payload["relations"] == []
    assert constant_tube(MultiOrder(())).rank() == 1
    assert verify_split_tube(TubeAlgebra(("x",), (), ()), MultiOrder(()))
    x = Polynomial.variable("x", ("x", "y"))
    verdict = tight_presentation_check(PolyIdeal(("x", "y"), []), [x], [], MultiOrder(()))
    assert (verdict.gap, verdict.s_size, verdict.valid, verdict.tight_exists) == (1, 1, True, False)


def test_rank_formula_matches_the_complement_count():
    for entries in ((2,), (2, 3), (5, 7), (5, F(15, 2)), (4, F(16, 3), F(32, 5))):
        d = MultiOrder(entries)
        assert constant_tube(d).rank() == len(LatticeIdeal(d).complement())


def test_normal_cone_level_counts():
    d = MultiOrder((5, 7))
    T = constant_tube(d)
    assert Counter(map(sum, T.basis())) == Counter(map(sum, LatticeIdeal(d).complement()))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.none() | st.integers(0, 5), min_size=n, max_size=n),
            st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=5),
        )
    )
)
def test_basis_matches_the_brute_force_filter(drawn):
    # pure powers (None: the parameter has none) plus mixed relations with at
    # least two nonzero entries; a zero pure power kills everything
    pure, mixed = drawn
    n = len(pure)
    relations = [tuple(p if j == i else 0 for j in range(n)) for i, p in enumerate(pure) if p is not None]
    relations += [r for r in mixed if sum(map(bool, r)) >= 2]
    A = TubeAlgebra((), tuple(f"t{i + 1}" for i in range(n)), tuple(relations))
    if None in pure and 0 not in pure:
        with pytest.raises(UnrepresentableError):
            A.basis()
        return
    box = itertools.product(range(6), repeat=n)
    survivors = [a for a in box if not any(all(x >= y for x, y in zip(a, r)) for r in relations)]
    assert A.basis() == sorted(survivors, key=lambda t: (sum(t), tuple(-e for e in t)))
    assert A.rank() == len(A.basis())


# -- the split-tube axioms ---------------------------------------------------------


def test_verify_examples():
    over_base = TubeAlgebra(("x",), ("t",), ((3,),))
    assert verify_split_tube(over_base, MultiOrder((3,)))
    wrong_width = TubeAlgebra((), ("t",), ((3,),))
    assert not verify_split_tube(wrong_width, MultiOrder((2,)))
    T = constant_tube(MultiOrder((5, 7)))
    assert verify_split_tube(T, MultiOrder((5, 7)))


def test_width_recovery():
    assert width(constant_tube(MultiOrder((5, 7)))) == MultiOrder((5, 7))
    T = constant_tube(MultiOrder((5, F(15, 2))))
    bare = TubeAlgebra((), T.params, T.relations)  # no width metadata
    assert width(bare) == MultiOrder((5, F(15, 2)))


def test_width_rejects_non_staircases():
    with pytest.raises(NotATubeError):
        width(TubeAlgebra((), ("t1", "t2"), ((1, 0), (0, 1))))


def test_width_checks_a_tube_without_parameters():
    assert width(TubeAlgebra((), (), ())) == MultiOrder(())
    # the relation () kills the whole tube: rank 0, not the empty width
    with pytest.raises(NotATubeError):
        width(TubeAlgebra((), (), ((),)))


def test_width_metadata_of_the_wrong_length_is_refused():
    with pytest.raises(DomainError, match="parameter count must match the width length"):
        TubeAlgebra((), ("t1", "t2"), ((2, 0), (0, 3)), MultiOrder(()))
    with pytest.raises(DomainError, match="parameter count must match the width length"):
        TubeAlgebra((), ("t1", "t2"), ((2, 0), (0, 3)), MultiOrder((2, 3, 4)))
    with pytest.raises(DomainError, match="parameter count must match the width length"):
        constant_tube(MultiOrder((2, 3)), params=("t",))


@st.composite
def admissible_widths(draw):
    """Widths with entries > 1 that satisfy the witness condition: each new
    entry is a_i over the slack of a drawn prefix vector."""
    ds = [F(draw(st.integers(2, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        prefix = [draw(st.integers(0, int(d))) for d in ds]
        slack = 1 - sum(x / d for x, d in zip(prefix, ds))
        assume(slack > 0)
        d = draw(st.integers(1, 3)) / slack
        assume(ds[-1] <= d <= 12)
        ds.append(d)
    return MultiOrder(ds)


@settings(max_examples=150, deadline=None)
@given(admissible_widths(), st.data())
def test_width_reads_back_exactly_the_staircases(d, data):
    # a bare staircase gives back its width; any other relation set either
    # is some width's staircase or raises NotATubeError
    params = tuple(f"t{i + 1}" for i in range(len(d)))
    stair = LatticeIdeal(d).minimal_generators()
    assert is_in_mord(d) and width(TubeAlgebra((), params, tuple(stair))) == d
    kept = data.draw(st.lists(st.sampled_from(stair), unique=True))
    extra = data.draw(st.lists(st.tuples(*[st.integers(0, 8)] * len(d)), max_size=4))
    relations = tuple(kept + extra)
    try:
        found = width(TubeAlgebra((), params, relations))
    except NotATubeError:
        assert set(relations) != set(stair)
        return
    assert set(LatticeIdeal(found).minimal_generators()) == set(relations)


def test_width_of_a_large_bare_staircase():
    # 1225 relations, read in one pass over the witness prefixes
    T = constant_tube(MultiOrder((12, 18, 24, 36)))
    assert len(T.relations) == 1225
    assert width(TubeAlgebra((), T.params, T.relations)) == MultiOrder((12, 18, 24, 36))


def test_verify_over_a_polynomial_base_with_base_coefficients():
    # candidates whose complement products pick up base coefficients fall
    # outside the checked linear-algebra class and fail with a typed error
    A = TubeAlgebra(("x",), ("t",), ((3,),))
    amb = A.ambient()
    t = Polynomial.variable("t", amb)
    x = Polynomial.variable("x", amb)
    with pytest.raises(UnrepresentableError):
        verify_split_tube(A, MultiOrder((3,)), (t + x * t * t,))


def test_parameter_check_examples():
    T = constant_tube(MultiOrder((2, 3)))
    amb = T.ambient()
    t1 = Polynomial.variable("t1", amb)
    t2 = Polynomial.variable("t2", amb)
    assert parameter_check(T, (t1 + t2 * t2, t2))
    assert not parameter_check(T, (t2, t1))
    assert parameter_check(T, ("t1", "t2"))


def _random_filtration_params(rng, T):
    d = T.width
    amb = T.ambient()
    cands = []
    for i, p in enumerate(T.params):
        img = Polynomial.variable(p, amb)
        level = F(1) / d.entries[i]
        for _ in range(rng.randint(0, 2)):
            exp = tuple(rng.randint(0, 2) for _ in T.params)
            if sum(exp) < 2:
                continue
            value = sum(F(e) / de for e, de in zip(exp, d.entries))
            if value >= level:
                full = tuple(
                    exp[T.params.index(v)] if v in T.params else 0 for v in amb
                )
                img = img + Polynomial(amb, {full: rng.choice([1, -1, 2])})
        cands.append(img)
    return cands


def test_width_invariance_under_parameter_changes():
    rng = random.Random(9)
    T = constant_tube(MultiOrder((5, 7)))
    accepted = 0
    for _ in range(25):
        cands = _random_filtration_params(rng, T)
        assert parameter_check(T, cands)
        assert verify_split_tube(T, MultiOrder((5, 7)), cands)
        assert width(T) == MultiOrder((5, 7))
        accepted += 1
    assert accepted >= 20


# -- correspondence -----------------------------------------------------------------


def test_center_to_tube():
    V = tube_center_correspondence(parse_center("[x^5, y^7]"))
    assert V.width == MultiOrder((5, 7))
    assert V.rank() == 23
    assert V.base_vars == ()


def test_center_with_codimension_block():
    J = parse_center("[s | x^2]", variables=("s", "x"))
    V = tube_center_correspondence(J)
    assert V.width == MultiOrder((2,))
    assert split_gt1(J.mord()) == (1, MultiOrder((2,)))


def test_round_trip_identity():
    for text in ("[x^5, y^7]", "[x^5, y^(15/2)]", "[x^2, y^3]"):
        J = parse_center(text)
        V = tube_center_correspondence(J)
        back = center_from_tube(V)
        assert back == J
        ones, tail = split_gt1(J.mord())
        assert V.width == tail


def test_inverse_of_a_constant_tube():
    V = constant_tube(MultiOrder((5, F(15, 2))), params=("x", "y"))
    assert str(center_from_tube(V)) == "[x^5, y^(15/2)]"


def test_width_equals_invariant_tail_on_computed_centers(corpus):
    for I in corpus:
        res = multiorder(I)
        V = tube_center_correspondence(res.center)
        ones, tail = split_gt1(res.mord)
        assert V.width == tail


# -- tight presentations ---------------------------------------------------------


def test_tight_on_a_double_line():
    Z = parse_ideal("y^2", ("x", "y"))
    verdict = tight_presentation_check(Z, [], ["y"], MultiOrder((2,)))
    assert verdict.tight_exists and verdict.valid and verdict.gap == 0


def test_mandatory_s_part_in_the_plane():
    Z = PolyIdeal(("x", "y"), [])
    x = Polynomial.variable("x", ("x", "y"))
    verdict = tight_presentation_check(Z, [x], ["y"], MultiOrder((2,)))
    assert verdict.gap == 1 and verdict.valid and not verdict.tight_exists


def test_tight_for_a_rounded_center():
    J = parse_center("[x^2, y^3]")
    Z = rounding(J)
    verdict = tight_presentation_check(Z, [], ["x", "y"], MultiOrder((2, 3)))
    assert verdict.tight_exists and verdict.valid


@pytest.mark.parametrize(
    "t_part, d, message",
    [
        (["x", "y"], (1, 3), "tube widths must exceed one"),
        (["x"], (2, 3), "t-part length must match the width"),
    ],
    ids=["unit-entry", "short-t-part"],
)
def test_tight_check_refuses_a_bad_width_or_t_part(t_part, d, message):
    Z = parse_ideal("x^2", ("x", "y"))
    with pytest.raises(DomainError, match=message):
        tight_presentation_check(Z, [], t_part, MultiOrder(d))


# -- tubular Rees algebra ----------------------------------------------------------


def test_tubular_pieces():
    T = constant_tube(MultiOrder((2,)))
    assert tubular_rees_piece(T, 2, 1) == [(1,)]
    assert tubular_rees_piece(T, 2, 0) == [(0,)]
    T57 = constant_tube(MultiOrder((5, 7)))
    assert set(tubular_rees_piece(T57, 35, 35)) == set(
        LatticeIdeal(MultiOrder((5, 7))).minimal_generators()
    )


def test_tubular_pieces_are_multiplicative():
    T = constant_tube(MultiOrder((2, 3)))
    N = 6
    pieces = {n: tubular_rees_piece(T, N, n) for n in range(N + 1)}
    for m in range(N + 1):
        for n in range(N + 1 - m):
            for a in pieces[m]:
                for b in pieces[n]:
                    s = tuple(x + y for x, y in zip(a, b))
                    assert any(
                        all(x >= y for x, y in zip(s, g)) for g in pieces[m + n]
                    )


def test_rees_restriction_equality():
    J = parse_center("[x^2, y^3]")
    tube = constant_tube(MultiOrder((2, 3)), params=("x", "y"))
    assert rees_restriction_check(J, rounding(J), 6, tube)
    assert rees_restriction_check(J, PolyIdeal(("x", "y"), []), 6, tube)


def test_rees_restriction_negative_control():
    J = parse_center("[x^2, y^3]")
    Z = rounding(J)
    bad = constant_tube(MultiOrder((2, 5)), params=("x", "y"))
    assert not rees_restriction_check(J, Z, 6, bad)
    assert not rees_restriction_check(J, Z, 30, bad)
    swapped = constant_tube(MultiOrder((2, 3)), params=("y", "x"))
    assert not rees_restriction_check(J, PolyIdeal(("x", "y"), []), 6, swapped)


_T23 = constant_tube(MultiOrder((2, 3)))
_OVER_X = constant_tube(MultiOrder((2, 3)), base_vars=("x",))
_ON_XY = constant_tube(MultiOrder((2, 3)), params=("x", "y"))
_NO_XY = PolyIdeal(("x", "y"), [])


@pytest.mark.parametrize(
    "check, expected",
    [
        pytest.param(lambda: verify_split_tube(_T23, MultiOrder((2,))), False, id="short-width"),
        pytest.param(lambda: verify_split_tube(_T23, MultiOrder((1, 3))), False, id="unit-entry"),
        pytest.param(
            lambda: verify_split_tube(
                _OVER_X, MultiOrder((2, 3)), [parse_polynomial("t1 + x", _OVER_X.ambient()), "t2"]
            ),
            False,
            id="pure-base-candidate",
        ),
        pytest.param(
            lambda: verify_split_tube(_T23, MultiOrder((2, 3)), ["t1", "t1"]),
            False,
            id="singular-pair",
        ),
        pytest.param(
            lambda: verify_split_tube(_T23, MultiOrder((2, 4))), False, id="complement-size"
        ),
        pytest.param(lambda: parameter_check(_T23, ["t1"]), False, id="short-candidate"),
        pytest.param(lambda: parameter_check(_T23, ["t2", "t2"]), False, id="singular-candidate"),
        pytest.param(
            lambda: rees_restriction_check(
                parse_center("[x^2, y^3]"), parse_ideal("x^2 + y, x*y + 1"), 6, _ON_XY
            ),
            UnrepresentableError,
            id="no-normal-form",
        ),
        pytest.param(
            lambda: rees_restriction_check(parse_center("[z | x^2, y^3]"), _NO_XY, 6, _ON_XY),
            UnrepresentableError,
            id="s-block",
        ),
        pytest.param(
            lambda: rees_restriction_check(parse_center("[(x+y)^2, y^3]"), _NO_XY, 6, _ON_XY),
            UnrepresentableError,
            id="changed-coordinates",
        ),
    ],
)
def test_tube_verifications_answer_false_or_refuse(check, expected):
    if expected is False:
        assert check() is False
    else:
        with pytest.raises(expected):
            check()

