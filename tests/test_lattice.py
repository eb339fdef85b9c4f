import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weightedres import (
    EQ,
    GT,
    LT,
    InvalidMultiOrderError,
    LatticeIdeal,
    MultiOrder,
    dominating_sequence,
    is_in_mord,
    mord_compare,
    split_gt1,
    witness_vectors,
)
from weightedres.textio import parse_multiorder

F = Fraction


def M(*entries) -> MultiOrder:
    return MultiOrder(entries)


# -- membership ---------------------------------------------------------------


def test_membership_examples():
    assert is_in_mord(M(4, F(16, 3), F(32, 5)))
    assert not is_in_mord(M(F(14, 5), F(7, 2)))
    assert is_in_mord(M())
    assert is_in_mord(M(5, F(15, 2)))
    assert not is_in_mord(M(2, F(7, 3)))


def test_membership_rejects_bad_tuples():
    with pytest.raises(InvalidMultiOrderError):
        MultiOrder((3, 2))
    with pytest.raises(InvalidMultiOrderError):
        MultiOrder((0, 1))
    with pytest.raises(InvalidMultiOrderError):
        is_in_mord(MultiOrder.zero())


def test_first_entry_of_members_is_natural():
    # a level-1 witness a_1/d_1 = 1 forces d_1 = a_1
    for d in (M(3, F(9, 2)), M(2, 2), M(1, 1, 5)):
        assert is_in_mord(d)
        assert d.entries[0].denominator == 1


# -- witnesses ----------------------------------------------------------------


def test_witnesses_of_the_three_variable_example():
    d = M(4, F(16, 3), F(32, 5))
    vecs = {v for v, _ in witness_vectors(d, 3)}
    assert vecs == {(4, 0, 0), (1, 4, 0), (2, 1, 2), (0, 2, 4)}


def test_witnesses_of_five_seven():
    assert {v for v, _ in witness_vectors(M(5, 7), 2)} == {(5, 0), (0, 7)}


def test_witness_trivial():
    assert witness_vectors(M(1), 1) == [((1,), True)]


# -- comparison ---------------------------------------------------------------


def test_compare_examples():
    assert mord_compare(M(5, 7), M(5, F(15, 2))) == LT
    assert mord_compare(MultiOrder.zero(), M(1, 1)) == LT
    assert mord_compare(M(1), M(1, 1)) == GT  # shorter-is-greater padding
    assert mord_compare(M(2, 3), M(2, 3)) == EQ


def test_compare_total_order_on_samples():
    rng = random.Random(5)
    sample = [MultiOrder.zero(), M(), M(1), M(1, 1), M(2), M(2, 3), M(5, 7)]
    for _ in range(20):
        k = rng.randint(1, 3)
        entries = sorted(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(k))
        sample.append(MultiOrder(entries))
    key = functools.cmp_to_key(mord_compare)
    ordered = sorted(sample, key=key)
    # consistency: pairwise comparisons agree with the sorted order
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            assert mord_compare(a, b) in (LT, EQ)
    assert ordered[0] == MultiOrder.zero()


def test_denominator_rule_holds_on_member_samples():
    # e_1 = d_1, e_{i+1} = d_{i+1} * prod (e_j - 1)! stays integral on members
    import math

    samples = [M(5, 7), M(5, F(15, 2)), M(4, F(16, 3), F(32, 5)), M(2, 3), M(3, F(9, 2))]
    for d in samples:
        assert is_in_mord(d)
        es = []
        for entry in d.entries:
            factor = 1
            for e in es:
                factor *= math.factorial(int(e) - 1)
            value = entry * factor
            assert value.denominator == 1
            es.append(value)


# -- lattice ideals -----------------------------------------------------------


def test_minimal_generators_five_seven():
    gens = LatticeIdeal(M(5, 7)).minimal_generators()
    assert set(gens) == {(5, 0), (4, 2), (3, 3), (2, 5), (1, 6), (0, 7)}


def test_minimal_generators_five_fifteen_halves():
    gens = LatticeIdeal(M(5, F(15, 2))).minimal_generators()
    assert set(gens) == {(5, 0), (4, 2), (3, 3), (2, 5), (1, 6), (0, 8)}


def test_minimal_generators_singleton():
    assert LatticeIdeal(M(2)).minimal_generators() == [(2,)]


def test_complement_counts():
    assert len(LatticeIdeal(M(2)).complement()) == 2
    assert len(LatticeIdeal(M(2, 2)).complement()) == 3
    # independent oracle: direct double loop below the line a/5 + b/7 < 1
    count = sum(
        1
        for a in range(5)
        for b in range(7)
        if F(a, 5) + F(b, 7) < 1
    )
    assert count == 23
    assert len(LatticeIdeal(M(5, 7)).complement()) == count


def test_minimal_generators_form_a_complete_antichain():
    for d in (M(5, 7), M(2, 3), M(4, F(16, 3), F(32, 5)), M(2, 3, 4), M(F(14, 5), F(7, 2))):
        lattice = LatticeIdeal(d)
        gens = lattice.minimal_generators()
        assert all(lattice.contains(g) for g in gens)
        for a, b in itertools.permutations(gens, 2):
            assert not all(x <= y for x, y in zip(a, b))
        import math

        box = [range(math.ceil(e) + 1) for e in d.entries]
        for point in itertools.product(*box):
            if lattice.contains(point):
                assert any(
                    all(x >= y for x, y in zip(point, g)) for g in gens
                )


def box_oracle(d: MultiOrder):
    """Minimal generators, complement and witnesses of I_d from the box
    a_j <= ceil(d_j) with Fraction sums: the box holds every minimal member
    (a larger single entry already certifies membership), every non-member
    (each entry of a non-member is < d_j) and every witness."""
    box = itertools.product(*(range(math.ceil(e) + 1) for e in d.entries))
    value = {a: sum((F(x) / e for x, e in zip(a, d.entries)), F(0)) for a in box}
    minimal = [
        a
        for a, v in value.items()
        if v >= 1 and not any(value[a[:k] + (x - 1,) + a[k + 1 :]] >= 1 for k, x in enumerate(a) if x)
    ]
    complement = [a for a, v in value.items() if v < 1]
    witnesses = [
        [(a[:i], a[i - 1] != 0) for a, v in value.items() if v == 1 and not any(a[i:])]
        for i in range(1, len(d) + 1)
    ]
    return sorted(minimal, reverse=True), complement, witnesses


member_widths = st.lists(st.integers(1, 8), max_size=4)
rational_widths = st.lists(st.builds(F, st.integers(1, 8), st.integers(1, 3)), max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.one_of(member_widths, rational_widths).map(lambda es: MultiOrder(sorted(es))))
def test_the_staircase_walk_matches_the_box_oracle(d):
    # integer widths are always members (a_i = d_i witnesses prefix i);
    # rational ones are members or not
    lattice = LatticeIdeal(d)
    minimal, complement, witnesses = box_oracle(d)
    assert lattice.minimal_generators() == minimal
    assert lattice.complement() == complement
    assert [witness_vectors(d, i) for i in range(1, len(d) + 1)] == witnesses
    assert is_in_mord(d) == all(any(flag for _, flag in ws) for ws in witnesses)


# -- dominating sequences -----------------------------------------------------


def test_dominating_sequence_of_the_reference_non_member():
    d = M(F(14, 5), F(7, 2))
    dom = dominating_sequence(d)
    assert dom is not None
    assert mord_compare(dom, d) == GT
    target = LatticeIdeal(dom)
    for a in LatticeIdeal(d).minimal_generators():
        assert target.contains(a)


def test_dominating_sequence_none_for_members():
    assert dominating_sequence(M(5, 7)) is None
    assert dominating_sequence(M(1)) is None


def test_dichotomy_on_random_tuples():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(1, 3)
        entries = sorted(F(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(k))
        d = MultiOrder(entries)
        member = is_in_mord(d)
        dom = dominating_sequence(d)
        assert member == (dom is None)
        if dom is not None:
            target = LatticeIdeal(dom)
            for a in LatticeIdeal(d).minimal_generators():
                assert target.contains(a)


def test_direct_direction_members_escape_larger_tuples():
    # for a member d and any strictly larger d', some minimal generator leaves
    rng = random.Random(23)
    members = [M(5, 7), M(2, 3), M(3, F(9, 2)), M(4, F(16, 3), F(32, 5))]
    for d in members:
        for _ in range(10):
            entries = list(d.entries)
            i = rng.randrange(len(entries))
            entries[i] += F(rng.randint(1, 3), rng.randint(1, 4))
            for j in range(i + 1, len(entries)):
                entries[j] = max(entries[j], entries[i])
            bigger = MultiOrder(entries)
            assert mord_compare(bigger, d) == GT
            target = LatticeIdeal(bigger)
            assert any(
                not target.contains(a)
                for a in LatticeIdeal(d).minimal_generators()
            )


# -- splitting ----------------------------------------------------------------


def test_split_examples():
    assert split_gt1(M(1, 1, 2, 3)) == (2, M(2, 3))
    assert split_gt1(M(5, 7)) == (0, M(5, 7))
    assert split_gt1(M(1)) == (1, M())


def test_split_tail_is_a_member():
    ones, tail = split_gt1(M(1, 1, 2, 3))
    assert is_in_mord(tail)


def test_parse_round_trip():
    for text in ("(4, 16/3, 32/5)", "(5, 7)", "(0)", "(1)"):
        d = parse_multiorder(text)
        assert parse_multiorder(str(d)) == d
