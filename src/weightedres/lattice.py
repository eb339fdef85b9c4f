"""Invariant tuples and their staircase combinatorics.

A multiorder is a weakly increasing tuple of positive rationals
d = (d_1, ..., d_n); the distinguished singleton (0) is the invariant of the
unit ideal and the empty tuple is allowed.  The admissible invariant set
consists of the tuples for which every prefix (d_1, ..., d_i) admits a
natural witness a with a_1/d_1 + ... + a_i/d_i = 1 and a_i >= 1.

To each tuple belongs the lattice ideal

    I_d = { a in N^n : a_1/d_1 + ... + a_n/d_n >= 1 },

an upward-closed set whose finite antichain of minimal elements is the
staircase drawn by the CLI.  The dichotomy implemented by
`dominating_sequence` states that d fails the witness condition exactly when
some strictly larger tuple d' has I_d contained in I_{d'}.

Comparison convention: tuples compare lexicographically; when one tuple is a
proper prefix of the other the shorter tuple is GREATER (think of padding
with +infinity), and (0) is the unique minimum.  The convention is what makes
a unit ideal minimal and a bare codimension-c regular point smaller than any
deeper singularity of the same codimension.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InvalidMultiOrderError

LT, EQ, GT = -1, 0, 1

Rat = Union[int, str, Fraction]


class MultiOrder:
    """Weakly increasing tuple of positive rationals, or the singleton (0)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Rat]):
        es = tuple(Fraction(e) for e in entries)
        if es == (Fraction(0),):
            pass  # the zero invariant
        else:
            for e in es:
                if e <= 0:
                    raise InvalidMultiOrderError(f"entries must be positive, got {e}")
            if any(a > b for a, b in zip(es, es[1:])):
                shown = ", ".join(str(e) for e in es)
                raise InvalidMultiOrderError(f"entries must be increasing: ({shown})")
        object.__setattr__(self, "entries", es)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MultiOrder is immutable")

    @classmethod
    def zero(cls) -> "MultiOrder":
        return cls((0,))

    def is_zero(self) -> bool:
        return self.entries == (Fraction(0),)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiOrder):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def weights(self) -> tuple[Fraction, ...]:
        """The reciprocal tuple w = d^{-1}."""
        return tuple(Fraction(1) / e for e in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"

    def __repr__(self) -> str:
        return f"MultiOrder{self}"


def mord_compare(a: MultiOrder, b: MultiOrder) -> int:
    """Total order: lexicographic, shorter-is-greater, (0) the minimum."""
    if a.entries == b.entries:
        return EQ
    if a.is_zero():
        return LT
    if b.is_zero():
        return GT
    for x, y in zip(a.entries, b.entries):
        if x < y:
            return LT
        if x > y:
            return GT
    # one is a proper prefix of the other: the shorter tuple wins
    return GT if len(a) < len(b) else LT


def _validate_weights(d: MultiOrder) -> tuple[Fraction, ...]:
    if d.is_zero():
        raise InvalidMultiOrderError("the zero invariant has no lattice data")
    return d.weights()


def witness_vectors(d: MultiOrder, i: int) -> list[tuple[tuple[int, ...], bool]]:
    """All a in N^i with sum a_j/d_j = 1, each flagged with a_i != 0.

    The search is exhaustive: a_j <= d_j because each summand is at most 1.
    """
    if not 1 <= i <= len(d):
        raise InvalidMultiOrderError(f"witness index {i} out of range 1..{len(d)}")
    ws = _validate_weights(d)[:i]
    out: list[tuple[int, ...]] = []

    def rec(j: int, remaining: Fraction, prefix: tuple[int, ...]):
        if j == i - 1:
            # last coordinate: a_j * w_j must equal remaining exactly
            q = remaining / ws[j]
            if q.denominator == 1:
                out.append(prefix + (int(q),))
            return
        a = 0
        while a * ws[j] <= remaining:
            rec(j + 1, remaining - a * ws[j], prefix + (a,))
            a += 1

    rec(0, Fraction(1), ())
    return [(vec, vec[-1] != 0) for vec in out]


def _first_violation(d: MultiOrder) -> int | None:
    """The first prefix length i with no witness having a_i != 0, if any."""
    for i in range(1, len(d) + 1):
        if not any(flag for _, flag in witness_vectors(d, i)):
            return i
    return None


def is_in_mord(d: MultiOrder) -> bool:
    """Every prefix admits a witness with nonzero last coordinate."""
    if d.is_zero():
        raise InvalidMultiOrderError("the zero invariant is not tested for membership")
    return _first_violation(d) is None


def split_gt1(d: MultiOrder) -> tuple[int, MultiOrder]:
    """Split (1,...,1,d_m,...,d_n) into the count of leading ones and the tail.

    Requires d in the admissible set; the tail then starts with an entry >= 2
    and is itself admissible.
    """
    if not is_in_mord(d):
        raise InvalidMultiOrderError(f"{d} fails the witness condition")
    ones = 0
    for e in d.entries:
        if e == 1:
            ones += 1
        else:
            break
    return ones, MultiOrder(d.entries[ones:])


class LatticeIdeal:
    """The upward-closed exponent set I_d with cached minimal generators."""

    __slots__ = ("weights_tuple", "d", "_minimal")

    def __init__(self, d: MultiOrder):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "weights_tuple", _validate_weights(d))
        object.__setattr__(self, "_minimal", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LatticeIdeal is immutable")

    def arity(self) -> int:
        return len(self.weights_tuple)

    def value(self, a: Sequence[int]) -> Fraction:
        if len(a) != self.arity():
            raise InvalidMultiOrderError("exponent arity mismatch")
        return sum((x * w for x, w in zip(a, self.weights_tuple)), Fraction(0))

    def contains(self, a: Sequence[int]) -> bool:
        return self.value(a) >= 1

    def _box(self):
        """Exponents with a_j <= ceil(d_j).  The box holds every minimal
        member (a larger single entry already certifies membership) and every
        non-member (each entry of a non-member is < d_j)."""
        return itertools.product(*(range(math.ceil(e) + 1) for e in self.d.entries))

    def minimal_generators(self) -> list[tuple[int, ...]]:
        """The finite antichain of minimal members, found in the box."""
        cached = object.__getattribute__(self, "_minimal")
        if cached is not None:
            return list(cached)
        # I_d is upward closed, so a member a is minimal exactly when no
        # a - e_j is a member, i.e. value(a) - w_j < 1 for every a_j > 0;
        # the box is downward closed, so this local test agrees with
        # minimality among all members of the box
        ws = self.weights_tuple
        minimal = [
            a
            for a in self._box()
            if (v := self.value(a)) >= 1 and all(v - w < 1 for x, w in zip(a, ws) if x)
        ]
        minimal.sort(key=lambda t: tuple(-e for e in t))
        object.__setattr__(self, "_minimal", tuple(minimal))
        return minimal

    def complement(self) -> list[tuple[int, ...]]:
        """All of N^n \\ I_d, found in the box."""
        return [a for a in self._box() if not self.contains(a)]

    def complement_count(self) -> int:
        return len(self.complement())

    def complement_by_degree(self) -> dict[int, int]:
        """Number of non-members of each total degree."""
        counts: dict[int, int] = {}
        for a in self.complement():
            counts[sum(a)] = counts.get(sum(a), 0) + 1
        return counts


def dominating_sequence(d: MultiOrder) -> MultiOrder | None:
    """None iff d satisfies the witness condition; else a strictly larger d'
    with I_d contained in I_{d'}.

    The construction follows the dichotomy proof: pick the violating index i,
    move it to the last entry equal to d_i, replace the tail by the constant
    d_i + eps, and take the first eps in 1, 1/2, 1/3, ... for which every
    minimal generator of I_d stays a member and the far-region bound
    eps < C = 1/eps holds (any exponent with all entries >= d_n + C is then
    automatically a member, so checking the minimal generators is complete).
    """
    if d.is_zero():
        raise InvalidMultiOrderError("the zero invariant has no dominating sequence")
    violating = _first_violation(d)
    if violating is None:
        return None
    # move to the last index with the same entry
    val = d.entries[violating - 1]
    i = max(j + 1 for j, e in enumerate(d.entries) if e == val)
    gens = LatticeIdeal(d).minimal_generators()
    m = 1
    while True:
        eps = Fraction(1, m)
        m += 1
        if eps >= 1 / eps:  # far-region bound requires eps < C = 1/eps
            continue
        tail = val + eps
        candidate = MultiOrder(d.entries[: i - 1] + (tail,) * (len(d) - i + 1))
        lattice = LatticeIdeal(candidate)
        if all(lattice.contains(a) for a in gens):
            return candidate
