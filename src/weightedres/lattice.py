"""Invariant tuples and their staircase combinatorics.

A multiorder is a weakly increasing tuple of positive rationals
d = (d_1, ..., d_n); the distinguished singleton (0) is the invariant of the
unit ideal and the empty tuple is allowed.  The admissible invariant set
consists of the tuples for which every prefix (d_1, ..., d_i) admits a
natural witness a with a_1/d_1 + ... + a_i/d_i = 1 and a_i >= 1.

To each tuple belongs the lattice ideal

    I_d = { a in N^n : a_1/d_1 + ... + a_n/d_n >= 1 },

an upward-closed set whose finite antichain of minimal elements is the
staircase drawn by the CLI.  `grading` keeps nu(x^a) = sum a_j/d_j on
integers: with L the lcm of the numerators and w_j = L/d_j, a lies in I_d
exactly when w_1*a_1 + ... + w_n*a_n >= L.  One integer walk (`_columns`)
yields the generators, complement and witnesses; center valuations, chart
weights and tube levels read the same (L, w).
The dichotomy implemented by `dominating_sequence` states that d fails the
witness condition exactly when some strictly larger tuple d' has I_d
contained in I_{d'}.

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
        es = tuple(e if type(e) is Fraction else Fraction(e) for e in entries)
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


def grading(d: MultiOrder) -> tuple[int, tuple[int, ...]]:
    """L = lcm of the numerators and the integer weights w_j = L/d_j, so
    that L*nu(x^a) = w_1*a_1 + ... + w_n*a_n.  L is the least root order N
    with every N/d_j integral, and w the chart weights for N = L."""
    if d.is_zero():
        raise InvalidMultiOrderError("the zero invariant has no lattice data")
    L = math.lcm(*(e.numerator for e in d.entries))
    return L, tuple(L * e.denominator // e.numerator for e in d.entries)


def _columns(L: int, w: tuple[int, ...], p: tuple[int, ...] = (), v: int = 0):
    """Every prefix p in N^j (j < n) of scaled value v < L, with the least
    next entry c = ceil((L - v)/w_j) that makes p + (c,) a member.  A prefix
    comes after its extensions, whose entry j is below c, so the candidates
    p + (c, 0, ..., 0) come in increasing lexicographic order."""
    j = len(p)
    if j == len(w):
        return
    c = -((v - L) // w[j])
    if j + 1 < len(w):
        for e in range(c):
            yield from _columns(L, w, p + (e,), v + e * w[j])
    yield p, v, c


def witness_vectors(d: MultiOrder, i: int) -> list[tuple[tuple[int, ...], bool]]:
    """All a in N^i with sum a_j/d_j = 1, in lexicographic order, each
    flagged with a_i != 0: the candidates p + (c, 0, ..., 0) of value 1."""
    if not 1 <= i <= len(d):
        raise InvalidMultiOrderError(f"witness index {i} out of range 1..{len(d)}")
    L, w = grading(d)
    return [
        (p + (c,) + (0,) * (i - 1 - len(p)), len(p) == i - 1)
        for p, v, c in _columns(L, w[:i])
        if v + c * w[len(p)] == L
    ]


def _first_violation(d: MultiOrder) -> int | None:
    """The first prefix length i with no witness having a_i != 0, if any."""
    L, w = grading(d)
    hit = {len(p) + 1 for p, v, c in _columns(L, w) if v + c * w[len(p)] == L}
    return next((i for i in range(1, len(d) + 1) if i not in hit), None)


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
    """The upward-closed exponent set I_d."""

    __slots__ = ("d", "_L", "_w")

    def __init__(self, d: MultiOrder):
        L, w = grading(d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_L", L)
        object.__setattr__(self, "_w", w)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LatticeIdeal is immutable")

    def arity(self) -> int:
        return len(self._w)

    def _scaled_value(self, a: Sequence[int]) -> int:
        if len(a) != self.arity():
            raise InvalidMultiOrderError("exponent arity mismatch")
        return sum(x * w for x, w in zip(a, self._w))

    def contains(self, a: Sequence[int]) -> bool:
        return self._scaled_value(a) >= self._L

    def minimal_generators(self) -> list[tuple[int, ...]]:
        """The finite antichain of minimal members, in decreasing
        lexicographic order."""
        # the last nonzero entry of a minimal member is the least c over its
        # prefix p, so a = p + (c, 0, ..., 0) is minimal exactly when no
        # a - e_k with p_k > 0 is a member; the walk yields them increasing
        L, ws, n = self._L, self._w, self.arity()
        minimal = [
            p + (c,) + (0,) * (n - 1 - len(p))
            for p, v, c in _columns(L, ws)
            if all(v + c * ws[len(p)] - w < L for x, w in zip(p, ws) if x)
        ]
        minimal.reverse()
        return minimal

    def complement(self) -> list[tuple[int, ...]]:
        """All of N^n \\ I_d, in lexicographic order: below each prefix of
        length n - 1 the last entry runs up to its least member."""
        n = self.arity()
        if n == 0:
            return [()]
        return [
            p + (e,)
            for p, v, c in _columns(self._L, self._w)
            if len(p) == n - 1
            for e in range(c)
        ]


def dominating_sequence(d: MultiOrder) -> MultiOrder | None:
    """None iff d satisfies the witness condition; else a strictly larger d'
    with I_d contained in I_{d'}.

    The construction follows the dichotomy proof: pick the violating index i,
    move it to the last entry equal to d_i, replace the tail by the constant
    d_i + eps, and take the first eps in 1/2, 1/3, ... for which every
    minimal generator of I_d stays a member.  Starting below 1 keeps the
    far-region bound eps < C = 1/eps (any exponent with all entries
    >= d_n + C is then automatically a member, so checking the minimal
    generators is complete).
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
    for m in itertools.count(2):
        eps = Fraction(1, m)
        tail = val + eps
        candidate = MultiOrder(d.entries[: i - 1] + (tail,) * (len(d) - i + 1))
        lattice = LatticeIdeal(candidate)
        if all(lattice.contains(a) for a in gens):
            return candidate
