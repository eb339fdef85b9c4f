"""Weighted center presentations aligned to coordinates.

A center is a weighted ideal [v_1^{d_1}, ..., v_m^{d_m}] on a regular system
of coordinates.  We store the aligning data explicitly: a triangular
coordinate change (a composition of invertible elementary steps) under which
the center coordinates become plain ambient variables, the list of aligned
variable names, and the weakly increasing exponent tuple.  Elementary steps
are of the form  new_v = c*v + q  with c a nonzero rational and q free of v,
so both directions of the change stay polynomial.

The valuation nu assigns to a monomial the weighted sum of its exponents on
the center coordinates (weight 1/d_i, other variables weight 0) and to a
polynomial the minimum over its terms, computed after rewriting through the
change; on integers, L*nu is the w-weighted exponent sum for the exponent
tuple's grading (L, w).  The rounding of a center is the honest ideal
inside it: the monomial ideal spanned by the lattice staircase of the
exponent tuple, mapped back through the change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TypeVar

from .errors import (
    AdmissibilityError,
    AmbientMismatchError,
    DomainError,
    InvalidMultiOrderError,
)
from .lattice import LatticeIdeal, MultiOrder, grading, witness_vectors
from .poly import INFINITY, Exponent, Polynomial, PolyIdeal, power_product

_Polys = TypeVar("_Polys", Polynomial, PolyIdeal)


@dataclass(frozen=True)
class AlignStep:
    """One elementary change  new_var = coeff * var + tail  (tail free of var)."""

    var: str
    coeff: Fraction
    tail: Polynomial

    def __post_init__(self):
        if self.coeff == 0:
            raise DomainError("alignment step needs an invertible coefficient")
        if self.var in self.tail.support():
            raise DomainError(f"alignment tail may not involve {self.var}")

    def apply_aligned(self, f: _Polys) -> _Polys:
        # express f in the new coordinates:  var -> (var - tail)/coeff
        return self._apply(f, 1 / Fraction(self.coeff), -1 / Fraction(self.coeff))

    def apply_original(self, f: _Polys) -> _Polys:
        # express an aligned-coordinate polynomial in the old coordinates
        return self._apply(f, self.coeff, 1)

    def _apply(self, f: _Polys, a: Fraction, b: Fraction) -> _Polys:
        """f, a polynomial or a whole ideal, under var -> a*var + b*tail."""
        vs = f.variables
        i = vs.index(self.var)
        image = {tuple(int(j == i) for j in range(len(vs))): a}
        image.update((e, b * c) for e, c in self.tail.extend_ambient(vs).terms.items())
        return f.substitute({self.var: Polynomial(vs, image)}, vs)


class CoordinateChange:
    """A composition of alignment steps, applied in order."""

    __slots__ = ("variables", "steps")

    def __init__(self, variables: Iterable[str], steps: Sequence[AlignStep] = ()):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "steps", tuple(steps))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("CoordinateChange is immutable")

    @classmethod
    def identity(cls, variables: Iterable[str]) -> "CoordinateChange":
        return cls(variables)

    def then(self, step: AlignStep) -> "CoordinateChange":
        return CoordinateChange(self.variables, self.steps + (step,))

    def to_aligned(self, f: _Polys) -> _Polys:
        for step in self.steps:
            f = step.apply_aligned(f)
        return f

    def to_original(self, f: _Polys) -> _Polys:
        for step in reversed(self.steps):
            f = step.apply_original(f)
        return f

    def to_aligned_ideal(self, I: PolyIdeal) -> PolyIdeal:
        return self.to_aligned(I)

    def to_original_ideal(self, I: PolyIdeal) -> PolyIdeal:
        return self.to_original(I)


class CenterPresentation:
    """A weighted center [v_1^{d_1}, ..., v_m^{d_m}] plus its aligning change.

    `coords` are the aligned variable names (distinct ambient variables) and
    `exponents` the weakly increasing weight tuple; entries equal to 1 form
    the codimension block, entries > 1 the genuinely weighted block.
    """

    __slots__ = ("ambient", "change", "coords", "exponents")

    def __init__(
        self,
        ambient: Iterable[str],
        change: CoordinateChange,
        coords: Iterable[str],
        exponents: MultiOrder,
    ):
        amb = tuple(ambient)
        cs = tuple(coords)
        if exponents.is_zero():
            raise InvalidMultiOrderError("a center cannot carry the zero invariant")
        if len(cs) != len(exponents):
            raise AmbientMismatchError("coordinate/exponent length mismatch")
        if len(set(cs)) != len(cs):
            raise DomainError(f"center coordinates must be distinct: {cs}")
        for v in cs:
            if v not in amb:
                raise AmbientMismatchError(f"center coordinate {v} not in ambient")
        object.__setattr__(self, "ambient", amb)
        object.__setattr__(self, "change", change)
        object.__setattr__(self, "coords", cs)
        object.__setattr__(self, "exponents", exponents)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("CenterPresentation is immutable")

    @classmethod
    def on_variables(
        cls,
        ambient: Iterable[str],
        coords: Iterable[str],
        exponents: Iterable,
        change: CoordinateChange | None = None,
    ) -> "CenterPresentation":
        amb = tuple(ambient)
        if change is None:
            change = CoordinateChange.identity(amb)
        return cls(amb, change, coords, MultiOrder(exponents))

    # -- structure ----------------------------------------------------------

    def mord(self) -> MultiOrder:
        return self.exponents

    def s_count(self) -> int:
        return sum(1 for e in self.exponents if e == 1)

    def s_coords(self) -> tuple[str, ...]:
        return self.coords[: self.s_count()]

    def t_coords(self) -> tuple[str, ...]:
        return self.coords[self.s_count() :]

    def t_exponents(self) -> MultiOrder:
        return MultiOrder(self.exponents.entries[self.s_count() :])

    def coordinate_polynomials(self) -> list[Polynomial]:
        """The center coordinates expressed in the original coordinates."""
        amb = self.ambient
        return [self.change.to_original(Polynomial.variable(v, amb)) for v in self.coords]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CenterPresentation):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.exponents == other.exponents
            and self.coordinate_polynomials() == other.coordinate_polynomials()
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.exponents, tuple(self.coordinate_polynomials())))

    def __str__(self) -> str:
        parts = []
        for p, d in zip(self.coordinate_polynomials(), self.exponents):
            base = str(p)
            if len(p.terms) > 1 or (len(p.terms) == 1 and tuple(p.terms.values())[0] != 1):
                base = f"({base})"
            if d == 1:
                parts.append(base)
            elif d.denominator == 1:
                parts.append(f"{base}^{d}")
            else:
                parts.append(f"{base}^({d})")
        return "[" + ", ".join(parts) + "]"

    def __repr__(self) -> str:
        return f"CenterPresentation{self}"


# -- valuation and admissibility --------------------------------------------


def _grader(center: CenterPresentation, variables: tuple[str, ...]):
    """Coordinate positions in `variables`, L, and the map exponent -> L*nu."""
    L, w = grading(center.exponents)
    pos = [variables.index(v) for v in center.coords]
    return pos, L, lambda exp: sum(wj * exp[i] for i, wj in zip(pos, w))


def nu_valuation(f: Polynomial, center: CenterPresentation) -> Fraction | float:
    """min over terms of the weighted exponent sum; +inf for the zero poly."""
    if f.variables != center.ambient:
        raise AmbientMismatchError("polynomial ambient differs from center ambient")
    g = center.change.to_aligned(f)
    if g.is_zero():
        return INFINITY
    _, L, grade = _grader(center, g.variables)
    return Fraction(min(map(grade, g.terms)), L)


def is_admissible(I: PolyIdeal, center: CenterPresentation) -> bool:
    """True iff nu >= 1 on every generator (i.e. I is contained in the center)."""
    if I.variables != center.ambient:
        raise AmbientMismatchError("ideal ambient differs from center ambient")
    return all(nu_valuation(g, center) >= 1 for g in I.generators)


def rounding(center: CenterPresentation) -> PolyIdeal:
    """The honest monomial ideal inside the center, in original coordinates.

    Generated by the weight-1 coordinates together with the staircase minimal
    generators of the weighted block, each mapped back through the change.
    """
    amb = center.ambient
    coord_polys = dict(zip(center.coords, center.coordinate_polynomials()))
    gens = [coord_polys[v] for v in center.s_coords()]
    t_vars = center.t_coords()
    if t_vars:
        t_polys = [coord_polys[v] for v in t_vars]
        for a in LatticeIdeal(center.t_exponents()).minimal_generators():
            gens.append(power_product(t_polys, a, amb))
    return PolyIdeal(amb, gens)


# -- leading term -------------------------------------------------------------


@dataclass(frozen=True)
class LeadingTerm:
    """Weight-one graded piece of a center, with an ideal's image inside it.

    `basis` lists the exponent vectors over the center coordinates whose
    weighted value is exactly 1 (the weight-1 coordinates appear as unit
    vectors).  `rows` carries, per projected polynomial, a map
    basis-exponent -> coefficient, where a coefficient is an exact rational
    or, when the center's support has positive dimension, a polynomial in
    the free variables.
    """

    coords: tuple[str, ...]
    basis: tuple[Exponent, ...]
    rows: tuple[tuple[tuple[Exponent, object], ...], ...] = ()

    def monomials_involved(self) -> set[Exponent]:
        """Basis exponents hit by some nonzero coefficient of some row."""
        hit: set[Exponent] = set()
        for row in self.rows:
            for exp, coeff in row:
                hit.add(exp)
        return hit


def leading_term_basis(center: CenterPresentation) -> LeadingTerm:
    """All center-coordinate exponents of weighted value exactly 1: the
    witness vectors of the full exponent tuple."""
    m = len(center.coords)
    sols = [a for a, _ in witness_vectors(center.exponents, m)] if m else []
    sols.sort(key=lambda t: tuple(-e for e in t))
    return LeadingTerm(center.coords, tuple(sols))


def leading_term_decomposition(
    f: Polynomial, center: CenterPresentation
) -> dict[Exponent, Polynomial]:
    """Decompose the weight-1 part of f over the monomial basis.

    Returns a map from basis exponents (over the center coordinates) to
    coefficients; each coefficient is a polynomial in the free variables
    (constant when the center is supported at the origin).  Terms of value
    > 1 are discarded; a term of value < 1 is an admissibility violation.
    """
    g = center.change.to_aligned(f)
    amb = g.variables
    pos, L, grade = _grader(center, amb)
    free_idx = [i for i in range(len(amb)) if i not in pos]
    out: dict[Exponent, dict[Exponent, Fraction]] = {}
    for exp, coeff in g.terms.items():
        val = grade(exp)
        if val < L:
            raise AdmissibilityError(
                f"term of valuation {Fraction(val, L)} < 1: the polynomial is not in the center"
            )
        if val > L:
            continue
        key = tuple(exp[i] for i in pos)
        free_exp = tuple(exp[i] for i in free_idx)
        out.setdefault(key, {})[free_exp] = coeff
    free_vars = tuple(amb[i] for i in free_idx)
    return {
        key: Polynomial(free_vars, terms) for key, terms in sorted(out.items())
    }


def leading_term_projection(I: PolyIdeal, center: CenterPresentation) -> LeadingTerm:
    """Project an admissible ideal's generators onto the weight-1 piece;
    the decomposition of each generator raises AdmissibilityError if the
    ideal is not admissible."""
    if I.variables != center.ambient:
        raise AmbientMismatchError("ideal ambient differs from center ambient")
    base = leading_term_basis(center)
    rows = []
    for g in I.generators:
        decomp = leading_term_decomposition(g, center)
        row = tuple(
            (exp, coeff) for exp, coeff in decomp.items() if not coeff.is_zero()
        )
        if row:
            rows.append(row)
    return LeadingTerm(base.coords, base.basis, tuple(rows))
