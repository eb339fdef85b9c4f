"""Tube algebras: nilpotent thickenings with staircase relations.

The representable class is  base[t_1, ..., t_n] / (monomial relations):
a polynomial base ring, nilpotent parameters t, and relations given by
monomial exponents (their upward closure vanishes).  A split tube of width
d (a weakly increasing tuple with every entry > 1, satisfying the witness
condition) is such an algebra whose relations kill exactly the staircase
I_d and whose surviving monomials are a free module basis over the base:

  (0) the parameters cut out the base ring,
  (1) t^a = 0 for every a in I_d,
  (2) the monomials t^a with a outside I_d are independent over the base.

The decreasing valuative filtration places an element in F_r when every
term's parameter exponent has weighted value at least r; the defining
parameters sit exactly at F_{1/d_i}, and any candidate tuple that is a
conormal basis respecting those levels is again a system of nilpotent
parameters.  On the width's integer grading (L, w) of `lattice.grading`,
t^a lies in F_{1/d_i} exactly when w_1*a_1 + ... + w_n*a_n >= w_i.

Tubes in a regular ambient correspond to integral weighted centers: the
tube of a center is the vanishing locus of its rounding, the width is the
part of the invariant exceeding one, and the tubular Rees algebra (degree n
generated by parameter monomials of value at least n/N) is the restriction
of the center's root Rees algebra, with Proj the strict transform of the
ambient weighted blowup.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .blowup import rees_generators
from .centers import CenterPresentation, CoordinateChange
from .errors import (
    DomainError,
    NonIntegralCenterError,
    NotATubeError,
    UnrepresentableError,
)
from .lattice import LatticeIdeal, MultiOrder, grading, is_in_mord
from .poly import Exponent, Polynomial, PolyIdeal, echelon, power_product


class _TubeFields(NamedTuple):
    base_vars: tuple[str, ...]
    params: tuple[str, ...]
    relations: tuple[Exponent, ...]
    width: MultiOrder | None = None


class TubeAlgebra(_TubeFields):
    """base[t]/(monomial relations), with optional width metadata."""

    __slots__ = ()

    def __new__(
        cls,
        base_vars: tuple[str, ...],
        params: tuple[str, ...],
        relations: tuple[Exponent, ...],
        width: MultiOrder | None = None,
    ):
        if width is not None and len(width) != len(params):
            raise DomainError("parameter count must match the width length")
        for a in relations:
            if len(a) != len(params):
                raise DomainError("relation arity does not match the parameters")
        return super().__new__(cls, base_vars, params, relations, width)

    def ambient(self) -> tuple[str, ...]:
        return self.base_vars + self.params

    def kills(self, a: Exponent) -> bool:
        return any(all(x >= y for x, y in zip(a, r)) for r in self.relations)

    def _prefix_walk(self, prefix: Exponent = (), kept: Sequence[Exponent] | None = None):
        """Each prefix p of length n - 1 of a survivor, with the bound c
        such that p + (e,) survives exactly when e < c.

        Survivors are closed under lowering an exponent.  The lazy walk keeps
        the relations whose leading entries the prefix dominates; the next
        entry runs below the least entry of a kept relation with no later
        nonzero entry (the pure power is one).
        """
        if kept is None:
            for i, name in enumerate(self.params):
                if not any(not any(r[:i] + r[i + 1 :]) for r in self.relations):
                    raise UnrepresentableError(
                        f"parameter {name} is not nilpotent: no pure power relation"
                    )
            kept = self.relations
        j = len(prefix)
        if j + 1 == len(self.params):
            yield prefix, min(map(itemgetter(j), kept))
            return
        top = min(r[j] for r in kept if not any(r[j + 1 :]))
        kept = sorted(kept, key=itemgetter(j))
        for e in range(top):
            below = bisect_right(kept, e, key=itemgetter(j))
            yield from self._prefix_walk(prefix + (e,), kept[:below])

    def basis(self) -> list[Exponent]:
        """Parameter monomials surviving the relations (must be finite)."""
        if not self.params:
            return [] if self.kills(()) else [()]
        out = [p + (e,) for p, top in self._prefix_walk() for e in range(top)]
        out.sort(key=lambda t: (sum(t), tuple(-e for e in t)))
        return out

    def rank(self) -> int:
        """The number of surviving monomials, counted without listing them."""
        if not self.params:
            return len(self.basis())
        return sum(top for _, top in self._prefix_walk())

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form: kill every term whose parameter part is a relation."""
        amb = self.ambient()
        if f.variables != amb:
            f = f.extend_ambient(amb)
        idx = [amb.index(p) for p in self.params]
        terms = {
            exp: c
            for exp, c in f.terms.items()
            if not self.kills(tuple(exp[i] for i in idx))
        }
        return Polynomial(amb, terms)

    def param_polynomials(self) -> tuple[Polynomial, ...]:
        amb = self.ambient()
        return tuple(Polynomial.variable(p, amb) for p in self.params)


def constant_tube(
    width: MultiOrder,
    base_vars: Iterable[str] = (),
    params: Iterable[str] | None = None,
) -> TubeAlgebra:
    """The standard tube of the given width over a polynomial base."""
    if any(e <= 1 for e in width.entries) or not is_in_mord(width):
        raise DomainError(f"width {width} must have entries > 1 and admit witnesses")
    names = tuple(params) if params is not None else tuple(
        f"t{i+1}" for i in range(len(width))
    )
    relations = tuple(LatticeIdeal(width).minimal_generators())
    return TubeAlgebra(tuple(base_vars), names, relations, width)


# -- exact linear algebra helpers (row elimination is `poly.echelon`) --------


def _poly_det(matrix: list[list[Polynomial]]) -> Polynomial:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    amb = matrix[0][0].variables
    total = Polynomial.zero(amb)
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * _poly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _invertible_over_base(matrix: list[list[Polynomial]]) -> bool:
    """The determinant is a nonzero constant, hence a unit of the base (the
    empty matrix, of a tube without parameters, has determinant 1)."""
    if not matrix:
        return True
    det = _poly_det(matrix)
    return not det.is_zero() and det.is_constant()


# -- split-tube verification ---------------------------------------------------


def _candidate_param_polys(
    A: TubeAlgebra, params: Sequence[Polynomial | str] | None
) -> list[Polynomial]:
    amb = A.ambient()
    if params is None:
        return list(A.param_polynomials())
    out = []
    for p in params:
        if isinstance(p, str):
            out.append(Polynomial.variable(p, amb))
        else:
            out.append(p.extend_ambient(amb) if p.variables != amb else p)
    return out


def _base_part(A: TubeAlgebra, f: Polynomial) -> Polynomial:
    """f with every parameter restricted to 0."""
    return reduce(Polynomial.restrict, A.params, f)


def _linear_param_matrix(A: TubeAlgebra, cands: list[Polynomial]) -> list[list[Polynomial]]:
    """Conormal matrix: the base part of d cand / d t for each parameter t,
    the coefficient of t in the candidate's parameter-linear part (an entry
    may involve base variables)."""
    return [[_base_part(A, cand.derivative(t)) for t in A.params] for cand in cands]


def verify_split_tube(
    A: TubeAlgebra,
    width: MultiOrder,
    params: Sequence[Polynomial | str] | None = None,
) -> bool:
    """Check the split-tube axioms for a claimed width and parameter tuple."""
    if len(width) != len(A.params):
        return False
    if any(e <= 1 for e in width.entries):
        return False
    cands = _candidate_param_polys(A, params)
    amb = A.ambient()

    # (0): the candidates cut out the base: no pure-base terms, and the
    # parameter-linear parts form an invertible matrix over the base
    if any(not _base_part(A, cand).is_zero() for cand in cands):
        return False
    if not _invertible_over_base(_linear_param_matrix(A, cands)):
        return False

    # (1): the staircase monomials in the candidates vanish
    lattice = LatticeIdeal(width)
    for a in lattice.minimal_generators():
        if not A.reduce(power_product(cands, a, amb)).is_zero():
            return False

    # (2): the complement monomials in the candidates form a base-module
    # basis; with filtration-respecting candidates this is detected by the
    # invertibility of the product matrix against the algebra's own basis
    complement = lattice.complement()
    basis = A.basis()
    if len(complement) != len(basis):
        return False
    idx = [amb.index(p) for p in A.params]
    base_idx = [amb.index(v) for v in A.base_vars]
    rows = []
    for a in sorted(complement, key=lambda t: (sum(t), tuple(-e for e in t))):
        mono = A.reduce(power_product(cands, a, amb))
        if any(exp[i] for exp in mono.terms for i in base_idx):
            raise UnrepresentableError("base-coefficient matrices are outside the checked class")
        coeffs = {tuple(exp[i] for i in idx): c for exp, c in mono.terms.items()}
        rows.append([coeffs.get(b, 0) for b in basis])
    return len(echelon(rows)) == len(basis)


def width(A: TubeAlgebra) -> MultiOrder:
    """Recover the width from the relation staircase.

    A relation a in the first i parameters with a_i >= 1 lies in I_d, so
    d_i <= a_i / (1 - sum_{j<i} a_j/d_j) when that slack is positive, with
    equality at the witness of prefix i, a minimal generator: d_1 is the
    pure t_1 power and each d_i the least bound.  The result must increase,
    exceed one, admit witnesses and have exactly the relations as its
    staircase, so integral staircases determine their width uniquely.
    """
    rels = set(A.relations)
    ds: list[Fraction] = []
    for i in range(len(A.params)):
        bounds = []
        for a in rels:
            slack = 1 - sum(x / e for x, e in zip(a, ds))
            if a[i] >= 1 and not any(a[i + 1 :]) and slack > 0:
                bounds.append(Fraction(a[i]) / slack)
        d_i = min(bounds, default=Fraction(0))
        if d_i <= 1 or (ds and d_i < ds[-1]):
            break
        ds.append(d_i)
    else:
        d = MultiOrder(ds)
        if is_in_mord(d) and set(LatticeIdeal(d).minimal_generators()) == rels:
            return d
    raise NotATubeError(f"relations {A.relations} are not an integral staircase")


def parameter_check(
    A: TubeAlgebra, candidate: Sequence[Polynomial | str]
) -> bool:
    """Conormal-basis and filtration-level test for a candidate tuple."""
    d = A.width if A.width is not None else width(A)
    if len(candidate) != len(A.params):
        return False
    cands = _candidate_param_polys(A, candidate)
    if not _invertible_over_base(_linear_param_matrix(A, cands)):
        return False
    amb = A.ambient()
    idx = [amb.index(p) for p in A.params]
    _, w = grading(d)
    for i, cand in enumerate(cands):
        level = w[i]
        g = A.reduce(cand)
        if g.is_zero():
            return False
        if any(sum(wj * exp[k] for wj, k in zip(w, idx)) < level for exp in g.terms):
            return False
    return True


# -- correspondence with centers ----------------------------------------------


def tube_center_correspondence(center: CenterPresentation) -> TubeAlgebra:
    """The tube cut out by the rounding of an integral center."""
    if not is_in_mord(center.mord()):
        raise NonIntegralCenterError(f"{center} is not integral")
    tail = center.t_exponents()
    base = tuple(v for v in center.ambient if v not in center.coords)
    params = center.t_coords()
    relations = tuple(LatticeIdeal(tail).minimal_generators())
    return TubeAlgebra(base, params, relations, tail)


def center_from_tube(A: TubeAlgebra) -> CenterPresentation:
    """Inverse correspondence on representable inputs: the integral center
    with the tube's parameters as coordinates."""
    d = A.width if A.width is not None else width(A)
    ambient = A.ambient()
    return CenterPresentation(
        ambient, CoordinateChange.identity(ambient), A.params, d
    )


# -- tight presentations --------------------------------------------------------


class TightVerdict(NamedTuple):
    gap: int
    s_size: int
    valid: bool
    tight_exists: bool


def _linear_rank(gens: Iterable[Polynomial], ambient: tuple[str, ...]) -> int:
    return len(echelon([g.linear_part().get(v, 0) for v in ambient] for g in gens))


def tight_presentation_check(
    Z_ideal: PolyIdeal,
    s_part: Sequence[Polynomial],
    t_part: Sequence[str],
    d: MultiOrder,
) -> TightVerdict:
    """Compare the s-part size against the cotangent-dimension gap.

    The gap is computed from linear parts of generators at the origin:
    e = (ambient dimension) - rank(linear parts).  A tight presentation
    (no s-part) exists exactly when the gap vanishes.
    """
    ambient = Z_ideal.variables
    if any(e <= 1 for e in d.entries):
        raise DomainError("tube widths must exceed one")
    n = len(ambient)
    e_Z = n - _linear_rank(Z_ideal.generators, ambient)
    tube_gens = list(s_part)
    if len(t_part) != len(d):
        raise DomainError("t-part length must match the width")
    t_polys = [Polynomial.variable(v, ambient) for v in t_part]
    for a in LatticeIdeal(d).minimal_generators():
        tube_gens.append(power_product(t_polys, a, ambient))
    e_V = n - _linear_rank(tube_gens, ambient)
    gap = e_Z - e_V
    return TightVerdict(
        gap=gap,
        s_size=len(s_part),
        valid=len(s_part) == gap,
        tight_exists=gap == 0,
    )


# -- tubular Rees algebra -------------------------------------------------------


def tubular_rees_piece(A: TubeAlgebra, N: int, n: int) -> list[Exponent]:
    """Minimal parameter monomials of the degree-n graded piece.

    Degree n is generated by the monomials t^a with N * sum a_j/d_j >= n,
    the restriction of the corresponding center's root Rees algebra.
    """
    return rees_generators(center_from_tube(A), N, n)[n]


def _reduce_mod(f: Polynomial, Z: PolyIdeal) -> Polynomial:
    """Normal form modulo a zero, monomial, or principal ideal.

    Such generators form a Groebner basis, and dividing by a monomial only
    drops terms, so the remainder of division by each generator in turn is
    the unique normal form.
    """
    if len(Z.generators) > 1 and not Z.is_monomial():
        raise UnrepresentableError(
            "normal forms are only available modulo zero, monomial, or principal ideals"
        )
    for g in Z.generators:
        f = f.divmod(g)[1]
    return f


def rees_restriction_check(
    center: CenterPresentation, Z_ideal: PolyIdeal, N: int, tube: TubeAlgebra
) -> bool:
    """Degree-by-degree: the image of the center's Rees generators in the
    quotient ring by Z equals the image of the tube's tubular Rees generators.

    The center must be tight, and on plain variables as tube parameters
    are; any other center is refused.
    """
    if center.s_count() > 0:
        raise UnrepresentableError("restriction check expects a tight center")
    if center.change.steps:
        raise UnrepresentableError("restriction check expects a center on plain variables")
    ambient = center.ambient

    def images(names: Sequence[str], exponents: list[Exponent]) -> set[Polynomial]:
        polys = [Polynomial.variable(v, ambient) for v in names]
        reduced = (_reduce_mod(power_product(polys, a, ambient), Z_ideal) for a in exponents)
        return {r for r in reduced if not r.is_zero()}

    rees = rees_generators(center, N)
    for n in range(N + 1):
        left = images(center.coords, rees[n])
        try:
            right_exponents = tubular_rees_piece(tube, N, n)
        except DomainError:
            return False  # the tube's width does not even admit this root order
        if left != images(tube.params, right_exponents):
            return False
    return True
