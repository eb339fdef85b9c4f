"""Certificates that a weighted center presentation is canonical.

A presentation [v_1^{d_1}, ..., v_n^{d_n}] of an admissible center for I is
certified at level i by an element f of I whose weight-one decomposition
sum b_a v^a (over the monomial basis of the center's leading term)

  (i1) has a term with b_a a unit, that is nonzero at the origin, on
       a = (c_1, ..., c_i, 0, ..., 0), c_i != 0,
  (i2) has no nonzero term whose exponent starts (c_1, ..., c_{i-1}, c_i - 1).

Existence of such witnesses at every level is equivalent to the center being
the canonical one, and (i1) alone already forces the exponent tuple to
satisfy the witness condition.  `verify_tschirnhaus` searches for witnesses
in the Q-span of the generators, by exact elimination: the decomposition is
linear in f, so each candidate a is one `echelon` question, and a stored
witness is scaled to b_a(0) = 1.  `make_tschirnhaus` constructs a certified
presentation for a canonical center by unit renormalization, a
deterministic shear inside each equal-weight block, and the classical
tail-clearing substitution
t_i  <-  t_i + e^{-1} * sum_j beta_j y_j,
which needs a constant coefficient b_a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from .centers import AlignStep, CenterPresentation, is_admissible, leading_term_decomposition
from .errors import AdmissibilityError, CertificateError, DomainError
from .lattice import is_in_mord
from .poly import Exponent, Polynomial, PolyIdeal, echelon, power_product

SHEAR_SEQUENCE = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8)


@dataclass(frozen=True)
class LevelWitness:
    level: int
    witness: Polynomial  # in original coordinates, b_a(0) = 1
    c_vector: tuple[int, ...]


@dataclass(frozen=True)
class TschirnhausCertificate:
    presentation: CenterPresentation
    witnesses: tuple[LevelWitness, ...]
    substitutions: tuple[str, ...] = ()


def _check_input(I: PolyIdeal, center: CenterPresentation, action: str) -> None:
    if I.is_zero():
        raise DomainError("the zero ideal has no canonical center")
    if not is_admissible(I, center):
        raise AdmissibilityError(f"Tschirnhaus {action} requires admissibility")


def _flat_decompositions(I: PolyIdeal, center: CenterPresentation) -> list[dict]:
    """Each generator's weight-one decomposition as one map
    (basis exponent, free exponent) -> coefficient."""
    decomps = (leading_term_decomposition(g, center) for g in I.generators)
    return [{(a, m): c for a, b in d.items() for m, c in b.terms.items()} for d in decomps]


def _span_element(I: PolyIdeal, flats: list[dict], vanish, one) -> Polynomial | None:
    """The element sum c_k g_k of I whose decomposition is 1 on the column
    `one` and 0 on each column `vanish` accepts, or None if the span holds
    none; flats[k] is the flat decomposition of the generator g_k.

    Echelon row k holds flats[k] on those columns, then row k of a reversed
    identity block: a basis row pivoting on `one` answers, and its identity
    part is c.  Reversed, the block makes later generators the free ones,
    so earlier generators are preferred.
    """
    cols = [key for key in dict.fromkeys(k for f in flats for k in f) if vanish(key)] + [one]
    n, v = len(flats), len(cols) - 1
    row = echelon(
        [f.get(key, 0) for key in cols] + [int(j == n - 1 - k) for j in range(n)]
        for k, f in enumerate(flats)
    ).get(v)
    if row is None:
        return None
    return reduce(add, (g.scale(c) for g, c in zip(I.generators, row[:v:-1]) if c))


def _level_witness(
    I: PolyIdeal, center: CenterPresentation, flats: list[dict], i: int
) -> LevelWitness | None:
    """A witness at level i (1-based) in the span of the generators."""
    origin = (0,) * (len(center.ambient) - len(center.coords))
    for a in dict.fromkeys(a for f in flats for a, _ in f):
        if a[i - 1] and not any(a[i:]):
            prefix = a[: i - 1] + (a[i - 1] - 1,)
            f = _span_element(I, flats, lambda key: key[0][:i] == prefix, (a, origin))
            if f is not None:
                return LevelWitness(i, f, a[:i])
    return None


def _certificate(
    I: PolyIdeal, center: CenterPresentation, flats: list[dict]
) -> TschirnhausCertificate | None:
    witnesses = []
    for i in range(1, len(center.coords) + 1):
        witnesses.append(_level_witness(I, center, flats, i))
        if witnesses[-1] is None:
            return None
    assert is_in_mord(center.exponents)  # implied by the (i1) conditions
    return TschirnhausCertificate(center, tuple(witnesses))


def verify_tschirnhaus(
    I: PolyIdeal, center: CenterPresentation
) -> TschirnhausCertificate | None:
    """Certificate for the given presentation, or None if no witness exists."""
    _check_input(I, center, "verification")
    return _certificate(I, center, _flat_decompositions(I, center))


def _non_constant_units(i: int) -> CertificateError:
    return CertificateError(
        f"the witness material at level {i} has only non-constant unit "
        "coefficients, and the constructive path needs a constant coefficient"
    )


def _claim(
    I: PolyIdeal, center: CenterPresentation, flats: list[dict], i: int
) -> tuple[Exponent, Polynomial]:
    """An exponent allowed by the tie block at level i and an element of I
    whose coefficient on it is the constant 1.

    Allowed: zero exponents on coordinates of weight strictly smaller than
    1/d_i, and some nonzero exponent at or beyond position i.  Equality of
    the weighted sums forces the support beyond position i-1 into the
    equal-weight block automatically.
    """
    d, n = center.exponents, len(center.coords)
    origin = (0,) * (len(center.ambient) - n)
    unit = False
    for a in dict.fromkeys(a for f in flats for a, _ in f):
        if not any(a[i - 1 :]) or any(a[j] and d[j] > d[i - 1] for j in range(i - 1, n)):
            continue
        f = _span_element(I, flats, lambda key: key[0] == a and any(key[1]), (a, origin))
        if f is not None:
            return a, f
        unit = unit or any((a, origin) in flat for flat in flats)
    if unit:
        raise _non_constant_units(i)
    raise CertificateError(f"no witness material at level {i}: the center is not canonical")


def make_tschirnhaus(I: PolyIdeal, center: CenterPresentation) -> TschirnhausCertificate:
    """Transform a canonical presentation into a certified one.

    Raises CertificateError when no witness material exists at some level,
    which signals a non-canonical input.  Material whose only unit
    coefficients are not constant is refused as such, so a canonical center
    can still be refused: `[y^5, x^5]` for `x*y^4 + x^3*y^2*z^3`.  The
    result is re-verified before it is returned.
    """
    _check_input(I, center, "construction")
    current = center
    flats = _flat_decompositions(I, current)
    applied: list[str] = []
    d, n = center.exponents, len(center.coords)

    for i in range(1, n + 1):
        if _level_witness(I, current, flats, i) is not None:
            continue

        exp, f = _claim(I, current, flats, i)

        block = [j for j in range(i - 1, n) if d[j] == d[i - 1]]
        if any(exp[j] for j in block[1:]):
            e = sum(exp[j] for j in block)
            target = tuple(
                exp[j] if j < i - 1 else (e if j == i - 1 else 0) for j in range(n)
            )
            unit = False  # some shift gave a unit target coefficient, not constant
            for b in SHEAR_SEQUENCE:
                tail = Polynomial.variable(current.coords[i - 1], current.ambient).scale(-b)
                change = current.change
                for j in block[1:]:
                    change = change.then(AlignStep(current.coords[j], Fraction(1), tail))
                trial = CenterPresentation(current.ambient, change, current.coords, d)
                coeff = leading_term_decomposition(f, trial).get(target)
                if coeff is not None and coeff.constant_term() != 0:
                    if coeff.is_constant():
                        break
                    unit = True
            else:
                if unit:
                    raise _non_constant_units(i)
                raise CertificateError(
                    f"no usable shear found at level {i} within the search bound"
                )
            current = trial
            applied.append(f"shear level {i}: block shift by {b}")
            f = f.scale(Fraction(1) / coeff.constant_term())
            exp = target

        # clear every weight-one term starting (c_1, ..., c_{i-1}, e - 1)
        e = exp[i - 1]
        prefix = exp[: i - 1] + (e - 1,)
        tails = [
            (other, coeff)
            for other, coeff in leading_term_decomposition(f, current).items()
            if other[:i] == prefix and not coeff.is_zero()
        ]
        if tails:
            amb = current.ambient
            later = [Polynomial.variable(v, amb) for v in current.coords[i:]]
            delta_poly = Polynomial.zero(amb)
            for other, coeff in tails:
                mono = power_product(later, other[i:], amb)
                delta_poly = delta_poly + coeff.extend_ambient(amb) * mono
            delta_poly = delta_poly.scale(Fraction(1, e))
            step = AlignStep(current.coords[i - 1], Fraction(1), delta_poly)
            current = CenterPresentation(
                amb, current.change.then(step), current.coords, current.exponents
            )
            applied.append(
                f"tail clearing level {i}: {current.coords[i - 1]} shifted by "
                f"-({delta_poly})"
            )

        flats = _flat_decompositions(I, current)
        if _level_witness(I, current, flats, i) is None:
            raise CertificateError(
                f"level {i} still uncertified after the constructive substitutions"
            )

    result = _certificate(I, current, flats)
    if result is None:
        raise CertificateError("final re-verification failed")
    return TschirnhausCertificate(result.presentation, result.witnesses, tuple(applied))
