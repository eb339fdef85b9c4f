"""Certificates that a weighted center presentation is canonical.

A presentation [v_1^{d_1}, ..., v_n^{d_n}] of an admissible center for I is
certified at level i by an element f of I whose weight-one decomposition
sum b_a v^a (over the monomial basis of the center's leading term)

  (i1) has a term with b_a = 1, a = (c_1, ..., c_i, 0, ..., 0), c_i != 0,
  (i2) has no nonzero term whose exponent starts (c_1, ..., c_{i-1}, c_i - 1).

Existence of such witnesses at every level is equivalent to the center being
the canonical one, and (i1) alone already forces the exponent tuple to
satisfy the witness condition.  `verify_tschirnhaus` searches for witnesses
among bounded rational combinations of the generators; `make_tschirnhaus`
constructs a certified presentation for a canonical center by unit
renormalization, a deterministic shear inside each equal-weight block, and
the classical tail-clearing substitution
t_i  <-  t_i + e^{-1} * sum_j beta_j y_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .centers import (
    AlignStep,
    CenterPresentation,
    is_admissible,
    leading_term_decomposition,
)
from .errors import AdmissibilityError, CertificateError
from .lattice import is_in_mord
from .poly import Polynomial, PolyIdeal, power_product

COMBINATION_BOUND = 5
SHEAR_SEQUENCE = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8)


@dataclass(frozen=True)
class LevelWitness:
    level: int
    witness: Polynomial  # in original coordinates, renormalized
    c_vector: tuple[int, ...]


@dataclass(frozen=True)
class TschirnhausCertificate:
    presentation: CenterPresentation
    witnesses: tuple[LevelWitness, ...]
    substitutions: tuple[str, ...] = ()


def _candidates(I: PolyIdeal) -> Iterable[Polynomial]:
    """Deterministic witness search space: generators, then small pairs."""
    gens = I.generators
    for g in gens:
        yield g
    for k in range(len(gens)):
        for l in range(k + 1, len(gens)):
            for alpha in range(1, COMBINATION_BOUND + 1):
                for beta in range(-COMBINATION_BOUND, COMBINATION_BOUND + 1):
                    if beta == 0:
                        continue
                    yield gens[k].scale(alpha) + gens[l].scale(beta)


def _level_witness(
    I: PolyIdeal, center: CenterPresentation, i: int
) -> LevelWitness | None:
    """Search for a witness at level i (1-based) over the candidate space."""
    n = len(center.coords)
    for f in _candidates(I):
        if f.is_zero():
            continue
        decomp = leading_term_decomposition(f, center)
        for exp, coeff in decomp.items():
            if exp[i - 1] == 0:
                continue
            if any(exp[j] != 0 for j in range(i, n)):
                continue
            if not coeff.is_constant():
                continue
            c = coeff.constant_term()
            if c == 0:
                continue
            prefix = exp[: i - 1] + (exp[i - 1] - 1,)
            clash = any(
                other[:i] == prefix and not co.is_zero()
                for other, co in decomp.items()
            )
            if clash:
                continue
            return LevelWitness(i, f.scale(Fraction(1) / c), exp[:i])
    return None


def verify_tschirnhaus(
    I: PolyIdeal, center: CenterPresentation
) -> TschirnhausCertificate | None:
    """Certificate for the given presentation, or None if no witness exists."""
    if not is_admissible(I, center):
        raise AdmissibilityError("Tschirnhaus verification requires admissibility")
    witnesses = []
    for i in range(1, len(center.coords) + 1):
        w = _level_witness(I, center, i)
        if w is None:
            return None
        witnesses.append(w)
    assert is_in_mord(center.exponents)  # implied by the (i1) conditions
    return TschirnhausCertificate(center, tuple(witnesses))


def _claim_term(
    decomp: dict, center: CenterPresentation, i: int
) -> tuple[tuple[int, ...], Fraction] | None:
    """A weight-one term with support allowed by the tie block at level i.

    Needed shape: constant coefficient, zero exponents on coordinates of
    weight strictly smaller than 1/d_i, and some nonzero exponent at or
    beyond position i.  Equality of the weighted sums forces the support
    beyond position i-1 into the equal-weight block automatically.
    """
    d = center.exponents
    n = len(center.coords)
    for exp, coeff in sorted(decomp.items()):
        if not coeff.is_constant() or coeff.constant_term() == 0:
            continue
        if not any(exp[j] != 0 for j in range(i - 1, n)):
            continue
        if any(exp[j] != 0 and d[j] > d[i - 1] for j in range(i - 1, n)):
            continue
        return exp, coeff.constant_term()
    return None


def make_tschirnhaus(
    I: PolyIdeal, center: CenterPresentation
) -> TschirnhausCertificate:
    """Transform a canonical presentation into a certified one.

    Raises CertificateError when no witness material exists at some level;
    certificates exist exactly for canonical centers, so that failure
    signals a non-canonical input.  The result is re-verified before it is
    returned.
    """
    if not is_admissible(I, center):
        raise AdmissibilityError("Tschirnhaus construction requires admissibility")
    current = center
    applied: list[str] = []
    d = center.exponents
    n = len(center.coords)

    for i in range(1, n + 1):
        if _level_witness(I, current, i) is not None:
            continue

        for f in _candidates(I):
            if f.is_zero():
                continue
            claim = _claim_term(leading_term_decomposition(f, current), current, i)
            if claim is not None:
                break
        else:
            raise CertificateError(
                f"no witness material at level {i}: the center is not canonical"
            )
        exp, c = claim
        f = f.scale(Fraction(1) / c)

        block = [j for j in range(i - 1, n) if d[j] == d[i - 1]]
        needs_shear = any(exp[j] != 0 for j in block if j != i - 1)
        if needs_shear:
            e = sum(exp[j] for j in block)
            target = tuple(
                exp[j] if j < i - 1 else (e if j == i - 1 else 0) for j in range(n)
            )
            for b in SHEAR_SEQUENCE:
                tail = Polynomial.variable(current.coords[i - 1], current.ambient)
                tail = tail.scale(Fraction(-b))
                change = current.change
                for j in block:
                    if j != i - 1:
                        change = change.then(AlignStep(current.coords[j], Fraction(1), tail))
                trial = CenterPresentation(
                    current.ambient, change, current.coords, current.exponents
                )
                coeff = leading_term_decomposition(f, trial).get(target)
                if coeff is not None and coeff.is_constant() and coeff.constant_term() != 0:
                    break
            else:
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

        if _level_witness(I, current, i) is None:
            raise CertificateError(
                f"level {i} still uncertified after the constructive substitutions"
            )

    result = verify_tschirnhaus(I, current)
    if result is None:
        raise CertificateError("final re-verification failed")
    return TschirnhausCertificate(
        result.presentation, result.witnesses, tuple(applied)
    )
