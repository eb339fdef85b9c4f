"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names and a sparse term map

    terms: dict[Exponent, Fraction]        Exponent = tuple[int, ...]

with one integer per variable and no zero coefficients stored.  All
coefficients are `fractions.Fraction` (exact, arbitrary precision), so
identity testing is reliable and every operation is exact.  Values are
immutable by convention after construction; all operations are pure and
return new objects, which makes them safe to share across threads.

Ideals are plain generator lists over a shared ambient.  The "order" of a
polynomial at the origin is the minimal total degree of a term; the order of
the zero polynomial is +infinity (math.inf) and the order of a unit (nonzero
constant term) is 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import AmbientMismatchError, ResourceLimitError, degree_cap

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

INFINITY = math.inf


def _grlex_key(exp: Exponent):
    # graded lexicographic: total degree first, then lex on the exponents
    return (sum(exp), exp)


def _display_key(exp: Exponent):
    # ascending total degree, ties broken with earlier variables first
    return (sum(exp), tuple(-e for e in exp))


def monomial_str(names, exponents) -> str:
    """`x^2*y` for exponents (2, 1) on the names (x, y); the empty product is 1."""
    parts = (f"{v}^{e}" if e > 1 else v for v, e in zip(names, exponents) if e)
    return "*".join(parts) or "1"


class Polynomial:
    """A sparse polynomial over Q with named variables."""

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Scalar]):
        vs = tuple(variables)
        n = len(vs)
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            e = tuple(exp)
            if len(e) != n:
                raise AmbientMismatchError(
                    f"exponent arity {len(e)} does not match {n} variables"
                )
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            clean[e] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, value: Scalar, variables: Iterable[str]) -> "Polynomial":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): Fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> "Polynomial":
        vs = tuple(variables)
        i = vs.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vs)))
        return cls(vs, {exp: Fraction(1)})

    @classmethod
    def monomial(
        cls, exp: Exponent, variables: Iterable[str], coeff: Scalar = 1
    ) -> "Polynomial":
        return cls(variables, {tuple(exp): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        n = len(self.variables)
        return self.terms.get((0,) * n, Fraction(0))

    def total_degree(self):
        if not self.terms:
            return -INFINITY
        return max(sum(e) for e in self.terms)

    def order(self):
        """Minimal total degree of a term; +inf for the zero polynomial."""
        if not self.terms:
            return INFINITY
        return min(sum(e) for e in self.terms)

    def linear_part(self) -> dict[str, Fraction]:
        """Coefficients of the degree-1 terms, keyed by variable name."""
        out: dict[str, Fraction] = {}
        for exp, c in self.terms.items():
            if sum(exp) == 1:
                out[self.variables[exp.index(1)]] = c
        return out

    def support(self) -> set[str]:
        """Variables that actually occur."""
        occ: set[str] = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    occ.add(self.variables[i])
        return occ

    def nonlinear_support(self) -> set[str]:
        """Variables occurring in some term of total degree >= 2."""
        occ: set[str] = set()
        for exp in self.terms:
            if sum(exp) >= 2:
                for i, e in enumerate(exp):
                    if e:
                        occ.add(self.variables[i])
        return occ

    def degree_in(self, name: str) -> int:
        i = self.variables.index(name)
        return max((e[i] for e in self.terms), default=0)

    def min_power_of(self, name: str) -> int:
        """Largest k with name^k dividing every term (0 for the zero poly)."""
        if not self.terms:
            return 0
        i = self.variables.index(name)
        return min(e[i] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise AmbientMismatchError(
                f"ambients differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ambient(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return Polynomial(self.variables, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.variables)
        check_degree(self.total_degree() + other.total_degree())
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial(self.variables, terms)

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.variables, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.variables, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution and derivatives --------------------------------------

    def substitute(
        self, images: Mapping[str, "Polynomial"], variables: Iterable[str] | None = None
    ) -> "Polynomial":
        """Compose with a simultaneous variable substitution; see `_substitute`."""
        return _substitute(self.variables, [self], images, variables)[1][0]

    def restrict(self, name: str) -> "Polynomial":
        """Set one variable to zero (the ambient is kept unchanged)."""
        i = self.variables.index(name)
        terms = {e: c for e, c in self.terms.items() if e[i] == 0}
        return Polynomial(self.variables, terms)

    def derivative(self, name: str) -> "Polynomial":
        # lowering the exponent of `name` is injective on the terms it keeps,
        # so no two terms land on one exponent and nothing accumulates
        i = self.variables.index(name)
        terms: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k:
                terms[exp[:i] + (k - 1,) + exp[i + 1 :]] = c * k
        return Polynomial(self.variables, terms)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        vals = [Fraction(point.get(v, 0)) for v in self.variables]
        total = Fraction(0)
        for exp, c in self.terms.items():
            t = c
            for val, e in zip(vals, exp):
                if e:
                    t *= val**e
            total += t
        return total

    # -- division ----------------------------------------------------------

    def leading(self) -> tuple[Exponent, Fraction]:
        """Leading term under graded lex (largest)."""
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Graded-lex division by one polynomial: (q, r) with
        self = q * divisor + r and no term of r divisible by the leading term
        of divisor.

        One polynomial is a Groebner basis of the ideal it generates, so r is
        the unique normal form of self modulo (divisor).  The leading term of
        what is left either cancels against a multiple of divisor or moves to
        r; either way it strictly decreases, so the loop ends.
        """
        self._check_ambient(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        vs = self.variables
        lead_exp, lead_c = divisor.leading()
        q: dict[Exponent, Fraction] = {}
        r: dict[Exponent, Fraction] = {}
        rest = self
        while not rest.is_zero():
            exp, c = rest.leading()
            diff = tuple(a - b for a, b in zip(exp, lead_exp))
            if any(d < 0 for d in diff):
                r[exp] = c
                rest = rest - Polynomial.monomial(exp, vs, c)
            else:
                q[diff] = c / lead_c
                rest = rest - divisor * Polynomial.monomial(diff, vs, c / lead_c)
        return Polynomial(vs, q), Polynomial(vs, r)

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial | None":
        """Return self / divisor if the division is exact, else None."""
        q, r = self.divmod(divisor)
        return q if r.is_zero() else None

    def divide_by_variable_power(self, name: str, k: int) -> "Polynomial | None":
        """Exact division by name^k, or None if some term is not divisible."""
        if k == 0:
            return self
        i = self.variables.index(name)
        terms: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i] < k:
                return None
            e = list(exp)
            e[i] -= k
            terms[tuple(e)] = c
        return Polynomial(self.variables, terms)

    def extend_ambient(self, variables: Iterable[str]) -> "Polynomial":
        """The substitution with no images: f inside a larger ambient."""
        return self.substitute({}, variables)

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _display_key(t[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.sorted_terms():
            mono = monomial_str(self.variables, exp)
            c = coeff if not parts else abs(coeff)
            if not any(exp):
                body = str(c)
            elif abs(c) == 1:
                body = mono if c > 0 else f"-{mono}"
            else:
                body = f"{c}*{mono}"
            if not parts:
                parts.append(body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def check_degree(degree: int) -> None:
    """Raise ResourceLimitError when a product of this total degree would
    exceed the current degree cap; `*` and the weighted-blowup chart map,
    on each term it keeps, both apply this one rule."""
    cap = degree_cap()
    if degree > cap:
        raise ResourceLimitError(f"product degree {degree} exceeds cap {cap}")


def _substitute(
    ambient: tuple[str, ...],
    polys: Iterable[Polynomial],
    images: Mapping[str, Polynomial],
    variables: Iterable[str] | None,
) -> tuple[tuple[str, ...], list[Polynomial]]:
    """The target ambient and the images, in order, of `polys` (all over
    `ambient`) under one simultaneous substitution.  `images` are in the
    target ambient (checked for the ambient's own variables); a variable
    without one keeps its exponent, moved to its place in the target.  Each
    power of an image is computed once, when a term first needs it.  The
    degree cap sees each term's moved exponents, then each `*` by a mapped
    factor, so a change of ambient also refuses a term above the cap, which
    no polynomial built inside the engine has.
    """
    if variables is None:
        variables = next(iter(images.values())).variables if images else ambient
    target = tuple(variables)
    kept: list[tuple[int, int]] = []
    mapped: list[tuple[int, Polynomial]] = []
    for i, v in enumerate(ambient):
        img = images.get(v)
        if img is None:
            kept.append((i, target.index(v)))
        elif img.variables != target:
            raise AmbientMismatchError("substitution images have mixed ambients")
        else:
            mapped.append((i, img))
    powers: dict[tuple[int, int], Polynomial] = {}
    results: list[Polynomial] = []
    for f in polys:
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in f.terms.items():
            moved = [0] * len(target)
            for i, j in kept:
                moved[j] = exp[i]
            check_degree(sum(moved))
            image = {tuple(moved): coeff}
            for i, img in mapped:
                k = exp[i]
                if k:
                    if (i, k) not in powers:
                        powers[i, k] = img**k
                    image = (Polynomial(target, image) * powers[i, k]).terms
            for e, c in image.items():
                out[e] = out.get(e, 0) + c
        results.append(Polynomial(target, out))
    return target, results


def power_product(
    bases: Iterable[Polynomial], exponents: Iterable[int], variables: Iterable[str]
) -> Polynomial:
    """prod b^e over paired bases and exponents, as a polynomial in `variables`.

    Multiplies left to right through `*` and `**`, skipping zero exponents, so
    the degree cap raises at the first partial product that exceeds it.
    """
    out = Polynomial.constant(1, variables)
    for base, e in zip(bases, exponents):
        if e:
            out = out * base**e
    return out


def _monic(g: Polynomial) -> Polynomial:
    """g scaled so that its graded-lex leading coefficient is 1."""
    return g.scale(Fraction(1) / g.leading()[1])


class PolyIdeal:
    """An ideal given by a finite generator list over a shared ambient."""

    # _fresh / _normalized carry a derivative tower forward: generators before
    # index _fresh already have their first partials in the ideal (up to
    # scalars), and _normalized holds every generator scaled to a monic
    # leading term (None until the first derivative step computes it)
    __slots__ = ("variables", "generators", "_fresh", "_normalized")

    def __init__(self, variables: Iterable[str], generators: Iterable[Polynomial]):
        vs = tuple(variables)
        gens: list[Polynomial] = []
        seen: set[int] = set()
        for g in generators:
            if g.variables != vs:
                raise AmbientMismatchError("generator ambient differs from ideal ambient")
            if g.is_zero():
                continue
            h = hash(g)
            if h in seen and any(g == p for p in gens):
                continue
            seen.add(h)
            gens.append(g)
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_fresh", 0)
        object.__setattr__(self, "_normalized", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PolyIdeal is immutable")

    def is_zero(self) -> bool:
        return not self.generators

    def order(self):
        """min over generators of their order; +inf for the zero ideal."""
        if not self.generators:
            return INFINITY
        return min(g.order() for g in self.generators)

    def is_unit_at_origin(self) -> bool:
        return self.order() == 0

    def derivative_extend(self) -> "PolyIdeal":
        """One derivative step: append all first partials of all generators.

        Scalar multiples are dropped (they generate the same ideal), which
        keeps iterated derivative towers from exploding combinatorially.
        Along a tower only the generators the previous step appended are
        differentiated: the partials of the older ones were already appended
        or dropped as scalar multiples then, so they would all be dropped
        again and the generator tuple is the same as a full step's.
        """
        gens = list(self.generators)
        if self._normalized is None:
            seen = {_monic(g) for g in gens}
        else:
            seen = set(self._normalized)
        for g in gens[self._fresh :]:
            for v in self.variables:
                d = g.derivative(v)
                if d.is_zero():
                    continue
                normalized = _monic(d)
                if normalized in seen:
                    continue
                seen.add(normalized)
                gens.append(d)
        out = PolyIdeal(self.variables, gens)
        object.__setattr__(out, "_fresh", len(self.generators))
        object.__setattr__(out, "_normalized", seen)  # never mutated from here on
        return out

    def derivative_ideal(self, k: int) -> "PolyIdeal":
        """D^k: the ideal plus all partial derivatives up to total order k."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        out = self
        for _ in range(k):
            out = out.derivative_extend()
        return out

    def restrict(self, name: str) -> "PolyIdeal":
        return PolyIdeal(self.variables, [g.restrict(name) for g in self.generators])

    def substitute(
        self, images: Mapping[str, Polynomial], variables: Iterable[str] | None = None
    ) -> "PolyIdeal":
        target, gens = _substitute(self.variables, self.generators, images, variables)
        return PolyIdeal(target, gens)

    def translate(self, point: Mapping[str, Scalar]) -> "PolyIdeal":
        """Shift coordinates so that `point` becomes the origin."""
        vs = self.variables
        images = {
            v: Polynomial.variable(v, vs) + Polynomial.constant(val, vs)
            for v, val in point.items() if val
        }
        return self.substitute(images, vs) if images else self

    def extend_ambient(self, variables: Iterable[str]) -> "PolyIdeal":
        return self.substitute({}, variables)

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.generators)

    def monomial_exponents(self) -> list[Exponent]:
        if not self.is_monomial():
            raise ValueError("not a monomial ideal")
        return [next(iter(g.terms)) for g in self.generators]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyIdeal):
            return NotImplemented
        return self.variables == other.variables and set(self.generators) == set(
            other.generators
        )

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.generators)))

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self) -> str:
        return f"PolyIdeal{self}"


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """A variable name not colliding with `taken`, derived from `base`."""
    used = set(taken)
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"
