"""Text and JSON formats.

Polynomial grammar: identifiers are variables, `^` raises to integer powers,
`*` between factors is optional, `+`/`-` separate terms, and coefficients
are ASCII integers or rationals `p/q`.  Subexpressions may be parenthesized,
so `(x+y^2)^5 + y^11` parses.  Ideals are comma-separated generator lists.
Parsing builds term maps (exponent tuple -> coefficient) and a Polynomial
only from a whole generator or center entry.  A numeral past the
interpreter's int/str digit limit (4300 digits by default) is a ParseError.

Weight tuples read as `(4, 16/3, 32/5)`, each entry an optionally negative
integer or `p/q`.  Centers read as `[x^5, y^(15/2)]`, with an optional
codimension block before a pipe: `[s1, s2 | x^5, y^7]`; block entries carry
exponent 1.  Fractional exponents must be parenthesized.  An entry's
exponent applies to its whole base, which is one variable or one
parenthesized group: `[(x + y^2)^5, y^11]`, while `[x + y^2, z^3]` and
`[2*x^3, y^5]` are refused; a coordinate of exponent 1 whose terms hold a
power is parenthesized whole: `[(x + y^2), z^3]`.

All rationals serialize to JSON as strings like "16/3" (integers as "16"),
never as floats; a number too long to print is a ResourceLimitError.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from operator import add
from typing import Iterable

from .centers import AlignStep, CenterPresentation, CoordinateChange
from .errors import ParseError
from .lattice import MultiOrder
from .poly import Polynomial, PolyIdeal, check_degree, check_power, int_str, monomial_str

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<sym>[-+*^()/,\[\]|]))"
)
_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/(0*[1-9][0-9]*))?")  # q is nonzero


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens, pos = [], 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            break
        pos, kind = m.end(), m.lastgroup
        tokens.append((kind, m[kind]))
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
    return tokens


def _numeral(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int/str digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"a numeral of {len(digits)} digits exceeds the limit of {limit}") from None


class _Parser:
    """Recursive descent into term maps, exponent tuple -> int or Fraction
    coefficient with no zero stored.  Sums, products and powers keep the
    term order and the `check_degree` calls of the Polynomial operators."""

    def __init__(self, variables: tuple[str, ...]):
        self.zero = zero = (0,) * len(variables)
        self.units: dict[str, tuple[int, ...]] = {}
        for i, v in enumerate(variables):
            self.units.setdefault(v, zero[:i] + (1,) + zero[i + 1 :])

    def read(self, tokens: list, trailing: str) -> dict:
        """The term map of all of `tokens`; `trailing` names leftover input."""
        self.tokens, self.pos = tokens + [(None, None)], 0
        terms = self.expr()
        if self.pos < len(tokens):
            raise ParseError(trailing.format(tokens[self.pos][1]))
        return terms

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self) -> dict:
        negate = self.tokens[self.pos][1] == "-"
        self.pos += negate
        terms = self.term()  # no term map is shared, so sums run in place
        if negate:
            terms = {e: -c for e, c in terms.items()}
        while (op := self.tokens[self.pos][1]) == "+" or op == "-":
            self.pos += 1
            for e, c in self.term().items():
                c = terms.get(e, 0) + (c if op == "+" else -c)
                if c:
                    terms[e] = c
                else:
                    del terms[e]
        return terms

    # term := factor ('*'? factor)*
    def term(self) -> dict:
        terms = self.factor()
        while True:
            k, v = self.tokens[self.pos]
            if v == "*":
                self.pos += 1
            elif k not in ("num", "ident") and v != "(":
                return terms
            terms = _mul(terms, self.factor())

    # factor := atom ['^' int]
    def factor(self) -> dict:
        base = self.atom()
        if self.tokens[self.pos][1] != "^":
            return base
        k, v = self.tokens[self.pos + 1]
        if k != "num":
            raise ParseError(
                f"expected an integer exponent, found {v!r}" if k else "unexpected end of input"
            )
        self.pos += 2
        n = _numeral(v)
        if len(base) == 1 and n:
            # one term: scale its exponent vector, as `Polynomial.__pow__` does
            ((exp, c),) = base.items()
            check_degree(n * sum(exp))
            check_power(c, n)
            return {tuple(n * e for e in exp): c**n}
        terms = {self.zero: 1}
        while n:
            if n & 1:
                terms = _mul(terms, base)
            n >>= 1
            if n:
                base = _mul(base, base)
        return terms

    def atom(self) -> dict:
        k, v = self.tokens[self.pos]
        self.pos += 1
        if k == "num":
            c = _numeral(v)
            if self.tokens[self.pos][1] == "/":
                k, v = self.tokens[self.pos + 1]
                if k != "num":
                    raise ParseError(f"expected num, found {v!r}" if k else "unexpected end of input")
                self.pos += 2
                if not (d := _numeral(v)):
                    raise ParseError("division by zero in a coefficient")
                c = Fraction(c, d)
            return {self.zero: c} if c else {}
        if k == "ident":
            if v not in self.units:
                raise ParseError(f"unknown variable {v!r}")
            return {self.units[v]: 1}
        if v == "(":
            terms = self.expr()
            k, v = self.tokens[self.pos]
            if v != ")":  # a num or an ident would have joined the last term
                raise ParseError(f"expected ')', found {v!r}" if k else "unexpected end of input")
            self.pos += 1
            return terms
        raise ParseError(f"unexpected token {v!r}" if k else "unexpected end of input")


def _mul(a: dict, b: dict) -> dict:
    """The product of two term maps, checked and summed as `Polynomial.__mul__`."""
    if not a or not b:
        return {}
    check_degree(max(map(sum, a)) + max(map(sum, b)))
    terms: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def _collect_variables(tokens) -> tuple[str, ...]:
    return tuple(dict.fromkeys(v for k, v in tokens if k == "ident"))


def parse_polynomial(text: str, variables: Iterable[str] | None = None) -> Polynomial:
    tokens = _tokenize(text)
    vs = tuple(variables) if variables is not None else _collect_variables(tokens)
    return Polynomial(vs, _Parser(vs).read(tokens, "trailing input from token {!r}"))


def _split_top_level(tokens, separator: str) -> list[list]:
    parts: list[list] = [[]]
    depth = 0
    for tok in tokens:
        v = tok[1]  # only a symbol token holds a bracket or a separator
        if v in "([":
            depth += 1
        elif v in ")]":
            depth -= 1
        elif v == separator and not depth:
            parts.append([])
            continue
        parts[-1].append(tok)
    return parts


def _entries(parts: list, what: str):
    """The parts of a list in order; an empty one is refused when reached."""
    for k, part in enumerate(parts, 1):
        if not part:
            raise ParseError(f"{what} {k} of {len(parts)} is empty")
        yield part


def parse_ideal(text: str, variables: Iterable[str] | None = None) -> PolyIdeal:
    tokens = _tokenize(text)
    vs = tuple(variables) if variables is not None else _collect_variables(tokens)
    chunks = _split_top_level(tokens, ",")
    if tokens and tokens[0] == ("sym", "(") and tokens[-1] == ("sym", ")"):
        # allow an ideal wrapped in parentheses: (f, g, h)
        inner = _split_top_level(tokens[1:-1], ",")
        if len(inner) > 1:
            chunks = inner
    parser = _Parser(vs)
    return PolyIdeal(vs, [
        Polynomial(vs, parser.read(chunk, "trailing input in a generator"))
        for chunk in _entries(chunks, "generator")
    ])


def parse_rational(text: str) -> Fraction:
    """An optionally negative integer or `p/q`, as in a weight tuple."""
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"bad rational {text!r}")
    sign, p, q = m.groups()
    p = -_numeral(p) if sign else _numeral(p)
    return Fraction(p, _numeral(q)) if q else Fraction(p)


def parse_multiorder(text: str) -> MultiOrder:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
        if not s.strip():
            return MultiOrder(())
    parts = [part.strip() for part in s.split(",")]
    return MultiOrder([parse_rational(e) for e in _entries(parts, "entry")])


def _one_group(tokens) -> bool:
    """The tokens are one variable or one parenthesized group."""
    if len(tokens) == 1:
        return tokens[0][0] == "ident"
    depth = 0
    for k, (kind, v) in enumerate(tokens):
        if kind == "sym" and v in "([":
            depth += 1
        elif kind == "sym" and v in ")]":
            depth -= 1
        if depth == 0:
            return k > 0 and k == len(tokens) - 1
    return False


def _center_entry(tokens) -> tuple[list, Fraction]:
    """One center entry: the base's tokens and the exponent after the last
    top-level caret (1 without one).  The exponent applies to the whole base,
    so a base must be one variable or one parenthesized group: `x + y^2`
    would otherwise read as (x + y)^2."""
    parts = _split_top_level(tokens, "^")
    if len(parts) == 1:
        return tokens, Fraction(1)
    exp_tokens = parts[-1]
    base = tokens[: -len(exp_tokens) - 1]
    if not _one_group(base):
        entry = "".join(v for _, v in tokens)
        raise ParseError(
            f"center entry {entry}: an exponent applies to one variable or "
            "one parenthesized group"
        )
    inner = exp_tokens
    if exp_tokens[:1] == [("sym", "(")] and exp_tokens[-1:] == [("sym", ")")]:
        inner = exp_tokens[1:-1]
    elif ("sym", "/") in exp_tokens:
        raise ParseError("fractional exponents must be parenthesized")
    if len(inner) == 1 and inner[0][0] == "num":
        exp = Fraction(_numeral(inner[0][1]))
    elif len(inner) == 3 and inner[0][0] == inner[2][0] == "num" and inner[1][1] == "/":
        if not (q := _numeral(inner[2][1])):
            raise ParseError("zero denominator in a center exponent")
        exp = Fraction(_numeral(inner[0][1]), q)
    else:
        raise ParseError("bad exponent in center entry")
    return base, exp


def parse_center(text: str, variables: Iterable[str] | None = None) -> CenterPresentation:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("a center is written in brackets: [x^5, y^(15/2)]")
    tokens = _tokenize(s)[1:-1]
    if not tokens:
        raise ParseError("empty center")
    blocks = _split_top_level(tokens, "|")
    if len(blocks) > 2:
        raise ParseError("at most one block separator is allowed")
    raw_entries: list[tuple[list, Fraction]] = []
    for k, block in enumerate(blocks):
        for chunk in _entries(_split_top_level(block, ","), "entry"):
            base, exp = _center_entry(chunk)
            if k + 1 < len(blocks) and exp != 1:
                raise ParseError("entries before the pipe carry exponent 1")
            raw_entries.append((base, exp))
    vs = tuple(variables) if variables is not None else _collect_variables(tokens)
    parser = _Parser(vs)
    entries = sorted(
        [(parser.read(base, "trailing input in a center entry"), exp) for base, exp in raw_entries],
        key=lambda t: t[1],
    )
    change = CoordinateChange.identity(vs)
    coords: list[str] = []
    for entry, _ in entries:
        if parser.zero in entry:
            poly = Polynomial(vs, entry)
            raise ParseError(f"center coordinate {poly} does not vanish at the origin")
        # each step lives in the coordinates current after the earlier ones
        terms = change.to_aligned(Polynomial(vs, entry)).terms if change.steps else entry
        lin, nonlinear = {}, set()
        for e, c in terms.items():
            if (d := sum(e)) == 1:
                lin[vs[e.index(1)]] = c
            elif d:
                nonlinear.update(v for v, k in zip(vs, e) if k)
        v = next((v for v in vs if v in lin and v not in nonlinear and v not in coords), None)
        if v is None:
            poly = Polynomial(vs, entry)
            raise ParseError(f"center coordinate {poly} cannot be aligned to a free variable")
        tail = {e: c for e, c in terms.items() if e != parser.units[v]}
        if tail or lin[v] != 1:
            change = change.then(AlignStep(v, Fraction(lin[v]), Polynomial(vs, tail)))
        coords.append(v)
    return CenterPresentation(vs, change, tuple(coords), MultiOrder([e for _, e in entries]))


# -- JSON encoders -------------------------------------------------------------


def frac_str(x) -> str:
    x = Fraction(x)
    n, d = int_str(x.numerator), x.denominator
    return n if d == 1 else f"{n}/{int_str(d)}"


def multiorder_json(d: MultiOrder) -> list[str]:
    return [frac_str(e) for e in d.entries]


def center_json(center: CenterPresentation | None) -> dict | None:
    if center is None:
        return None
    polys = center.coordinate_polynomials()
    s = center.s_count()
    return {
        "s": [str(p) for p in polys[:s]],
        "t": [
            {"coord": str(p), "exp": frac_str(e)}
            for p, e in list(zip(polys, center.exponents))[s:]
        ],
    }


def _align_step_str(step) -> str:
    if step is None:
        return "none"
    coeff = "" if step.coeff == 1 else f"{frac_str(step.coeff)}*"
    return f"{step.var} := {coeff}{step.var} + {step.tail}"


def invariant_json(result) -> dict:
    return {
        "mord": multiorder_json(result.mord),
        "center": center_json(result.center),
        "chain": [
            {
                "level": step.level,
                "order": frac_str(step.order),
                "contact": str(step.contact),
                "change": _align_step_str(step.step),
            }
            for step in result.chain
        ],
    }


def ideal_json(I: PolyIdeal) -> list[str]:
    return [str(g) for g in I.generators]


def trace_json(trace) -> dict:
    return {
        "status": trace.status.value,
        "mode": trace.mode,
        "steps": [
            {
                "label": step.label,
                "input_ideal": ideal_json(step.ideal),
                "mord": multiorder_json(step.mord),
                "center": center_json(step.center),
                "N": step.N,
                "note": step.note,
                "charts": [
                    {
                        "index": chart.index,
                        "coordinate": chart.coordinate,
                        "weights": list(chart.weights),
                        "exceptional": chart.exceptional,
                        "substitution": dict(chart.substitution),
                        "transform": ideal_json(chart.transform),
                        "tracked_points": [
                            {
                                "coords": {v: frac_str(r) for v, r in pt.coords},
                                "mord_after": multiorder_json(pt.mord_after),
                                "resolved": pt.resolved,
                            }
                            for pt in chart.tracked
                        ],
                    }
                    for chart in step.charts
                ],
            }
            for step in trace.steps
        ],
    }


def tube_json(tube) -> dict:
    return {
        "base_vars": list(tube.base_vars),
        "width": multiorder_json(tube.width) if tube.width is not None else None,
        "params": list(tube.params),
        "relations": [monomial_str(tube.params, rel) for rel in tube.relations],
        "rank": tube.rank(),
    }


def certificate_json(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "center": center_json(cert.presentation),
        "witnesses": [
            {
                "level": w.level,
                "witness": str(w.witness),
                "c_vector": list(w.c_vector),
            }
            for w in cert.witnesses
        ],
        "substitutions": list(cert.substitutions),
    }
