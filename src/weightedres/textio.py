"""Text and JSON formats.

Polynomial grammar: identifiers are variables, `^` raises to integer powers,
`*` between factors is optional, `+`/`-` separate terms, and coefficients
are ASCII integers or rationals `p/q`.  Subexpressions may be parenthesized,
so `(x+y^2)^5 + y^11` parses.  Ideals are comma-separated generator lists.

Weight tuples read as `(4, 16/3, 32/5)`, each entry an optionally negative
integer or `p/q`.  Centers read as `[x^5, y^(15/2)]`, with an optional
codimension block before a pipe: `[s1, s2 | x^5, y^7]`; block entries carry
exponent 1.  Fractional exponents must be parenthesized.

All rationals serialize to JSON as strings like "16/3" (integers as "16"),
never as floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .centers import AlignStep, CenterPresentation, CoordinateChange
from .errors import ParseError
from .lattice import MultiOrder
from .poly import Polynomial, PolyIdeal, monomial_str

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<sym>[-+*^()/,\[\]|]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("sym", m.group("sym")))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if k is None:
            raise ParseError("unexpected end of input")
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, found {v!r}")
        if value is not None and v != value:
            raise ParseError(f"expected {value!r}, found {v!r}")
        self.pos += 1
        return v

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self) -> Polynomial:
        k, v = self.peek()
        negate = False
        if (k, v) == ("sym", "-"):
            self.take()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            k, v = self.peek()
            if (k, v) == ("sym", "+"):
                self.take()
                result = result + self.term()
            elif (k, v) == ("sym", "-"):
                self.take()
                result = result - self.term()
            else:
                return result

    # term := factor ('*'? factor)*
    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            k, v = self.peek()
            if (k, v) == ("sym", "*"):
                self.take()
                result = result * self.factor()
            elif k in ("num", "ident") or (k, v) == ("sym", "("):
                result = result * self.factor()
            else:
                return result

    # factor := atom ['^' int]
    def factor(self) -> Polynomial:
        base = self.atom()
        k, v = self.peek()
        if (k, v) == ("sym", "^"):
            self.take()
            e = self.integer_exponent()
            return base**e
        return base

    def integer_exponent(self) -> int:
        k, v = self.peek()
        if k == "num":
            self.take()
            return int(v)
        raise ParseError(
            f"expected an integer exponent, found {v!r}" if k else "unexpected end of input"
        )

    def atom(self) -> Polynomial:
        k, v = self.peek()
        if k == "num":
            self.take()
            value = Fraction(int(v))
            k2, v2 = self.peek()
            if (k2, v2) == ("sym", "/"):
                self.take()
                den = int(self.take("num"))
                if den == 0:
                    raise ParseError("division by zero in a coefficient")
                value = value / den
            return Polynomial.constant(value, self.variables)
        if k == "ident":
            self.take()
            if v not in self.variables:
                raise ParseError(f"unknown variable {v!r}")
            return Polynomial.variable(v, self.variables)
        if (k, v) == ("sym", "("):
            self.take()
            inner = self.expr()
            self.take("sym", ")")
            return inner
        raise ParseError(f"unexpected token {v!r}" if k else "unexpected end of input")


def _collect_variables(tokens) -> tuple[str, ...]:
    seen: list[str] = []
    for k, v in tokens:
        if k == "ident" and v not in seen:
            seen.append(v)
    return tuple(seen)


def parse_polynomial(text: str, variables: Iterable[str] | None = None) -> Polynomial:
    tokens = _tokenize(text)
    vs = tuple(variables) if variables is not None else _collect_variables(tokens)
    parser = _Parser(tokens, vs)
    result = parser.expr()
    if not parser.at_end():
        raise ParseError(f"trailing input from token {parser.peek()[1]!r}")
    return result


def _split_top_level(tokens, separator: str) -> list[list]:
    parts: list[list] = [[]]
    depth = 0
    for tok in tokens:
        k, v = tok
        if k == "sym" and v in "([":
            depth += 1
        elif k == "sym" and v in ")]":
            depth -= 1
        if k == "sym" and v == separator and depth == 0:
            parts.append([])
        else:
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
    if tokens and tokens[0] == ("sym", "(") and tokens[-1] == ("sym", ")"):
        # allow an ideal wrapped in parentheses: (f, g, h)
        inner = tokens[1:-1]
        if len(_split_top_level(inner, ",")) > 1:
            tokens = inner
    vs = tuple(variables) if variables is not None else _collect_variables(tokens)
    gens = []
    for chunk in _entries(_split_top_level(tokens, ","), "generator"):
        parser = _Parser(chunk, vs)
        gens.append(parser.expr())
        if not parser.at_end():
            raise ParseError("trailing input in a generator")
    return PolyIdeal(vs, gens)


def parse_rational(text: str) -> Fraction:
    """An optionally negative integer or `p/q`, as in a weight tuple."""
    s = text.strip()
    if re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", s) is None:  # q is nonzero
        raise ParseError(f"bad rational {text!r}")
    return Fraction(s)


def parse_multiorder(text: str) -> MultiOrder:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
        if not s.strip():
            return MultiOrder(())
    parts = [part.strip() for part in s.split(",")]
    return MultiOrder(parse_rational(e) for e in _entries(parts, "entry"))


def _center_entry(tokens) -> tuple[list, Fraction]:
    """One center entry: the base's tokens and the exponent after the last
    top-level caret (1 without one)."""
    parts = _split_top_level(tokens, "^")
    if len(parts) == 1:
        return tokens, Fraction(1)
    exp_tokens = parts[-1]
    inner = exp_tokens
    if exp_tokens[:1] == [("sym", "(")] and exp_tokens[-1:] == [("sym", ")")]:
        inner = exp_tokens[1:-1]
    elif ("sym", "/") in exp_tokens:
        raise ParseError("fractional exponents must be parenthesized")
    if len(inner) == 1 and inner[0][0] == "num":
        exp = Fraction(int(inner[0][1]))
    elif (
        len(inner) == 3
        and inner[0][0] == "num"
        and inner[1] == ("sym", "/")
        and inner[2][0] == "num"
    ):
        if int(inner[2][1]) == 0:
            raise ParseError("zero denominator in a center exponent")
        exp = Fraction(int(inner[0][1]), int(inner[2][1]))
    else:
        raise ParseError("bad exponent in center entry")
    return tokens[: -len(exp_tokens) - 1], exp


def parse_center(
    text: str, variables: Iterable[str] | None = None
) -> CenterPresentation:
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
    entries = []
    for base, exp in raw_entries:
        parser = _Parser(base, vs)
        poly = parser.expr()
        if not parser.at_end():
            raise ParseError("trailing input in a center entry")
        entries.append((poly, exp))
    entries.sort(key=lambda t: t[1])
    change = CoordinateChange.identity(vs)
    coords: list[str] = []
    for poly, exp in entries:
        # each step lives in the coordinates current after the earlier ones
        current = change.to_aligned(poly)
        lin = current.linear_part()
        candidates = [
            v
            for v in vs
            if v in lin and v not in current.nonlinear_support() and v not in coords
        ]
        if not candidates:
            raise ParseError(
                f"center coordinate {poly} cannot be aligned to a free variable"
            )
        v = candidates[0]
        c = lin[v]
        tail_poly = current - Polynomial.variable(v, vs).scale(c)
        if not tail_poly.is_zero() or c != 1:
            change = change.then(AlignStep(v, c, tail_poly))
        coords.append(v)
    return CenterPresentation(
        vs, change, tuple(coords), MultiOrder([e for _, e in entries])
    )


def format_center(center: CenterPresentation) -> str:
    s = center.s_count()
    parts = str(center)[1:-1].split(", ")
    if s == 0:
        return str(center)
    return "[" + ", ".join(parts[:s]) + " | " + ", ".join(parts[s:]) + "]"


# -- JSON encoders -------------------------------------------------------------


def frac_str(x) -> str:
    return str(Fraction(x))


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
