"""The term-map parser against the Polynomial-arithmetic parser it replaced,
numerals past the interpreter's int/str digit limit, and weight tuples.

`ReferenceParser` is the parser as it stood before parsing built term maps:
one validated Polynomial per token, product and power, so `Polynomial.__mul__`
and `__pow__` make every degree-cap check.  On seeded expressions both
parsers must give the same polynomials, with the same terms in the same
order, or raise the same error, at every cap around the largest degree the
reference checks.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest

from weightedres import poly
from weightedres.centers import AlignStep, CenterPresentation, CoordinateChange
from weightedres.errors import (
    InvalidMultiOrderError,
    ParseError,
    ResourceLimitError,
    WeightedResError,
    using_degree_cap,
)
from weightedres.lattice import MultiOrder
from weightedres.poly import Polynomial, PolyIdeal, int_str
from weightedres.textio import (
    _center_entry,
    _collect_variables,
    _entries,
    _split_top_level,
    _tokenize,
    frac_str,
    parse_center,
    parse_ideal,
    parse_multiorder,
    parse_polynomial,
    parse_rational,
)


class ReferenceParser:
    def __init__(self, tokens, variables):
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

    def expr(self) -> Polynomial:
        negate = self.peek() == ("sym", "-")
        if negate:
            self.take()
        result = self.term()
        if negate:
            result = -result
        while True:
            if self.peek() == ("sym", "+"):
                self.take()
                result = result + self.term()
            elif self.peek() == ("sym", "-"):
                self.take()
                result = result - self.term()
            else:
                return result

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

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek() == ("sym", "^"):
            self.take()
            k, v = self.peek()
            if k != "num":
                raise ParseError(
                    f"expected an integer exponent, found {v!r}" if k else "unexpected end of input"
                )
            self.take()
            return base ** int(v)
        return base

    def atom(self) -> Polynomial:
        k, v = self.peek()
        if k == "num":
            self.take()
            value = Fraction(int(v))
            if self.peek() == ("sym", "/"):
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


def reference_ideal(text, variables=None) -> PolyIdeal:
    tokens = _tokenize(text)
    if tokens and tokens[0] == ("sym", "(") and tokens[-1] == ("sym", ")"):
        inner = tokens[1:-1]
        if len(_split_top_level(inner, ",")) > 1:
            tokens = inner
    vs = tuple(variables) if variables is not None else _collect_variables(tokens)
    gens = []
    for chunk in _entries(_split_top_level(tokens, ","), "generator"):
        parser = ReferenceParser(chunk, vs)
        gens.append(parser.expr())
        if not parser.at_end():
            raise ParseError("trailing input in a generator")
    return PolyIdeal(vs, gens)


def reference_polynomial(text, variables=None) -> Polynomial:
    tokens = _tokenize(text)
    vs = tuple(variables) if variables is not None else _collect_variables(tokens)
    parser = ReferenceParser(tokens, vs)
    result = parser.expr()
    if not parser.at_end():
        raise ParseError(f"trailing input from token {parser.peek()[1]!r}")
    return result


def reference_center(text, variables=None) -> CenterPresentation:
    """The center reader on the reference parser: it rereads the linear part
    and the nonlinear support of each entry for every candidate variable."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("a center is written in brackets: [x^5, y^(15/2)]")
    tokens = _tokenize(s)[1:-1]
    if not tokens:
        raise ParseError("empty center")
    blocks = _split_top_level(tokens, "|")
    if len(blocks) > 2:
        raise ParseError("at most one block separator is allowed")
    raw = []
    for k, block in enumerate(blocks):
        for chunk in _entries(_split_top_level(block, ","), "entry"):
            base, exp = _center_entry(chunk)
            if k + 1 < len(blocks) and exp != 1:
                raise ParseError("entries before the pipe carry exponent 1")
            raw.append((base, exp))
    vs = tuple(variables) if variables is not None else _collect_variables(tokens)
    entries = []
    for base, exp in raw:
        parser = ReferenceParser(base, vs)
        entries.append((parser.expr(), exp))
        if not parser.at_end():
            raise ParseError("trailing input in a center entry")
    entries.sort(key=lambda t: t[1])
    change = CoordinateChange.identity(vs)
    coords: list[str] = []
    for p, _ in entries:
        if p.constant_term():
            raise ParseError(f"center coordinate {p} does not vanish at the origin")
        current = change.to_aligned(p)
        lin = current.linear_part()
        candidates = [
            v
            for v in vs
            if v in lin and v not in current.nonlinear_support() and v not in coords
        ]
        if not candidates:
            raise ParseError(f"center coordinate {p} cannot be aligned to a free variable")
        v = candidates[0]
        tail = dict(current.terms)
        del tail[tuple(int(u == v) for u in vs)]
        if tail or lin[v] != 1:
            change = change.then(AlignStep(v, lin[v], Polynomial(vs, tail)))
        coords.append(v)
    return CenterPresentation(vs, change, tuple(coords), MultiOrder([e for _, e in entries]))


# -- seeded expressions ----------------------------------------------------------

NAMES = ("x", "y", "z")
NUMBERS = ("0", "1", "2", "3", "17", "2/3", "4/6", "0/5", "12/4", "1/7")


def _join(left: str, right: str, rng: random.Random) -> str:
    """Two factors as a product: `*`, a space, or nothing where the two
    tokens at the seam stay apart (`2x`, `x(y+1)`, `(x)(y)`)."""
    sep = rng.choice(("*", " * ", " ", ""))
    if sep == "" and re.search(r"[\w']$", left) and re.match(r"\w", right):
        sep = " "
    return left + sep + right


def random_atom(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(NUMBERS)
    if roll < 0.75 or depth >= 2:
        return rng.choice(NAMES)
    return "(" + random_expression(rng, depth + 1) + ")"


def random_factor(rng: random.Random, depth: int) -> str:
    atom = random_atom(rng, depth)
    if rng.random() < 0.4:
        # a group's power stays small: the reference expands it in Fractions
        return f"{atom}^{rng.choice((0, 1, 2, 3) if atom[0] == '(' else (0, 1, 2, 5, 9))}"
    return atom


def random_term(rng: random.Random, depth: int) -> str:
    out = random_factor(rng, depth)
    for _ in range(rng.randrange(3)):
        out = _join(out, random_factor(rng, depth), rng)
    return out


def random_expression(rng: random.Random, depth: int = 0) -> str:
    out = rng.choice(("", "-")) + random_term(rng, depth)
    for _ in range(rng.randrange(3)):
        out += rng.choice((" + ", " - ", "+", "-")) + random_term(rng, depth)
    return out


def random_ideal(rng: random.Random) -> str:
    gens = [random_expression(rng) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        return "(" + ", ".join(gens) + ")"
    return ", ".join(gens)


def seeded_ideals() -> list[str]:
    rng = random.Random(33)
    return [random_ideal(rng) for _ in range(300)]


FIXED = ["0*(x+y)^100", "(x+y)^65", "x^64*y", "(2/3*x - y)^7", "2x(y+1)", "(x, y)", "x - x + 0*y"]


def outcome(parse, text, cap, variables=None):
    """What `parse` makes of `text` under `cap`: the result, or the class and
    message of its refusal."""
    with using_degree_cap(cap):
        try:
            return parse(text, variables)
        except WeightedResError as err:
            return type(err), str(err)


def checked_degrees(text, monkeypatch) -> list[int]:
    """Every degree the reference parser's products and powers check, under
    a cap none of them meets."""
    seen = []
    check = poly.check_degree

    def record(degree, what="product"):
        seen.append(degree)
        check(degree, what)

    with monkeypatch.context() as patch:
        patch.setattr(poly, "check_degree", record)
        outcome(reference_ideal, text, 10**6)
    return seen


def same(a, b) -> bool:
    """Equal outcomes; polynomials also keep their terms in the same order."""
    if isinstance(a, PolyIdeal) and isinstance(b, PolyIdeal):
        return a.variables == b.variables and [list(g.terms.items()) for g in a.generators] == [
            list(g.terms.items()) for g in b.generators
        ]
    if isinstance(a, Polynomial) and isinstance(b, Polynomial):
        return a.variables == b.variables and list(a.terms.items()) == list(b.terms.items())
    return a == b


def test_term_maps_agree_with_the_polynomial_parser(monkeypatch):
    compared = 0
    for text in FIXED + seeded_ideals():
        degrees = checked_degrees(text, monkeypatch)
        top = max(degrees, default=1)
        for cap in sorted({top - 1, top, 64} - {-1, 0}):
            for variables in (None, ("w", "z", "y", "x")):
                old = outcome(reference_ideal, text, cap, variables)
                new = outcome(parse_ideal, text, cap, variables)
                assert same(old, new), (text, cap, variables, old, new)
                compared += 1
    assert compared > 1500


@pytest.mark.parametrize(
    "text, cap, expected",
    [
        ("0*(x+y)^100", 64, "product degree 100 exceeds cap 64"),
        ("0*(x+y)^100", 99, "product degree 100 exceeds cap 99"),
        ("0*(x+y)^100", 100, PolyIdeal(("x", "y"), [])),
        ("(x+y)^65", 64, "product degree 65 exceeds cap 64"),
        ("x^64*y", 64, "product degree 65 exceeds cap 64"),
        ("x^64*y", 63, "product degree 64 exceeds cap 63"),
    ],
)
def test_the_cap_sees_the_products_a_polynomial_parser_forms(text, cap, expected):
    for parse in (reference_ideal, parse_ideal):
        got = outcome(parse, text, cap)
        if isinstance(expected, str):
            assert got == (ResourceLimitError, expected)
        else:
            assert got == expected


def test_a_rational_power_expands_exactly():
    f = parse_polynomial("(2/3*x - y)^7")
    assert same(f, reference_polynomial("(2/3*x - y)^7"))
    assert f.terms[(7, 0)] == Fraction(128, 2187) and f.terms[(0, 7)] == -1


@pytest.mark.parametrize(
    "text",
    ["x^", "x^y", "2/", "2/y", "2/0", "(x+y", "x)", "x^2^3", "x/2", "u+x", "*x", "x +", "2x(y+1"],
)
def test_refusals_match_the_polynomial_parser(text):
    variables = ("x", "y")
    assert outcome(parse_polynomial, text, 64, variables) == outcome(
        reference_polynomial, text, 64, variables
    )


def random_center(rng: random.Random) -> str:
    def base():
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(NAMES)
        terms = [f"{rng.choice(('', '2*', '1/3*', '-'))}{rng.choice(NAMES)}"]
        for _ in range(rng.randrange(3)):
            terms.append(rng.choice(("x*y", "y^2", "z^3", "x^2*z", "1", "3*y", "x")))
        return "(" + " + ".join(terms) + ")"

    entries = [base() + rng.choice(("", "^2", "^3", "^(5/2)", "^(7/3)")) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        return "[" + rng.choice(NAMES) + " | " + ", ".join(entries) + "]"
    return "[" + ", ".join(entries) + "]"


def test_centers_agree_with_the_polynomial_parser():
    rng = random.Random(34)
    kinds = set()
    for _ in range(300):
        text = random_center(rng)
        old = outcome(reference_center, text, 64)
        new = outcome(parse_center, text, 64)
        if isinstance(old, CenterPresentation):
            assert isinstance(new, CenterPresentation), (text, new)
            assert (new.ambient, new.coords, new.exponents, new.change.steps) == (
                old.ambient,
                old.coords,
                old.exponents,
                old.change.steps,
            ), text
            assert str(new) == str(old)
            kinds.add("aligned" if old.change.steps else "plain")
        else:
            assert new == old, text
            kinds.add(old[1].split(" ")[-1])
    # aligned and plain centers came up, and both refusals of a coordinate
    assert kinds == {"aligned", "plain", "origin", "variable"}


# -- rationals and weight tuples -------------------------------------------------


def reference_rational(text: str) -> Fraction:
    s = text.strip()
    if re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", s) is None:
        raise ParseError(f"bad rational {text!r}")
    return Fraction(s)


def test_rationals_agree_with_fraction_parsing():
    rng = random.Random(35)
    pieces = ("", "-", "0", "00", "7", "15", "02", "/", "/0", "/00", "/2", "/02", " ", "x", "+")
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 4)))
        old = outcome(lambda t, _: reference_rational(t), text, 64)
        new = outcome(lambda t, _: parse_rational(t), text, 64)
        assert new == old and type(new) is type(old), text


def test_weight_tuples_read_as_before():
    assert parse_multiorder("(5, 15/02)") == parse_multiorder("(5, 15/2)") == MultiOrder(
        (5, Fraction(15, 2))
    )
    for text in ("(1/0, 2)", "(5, 1/00)"):
        with pytest.raises(ParseError, match="bad rational"):
            parse_multiorder(text)
    with pytest.raises(InvalidMultiOrderError, match="entries must be positive, got -2"):
        parse_multiorder("(-2, 3)")
    with pytest.raises(InvalidMultiOrderError, match="entries must be positive, got -3/2"):
        parse_multiorder("(-6/4)")
    assert parse_multiorder("(0)").is_zero() and parse_multiorder("()") == MultiOrder(())


# -- the int/str digit limit -----------------------------------------------------

LONG = "9" * 5000
LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_polynomial, f"{LONG}*x"),
        (parse_polynomial, f"x^{LONG}"),
        (parse_polynomial, f"1/{LONG}*x"),
        (parse_center, f"[x^{LONG}, y^2]"),
        (parse_center, f"[x^2, y^(7/{LONG})]"),
        (parse_multiorder, f"(5, {LONG})"),
        (parse_multiorder, f"(5, -{LONG})"),
        (parse_multiorder, f"(5, 7/{LONG})"),
    ],
    ids=["coefficient", "exponent", "denominator", "center-exponent", "center-denominator",
         "width", "negative-width", "width-denominator"],
)
def test_a_numeral_past_the_digit_limit_is_a_parse_error(parse, text):
    with pytest.raises(ParseError, match=f"^a numeral of 5000 digits exceeds the limit of {LIMIT}$"):
        parse(text)


@pytest.mark.parametrize(
    "n, digits",
    [(10**4999, 5000), (10**5000 - 1, 5000), (10**5000, 5001), (1 - 10**6000, 6000)],
    ids=["10^4999", "10^5000-1", "10^5000", "1-10^6000"],  # str(n) itself refuses
)
def test_an_integer_too_long_to_print_names_its_digits(n, digits):
    with pytest.raises(ResourceLimitError, match=f"^a coefficient of {digits} digits is too long"):
        int_str(n)
    with pytest.raises(ResourceLimitError, match=f"^a coefficient of {digits} digits is too long"):
        frac_str(Fraction(1, abs(n)))
    assert int_str(10**4000) == "1" + "0" * 4000
