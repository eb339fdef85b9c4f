"""Command-line interface.

One verb per pipeline; every verb emits JSON by default (rationals as
strings), `--format text` gives a short human rendering, and only `staircase`
also takes `--format svg`.  Exit codes: 0 success (a driver that
stops early, at an irrational point or on a degree-cap hit after its start
point say, reports it in its `status` and keeps the steps it made), 1
domain errors (inadmissible input, non-integral center, a `--codim` above
the number of variables, ...), 2 parse or resource errors.  Every failure
prints one JSON `error` document on stdout, usage errors, an `--output`
that cannot be written and an unreadable batch file included (each a
`parse-error`); only `-h` prints help instead.  `batch FILE` runs one
command per line, ignoring blank lines and `#` comments: every line prints
one JSON document, lines run under the outer degree cap, a `batch` line is
a parse error, and the exit code is the largest over the lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import shlex
import sys

from . import blowup, errors, invariant, textio, tschirnhaus
from .centers import rounding
from .staircase import staircase as render_staircase
from .errors import DomainError, ParseError, WeightedResError
from .tubes import constant_tube, tube_center_correspondence


class _Parser(argparse.ArgumentParser):
    """A usage error is a ParseError, not a message on stderr and an exit."""

    def error(self, message):
        raise ParseError(message)


class _LineParser(_Parser):
    """Parser for one batch line: the line is split like a shell would, and
    it may neither ask for help nor run `batch` again."""

    def parse_args(self, line):
        try:
            argv = shlex.split(line)
        except ValueError as err:  # unbalanced quotes
            raise ParseError(f"cannot split the batch line: {err}") from None
        args = super().parse_args(argv)
        if args.verb == "batch":
            raise ParseError("a batch line cannot run batch")
        return args

    def print_help(self, file=None):
        raise ParseError("a batch line cannot ask for help")


def _integer(text: str) -> int:
    """An optionally negative integer in ASCII digits, unlike `int`."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@functools.cache
def _build_parser(cls: type[_Parser]) -> _Parser:
    """The parser tree of `cls`, built on first use and then shared (parsing
    does not change it); subparsers share its class."""
    parser = cls(
        prog="weightedres",
        description="Exact multiorder invariants, weighted centers and blowups.",
    )
    parser.add_argument(
        "--degree-cap",
        type=_positive_int,
        default=None,
        help="total-degree guard for polynomial expansions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, *, help, formats=("json", "text")):
        p = sub.add_parser(verb, help=help)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None, help="write the result to a file")
        return p

    p = add("mord", help="multiorder invariant of an ideal at the origin")
    p.add_argument("ideal")

    p = add("center", help="invariant, canonical center and contact chain")
    p.add_argument("ideal")

    p = add("round", help="monomial rounding of a center")
    p.add_argument("center")

    p = add("tschirnhaus", help="verify or construct a certificate for a center")
    p.add_argument("ideal")
    p.add_argument("center")
    p.add_argument("--make", action="store_true", help="run the constructive path")

    p = add("principalize", help="iterated weighted blowups until the ideal is trivial")
    p.add_argument("ideal")
    p.add_argument("--max-steps", type=_positive_int, default=10)

    p = add("embed-resolve", help="strict-transform resolution of a subscheme")
    p.add_argument("ideal")
    p.add_argument("--codim", type=_integer, required=True)
    p.add_argument("--max-steps", type=_positive_int, default=10)

    p = add("tube", help="tube algebra of a center or a bare width")
    p.add_argument("input", help="a center like [x^2,y^3] or a width like (5,7)")

    p = add("rees", help="graded generators of the root Rees algebra")
    p.add_argument("center")
    p.add_argument("--root", type=_integer, required=True, help="the root order N")
    p.add_argument("--degree", type=_integer, default=None)

    p = add(
        "staircase",
        help="staircase diagram of a two-entry width",
        formats=("json", "text", "svg"),
    )
    p.add_argument("width")
    p.add_argument("--overlay", default=None)

    p = sub.add_parser("batch", help="run one command per line from a file")
    p.add_argument("file")
    return parser


def _emit(payload, args) -> str:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=False)
    else:
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as err:
            raise ParseError(str(err)) from None
        return ""
    return text


def _run_verb(args) -> str:
    if args.verb == "mord":
        result = invariant.multiorder(textio.parse_ideal(args.ideal))
        if args.format == "text":
            return _emit(str(result.mord), args)
        return _emit({"mord": textio.multiorder_json(result.mord)}, args)

    if args.verb == "center":
        result = invariant.multiorder(textio.parse_ideal(args.ideal))
        if args.format == "text":
            body = str(result.center) if result.center else "(unit ideal)"
            return _emit(f"mord {result.mord}  center {body}", args)
        return _emit(textio.invariant_json(result), args)

    if args.verb == "round":
        center = textio.parse_center(args.center)
        ideal = rounding(center)
        if args.format == "text":
            return _emit(str(ideal), args)
        return _emit({"generators": textio.ideal_json(ideal)}, args)

    if args.verb == "tschirnhaus":
        center = textio.parse_center(args.center)
        ideal = textio.parse_ideal(args.ideal, center.ambient)
        if args.make:
            cert = tschirnhaus.make_tschirnhaus(ideal, center)
        else:
            cert = tschirnhaus.verify_tschirnhaus(ideal, center)
        if args.format == "text":
            return _emit("certificate found" if cert else "no certificate", args)
        return _emit({"certificate": textio.certificate_json(cert)}, args)

    if args.verb in ("principalize", "embed-resolve"):
        ideal = textio.parse_ideal(args.ideal)
        if args.verb == "principalize":
            trace = blowup.principalize(ideal, max_steps=args.max_steps)
        else:
            trace = blowup.embedded_resolve(ideal, args.codim, max_steps=args.max_steps)
        if args.format == "text":
            return _emit(
                f"status {trace.status.value} after {trace.step_count()} steps", args
            )
        return _emit(textio.trace_json(trace), args)

    if args.verb == "tube":
        text = args.input.strip()
        if text.startswith("["):
            tube = tube_center_correspondence(textio.parse_center(text))
        else:
            tube = constant_tube(textio.parse_multiorder(text))
        return _emit(textio.tube_json(tube), args)

    if args.verb == "rees":
        center = textio.parse_center(args.center)
        grading = blowup.rees_generators(center, args.root, args.degree)
        payload = {
            str(n): [textio.monomial_str(center.coords, a) for a in gens]
            for n, gens in grading.items()
        }
        return _emit(payload, args)

    # staircase, the last verb; argparse has rejected any other name
    d = textio.parse_multiorder(args.width)
    overlay = textio.parse_multiorder(args.overlay) if args.overlay else None
    fmt = "text" if args.format == "json" else args.format
    return _emit(render_staircase(d, overlay, fmt), args)


def _batch_lines(path: str) -> list[str]:
    """The command lines of a batch file: blank lines and `#` comments go."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as err:
        raise ParseError(str(err)) from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8: {err.reason} at byte {err.start}") from None
    return [line for line in lines if line and not line.startswith("#")]


def _run(parser: _Parser, argv: list[str] | str | None, default_cap) -> int:
    """Parse one command, run it (or its batch file) under its own degree
    cap or `default_cap()`, and print its output or its one JSON error
    document; returns the exit code."""
    try:
        args = parser.parse_args(argv)
        with errors.using_degree_cap(args.degree_cap or default_cap()):
            if args.verb == "batch":
                lines = _batch_lines(args.file)
                line_parser = _build_parser(_LineParser)
                return max(
                    (_run(line_parser, line, errors.degree_cap) for line in lines), default=0
                )
            out = _run_verb(args)
    except WeightedResError as err:
        print(json.dumps({"error": {"code": err.code, "message": str(err)}}))
        return 1 if isinstance(err, DomainError) else 2
    if out:
        print(out)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command; the degree cap it sets is gone when it returns."""
    return _run(_build_parser(_Parser), argv, errors.degree_cap_from_env)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
