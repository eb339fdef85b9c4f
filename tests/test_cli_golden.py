"""Golden stdout and exit codes of the command-line interface.

`tests/data/cli_golden.json` pins, for every argv list below, the exit code
of an in-process `cli.main` call and everything it prints to stdout.  The
corpus covers all ten verbs, the json, text and svg formats, the driver
statuses and the typed domain and parse errors; a refactoring must
reproduce it byte for byte.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from weightedres import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

FLAGSHIP = "x^5+x^3*y^3+y^7"

CORPUS = [
    # mord and center
    ["mord", FLAGSHIP],
    ["mord", "x^5+x^3*y^3+y^8", "--format", "text"],
    ["mord", "1"],
    ["mord", "x^4, x*y^4, x^2*y*z^2"],
    ["mord", "(x+y*z)^4 + (y+z^3)^6 + z^9"],
    ["mord", "x^2, y^2, x*y*z", "--format", "svg"],
    ["center", "x^5+x^3*y^3+y^8"],
    ["center", "(x+y^2)^5 + y^11"],
    ["center", "x + x^2 + y^3", "--format", "text"],
    ["center", "1 + x*y", "--format", "text"],
    ["center", "(x1 + 2*x2*x2)^5 + 3*x2^8"],
    ["center", "(x1 - x2*x2)^8 - 2*x2^5"],
    # round
    ["round", "[x^5, y^(15/2)]"],
    ["round", "[x^2]", "--format", "text"],
    ["round", "[(x + y^2)^5, y^11]"],
    ["round", "[s1, s2 | x^5, y^7]"],
    ["round", "[x, y^2, z^3]"],
    ["round", "[(1/3*x + 2/3*y)^3, (x - y)^3]"],
    # tschirnhaus
    ["tschirnhaus", FLAGSHIP, "[x^5, y^7]"],
    ["tschirnhaus", FLAGSHIP, "[x^5, y^7]", "--format", "text"],
    ["tschirnhaus", "x^2 + 2*x*y^4 + 2*y^8", "[x^2, y^8]"],
    ["tschirnhaus", "x^2 + 2*x*y^4 + 2*y^8", "[x^2, y^8]", "--make"],
    ["tschirnhaus", "x*y + x^3 + y^3", "[x^2, y^2]", "--make"],
    ["tschirnhaus", "x^4, x*y^4, x^2*y*z^2", "[x^4, y^(16/3), z^(32/5)]", "--make"],
    ["tschirnhaus", "y", "[y^2]"],
    ["tschirnhaus", "x^2*y^2", "[x^2, y^2]", "--make"],
    # principalize
    ["principalize", FLAGSHIP],
    ["principalize", FLAGSHIP, "--format", "text"],
    ["principalize", FLAGSHIP, "--max-steps", "1"],
    ["principalize", "x^2"],
    ["principalize", "x, y^2"],
    ["principalize", "x*y^2 + y^4"],
    ["principalize", "(x^2 - 2*y^2)^2 + y^7"],
    ["principalize", "(x^2 - 2*y^2)^3 + y^7"],
    ["principalize", "x^3 - 8*y^3"],
    ["principalize", "(x - 3*y)^2*(x + 2*y)^3 + y^7"],
    ["principalize", "x^4, x*y^4, x^2*y*z^2"],
    ["principalize", "x^2 + y^3 + z^5"],
    ["principalize", "(x^2 - y^3)*(x^2 - 2*y^3)"],
    ["principalize", "0"],
    # embed-resolve
    ["embed-resolve", "x^2 - y^3", "--codim", "1"],
    ["embed-resolve", "x^3 - y^5", "--codim", "1", "--format", "text"],
    ["embed-resolve", "x^2 + y^3 + z^5", "--codim", "1"],
    ["embed-resolve", "x^2, y^2, x*y*z", "--codim", "2"],
    ["embed-resolve", "(x^2 - 2*y^2)^2 + y^7", "--codim", "1"],
    ["embed-resolve", "x^3 - y^5", "--codim", "1", "--max-steps", "1"],
    ["embed-resolve", "x^2 - y^3", "--codim", "0"],
    # tube, on widths and on centers
    ["tube", "(5,7)"],
    ["tube", "(2,3)"],
    ["tube", "(3,3)"],
    ["tube", "(4, 16/3, 32/5)"],
    ["tube", "(2, 3, 4)"],
    ["tube", "(1, 2)"],
    ["tube", "(5/2, 3)"],
    ["tube", "[x^2, y^3]"],
    ["tube", "[s | x^5, y^7]"],
    ["tube", "[x^5, y^(15/2)]"],
    # rees, full sweeps and single degrees
    ["rees", "[x^2, y^3]", "--root", "6"],
    ["rees", "[x^5, y^(15/2)]", "--root", "15"],
    ["rees", "[x, y^2, z^3]", "--root", "6"],
    ["rees", "[x^2]", "--root", "4", "--format", "text"],
    ["rees", "[x^5, y^7]", "--root", "35", "--degree", "35"],
    ["rees", "[x^5, y^7]", "--root", "35", "--degree", "0"],
    ["rees", "[x^5, y^7]", "--root", "35", "--degree", "17"],
    ["rees", "[x^2, y^3]", "--root", "6", "--degree", "7"],
    ["rees", "[x^2, y^3]", "--root", "5"],
    ["rees", "[x^2, y^3]", "--root", "0"],
    # staircase
    ["staircase", "(5,7)"],
    ["staircase", "(5,7)", "--format", "svg"],
    ["staircase", "(14/5, 7/2)", "--overlay", "(3,3)", "--format", "svg"],
    ["staircase", "(1,1)", "--format", "text"],
    # resource, parse and domain errors
    ["--degree-cap", "5", "mord", "x^40*y + y^41"],
    ["mord", "x^5 +++ y"],
    ["mord", "1/0*x"],
    ["round", "[x^(1/0)]"],
    ["round", "[x^3, y^2]"],
    ["tube", "(0)"],
    ["staircase", "(2, 1)"],
    ["batch", "no-such-file.txt"],
]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def golden_json() -> str:
    return json.dumps([run(argv) for argv in CORPUS], indent=1) + "\n"


def test_cli_matches_golden_output(monkeypatch):
    monkeypatch.delenv("WEIGHTEDRES_DEGREE_CAP", raising=False)
    assert golden_json() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    os.environ.pop("WEIGHTEDRES_DEGREE_CAP", None)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_json(), encoding="utf-8")
