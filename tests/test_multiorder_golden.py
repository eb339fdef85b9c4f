"""Golden contact chains of `multiorder` on a fixed corpus.

`tests/data/multiorder_golden.json` pins, for every corpus input, the JSON
invariant and every ContactStep of the chain (level, order, contact,
variable and repr), or the type of the error raised.  Any change to the
recursion must reproduce it byte for byte: the same invariant, the same
center and the same contact at every level.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_multiorder_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from weightedres import invariant, textio
from weightedres.errors import WeightedResError

GOLDEN = Path(__file__).parent / "data" / "multiorder_golden.json"


def _fermat(names, k):
    return " + ".join(f"{v}^{k}" for v in names)


CORPUS = (
    # Fermat sums x1^7 + ... + xn^7
    [_fermat([f"x{i}" for i in range(1, n + 1)], 7) for n in range(2, 7)]
    + [_fermat("xyz", k) for k in (5, 10, 15, 20)]
    # Brieskorn-Pham sums under triangular shears; the second and fifth put
    # the smallest exponent on an unsheared later coordinate and raise
    # ContactAlignmentError
    + [
        "(x1 + 2*x2*x2)^5 + 3*x2^8",
        "(x1 - x2*x2)^8 - 2*x2^5",
        "(x1 + x2*x3)^4 + 2*(x2 - 3*x3*x3*x3)^5 + x3^7",
        "(x1 + 2*x2*x3)^4 - (x2 + x3*x3)^5 + 5*x3^6",
        "(x1 - x2*x3)^6 + (x2 + 2*x3*x3)^5 + x3^4",
        "(x1 + x3*x4)^4 + 2*(x2 - x4*x4)^4 + x3^5 - x4^5",
        "(x1 + x2*x5)^4 + x2^4 + (x3 + 3*x4*x4)^4 + x4^4 + 2*x5^4",
    ]
    + [f"x*y^{n} + y^{n + 2}" for n in (3, 6, 10)]
    + ["(x+y*z)^4 + (y+z^3)^6 + z^9"]
    # paper examples
    + [
        "x^5 + x^3*y^3 + y^7",
        "x^5 + x^3*y^3 + y^8",
        "x*y^2 + y^4",
        "x^4, x*y^4, x^2*y*z^2",
        "x^2 - y^3",
        "x^2, y^2, x*y*z",
        "(x^2 - 2*y^2)^2 + y^7",
        "(x+y^2)^5 + y^11",
        "(x + z^2)^2, (y + z^3)^3",
        "x + x^2 + y^3",
        "1 + x*y",
    ]
    # monomial ideals
    + [
        "x^5, x^4*y^2, x^3*y^3, x^2*y^5, x*y^6, y^8",
        "x^4, x*y^4, x^2*y*z^2, y^2*z^4",
        "x^2*y^3",
        "x^3, y^4, z^5, x*y*z",
    ]
)


def golden_record(text: str) -> dict:
    """The pinned output of multiorder on one input."""
    try:
        result = invariant.multiorder(textio.parse_ideal(text))
    except WeightedResError as err:
        return {"input": text, "error": type(err).__name__}
    return {
        "input": text,
        "invariant": textio.invariant_json(result),
        "chain": [
            {
                "level": step.level,
                "order": str(step.order),
                "contact": str(step.contact),
                "variable": step.variable,
                "repr": repr(step),
            }
            for step in result.chain
        ],
    }


def golden_json() -> str:
    return json.dumps([golden_record(text) for text in CORPUS], indent=1) + "\n"


def test_multiorder_matches_golden_chains():
    assert golden_json() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_multiorder_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_json(), encoding="utf-8")
