"""Every global name the package reads is bound at module level or built in.

A stdlib stand-in for a linter's undefined-name check: a name read only on
an error path (an `except` clause, say) otherwise surfaces as a NameError
in the one run that takes that path.
"""

from __future__ import annotations

import builtins
import symtable
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weightedres"
MODULE_DUNDERS = {"__file__", "__name__", "__doc__", "__spec__", "__path__"}


def undefined_globals(source: str, filename: str) -> set[tuple[str, str]]:
    """(scope, name) for every global read that no module-level binding,
    import or builtin provides."""
    top = symtable.symtable(source, filename, "exec")
    known = MODULE_DUNDERS | set(dir(builtins))
    known |= {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    missing = set()

    def walk(table):
        for sym in table.get_symbols():
            if sym.is_referenced() and sym.is_global() and sym.get_name() not in known:
                missing.add((table.get_name(), sym.get_name()))
        for child in table.get_children():
            walk(child)

    walk(top)
    return missing


def test_checker_flags_an_unbound_name_in_a_handler():
    source = "def f():\n    try:\n        pass\n    except MissingError:\n        return []\n"
    assert undefined_globals(source, "snippet.py") == {("f", "MissingError")}


def test_package_has_no_undefined_global_names():
    found = {
        path.name: sorted(undefined_globals(path.read_text(encoding="utf-8"), str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
