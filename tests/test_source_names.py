"""Every global name the package and its tests read is bound, every name the
package defines is used, and every import is read.

A stdlib stand-in for a linter's undefined-name check: a name read only on
an error path (an `except` clause, say) otherwise surfaces as a NameError
in the one run that takes that path.  The converse check flags functions,
classes and methods that no code or benchmark mentions: dead code that
would otherwise be kept, exported and maintained for nothing.  A test
counts as a caller only of a name the package exports, so a definition
that only tests call is dead too.  A method counts as used only where some
text reads it as `.name`, so a local helper that shares its name does not
keep it alive.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
import symtable
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weightedres"
CHECKED = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
MODULE_DUNDERS = {"__file__", "__name__", "__doc__", "__spec__", "__path__"}


def undefined_globals(source: str, filename: str) -> set[tuple[str, str]]:
    """(scope, name) for every global read that no module-level binding,
    import or builtin provides."""
    top = symtable.symtable(source, filename, "exec")
    known = MODULE_DUNDERS | set(dir(builtins))
    known |= {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    missing = set()

    def walk(table):
        # is_local: symtable takes any table named "top" for the module, so it
        # calls the locals of a function named top global as well
        for sym in table.get_symbols():
            if (
                sym.is_referenced()
                and sym.is_global()
                and not sym.is_local()
                and sym.get_name() not in known
            ):
                missing.add((table.get_name(), sym.get_name()))
        for child in table.get_children():
            walk(child)

    walk(top)
    return missing


def test_checker_flags_an_unbound_name_in_a_handler():
    source = "def f():\n    try:\n        pass\n    except MissingError:\n        return []\n"
    assert undefined_globals(source, "snippet.py") == {("f", "MissingError")}


def test_checker_reads_a_function_named_top_as_a_function():
    source = "def top(h):\n    t = h\n    return t\n"
    assert undefined_globals(source, "snippet.py") == set()
    source = "def top(h):\n    return h + Missing\n"
    assert undefined_globals(source, "snippet.py") == {("top", "Missing")}


def test_package_has_no_undefined_global_names():
    found = {
        path.name: sorted(undefined_globals(path.read_text(encoding="utf-8"), str(path)))
        for path in CHECKED
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


# -- dead definitions ------------------------------------------------------------

ROOT = SRC.parents[1]
SEARCHED = ("src", "tests", "perfbench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
ATTRIBUTE = re.compile(r"\.([A-Za-z_][A-Za-z0-9_]*)")


def definitions(source: str) -> list[str]:
    """Module-level functions and classes, and non-dunder methods as
    `Class.method`."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return names


def exports(init: str) -> set[str]:
    """The names a package `__init__` imports from its modules."""
    return {
        alias.asname or alias.name
        for node in ast.parse(init).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unreferenced(
    defined: dict[str, list[str]], texts: dict[str, str], init: str, tests: set[str]
) -> list[str]:
    """Names defined (one entry per definition, keyed by module) that the
    searched texts never use: a function or class that no word mentions
    beyond the definitions themselves, a method that nothing reads as
    `.name`.  The package `__init__` re-exports are not counted as uses,
    and a text in `tests` counts only for a name that `__init__` exports."""
    exported = exports(texts[init])
    words: Counter[str] = Counter()
    reads: Counter[str] = Counter()
    for path, text in texts.items():
        if path == init:
            continue
        test = path in tests
        words.update(w for w in WORD.findall(text) if not test or w in exported)
        reads.update(r for r in ATTRIBUTE.findall(text) if not test or r in exported)
    qualified = [name for names in defined.values() for name in names]
    sites = Counter(name.rpartition(".")[2] for name in qualified)
    dead = set()
    for name in qualified:
        owner, _, short = name.rpartition(".")
        used = reads[short] > 0 if owner else words[short] > sites[short]
        if not used:
            dead.add(short)
    return sorted(dead)


def library_hooks() -> set[str]:
    """Methods overriding a method of a base class from outside the package,
    which that base calls itself (argparse calls a parser's `error`, say)."""
    hooks: set[str] = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"weightedres.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for base in cls.__mro__[1:]:
                    if not base.__module__.startswith("weightedres"):
                        hooks |= set(vars(cls)) & set(vars(base))
    return hooks


def test_dead_definition_check_flags_an_unused_helper():
    module = "def used():\n    pass\n\ndef unused():\n    return used()\n"
    texts = {"m.py": module, "__init__.py": "from .m import unused\n"}
    assert unreferenced({"m.py": definitions(module)}, texts, "__init__.py", set()) == ["unused"]


def test_dead_definition_check_wants_a_method_read_as_an_attribute():
    module = "class C:\n    def helper(self):\n        pass\n\n    def used(self):\n        pass\n"
    texts = {
        "m.py": module,
        "n.py": "def helper(c):\n    return helper(c) or C().used()\n",
        "__init__.py": "",
    }
    assert unreferenced({"m.py": definitions(module)}, texts, "__init__.py", set()) == ["helper"]


def test_dead_definition_check_counts_a_test_only_for_an_export():
    module = "def public():\n    pass\n\nclass C:\n    def helper(self):\n        pass\n"
    texts = {
        "m.py": module,
        "test_m.py": "public(); C().helper()\n",
        "__init__.py": "from .m import C, public\n",
    }
    dead = unreferenced({"m.py": definitions(module)}, texts, "__init__.py", {"test_m.py"})
    assert dead == ["helper"]
    texts["__init__.py"] = "from .m import C\n"
    dead = unreferenced({"m.py": definitions(module)}, texts, "__init__.py", {"test_m.py"})
    assert dead == ["helper", "public"]


def test_every_definition_is_referenced():
    texts = {
        str(path): path.read_text(encoding="utf-8")
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    tests = {path for path in texts if Path(path).is_relative_to(ROOT / "tests")}
    defined = {str(path): definitions(texts[str(path)]) for path in sorted(SRC.glob("*.py"))}
    dead = set(unreferenced(defined, texts, str(SRC / "__init__.py"), tests)) - library_hooks()
    assert sorted(dead) == []


# -- unused imports --------------------------------------------------------------


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a read inside a quoted
    annotation counts, and an import marked `# noqa: F401` is kept for its
    side effect."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            if "# noqa: F401" not in lines[node.lineno - 1]:
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    quoted = [
        ast.parse(c.value, mode="eval")
        for note in notes
        if note is not None
        for c in ast.walk(note)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    read = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_import_check_flags_the_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Iterable, Mapping\n"
        "from .poly import Polynomial as P, power_product\n\n"
        "import sys  # noqa: F401\n\n"
        "def f(m: 'Mapping[str, int]') -> 'P':\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Iterable", "power_product"]


def test_every_import_is_used():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in CHECKED
        if path.stem != "__init__"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
