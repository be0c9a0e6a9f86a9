"""Package layout rules that a reviewer would otherwise have to catch.

An import inside a function body usually hides an import cycle, so the
package has none.  Where a module needs a later one's code, the later module
installs it at import, as `families` installs the decoder's member builder
on `codec`.  No function rebinds a module global either: state that lives
across calls is an object or a cache.  And no module but `machines` builds a
zero-rule table: a fallback answers the one shared `trivial_machine()`.
"""

import ast
from pathlib import Path

import tmlab

PACKAGE = Path(tmlab.__file__).resolve().parent


def _deferred_imports():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((path.name, fn.name, ast.unparse(node)))
    return found


def test_no_deferred_import():
    assert _deferred_imports() == set()


def test_no_global_statement():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def _zero_rule_tables():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "machines.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "MachineTable"):
                continue
            args = [*node.args, *(k.value for k in node.keywords)]
            if not args or (isinstance(args[0], ast.Tuple) and not args[0].elts):
                found.append("%s:%d" % (path.name, node.lineno))
    return found


def test_no_zero_rule_table_outside_machines():
    assert _zero_rule_tables() == []
