"""Package layout rules that a reviewer would otherwise have to catch.

An import inside a function body usually hides an import cycle.  The package
has exactly one on purpose: `codec._family_table` builds family members with
`families`, which itself imports `codec`.  Any other deferred import fails here.
"""

import ast
from pathlib import Path

import tmlab

PACKAGE = Path(tmlab.__file__).resolve().parent
ALLOWED = {("codec.py", "_family_table", "from .families import BuildOverflow, build_q_table")}


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


def test_only_the_documented_deferred_import():
    assert _deferred_imports() == ALLOWED
