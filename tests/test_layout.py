"""Package layout rules that a reviewer would otherwise have to catch.

An import inside a function body usually hides an import cycle, so the
package has none.  Where a module needs a later one's code, the later module
installs it at import, as `families` installs the decoder's member builder
on `codec`.  No function rebinds a module global or an enclosing function's
variable either: state that lives across calls is an object or a cache, and
state within one call is passed as arguments and return values.  And no module but `machines` builds a
zero-rule table: a fallback answers the one shared `trivial_machine()`.
No `==` or `!=` compares with the ordinal constants `ZERO`, `ONE` or `OMEGA`:
dataclass equality walks the terms on every hot-path test, so an ordinal's
shape is read from its `terms` tuple instead.
Every dataclass has slots, by `slots=True` or its own `__slots__`: answers,
tables and clocks are the objects a process holds most of, and a two-field
instance takes about 56 bytes with slots against about 96 with a `__dict__`
(Python 3.11).
Every top-level function, class and assigned name is used by the package
itself or by the benchmark in bench/: code that only tests exercise belongs
in tests/.
No `assert` statement checks the package's own work: `python -O` strips them,
so a check that must hold raises explicitly.
"""

import ast
from pathlib import Path

import tmlab

PACKAGE = Path(tmlab.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"


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


def _nodes(kind, where=lambda node: True):
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, kind) and where(node)]
    return found


def test_no_global_statement():
    assert _nodes(ast.Global) == []


def test_no_nonlocal_statement():
    assert _nodes(ast.Nonlocal) == []


def test_no_assert_statement():
    assert _nodes(ast.Assert) == []


ORDINAL_CONSTANTS = {"ZERO", "ONE", "OMEGA"}


def _equality_with_ordinal_constant(node: ast.Compare) -> bool:
    sides = [ast.unparse(side).split(".")[-1] for side in [node.left, *node.comparators]]
    return any(isinstance(op, (ast.Eq, ast.NotEq)) and {left, right} & ORDINAL_CONSTANTS
               for op, left, right in zip(node.ops, sides, sides[1:]))


def test_no_equality_with_ordinal_constants():
    assert _nodes(ast.Compare, _equality_with_ordinal_constant) == []


def _dataclass_without_slots(node: ast.ClassDef) -> bool:
    decorators = [d for d in node.decorator_list
                  if ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1]
                  == "dataclass"]
    slots = any(k.arg == "slots" and isinstance(k.value, ast.Constant) and k.value.value is True
                for d in decorators if isinstance(d, ast.Call) for k in d.keywords)
    own = any(isinstance(stmt, ast.Assign) and "__slots__" in map(ast.unparse, stmt.targets)
              for stmt in node.body)
    return bool(decorators) and not (slots or own)


def test_every_dataclass_has_slots():
    assert _nodes(ast.ClassDef, _dataclass_without_slots) == []


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


def _names(node, strings=False) -> set:
    """Every name, attribute and imported name under node, and with strings
    every string constant (bench/ names its spans so)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _defined(stmt) -> list:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def _unused_definitions():
    bench = set()
    for path in sorted(BENCH.glob("*.py")):
        bench |= _names(ast.parse(path.read_text(), str(path)), strings=True)
    statements = [(path.name, stmt, _names(stmt))  # __init__ only re-exports
                  for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    return ["%s:%s" % (module, name) for module, stmt, _ in statements
            for name in _defined(stmt)
            if name not in bench
            and not any(name in used for _, other, used in statements if other is not stmt)]


def test_every_definition_is_used_outside_tests():
    assert _unused_definitions() == []
