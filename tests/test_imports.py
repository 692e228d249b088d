"""No source module imports a name it never uses, and none touches another
object's private attributes.

No linter is a dependency of the package, so these stdlib checks stand in
for the unused-import rule: a refactor that moves the last call of an
imported name out of a module fails here (``__init__.py`` is skipped, its
imports are the package's re-exports); and for an ownership rule: a table
derived from an object is cached by its owner, never stored on or read from
another object's ``_name`` attributes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stfem"


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import numpy as np\nimport os.path\n"
                          "from math import pi, tau\nx = np.sqrt(tau)\n") \
        == [(2, "os"), (3, "pi")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: found for p in modules
              if (found := unused_imports(p.read_text()))}
    assert unused == {}


def foreign_private_attributes(source: str) -> list:
    """(line, name) of every private attribute (``_name``, not a dunder) of
    an object other than ``self`` that the module reads or writes, directly
    or through getattr, setattr or hasattr with a constant name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            obj, name = node.value, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            obj, name = node.args[0], node.args[1].value
        else:
            continue
        dunder = name.startswith("__") and name.endswith("__")
        is_self = isinstance(obj, ast.Name) and obj.id == "self"
        if name.startswith("_") and not dunder and not is_self:
            found.append((node.lineno, name))
    return sorted(found)


def test_the_check_sees_a_foreign_private_attribute():
    source = ("self._table = {}\n"
              "x = space._table\n"
              "mesh._cache = {}\n"
              "t = getattr(space, '_table', None)\n"
              "setattr(mesh, '_cache', {})\n"
              "ok = hasattr(mesh, '__dict__') and mesh.__class__\n")
    assert foreign_private_attributes(source) == [
        (2, "_table"), (3, "_cache"), (4, "_table"), (5, "_cache")]


def test_no_module_touches_another_objects_private_attributes():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: hits for p in modules
             if (hits := foreign_private_attributes(p.read_text()))}
    assert found == {}
