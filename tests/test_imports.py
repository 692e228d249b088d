"""No source module imports a name it never uses.

No linter is a dependency of the package, so this stdlib check stands in
for the unused-import rule: a refactor that moves the last call of an
imported name out of a module fails here.  ``__init__.py`` is skipped, its
imports are the package's re-exports.
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
