"""Every public name that ``src/`` defines is used outside its definition.

A public function, class or method of ``src/elastprec/*.py`` must be
referenced by the package itself, by a demo or by the benchmark harness
(``perfbench/``): API that only the tests reach is deleted, not kept.  A
reference is a name or an attribute in code, or a string literal equal to
the name (the harness patches attributes by name), found anywhere but
inside the definition itself.  An import is not a reference, so the
re-exports of ``__init__.py`` do not count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "elastprec").glob("*.py"))
USERS = (SOURCES + sorted((ROOT / "demos").glob("*.py"))
         + sorted((ROOT / "perfbench").glob("*.py")))


def _references(tree) -> Counter:
    """How often each identifier is used in ``tree``."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def _public_definitions():
    """``(where, name, node)`` of each public top-level function and class
    of ``src/`` and each public method of those classes."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield path.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield path.name, f"{node.name}.{item.name}", item


def test_every_public_definition_is_used_outside_the_tests():
    used = Counter()
    for path in USERS:
        used += _references(ast.parse(path.read_text(encoding="utf-8")))
    unused = [f"{where}: {name}" for where, name, node in _public_definitions()
              if used[node.name] - _references(node)[node.name] <= 0]
    assert unused == []
