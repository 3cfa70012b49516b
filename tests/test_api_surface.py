"""Every public name that ``src/`` defines is used outside its definition,
and every field that a ``src/`` class stores is read outside the tests.

A public function, class or method of ``src/elastprec/*.py`` must be
referenced by the package itself, by a demo or by the benchmark harness
(``perfbench/``): API that only the tests reach is deleted, not kept.  A
reference is a name or an attribute in code, or a string literal equal to
the name (the harness patches attributes by name), found anywhere but
inside the definition itself.  An import is not a reference, so the
re-exports of ``__init__.py`` do not count.

A field is an annotated name in a class body or an ``self.X`` that a
class's ``__init__`` assigns.  It must be read, as an attribute loaded
anywhere in those same files or as a string literal equal to its name.
The check is by name, so a field shares the reads of every attribute
spelled like it.

A defaulted parameter of a public function or method must be left out by
at least one call of it in those same files, where any call exists (calls
matched by name): a default that every call overrides serves only the
tests, and the parameter is made required.
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


# Exempt from the field check: records that ``bench._emit_json`` serializes
# whole with ``asdict``, so each field is read by the JSON report.
_SERIALIZED_RECORDS = {"ExperimentConfig", "BenchCell", "BenchSetup", "BenchResult"}


def _field_reads(tree) -> set:
    """Attribute names loaded in ``tree`` and its string literals."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _is_exception(cls: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id.endswith(("Error", "Exception"))
               for base in cls.bases)


def _stored_fields(cls: ast.ClassDef):
    """Annotated names of the class body, then the ``self.X`` that its
    ``__init__`` assigns."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id
        elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for node in ast.walk(item):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    yield node.attr


def _fields():
    """``(where, class name, field name)`` of each field a ``src/`` class
    stores, exceptions and the serialized records left out."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ClassDef) and not _is_exception(node)
                    and node.name not in _SERIALIZED_RECORDS):
                for name in _stored_fields(node):
                    yield path.name, node.name, name


def test_every_stored_field_is_read_outside_the_tests():
    read = set()
    for path in USERS:
        read |= _field_reads(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f"{where}: {cls}.{name}" for where, cls, name in _fields()
              if name not in read]
    assert unread == []


# Exempt from the default check: ``(definition, parameter)`` whose default
# stays although every call passes it.  perfbench's correctness gate calls
# ``lambda_matrix(lam, projection)`` positionally, and the method goes when
# the gate stops forming ``A_lam`` (ROADMAP item 2).
_KEPT_DEFAULTS = {("ReducedSystem.lambda_matrix", "projection")}


def _defaulted_parameters(node):
    """``(name, position)`` of each parameter of ``node`` with a default;
    ``position`` is its index among the positional arguments of a call, or
    ``None`` for a keyword-only parameter.  A method's ``self`` is no
    argument of a call ``x.method(...)``."""
    args = node.args
    positional = args.posonlyargs + args.args
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    for index in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[index].arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(tree, name):
    """The calls in ``tree`` of a function or attribute spelled ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if ((isinstance(func, ast.Name) and func.id == name)
                    or (isinstance(func, ast.Attribute) and func.attr == name)):
                yield node


def _passes(call, parameter, position) -> bool:
    """Whether ``call`` passes ``parameter`` by keyword or by position; a
    call that unpacks ``*args`` or ``**kwargs`` is not known to."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if any(k.arg == parameter for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_no_default_that_every_call_overrides():
    """A defaulted parameter that every call in ``src/``, the demos and
    perfbench passes serves only the tests: it is made required."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in USERS]
    overridden = []
    for where, name, node in _public_definitions():
        if isinstance(node, ast.ClassDef):
            continue
        calls = [call for tree in trees for call in _calls(tree, node.name)]
        for parameter, position in _defaulted_parameters(node):
            if (calls and all(_passes(c, parameter, position) for c in calls)
                    and (name, parameter) not in _KEPT_DEFAULTS):
                overridden.append(f"{where}: {name}({parameter}=...), "
                                  f"{len(calls)} of {len(calls)} calls pass it")
    assert overridden == []
