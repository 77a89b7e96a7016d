"""The library holds no code that only the tests reach.

Every public function, class and method defined in ``src/finalg`` is
either exported in ``finalg.__all__`` or named somewhere else in
``src/finalg`` or ``perfbench``: outside its own definition, as a name,
an attribute, an imported name or a dotted string.  A method that
overrides one of a base class is reached through the base, so it is not
asked for.  Every private (one leading underscore) module-level function
and class is named there too; ``__all__`` does not excuse it.  Helpers
that only tests call belong in ``tests/oracles.py``.
"""
import ast
import importlib
from pathlib import Path

import finalg

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "finalg").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def _public(name):
    return not name.startswith("_")


def _definitions(module, tree):
    """Public module-level functions and classes and the public methods
    that override nothing, as ``(name, first line, last line)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            bases = getattr(module, node.name).__mro__[1:]
            for member in node.body:
                if (
                    isinstance(member, ast.FunctionDef) and _public(member.name)
                    and not any(hasattr(base, member.name) for base in bases)
                ):
                    yield member.name, member.lineno, member.end_lineno


def _references(tree):
    """Every name the tree mentions, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                if part.isidentifier():
                    yield part, node.lineno


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _unreferenced(definitions, excused=()):
    """The ``(module, tree) -> (name, first, last)`` definitions of
    ``src/finalg`` not in ``excused`` and named nowhere in ``SOURCES``
    outside their own lines."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    refs: dict = {}
    for path, tree in trees.items():
        for ref, line in _references(tree):
            refs.setdefault(ref, []).append((path, line))
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "finalg":
            continue
        module = importlib.import_module(f"finalg.{path.stem}")
        for name, first, last in definitions(module, tree):
            if name in excused:
                continue
            if not any(
                other != path or not first <= line <= last
                for other, line in refs.get(name, ())
            ):
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_public_definition_is_exported_or_used():
    assert _unreferenced(_definitions, finalg.__all__) == []


def test_every_private_helper_is_used():
    def helpers(module, tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
                yield node.name, node.lineno, node.end_lineno
    assert _unreferenced(helpers) == []
