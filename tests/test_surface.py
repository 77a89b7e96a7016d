"""The library holds no code that only the tests reach.

Every public function, class and method defined in ``src/finalg`` is
either exported in ``finalg.__all__`` or named somewhere else in
``src/finalg`` or ``perfbench``: outside its own definition, as a name,
an attribute, an imported name or a dotted string.  A method counts as
named only by an attribute read, a part of a dotted string or the name
a ``getattr`` or ``hasattr`` call looks up, and an attribute read does
not count when its receiver is known to be of an unrelated class:
``self`` in another class's method, a parameter annotated with another
class, or a name assigned from another class's constructor.  So neither
a local variable of the method's name nor a same-named attribute of
another class excuses it.  A method that overrides one of a base class
is reached through the base, so it is not asked for.  Every private
(one leading underscore) module-level function and class is named there
too; ``__all__`` does not excuse it.  Helpers that only tests call
belong in ``tests/oracles.py``.
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
    that override nothing, as ``(name, first line, last line, class)``,
    with the class None for a module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node.lineno, node.end_lineno, None
        if isinstance(node, ast.ClassDef):
            cls = getattr(module, node.name)
            for member in node.body:
                if (
                    isinstance(member, ast.FunctionDef) and _public(member.name)
                    and not any(hasattr(base, member.name) for base in cls.__mro__[1:])
                ):
                    yield member.name, member.lineno, member.end_lineno, cls


def _annotated_class(node):
    """The class name an annotation gives, or None when it gives none."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [n for n in (node.left, node.right)
                 if not (isinstance(n, ast.Constant) and n.value is None)]
        return _annotated_class(sides[0]) if len(sides) == 1 else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _receiver_classes(tree, classes):
    """Per attribute read whose receiver is a name of a known class, the
    ``id`` of the read mapped to that class's name.  A function knows
    ``self`` (the first parameter of a method), its annotated parameters
    and the names it assigns once, from a call of a class in ``classes``;
    a nested function's own names override its enclosing one's."""
    known = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner)
                continue
            params = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
            env = {a.arg: _annotated_class(a.annotation) for a in params if a.annotation}
            if owner and params and not params[0].annotation:
                env[params[0].arg] = owner
            made = {}
            for sub in ast.walk(child):
                if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Name)):
                    call = sub.value
                    cls = (call.func.id if isinstance(call, ast.Call)
                           and isinstance(call.func, ast.Name) and call.func.id in classes
                           else None)
                    made.setdefault(sub.targets[0].id, set()).add(cls)
            env.update({name: cls.pop() for name, cls in made.items()
                        if len(cls) == 1 and None not in cls and name not in env})
            for sub in ast.walk(child):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and env.get(sub.value.id)):
                    known[id(sub)] = env[sub.value.id]
            visit(child, None)

    visit(tree, None)
    return known


def _references(tree, classes=frozenset()):
    """Every name the tree mentions, as ``(name, line, kind, receiver)``.
    The kind is ``"attr"`` for an attribute read, a part of a dotted
    string or the name a ``getattr``/``hasattr`` call looks up, else
    ``"name"``, ``"alias"`` or ``"str"``.  The receiver is the class name
    of an attribute read's receiver when known (``_receiver_classes``),
    else None."""
    receivers = _receiver_classes(tree, classes)
    looked_up = {
        id(node.args[1]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name", None
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, "attr", receivers.get(id(node))
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno, "alias", None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            kind = "attr" if len(parts) > 1 or id(node) in looked_up else "str"
            for part in parts:
                if part.isidentifier():
                    yield part, node.lineno, kind, None


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _related(receiver, cls, classes):
    """Whether a receiver of class name ``receiver`` may be a ``cls``."""
    if receiver is None or receiver in {k.__name__ for k in cls.__mro__}:
        return True
    return any(isinstance(k, type) and issubclass(k, cls) for k in classes.get(receiver, ()))


def _unreferenced(definitions, excused=()):
    """The ``(module, tree) -> (name, first, last, class)`` definitions of
    ``src/finalg`` not in ``excused`` and named nowhere in ``SOURCES``
    outside their own lines; a method (class not None) only by an
    ``"attr"`` reference whose receiver may be of its class."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    modules = {path: importlib.import_module(f"finalg.{path.stem}")
               for path in trees if path.parent.name == "finalg"}
    classes: dict = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, [])
    for module in modules.values():
        for name in classes:
            if isinstance(getattr(module, name, None), type):
                classes[name].append(getattr(module, name))
    refs: dict = {}
    for path, tree in trees.items():
        for ref, line, kind, receiver in _references(tree, classes):
            refs.setdefault(ref, []).append((path, line, kind, receiver))
    unused = []
    for path, module in modules.items():
        for name, first, last, cls in definitions(module, trees[path]):
            if name in excused:
                continue
            if not any(
                (other != path or not first <= line <= last)
                and (cls is None or kind == "attr" and _related(receiver, cls, classes))
                for other, line, kind, receiver in refs.get(name, ())
            ):
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_public_definition_is_exported_or_used():
    assert _unreferenced(_definitions, finalg.__all__) == []


def test_every_private_helper_is_used():
    def helpers(module, tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
                yield node.name, node.lineno, node.end_lineno, None
    assert _unreferenced(helpers) == []


def test_method_references_know_their_receivers():
    """Attribute reads on ``self``, annotated parameters and constructed
    names carry their class; other reads, dotted strings and ``getattr``
    names carry none; a bare string is no attribute reference."""
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.rep = {}\n"
        "def f(a: A, b: 'B | None', c):\n"
        "    made = A()\n"
        "    return a.rep, b.rep, c.rep, made.rep, getattr(c, 'rep'), 'rep', 'A.rep'\n"
    )
    refs = sorted((line, kind, receiver or "") for name, line, kind, receiver
                  in _references(tree, {"A": []}) if name == "rep")
    assert refs == [
        (3, "attr", "A"),
        (6, "attr", ""), (6, "attr", ""), (6, "attr", ""),
        (6, "attr", "A"), (6, "attr", "A"), (6, "attr", "B"),
        (6, "str", ""),
    ]
