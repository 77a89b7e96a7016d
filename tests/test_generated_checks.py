"""The generated identity checker ``NaturalIdentity.check`` (behind
``satisfies`` and ``violation``) against the reference oracles, at the
emitter's edges, and in the cache that holds it; ``satisfies_level``,
which folds the closures instead, against the enumerated levels on the
same identities."""
import ast
import io
import itertools
import re
import tokenize
from pathlib import Path

import pytest

from finalg import (
    FinAlgebra,
    FinSet,
    Node,
    Signature,
    ValidationError,
    Var,
    bundle,
    enumerate_algebras,
    from_sigma,
    satisfies,
)
from finalg import identities
from finalg.algebras import compile_term
from finalg.dsl import parse_spec
from finalg.equations import equation_to_identity, identity_to_equation
from finalg.identities import (
    _MAX_NESTING,
    NaturalIdentity,
    NaturalTerm,
    _generated,
    _source,
    canonical_vars,
    violation,
)
from finalg.monadic import satisfies_level
from finalg.terms import MAX_TERM_DEPTH
from conftest import CORPUS_TEXT, MAGMA, MONOID_SIG, ident, m, v
from oracles import fold, reference_violation, satisfies_level_enumerated

WEIRD = "x); import os; ("


def _magmas(max_size):
    for size in range(1, max_size + 1):
        yield from enumerate_algebras(MAGMA, FinSet(tuple(range(size))))


def _back(identity, x_size):
    x = FinSet(tuple(f"x{i + 1}" for i in range(x_size)))
    return equation_to_identity(identity_to_equation(identity, x))


def _data(identity):
    return identity.sig, identity.domain, identity.lhs.data, identity.rhs.data


def _chain(op, terms):
    """``op`` folded to the left over ``terms``."""
    out = terms[0]
    for t in terms[1:]:
        out = Node(op, (out, t))
    return out


def _wide_variables(k):
    """Over ``p``, the left projection on {0, 1}: the sides
    ``p(vk-1, p(..p(v1, v2).., vk))`` and ``vk`` read all k variables and
    differ where vk-1 and vk do, first at vk-1 = 0, vk = 1 and in the
    opposite order of those two variables at vk-1 = 1, vk = 0."""
    sig = Signature((("p", 2),))
    vs = [Var(name) for name in canonical_vars(k)]
    lhs = Node("p", (vs[-2], _chain("p", vs)))
    identity = NaturalIdentity(NaturalTerm(sig, (k,), lhs.height, (lhs,)),
                               NaturalTerm(sig, (k,), lhs.height, (vs[-1],)))
    two = FinAlgebra(sig, FinSet((0, 1)), {"p": {(a, b): a for a in (0, 1) for b in (0, 1)}})
    one = FinAlgebra(sig, FinSet((0,)), {"p": {(0, 0): 0}})
    return identity, one, two


@pytest.fixture(scope="module")
def corpus():
    return parse_spec(CORPUS_TEXT)


# --- parity with the reference oracles --------------------------------------


@pytest.fixture(scope="module")
def magma_identities(comm, assoc, idem, lzero, rect):
    plain = {"comm": comm, "assoc": assoc, "idem": idem, "lzero": lzero, "rect": rect}
    return {
        **plain,
        "bundle": bundle([idem, comm, rect]),
        "everything": bundle(list(plain.values()) + [_back(rect, 3), _back(comm, 3)]),
        "back-comm-2": _back(comm, 2),
        "back-assoc-3": _back(assoc, 3),
        "back-rect-3": _back(rect, 3),
    }


@pytest.mark.parametrize("name", ["comm", "assoc", "idem", "lzero", "rect", "bundle",
                                  "everything", "back-comm-2", "back-assoc-3", "back-rect-3"])
def test_violation_matches_the_reference_on_every_small_magma(name, magma_identities):
    identity = magma_identities[name]
    for alg in _magmas(3):
        assert violation(alg, identity) == reference_violation(alg, identity)


def test_the_assoc_round_trip_at_four_variables_matches_the_reference(assoc):
    """64 components, 5 up to renaming.  The reference would run all of
    them on the 113 associative 3-point magmas, where the round trip keeps
    the class, so there the check must find no failure."""
    back = _back(assoc, 4)
    assert len(back.domain) == 64
    for alg in _magmas(2):
        assert violation(alg, back) == reference_violation(alg, back)
    for alg in enumerate_algebras(MAGMA, FinSet((0, 1, 2))):
        if satisfies(alg, assoc):
            assert violation(alg, back) is None
        else:
            assert violation(alg, back) == reference_violation(alg, back)


@pytest.mark.parametrize("name", ["comm", "idem", "lzero", "bundle", "back-comm-2"])
def test_level_check_matches_the_enumerated_levels(name, magma_identities):
    identity = magma_identities[name]
    for alg in _magmas(2):
        for k in (1, 2):
            assert satisfies_level(alg, identity, k) == \
                satisfies_level_enumerated(alg, identity, k)


def _reference_round(alg, identity):
    """Per component, the fold of the left side and of the right side at
    every assignment of the canonical variables, in carrier positions."""
    elems, out = alg.carrier.elements, set()
    for k, left, right in zip(identity.domain, identity.lhs.data, identity.rhs.data):
        names = canonical_vars(k)
        for values in itertools.product(elems, repeat=k):
            at = dict(zip(names, values))
            out.add((elems.index(fold(alg, left, at)), elems.index(fold(alg, right, at))))
    return out


@pytest.mark.parametrize("name", ["comm", "assoc", "lzero", "rect", "bundle"])
def test_closure_round_adds_the_pairs_of_both_folds_from_the_diagonal(name, magma_identities):
    """The one round ``satisfies_level`` folds: the components' compiled
    closures at every assignment give exactly the pairs of the reference
    folds, and the level check holds iff all of them are diagonal."""
    identity = magma_identities[name]
    for alg in _magmas(2):
        flat, n = alg.flat, len(alg.carrier)
        got = {(left(flat, n, a), right(flat, n, a))
               for k, left, right in zip(identity.domain, identity.lhs.compiled,
                                         identity.rhs.compiled)
               for a in itertools.product(range(n), repeat=k)}
        assert got == _reference_round(alg, identity)
        assert satisfies_level(alg, identity, 1) == all(x == y for x, y in got)


# --- the emitter's edges ----------------------------------------------------


def test_twenty_five_variables_nest_past_the_block_limit():
    identity, one, two = _wide_variables(25)
    source = _source(*_data(identity))
    assert "product(r, repeat=" in source
    assert max(len(line) - len(line.lstrip()) for line in source.splitlines()) // 4 <= 20
    assert satisfies(one, identity)
    assert satisfies_level(one, identity, 2)
    assert satisfies_level_enumerated(one, identity, 1)
    # The first failure lies past the nested loops, inside the product loop.
    assert violation(two, identity) == reference_violation(two, identity)
    assert violation(two, identity) == (0, (0,) * 24 + (1,))


@pytest.mark.parametrize("k", [_MAX_NESTING - 1, _MAX_NESTING, _MAX_NESTING + 1])
def test_nesting_boundary_keeps_product_order(k):
    identity, _, two = _wide_variables(k)
    assert violation(two, identity) == reference_violation(two, identity)


def test_every_loop_past_the_first_in_one_product(monkeypatch):
    """With the nesting limit at one loop, every identity of two or more
    variables runs its loops as one ``product`` loop, keeping every
    answer.  Freshly built identities, so none reuses a cached checker."""
    monkeypatch.setattr(identities, "_MAX_NESTING", 1)
    _generated.cache_clear()
    try:
        x, y, z = v("x"), v("y"), v("z")
        fresh = [ident(MAGMA, m(x, y), m(y, x), ("x", "y")),
                 ident(MAGMA, m(x, y), x, ("x", "y")),
                 ident(MAGMA, m(m(x, y), z), m(x, m(y, z)), ("x", "y", "z"))]
        for identity in fresh:
            assert "product(" in _source(*_data(identity))
            for alg in _magmas(2):
                assert violation(alg, identity) == reference_violation(alg, identity)
                for k in (1, 2):
                    assert satisfies_level(alg, identity, k) == \
                        satisfies_level_enumerated(alg, identity, k)
    finally:
        _generated.cache_clear()


def test_ground_component():
    sig = Signature((("s", 1), ("e", 0)))
    e, s = Node("e", ()), lambda t: Node("s", (t,))
    ground = NaturalIdentity(NaturalTerm(sig, (0,), 3, (s(s(e)),)),
                             NaturalTerm(sig, (0,), 3, (e,)))
    mixed = bundle([ground, from_sigma(sig, s(Var("x")), Var("x"), FinSet(("x",)))])
    for size in (1, 2, 3):
        for alg in enumerate_algebras(sig, FinSet(tuple(range(size)))):
            for identity in (ground, mixed):
                assert violation(alg, identity) == reference_violation(alg, identity)
                for k in (1, 2):
                    assert satisfies_level(alg, identity, k) == \
                        satisfies_level_enumerated(alg, identity, k)


def test_wide_operation_on_one_point():
    sig = Signature((("w", 30),))
    vs = [Var(name) for name in canonical_vars(30)]
    identity = NaturalIdentity(
        NaturalTerm(sig, (30,), 1, (Node("w", tuple(vs)),)),
        NaturalTerm(sig, (30,), 1, (Node("w", tuple(reversed(vs))),)),
    )
    one = FinAlgebra(sig, FinSet(("a",)), {"w": {("a",) * 30: "a"}})
    assert violation(one, identity) is None
    assert satisfies_level(one, identity, 3)
    source = _source(*_data(identity))
    assert "s29" in source
    assert _bracket_depth(source) <= 2


def test_term_of_the_greatest_height():
    sig = Signature((("s", 1),))
    deep = Var("x")
    for _ in range(MAX_TERM_DEPTH):
        deep = Node("s", (deep,))
    identity = from_sigma(sig, deep, Var("x"), FinSet(("x",)))
    assert identity.arity == MAX_TERM_DEPTH
    for size in (1, 2, 3):
        for alg in enumerate_algebras(sig, FinSet(tuple(range(size)))):
            assert violation(alg, identity) == reference_violation(alg, identity)
            assert satisfies_level(alg, identity, 1) == \
                satisfies_level_enumerated(alg, identity, 1)


def _bracket_depth(source):
    depth = deepest = 0
    for char in source:
        if char in "([":
            depth += 1
            deepest = max(deepest, depth)
        elif char in ")]":
            depth -= 1
    return deepest


_VOCABULARY = {"def", "check", "flat", "n", "r", "product", "repeat", "range", "for", "in",
               "if", "return", "None"}


def _names(source):
    return [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type in (tokenize.NAME, tokenize.STRING)]


def test_generated_text_holds_only_the_emitter_vocabulary(corpus, magma_identities):
    weird_sig = Signature(((WEIRD, 2), ("e", 0)))
    op = lambda a, b: Node(WEIRD, (a, b))  # noqa: E731
    weird_vars = FinSet((WEIRD, "y"))
    cases = [
        from_sigma(weird_sig, op(Var(WEIRD), op(Var("y"), Node("e", ()))),
                   op(Var("y"), Var(WEIRD)), weird_vars),
        *magma_identities.values(),
        *(corpus.natural_identity(name) for name in corpus.identities),
        _wide_variables(25)[0],
    ]
    for identity in cases:
        for tok in _names(_source(*_data(identity))):
            assert tok.type == tokenize.NAME, tok
            assert tok.string in _VOCABULARY or re.fullmatch(r"[tspx]\d+", tok.string), tok.string
    weird = cases[0]
    alg = FinAlgebra(weird_sig, FinSet((0, 1)), {
        WEIRD: {(a, b): a for a in (0, 1) for b in (0, 1)}, "e": {(): 0}})
    assert violation(alg, weird) == reference_violation(alg, weird) == (0, (0, 1))


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("bad", [
    Node("zz", (Var("v1"),)),
    Node("m", (Var("v1"),)),
    Node("m", (Var("v1"), Var(WEIRD))),
    Node("m", (Var("v1"), 5)),
    "v1",
])
def test_emitter_refuses_as_compile_term_does(bad, side):
    sides = ((bad,), (Var("v1"),)) if side == "lhs" else ((Var("v1"),), (bad,))
    with pytest.raises(ValidationError) as expected:
        compile_term(MAGMA, bad, canonical_vars(1))
    with pytest.raises(ValidationError) as got:
        _source(MAGMA, (1,), *sides)
    assert str(got.value) == str(expected.value)


def test_renamed_components_are_generated_once(assoc):
    back = _back(assoc, 4)
    source = _source(*_data(back))
    # One comparison per component shape: the 5 ways to identify x, y, z.
    assert source.count("if ") == 5


def _exec_calls(tree, path, scope="<module>"):
    """(file, enclosing function) of every call of ``exec`` under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "exec") or \
                    (isinstance(func, ast.Attribute) and func.attr == "exec"):
                yield path.name, scope
        yield from _exec_calls(node, path, inner)


def test_exec_is_called_only_where_the_check_is_generated():
    """The emitters' safety argument (the text holds only integers and
    fixed names) covers the two call sites: ``identities._generated``, for
    the identity checks, and ``variety._generated_pass``, for the
    saturation engine's instance passes."""
    calls = []
    for path in sorted(Path(identities.__file__).parent.glob("*.py")):
        calls += _exec_calls(ast.parse(path.read_text(encoding="utf-8")), path)
    assert calls == [("identities.py", "_generated"), ("variety.py", "_generated_pass")]


# --- the cache --------------------------------------------------------------


def test_cache_is_bounded_and_keyed_by_the_identity_data():
    maxsize = _generated.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize > 0
    first = parse_spec(CORPUS_TEXT).natural_identity("assoc")
    second = parse_spec(CORPUS_TEXT).natural_identity("assoc")
    assert first == second and first is not second
    made = first.check
    hits = _generated.cache_info().hits
    assert second.check is made
    assert _generated.cache_info().hits == hits + 1


def test_generated_checks_are_shared_across_signature_objects():
    """Equal signatures built apart key the same entry."""
    first = from_sigma(Signature((("m", 2), ("e", 0))), m(v("x"), v("x")), v("x"),
                       FinSet(("x",)))
    second = from_sigma(MONOID_SIG, m(v("x"), v("x")), v("x"), FinSet(("x",)))
    assert first.sig is not second.sig
    assert first.check is second.check


def test_lopsided_sides_read_different_variables():
    """A side that reads no variable and one that reads the last only."""
    sig = Signature((("m", 2), ("e", 0)))
    e = Node("e", ())
    lhs = NaturalTerm(sig, (3,), 1, (e,))
    rhs = NaturalTerm(sig, (3,), 1, (Node("m", (Var("v3"), Var("v3"))),))
    identity = NaturalIdentity(lhs, rhs)
    for size in (1, 2):
        for alg in enumerate_algebras(sig, FinSet(tuple(range(size)))):
            assert violation(alg, identity) == reference_violation(alg, identity)
            for k in (1, 2):
                assert satisfies_level(alg, identity, k) == \
                    satisfies_level_enumerated(alg, identity, k)
