import itertools
import random
from types import SimpleNamespace

import pytest

from finalg import (
    FinAlgebra,
    FinMap,
    FinSet,
    Node,
    ResourceLimitError,
    Signature,
    ValidationError,
    Var,
    apply_obj,
    enumerate_algebras,
    evaluate,
    iota,
    is_morphism,
    q_node,
    stage,
    stage_map,
    w_embed,
    y_inject,
)
from finalg.algebras import compile_term, count_algebras
from finalg.dsl import parse_spec
from conftest import CORPUS_TEXT, MAGMA, MONOID_SIG, m, v
from oracles import fold, identity_map, structure_map


def test_tables_must_be_total():
    with pytest.raises(ValidationError):
        FinAlgebra(MAGMA, FinSet((0, 1)), {"m": {(0, 0): 0}})
    with pytest.raises(ValidationError):
        FinAlgebra(MAGMA, FinSet((0, 1)), {})
    with pytest.raises(ValidationError):
        two = {(a, b): 2 for a in (0, 1) for b in (0, 1)}
        FinAlgebra(MAGMA, FinSet((0, 1)), {"m": two})


def test_structure_map_view(or_magma):
    alpha = structure_map(or_magma)
    assert alpha.dom == apply_obj(MAGMA, or_magma.carrier)
    assert alpha(("m", (0, 1))) == 1


def test_evaluate_variable(or_magma):
    assert evaluate(or_magma, v("x"), {"x": 1}) == 1


def test_evaluate_table_walk(or_magma, or_monoid):
    t = m(m(v("x"), v("y")), v("x"))
    assert evaluate(or_magma, t, {"x": 0, "y": 1}) == 1
    t2 = m(Node("e", ()), v("x"))
    assert evaluate(or_monoid, t2, {"x": 1}) == 1


def test_evaluate_unbound_variable(or_magma):
    with pytest.raises(ValidationError):
        evaluate(or_magma, v("x"), {})


def test_evaluate_unknown_operation(or_magma):
    with pytest.raises(ValidationError, match="unknown operation 'k'"):
        evaluate(or_magma, m(v("x"), Node("k", (v("x"),))), {"x": 0})


def test_evaluate_not_a_term(or_magma):
    with pytest.raises(ValidationError, match="not a term: 'y'"):
        evaluate(or_magma, m(v("x"), "y"), {"x": 0})
    with pytest.raises(ValidationError, match="not a term"):
        evaluate(or_magma, 5, {})


def test_evaluate_every_arity():
    """Nullary under unary, and a ternary node: each arity the evaluator
    compiles differently."""
    sig = Signature((("s", 1), ("e", 0), ("maj", 3)))
    bits = FinSet((0, 1))
    tables = {
        "s": {(a,): 1 - a for a in bits},
        "e": {(): 1},
        "maj": {(a, b, c): int(a + b + c >= 2) for a in bits for b in bits for c in bits},
    }
    alg = FinAlgebra(sig, bits, tables)
    e1 = Node("e", ())
    assert evaluate(alg, Node("s", (e1,)), {}) == 0
    assert evaluate(alg, Node("s", (Node("s", (e1,)),)), {}) == 1
    t = Node("maj", (v("x"), Node("s", (v("y"),)), e1))
    assert [evaluate(alg, t, {"x": x, "y": y}) for x in bits for y in bits] == [1, 0, 1, 1]


def test_evaluate_refuses_a_value_outside_the_carrier(or_magma):
    """A bare variable bound outside the carrier is refused, not returned,
    and so is one under an operation."""
    with pytest.raises(ValidationError, match="^value 'zzz' of 'x' not in the carrier$"):
        evaluate(or_magma, v("x"), {"x": "zzz"})
    with pytest.raises(ValidationError, match="^value 'zzz' of 'x' not in the carrier$"):
        evaluate(or_magma, m(v("x"), v("x")), {"x": "zzz"})
    with pytest.raises(ValidationError, match="^value 'zzz' of 'y' not in the carrier$"):
        evaluate(or_magma, m(v("x"), v("x")), {"x": 1, "y": "zzz"})


def test_evaluate_refuses_a_wrong_arity(or_magma):
    message = "^operation 'm' applied to 1 arguments, arity is 2$"
    with pytest.raises(ValidationError, match=message):
        evaluate(or_magma, Node("m", (v("x"),)), {"x": 0})


MIXED = Signature((("c", 0), ("u", 1), ("b", 2), ("t", 3)))


def _random_term(rng, names, nodes):
    """A random term over ``MIXED`` with about ``nodes`` operation nodes."""
    if nodes == 0:
        return Var(rng.choice(names)) if rng.random() < 0.8 else Node("c", ())
    op = rng.choice(("u", "b", "t"))
    arity = MIXED.arity(op)
    split = sorted(rng.randrange(nodes) for _ in range(arity - 1))
    sizes = [hi - lo for lo, hi in zip([0] + split, split + [nodes - 1])]
    return Node(op, tuple(_random_term(rng, names, k) for k in sizes))


@pytest.mark.parametrize("kind", ["ints", "strings", "terms"])
def test_compiled_terms_agree_with_the_recursive_fold(kind):
    """``compile_term`` folds on positions through the flat tables; mapped
    back to elements, every value is the recursive fold's through a plain
    dict of the same tables, over a signature with every arity up to 3."""
    rng = random.Random(kind)
    atoms = {
        "ints": (0, 1, 2),
        "strings": ("p", "q", "r"),
        "terms": (Var("a"), Node("f", (Var("a"),)), Node("f", (Node("f", (Var("a"),)),))),
    }[kind]
    carrier = FinSet(atoms)
    elems, names = carrier.elements, ("x", "y", "z")
    for _ in range(8):
        tables = {
            name: {args: rng.choice(elems) for args in itertools.product(elems, repeat=arity)}
            for name, arity in MIXED
        }
        alg = FinAlgebra(MIXED, carrier, tables)
        plain = SimpleNamespace(tables=tables)
        for nodes in (0, 1, 2, 3, 5, 8, 13):
            t = _random_term(rng, names, nodes)
            f = compile_term(MIXED, t, names)
            for positions in itertools.product(range(len(elems)), repeat=3):
                binding = dict(zip(names, (elems[p] for p in positions)))
                assert elems[f(alg.flat, len(elems), positions)] == fold(plain, t, binding)
                assert evaluate(alg, t, binding) == fold(plain, t, binding)


def test_is_morphism_identity(or_magma, or_monoid):
    assert is_morphism(or_magma, or_magma, identity_map(or_magma.carrier))
    assert is_morphism(or_monoid, or_monoid, identity_map(or_monoid.carrier))


def test_is_morphism_negation_swap(or_magma, and_magma):
    swap = FinMap(or_magma.carrier, and_magma.carrier, {0: 1, 1: 0})
    assert is_morphism(or_magma, and_magma, swap)


def test_is_morphism_constant_and_projection(or_magma, or_monoid, left_projection):
    const0 = FinMap(or_magma.carrier, or_magma.carrier, {0: 0, 1: 0})
    assert is_morphism(or_magma, or_magma, const0)
    assert is_morphism(or_monoid, or_monoid, const0)
    assert is_morphism(left_projection, or_magma, const0)
    swap = FinMap(or_magma.carrier, or_magma.carrier, {0: 1, 1: 0})
    assert not is_morphism(or_magma, or_magma, swap)


def test_is_morphism_signature_mismatch(or_magma, or_monoid):
    with pytest.raises(ValidationError):
        is_morphism(or_magma, or_monoid, identity_map(or_magma.carrier))


def test_enumerate_counts():
    two = FinSet((0, 1))
    magmas = list(enumerate_algebras(MAGMA, two))
    assert len(magmas) == 16 == count_algebras(MAGMA, two)
    symmetric = [a for a in magmas if all(
        a.tables["m"][(x, y)] == a.tables["m"][(y, x)] for x in (0, 1) for y in (0, 1)
    )]
    assert len(symmetric) == 8
    assert len(list(enumerate_algebras(MONOID_SIG, two))) == 32


def test_enumerate_deterministic_and_guarded():
    two = FinSet((0, 1))
    first = [a.tables for a in enumerate_algebras(MAGMA, two)]
    second = [a.tables for a in enumerate_algebras(MAGMA, two)]
    assert first == second
    with pytest.raises(ResourceLimitError):
        list(enumerate_algebras(MAGMA, FinSet(range(4)), max_count=1000))


def _reference_enumeration(sig, carrier):
    """The tables of every algebra on the carrier, built as dicts in
    canonical order, one ``itertools.product`` choice of images each."""
    keys_per_op = [
        (name, list(itertools.product(carrier.elements, repeat=arity))) for name, arity in sig
    ]
    images_per_op = [
        itertools.product(carrier.elements, repeat=len(keys)) for _, keys in keys_per_op
    ]
    for choice in itertools.product(*images_per_op):
        yield {name: dict(zip(keys, images)) for (name, keys), images in zip(keys_per_op, choice)}


def _items(tables):
    return [(name, list(table.items())) for name, table in tables.items()]


@pytest.mark.parametrize(
    "sig, size",
    [(MAGMA, 3), (MONOID_SIG, 2), (Signature((("t", 3),)), 2), (Signature(()), 2)],
    ids=["magma-3", "magma-unit-2", "ternary-2", "no-operations-2"],
)
def test_enumeration_order_and_tables_match_the_dict_reference(sig, size):
    """Each enumerated algebra's table view holds, key for key and in
    order, the dicts the reference builds for the same position."""
    carrier = FinSet(tuple(range(size)))
    got = [_items(alg.tables) for alg in enumerate_algebras(sig, carrier)]
    assert got == [_items(tables) for tables in _reference_enumeration(sig, carrier)]


def test_equal_tables_make_equal_algebras_whatever_the_constructor():
    """The checked constructor, the declaration parser and the enumerator
    build equal, hash-equal algebras from equal tables."""
    parsed = parse_spec(CORPUS_TEXT)
    magma = parsed.signatures["Magma"]
    from_dsl = parsed.algebras["Or"].algebra
    carrier = FinSet(("0", "1"))
    table = {(a, b): max(a, b) for a in carrier for b in carrier}
    checked = FinAlgebra(magma, carrier, {"m": table})
    enumerated = [alg for alg in enumerate_algebras(magma, carrier) if alg.tables == {"m": table}]
    assert len(enumerated) == 1
    assert checked == from_dsl == enumerated[0]
    assert hash(checked) == hash(from_dsl) == hash(enumerated[0])
    assert checked.tables == from_dsl.tables == enumerated[0].tables == {"m": table}
    other = parsed.algebras["LeftProj"].algebra
    assert other != checked and other.flat != checked.flat


def test_table_view_is_read_only(or_magma):
    with pytest.raises(TypeError):
        or_magma.tables["m"][(0, 0)] = 1
    with pytest.raises(TypeError):
        or_magma.tables["m"] = {}


def _all_corpus_algebras():
    out = []
    for sig in (MAGMA, MONOID_SIG):
        for size in (1, 2):
            for alg in enumerate_algebras(sig, FinSet(tuple(range(size)))):
                out.append(alg)
    return out


CORPUS = _all_corpus_algebras()


@pytest.mark.parametrize("alg", CORPUS[:8] + CORPUS[17:25])
def test_eval_after_node_equals_table_then_eval(alg):
    x = alg.carrier
    binding = {a: a for a in x}
    alpha = structure_map(alg)
    for n in range(2):
        q = q_node(alg.sig, x, n)
        for elem, node in q.table.items():
            name, args = elem
            folded = alg.tables[name][tuple(evaluate(alg, t, binding) for t in args)]
            assert evaluate(alg, node, binding) == folded
            assert folded == alpha((name, tuple(evaluate(alg, t, binding) for t in args)))


@pytest.mark.parametrize("alg", CORPUS[:4] + CORPUS[17:21])
def test_eval_of_variables_is_assignment(alg):
    for n in range(3):
        st = stage(alg.sig, alg.carrier, n)
        emb = iota(st)
        for a in alg.carrier:
            assert evaluate(alg, emb(a), {b: b for b in alg.carrier}) == a


@pytest.mark.parametrize("alg", CORPUS[:4] + CORPUS[17:21])
def test_eval_stage_independent(alg):
    binding = {a: a for a in alg.carrier}
    for m_idx in range(3):
        st = stage(alg.sig, alg.carrier, m_idx)
        w = w_embed(st, 3)
        for t in st.terms:
            assert evaluate(alg, t, binding) == evaluate(alg, w(t), binding)


@pytest.mark.parametrize("alg", CORPUS[:4] + CORPUS[17:21])
def test_eval_of_height_one_nodes_is_table(alg):
    binding = {a: a for a in alg.carrier}
    for n in (1, 2):
        y = y_inject(alg.sig, alg.carrier, n)
        for (name, args), node in y.table.items():
            assert evaluate(alg, node, binding) == alg.tables[name][args]


@pytest.mark.parametrize("alg", CORPUS[1:3] + CORPUS[18:20])
def test_eval_commutes_with_relabelling(alg):
    two = FinSet(("x", "y"))
    from finalg import enumerate_maps

    for f in enumerate_maps(two, alg.carrier):
        sm = stage_map(alg.sig, f, 2)
        for t in stage(alg.sig, two, 2).terms:
            assert evaluate(alg, sm(t), {a: a for a in alg.carrier}) == evaluate(
                alg, t, f.table
            )
