import itertools
import time

import pytest

from finalg import (
    FinMap,
    FinSet,
    Node,
    ResourceLimitError,
    Signature,
    ValidationError,
    apply_map,
    apply_obj,
    enumerate_maps,
    format_term,
    iota,
    q_node,
    stage,
    stage_map,
    substitute,
    w_embed,
    y_inject,
)
from finalg.terms import (
    MAX_TERM_DEPTH,
    _stage_terms,
    check_term,
    iter_stage_sizes,
    relabel,
    variables,
)
from conftest import MAGMA, MONOID_SIG, m, v
from oracles import identity_map, is_injective, is_surjective, then


ONE = FinSet(("u",))
TWO = FinSet(("x", "y"))


def test_heights():
    assert v("x").height == 0
    assert Node("e", ()).height == 1
    assert m(m(v("x"), v("y")), v("x")).height == 2


def test_deep_term_hashes_without_recursion():
    """A node's hash is fixed at construction from its children's stored
    hashes, so hashing a 5000-deep chain never recurses."""
    deep = v("x")
    for _ in range(5000):
        deep = Node("f", (deep,))
    assert hash(deep) == hash(("f", (deep.args[0],)))
    table = {deep: "top", deep.args[0]: "below"}
    assert table[deep] == "top"
    assert table[deep.args[0]] == "below"


def test_variable_hash_is_stored_at_construction():
    """A variable hashes its name once, when it is built, to the value the
    dataclass hash gave, so set and dict orders do not change."""
    class Atom:
        hashed = 0

        def __hash__(self):
            Atom.hashed += 1
            return 7

    atom = Atom()
    var = v(atom)
    assert Atom.hashed == 1
    assert {var: 1}[var] == 1 and var in {var} and hash(var) == hash((atom,))
    assert Atom.hashed == 2
    for name in ("x", 0, ("a", 1), m(v("x"), v("y"))):
        assert hash(v(name)) == hash((name,))


def test_stage_sizes_magma_one_generator():
    sizes = [1]
    for _ in range(3):
        sizes.append(sizes[-1] ** 2 + 1)
    assert sizes == [1, 2, 5, 26]
    assert list(itertools.islice(iter_stage_sizes(MAGMA, ONE), 4)) == sizes
    assert [len(stage(MAGMA, ONE, n).terms) for n in range(4)] == sizes


def test_stage_sizes_monoid_sig_no_generators():
    sizes = [0]
    for _ in range(2):
        sizes.append(sizes[-1] ** 2 + 1 + 0)
    assert sizes == [0, 1, 2]
    empty = FinSet(())
    assert [len(stage(MONOID_SIG, empty, n).terms) for n in range(3)] == sizes


def test_stage_empty_signature():
    sig = Signature(())
    for n in range(4):
        assert stage(sig, TWO, n).terms == FinSet((v("x"), v("y")))


def test_stage_contains_exactly_bounded_heights():
    st = stage(MAGMA, TWO, 2)
    assert all(t.height <= 2 for t in st.terms)
    assert m(m(v("x"), v("y")), v("x")) in st.terms
    assert m(m(m(v("x"), v("x")), v("y")), v("x")) not in st.terms


def test_stage_resource_guard():
    with pytest.raises(ResourceLimitError):
        stage(MAGMA, TWO, 5, max_size=1000)


def test_stage_refuses_at_the_first_size_over_the_bound():
    """Stage sizes grow doubly exponentially; stage 30 is refused at stage 6,
    without computing the sizes beyond it."""
    start = time.monotonic()
    with pytest.raises(ResourceLimitError) as info:
        stage(MAGMA, ONE, 30)
    assert time.monotonic() - start < 1
    assert info.value.what == "stage 6 over 1 variables"


def test_iota():
    st = stage(MAGMA, ONE, 2)
    emb = iota(st)
    assert emb("u") == v("u")
    assert is_injective(emb)
    empty_st = stage(MAGMA, FinSet(()), 1)
    assert iota(empty_st).table == {}
    st0 = stage(MAGMA, TWO, 0)
    assert is_surjective(iota(st0))


def test_q_node_examples():
    q0 = q_node(MAGMA, ONE, 0)
    assert q0(("m", (v("u"), v("u")))) == m(v("u"), v("u"))
    q0e = q_node(MONOID_SIG, ONE, 0)
    assert q0e(("e", ())) == Node("e", ())
    q1 = q_node(MAGMA, ONE, 1)
    tall = q1(("m", (m(v("u"), v("u")), v("u"))))
    assert tall.height == 2 and tall in stage(MAGMA, ONE, 2).terms


def test_iota_q_jointly_bijective():
    for sig in (MAGMA, MONOID_SIG):
        for n in range(3):
            st1 = stage(sig, TWO, n + 1)
            images = set(iota(st1).table.values()) | set(q_node(sig, TWO, n).table.values())
            assert images == set(st1.terms)


def test_w_embed_identity_and_iota():
    st = stage(MAGMA, TWO, 2)
    assert w_embed(st, 2) == identity_map(st.terms)
    st0 = stage(MAGMA, TWO, 0)
    w03 = w_embed(st0, 3)
    emb3 = iota(stage(MAGMA, TWO, 3))
    assert all(w03(v(a)) == emb3(a) for a in TWO)
    with pytest.raises(ValidationError):
        w_embed(st, 1)


def test_w_embed_counts():
    st1 = stage(MAGMA, ONE, 1)
    included = w_embed(st1, 2)
    assert is_injective(included)
    assert len(included.dom) == 2 and len(included.cod) == 5


def test_w_cocone_coherence():
    for k in range(3):
        for mid in range(k, 3):
            for n in range(mid, 3):
                st_k = stage(MAGMA, TWO, k)
                st_m = stage(MAGMA, TWO, mid)
                assert then(w_embed(st_k, mid), w_embed(st_m, n)) == w_embed(st_k, n)


def test_chain_square_law():
    for sig in (MAGMA, MONOID_SIG):
        for m_idx in range(3):
            for n_idx in range(m_idx, 3):
                st_m = stage(sig, TWO, m_idx)
                left = then(
                    q_node(sig, TWO, m_idx), w_embed(stage(sig, TWO, m_idx + 1), n_idx + 1)
                )
                right = then(
                    apply_map(sig, w_embed(st_m, n_idx)), q_node(sig, TWO, n_idx)
                )
                assert left == right


def test_y_inject_examples():
    y1 = y_inject(MAGMA, TWO, 1)
    assert y1(("m", ("x", "y"))) == m(v("x"), v("y"))
    y3 = y_inject(MONOID_SIG, ONE, 3)
    assert y3(("e", ())) == Node("e", ())
    assert is_injective(y_inject(MAGMA, TWO, 1))
    assert len(set(y_inject(MAGMA, TWO, 1).table.values())) == 4
    with pytest.raises(ValidationError):
        y_inject(MAGMA, TWO, 0)


def test_y_inject_is_w_after_q0():
    for sig in (MAGMA, MONOID_SIG):
        for n in (1, 2, 3):
            y = y_inject(sig, TWO, n)
            q0 = q_node(sig, TWO, 0)
            w1n = w_embed(stage(sig, TWO, 1), n)
            fx = apply_obj(sig, TWO)
            var_iso = apply_map(sig, iota(stage(sig, TWO, 0)))
            assert y == then(then(var_iso, q0), w1n)


def test_stage_map_identity_and_relabel():
    ident = identity_map(TWO)
    assert stage_map(MAGMA, ident, 1) == identity_map(stage(MAGMA, TWO, 1).terms)
    collapse = FinMap(TWO, ONE, {"x": "u", "y": "u"})
    sm = stage_map(MAGMA, collapse, 1)
    assert sm(m(v("x"), v("y"))) == m(v("u"), v("u"))
    assert len(set(sm.table.values())) == 2


def test_stage_map_functorial():
    three = FinSet(("a", "b", "c"))
    for f in enumerate_maps(TWO, three):
        for g in enumerate_maps(three, ONE):
            lhs = stage_map(MAGMA, then(f, g), 2)
            rhs = then(stage_map(MAGMA, f, 2), stage_map(MAGMA, g, 2))
            assert lhs == rhs


def test_stage_map_commutes_with_chain_maps():
    for f in enumerate_maps(TWO, ONE):
        n = 2
        assert then(iota(stage(MAGMA, TWO, n)), stage_map(MAGMA, f, n)) == then(
            f, iota(stage(MAGMA, ONE, n))
        )
        q_then_map = then(q_node(MAGMA, TWO, 1), stage_map(MAGMA, f, 2))
        map_then_q = then(apply_map(MAGMA, stage_map(MAGMA, f, 1)), q_node(MAGMA, ONE, 1))
        assert q_then_map == map_then_q
        w_then_map = then(w_embed(stage(MAGMA, TWO, 1), 2), stage_map(MAGMA, f, 2))
        map_then_w = then(stage_map(MAGMA, f, 1), w_embed(stage(MAGMA, ONE, 1), 2))
        assert w_then_map == map_then_w


def test_substitute_and_relabel():
    t = m(v("x"), v("y"))
    assert substitute(t, {"x": m(v("y"), v("y")), "y": v("x")}) == m(
        m(v("y"), v("y")), v("x")
    )
    assert relabel(t, {"x": "a", "y": "b"}) == m(v("a"), v("b"))
    with pytest.raises(ValidationError):
        substitute(t, {"x": v("x")})


def test_variables_and_format():
    t = m(m(v("x"), v("y")), Node("e", ()))
    assert variables(t) == frozenset({"x", "y"})
    assert format_term(t) == "m(m(x,y),e())"
    check_term(MONOID_SIG, t)
    with pytest.raises(ValidationError):
        check_term(MAGMA, Node("m", (v("x"),)))


@pytest.mark.parametrize("sig", [MAGMA, MONOID_SIG, Signature((("s", 1),))])
def test_stages_hold_the_earlier_stages_terms(sig):
    """Stage n is built on stage n-1's own terms, so a memo keyed on one
    stage's terms is hit by the next stage's by identity."""
    for n in range(1, 4):
        earlier = stage(sig, TWO, n - 1).terms
        later = {id(t) for t in stage(sig, TWO, n).terms}
        assert all(id(t) in later for t in earlier)


def test_stage_cache_is_bounded():
    """Every stage of a nullary-only signature is cheap, so the stages up
    to the height bound over a few generator sets overfill the cache."""
    point = Signature((("e", 0),))
    for n in range(5):
        stage(point, FinSet(tuple(f"g{i}" for i in range(n))), MAX_TERM_DEPTH)
    info = _stage_terms.cache_info()
    assert info.maxsize is not None
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


STAGE_ORDER_SIGS = {
    "unary": Signature((("s", 1),)),
    "binary": MAGMA,
    "mixed": Signature((("e", 0), ("s", 1), ("m", 2))),
}


@pytest.mark.parametrize("name", sorted(STAGE_ORDER_SIGS))
@pytest.mark.parametrize("n_gens", [0, 1, 2])
def test_stages_are_in_checked_order(name, n_gens):
    """Stage n keeps stage n-1's tuple and sorts only its new nodes; every
    stage up to the index ``stage`` admits (under a 50,000-term bound, so
    the test stays small) equals the checked ``FinSet`` of the same atoms,
    element by element and in order, fed to it in reverse."""
    sig = STAGE_ORDER_SIGS[name]
    x = FinSet(tuple(f"x{i}" for i in range(n_gens)))
    bound = 50_000
    admitted = 0
    for size, n in zip(iter_stage_sizes(sig, x), range(MAX_TERM_DEPTH + 1)):
        if size > bound:
            break
        admitted = n
    with pytest.raises(ResourceLimitError):
        stage(sig, x, admitted + 1, bound)
    for n in range(admitted + 1):
        built = stage(sig, x, n, bound).terms
        checked = FinSet(tuple(reversed(built.elements)))
        assert built.elements == checked.elements
        assert dict(built.position) == dict(checked.position)
        assert len(built) == next(itertools.islice(iter_stage_sizes(sig, x), n, None))
