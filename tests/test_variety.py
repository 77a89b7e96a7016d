import dataclasses
import hashlib
import itertools
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from finalg import (
    FinAlgebra,
    FinMap,
    FinSet,
    Node,
    ResourceLimitError,
    Signature,
    Stabilized,
    Unstabilized,
    ValidationError,
    Var,
    check_universal_property,
    enumerate_maps,
    evaluate,
    format_term,
    is_morphism,
    satisfies,
    saturate,
    stage,
    substitute,
    word_equal,
)
from finalg.core import MAX_ENUMERATION, atom_key
from finalg.dsl import parse_spec
from finalg import variety
from finalg.terms import MAX_TERM_DEPTH
from finalg.identities import satisfies_all
from finalg.variety import (
    CONGRUENCE,
    _Engine,
    audit_derivations,
    universal_property_witness,
)
from oracles import (
    block_rep,
    extension_count_enumerated,
    identity_map,
    universal_property_witness_enumerated,
)
from conftest import MAGMA, MONOID_SIG, X, Y, Z, e, ident, m, two_element, v


def gens(n):
    return FinSet(tuple(f"x{i + 1}" for i in range(n)))


def reference_components(ids):
    """Per identity component, in order, ``(used, offsets, left, right,
    ground)`` read off the data terms by a plain depth walk: the canonical
    variables occurring in either side in canonical order, each one's
    deepest occurrence in either side, the two sides, and the height of
    the taller side."""
    def depths(t, depth, acc):
        if isinstance(t, Node):
            for a in t.args:
                depths(a, depth + 1, acc)
        else:
            acc[t.name] = max(acc.get(t.name, 0), depth)
        return acc

    components = []
    for ident in ids:
        for k, left, right in zip(ident.domain, ident.lhs.data, ident.rhs.data):
            occ_l, occ_r = depths(left, 0, {}), depths(right, 0, {})
            used = tuple(u for u in (f"v{i + 1}" for i in range(k)) if u in occ_l or u in occ_r)
            offsets = {u: max(occ_l.get(u, 0), occ_r.get(u, 0)) for u in used}
            components.append((used, offsets, left, right, max(left.height, right.height)))
    return components


def full_stage_classes(sig, ids, x, depth):
    """Brute-force oracle: the congruence generated on the *full* stage set
    by every identity instance that fits, closed under node congruence."""
    st = stage(sig, x, depth)
    parent = {t: t for t in st}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        return True

    components = reference_components(ids)
    changed = True
    while changed:
        changed = False
        for used, offsets, left, right, ground in components:
            if ground > depth:
                continue
            pools = [[t for t in st if t.height + offsets[u] <= depth] for u in used]
            for images in itertools.product(*pools):
                g = dict(zip(used, images))
                if union(substitute(left, g), substitute(right, g)):
                    changed = True
        sig_table = {}
        for t in st:
            if isinstance(t, Node):
                key = (t.op, tuple(find(a) for a in t.args))
                other = sig_table.get(key)
                if other is None:
                    sig_table[key] = t
                elif union(other, t):
                    changed = True
    groups = {}
    for t in st:
        groups.setdefault(find(t), set()).add(t)
    return groups


def subset_eval(t):
    match t:
        case Var(name):
            return frozenset({name})
        case Node("e", ()):
            return frozenset()
        case Node("m", (a, b)):
            return subset_eval(a) | subset_eval(b)
    raise AssertionError(t)


@pytest.mark.parametrize("n,carrier_size", [(0, 1), (1, 2), (2, 4), (3, 8)])
def test_semilattice_unit_stabilizes(semilattice_unit_ids, n, carrier_size):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(n), 6)
    assert isinstance(res, Stabilized)
    assert len(res.algebra.carrier) == carrier_size


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_semilattice_unit_matches_subset_semantics(semilattice_unit_ids, n):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(n), 6)
    assert isinstance(res, Stabilized)
    to_subset = {t: subset_eval(t) for t in res.algebra.carrier}
    assert len(set(to_subset.values())) == 2 ** n
    assert set(to_subset.values()) == {
        frozenset(c) for r in range(n + 1) for c in itertools.combinations(gens(n), r)
    }
    tables = res.algebra.tables
    for a in res.algebra.carrier:
        for b in res.algebra.carrier:
            assert to_subset[tables["m"][(a, b)]] == to_subset[a] | to_subset[b]
    assert to_subset[tables["e"][()]] == frozenset()
    for x in gens(n):
        assert to_subset[res.unit.table[x]] == frozenset({x})


def test_free_algebra_is_in_its_variety(semilattice_unit_ids):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(2), 6)
    for identity in semilattice_unit_ids:
        assert satisfies(res.algebra, identity)


def test_monoid_on_one_generator_does_not_stabilize(monoid_ids):
    res = saturate(MONOID_SIG, monoid_ids, gens(1), 6)
    assert isinstance(res, Unstabilized)
    counts = res.state.class_counts
    assert len(counts) == 6
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_empty_generators_without_constants_stabilize_empty(comm):
    res = saturate(MAGMA, [comm], FinSet(()), 3)
    assert isinstance(res, Stabilized)
    assert res.state.depth == 1
    assert len(res.algebra.carrier) == 0


def test_empty_generators_with_constant(semilattice_unit_ids):
    res = saturate(MONOID_SIG, semilattice_unit_ids, FinSet(()), 4)
    assert isinstance(res, Stabilized)
    assert len(res.algebra.carrier) == 1


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_engine_classes_match_full_stage_oracle_monoid(monoid_ids, depth):
    res = saturate(MONOID_SIG, monoid_ids, gens(1), depth)
    oracle = full_stage_classes(MONOID_SIG, monoid_ids, gens(1), depth)
    assert res.state.class_counts[depth - 1] == len(oracle)
    rep_of = {t: min(block, key=lambda u: u.sort_key())
              for block in oracle.values() for t in block}
    state = res.state
    for block in state.classes.blocks:
        assert len({rep_of[t] for t in block}) == 1
    engine_rep = {t: block_rep(state.classes, t) for t in state.universe}
    for t, u in itertools.combinations(state.universe.elements, 2):
        assert (engine_rep[t] == engine_rep[u]) == (rep_of[t] == rep_of[u])


@pytest.mark.parametrize("depth", [1, 2])
def test_engine_classes_match_full_stage_oracle_semilattice(semilattice_unit_ids, depth):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(2), depth)
    oracle = full_stage_classes(MONOID_SIG, semilattice_unit_ids, gens(2), depth)
    state = res.state
    assert state.class_counts[depth - 1] == len(oracle)
    rep_of = {t: min(block, key=lambda u: u.sort_key())
              for block in oracle.values() for t in block}
    for block in state.classes.blocks:
        assert len({rep_of[t] for t in block}) == 1


def test_partition_refines_across_depths(monoid_ids):
    shallow = saturate(MONOID_SIG, monoid_ids, gens(1), 2).state
    deep = saturate(MONOID_SIG, monoid_ids, gens(1), 3).state
    for block in shallow.classes.blocks:
        deep_reps = {block_rep(deep.classes, t) for t in block}
        assert len(deep_reps) == 1


def test_derivation_audit(monoid_ids, semilattice_unit_ids):
    assert audit_derivations(saturate(MONOID_SIG, monoid_ids, gens(1), 3))
    assert audit_derivations(saturate(MONOID_SIG, semilattice_unit_ids, gens(2), 6))


def test_word_equal_on_stabilized(semilattice_unit_ids):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(2), 6)
    x1, x2 = v("x1"), v("x2")
    assert word_equal(res, m(x1, x2), m(x2, m(x1, x1)))
    assert not word_equal(res, x1, m(x1, x2))
    deep = m(m(x1, x2), m(x2, m(x1, m(x2, x2))))
    assert word_equal(res, deep, deep)
    assert word_equal(res, deep, m(x1, x2))
    terms = stage(MONOID_SIG, gens(2), 2)
    assert len(terms) == 52
    values = {t: evaluate(res.algebra, t, res.unit.table) for t in terms}
    for s, t in itertools.product(terms, repeat=2):
        assert word_equal(res, s, t) == (values[s] == values[t])
    with pytest.raises(ValidationError, match="outside the generators"):
        word_equal(res, v("x3"), x1)
    # A term outside the signature is refused as malformed, on either side
    # and before either side is normalised, not reported as unresolvable.
    for bad, message in [
        (Node("zz", ()), "unknown operation 'zz'"),
        (m(x1, Node("zz", ())), "unknown operation 'zz'"),
        (Node("m", (x1,)), "operation 'm' applied to 1 arguments, arity is 2"),
        (Node("m", (x1, x2, x1)), "operation 'm' applied to 3 arguments, arity is 2"),
    ]:
        for t1, t2 in [(bad, x1), (x1, bad), (v("x3"), bad)]:
            with pytest.raises(ValidationError, match=re.escape(message)):
                word_equal(res, t1, t2)


def test_word_equal_on_unstabilized_state(monoid_ids):
    res = saturate(MONOID_SIG, monoid_ids, gens(1), 2)
    x1 = v("x1")
    assert word_equal(res, m(x1, e()), x1)
    assert not word_equal(res, x1, m(x1, x1))
    unresolved = m(m(x1, x1), m(m(x1, x1), m(x1, x1)))
    with pytest.raises(ValidationError, match="term not resolvable at depth 2"):
        word_equal(res, unresolved, x1)


def test_saturate_resource_guard(monoid_ids):
    with pytest.raises(ResourceLimitError):
        saturate(MONOID_SIG, monoid_ids, gens(2), 6, max_universe=50)


def test_saturate_refuses_a_depth_before_building_it(monkeypatch):
    """Depth 2 of t(x,x,x) = x on three generators would hold 19686 terms;
    it is refused with that size before any of its nodes is built."""
    ternary = Signature((("t", 3),))
    x = v("x")
    ids = [ident(ternary, Node("t", (x, x, x)), x, ("x",))]
    registered = []
    register = _Engine._register

    def counted(self, height, size, op, arg_ids):
        registered.append(self)
        return register(self, height, size, op, arg_ids)

    monkeypatch.setattr(_Engine, "_register", counted)
    with pytest.raises(ResourceLimitError, match="needs 19686, limit is 100$"):
        saturate(ternary, ids, gens(3), 2, max_universe=100)
    # The engine makes the generators; every other term is registered.
    engine = registered[0]
    assert registered == [engine] * 27
    assert len(engine.ops) == 3 + 27
    assert max(engine.height) == 1


def test_saturate_refuses_a_depth_above_the_term_height_bound(monkeypatch):
    """Depth d registers terms of height d, so with s(x) = s(x), which never
    merges, depth ``MAX_TERM_DEPTH`` answers with terms that high, and one
    depth more is refused at once, before a node is registered."""
    unary = Signature((("s", 1),))
    sx = Node("s", (X,))
    ids = [ident(unary, sx, sx, ("x",))]
    res = saturate(unary, ids, gens(1), MAX_TERM_DEPTH)
    assert isinstance(res, Unstabilized)
    assert len(res.state.classes) == MAX_TERM_DEPTH + 1
    assert max(t.height for t in res.state.terms) == MAX_TERM_DEPTH

    def refused(engine, height, size, op, arg_ids):
        raise AssertionError("a node was registered")

    monkeypatch.setattr(_Engine, "_register", refused)
    start = time.monotonic()
    with pytest.raises(ResourceLimitError,
                       match=f"^term height of depth 129: needs 129, limit is {MAX_TERM_DEPTH}$"):
        saturate(unary, ids, gens(1), MAX_TERM_DEPTH + 1)
    assert time.monotonic() - start < 1


def _nodes_built(monkeypatch):
    """The list every ``Node`` constructed from now on is appended to."""
    built = []
    post_init = Node.__post_init__

    def counted(node):
        built.append(node)
        post_init(node)

    monkeypatch.setattr(Node, "__post_init__", counted)
    return built


def test_saturate_builds_only_the_carrier_terms(monkeypatch):
    """The engine and the state keep ids and operations; a term is built
    only when it is read.  Saturating BoolGroup on three generators
    registers 2,708 ids but builds only carrier terms and their subterms,
    each once.  An unstabilized run builds none: saturating Semigroup on
    two generators to depth 3 and auditing the result build no ``Node``."""
    model = parse_spec(TRAJECTORY_SPEC)
    ids = model.presentation_identities("BoolGroup")
    built = _nodes_built(monkeypatch)
    res = saturate(model.signatures["Monoid"], ids, gens(3), 6)
    monkeypatch.undo()
    assert len(res.state.ops) == 2708
    subterms, todo = set(), list(res.algebra.carrier)
    while todo:
        t = todo.pop()
        if isinstance(t, Node) and t not in subterms:
            subterms.add(t)
            todo.extend(t.args)
    assert len(built) <= len(subterms)
    assert len(set(built)) == len(built)

    corpus = parse_spec(CORPUS.read_text())
    ids = corpus.presentation_identities("Semigroup")
    built = _nodes_built(monkeypatch)
    res = saturate(corpus.signatures["Magma"], ids, gens(2), 3)
    assert isinstance(res, Unstabilized) and audit_derivations(res)
    monkeypatch.undo()
    assert built == []


def test_state_builds_each_term_once_in_any_order(monkeypatch):
    """A state builds an id's term from its children's, once: read from the
    highest id down on a fresh copy of the state, where shared children
    are pushed by two parents before either is built, the terms equal
    those read in id order, and each node's children are by identity the
    terms of its child ids."""
    model = parse_spec(TRAJECTORY_SPEC)
    res = saturate(model.signatures["Monoid"], model.presentation_identities("BoolGroup"),
                   gens(2), 3)
    state = res.state
    fresh = dataclasses.replace(state)
    built = _nodes_built(monkeypatch)
    down = [fresh.term(i) for i in reversed(range(len(state.ops)))][::-1]
    monkeypatch.undo()
    assert tuple(down) == state.terms
    assert len(built) == len(state.ops) - len(state.x)
    for i, args in enumerate(state.node_args):
        if args is not None:
            assert all(t is fresh.term(c) for t, c in zip(down[i].args, args))


def _unary(t):
    return Node("u", (t,))


@pytest.mark.parametrize("sig, sides", [
    # The instance of the second identity is higher than depth 2.
    (Signature((("u", 1),)), [(_unary(_unary(X)), X), (_unary(_unary(_unary(X))), X)]),
    # The instance x := m(x1, x1) of the first identity is higher than depth 2.
    (MAGMA, [(m(m(Y, Y), m(X, X)), X), (m(m(X, Y), m(Y, Y)), m(X, m(Y, Y))),
             (m(m(Y, Y), Y), m(m(Y, X), m(X, Y)))]),
])
def test_saturate_stabilizes_only_inside_the_variety(sig, sides):
    """Both presentations make the free algebra on one generator trivial.
    At depth 2 the classes of x1 and of a one-node term are closed and are
    those of depth 1, but an identity instance over them does not fit in
    the depth yet, so the quotient breaks an identity; saturation goes on
    until the quotient keeps them all."""
    ids = [ident(sig, left, right, ("x", "y")) for left, right in sides]
    assert isinstance(saturate(sig, ids, gens(1), 3), Unstabilized)
    res = saturate(sig, ids, gens(1), 6)
    assert res.state.depth == 4 and res.state.class_counts == (2, 2, 1, 1)
    assert res.algebra.carrier.elements == (Var("x1"),)
    assert audit_derivations(res)


def test_saturate_rejects_bad_depth(monoid_ids):
    with pytest.raises(ValidationError):
        saturate(MONOID_SIG, monoid_ids, gens(1), 0)


def test_universal_property_into_two_element_members(semilattice_unit_ids, or_monoid):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(1), 6)
    assert check_universal_property(res, semilattice_unit_ids, or_monoid)
    for f in enumerate_maps(res.unit.dom, or_monoid.carrier):
        assert extension_count_enumerated(res, or_monoid, f) == 1


def test_universal_property_at_the_unit(semilattice_unit_ids):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(2), 6)
    free = res.algebra
    assert check_universal_property(res, semilattice_unit_ids, free)
    unit_as_assignment = res.unit
    extensions = [
        h
        for h in enumerate_maps(free.carrier, free.carrier)
        if all(h.table[res.unit.table[a]] == unit_as_assignment.table[a] for a in res.unit.dom)
        and is_morphism(free, free, h)
    ]
    assert extensions == [identity_map(free.carrier)]


def test_universal_property_from_empty_generators(semilattice_unit_ids, or_monoid, and_monoid):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(0), 4)
    for target in (or_monoid, and_monoid):
        assert check_universal_property(res, semilattice_unit_ids, target)
        count = sum(
            is_morphism(res.algebra, target, h)
            for h in enumerate_maps(res.algebra.carrier, target.carrier)
        )
        assert count == 1


def test_universal_property_rejects_non_members(semilattice_unit_ids):
    res = saturate(MONOID_SIG, semilattice_unit_ids, gens(1), 6)
    outside = two_element([0, 0, 1, 1], unit=0)
    with pytest.raises(ValidationError):
        check_universal_property(res, semilattice_unit_ids, outside)


def test_universal_property_requires_stabilized(monoid_ids, or_monoid):
    res = saturate(MONOID_SIG, monoid_ids, gens(1), 3)
    with pytest.raises(ValidationError):
        check_universal_property(res, monoid_ids, or_monoid)


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "corpus.alg"
# The corpus presentations whose free algebras are finite (the other four,
# MonoidPres, CommMonoid, Semigroup and CommSemigroup, never stabilize),
# and a trivial one whose unit sends every generator to one element.
FINITE_PRESENTATIONS = (
    "Semilattice", "Band", "RectBand", "LeftZero", "SemilatticeUnit", "BoolGroup", "DistLat",
    "Trivial",
)
TRIVIAL = "identity triv over Magma : x = y\npresentation Trivial = Magma with triv\n"


def test_universal_property_by_generation_matches_enumeration():
    """On every finite presentation on 0-2 generators, into every corpus
    algebra of its signature, for every presentation of that signature
    whose variety holds the target, inside the presented variety or not,
    the fold of the carrier terms finds the same witness as trying every
    map."""
    model = parse_spec(CORPUS.read_text() + TRIVIAL)
    compared = 0
    for name in FINITE_PRESENTATIONS:
        sig_name = model.presentations[name].sig_name
        sig = model.signatures[sig_name]
        varieties = [model.presentation_identities(p) for p, decl in model.presentations.items()
                     if decl.sig_name == sig_name]
        targets = [d.algebra for d in model.algebras.values() if d.sig_name == sig_name]
        for n in (0, 1, 2):
            res = saturate(sig, model.presentation_identities(name), gens(n), 6)
            assert isinstance(res, Stabilized)
            for target in targets:
                for ids in varieties:
                    if satisfies_all(target, ids):
                        assert universal_property_witness(res, ids, target) == (
                            universal_property_witness_enumerated(res, target))
                        compared += 1
    assert compared > 100


def test_universal_property_without_generation_tries_every_map():
    """A unit that misses a carrier element does not generate the algebra,
    so the universal property is refused; trying every map shows that an
    assignment can then have two extensions."""
    model = parse_spec(CORPUS.read_text())
    ids = model.presentation_identities("LeftZero")
    res = saturate(MAGMA, ids, gens(2), 3)
    x1 = Var("x1")
    collapsed = dataclasses.replace(res, unit=FinMap(res.unit.dom, res.algebra.carrier,
                                                     {"x1": x1, "x2": x1}))
    assert not audit_derivations(collapsed)
    target = model.algebras["LeftProj"].algebra
    with pytest.raises(ValidationError, match="the unit does not generate the algebra"):
        universal_property_witness(collapsed, ids, target)
    with pytest.raises(ValidationError, match="the unit does not generate the algebra"):
        check_universal_property(collapsed, ids, target)
    counts = [extension_count_enumerated(collapsed, target, f)
              for f in enumerate_maps(res.unit.dom, target.carrier)]
    assert counts == [2, 0, 0, 2]


def test_universal_property_past_the_map_enumeration_bound():
    """The free semilattice on 4 generators has 15 elements; there are 3^15
    maps from it into a 3-element chain, above the map enumeration bound,
    but the unit generates it, so each of the 81 assignments is one fold."""
    model = parse_spec(CORPUS.read_text())
    ids = model.presentation_identities("Semilattice")
    res = saturate(model.signatures["Magma"], ids, gens(4), 6)
    chain = model.algebras["Max3"].algebra
    assert len(res.algebra.carrier) == 15
    assert len(chain.carrier) ** 15 > MAX_ENUMERATION
    assert check_universal_property(res, ids, chain)


def test_universal_property_witness_outside_the_presented_variety(
    assoc, comm, idem, or_magma
):
    """The free left-zero magma is not free for semilattices: x1 -> 0,
    x2 -> 1 has no extension, since m(x1,x2) = x1 but 0 or 1 = 1."""
    lzero = ident(MAGMA, m(X, Y), X, ("x", "y"))
    res = saturate(MAGMA, [lzero], gens(2), 3)
    semilattice = [assoc, comm, idem]
    f, count = universal_property_witness(res, semilattice, or_magma)
    assert f.table == {"x1": 0, "x2": 1}
    assert count == 0
    assert not check_universal_property(res, semilattice, or_magma)
    assert universal_property_witness(res, [lzero], two_element([0, 0, 1, 1])) is None


TRAJECTORY_SPEC = """\
signature Magma { op m : 2 }
signature Monoid { op m : 2 op e : 0 }
signature Lattice { op j : 2 op k : 2 }
vars x y z
identity assoc over Magma : m(m(x,y),z) = m(x,m(y,z))
identity comm over Magma : m(x,y) = m(y,x)
identity idem over Magma : m(x,x) = x
identity lzero over Magma : m(x,y) = x
identity massoc over Monoid : m(m(x,y),z) = m(x,m(y,z))
identity lunit over Monoid : m(e(),x) = x
identity runit over Monoid : m(x,e()) = x
identity sqe over Monoid : m(x,x) = e()
identity jassoc over Lattice : j(j(x,y),z) = j(x,j(y,z))
identity kassoc over Lattice : k(k(x,y),z) = k(x,k(y,z))
identity jcomm over Lattice : j(x,y) = j(y,x)
identity kcomm over Lattice : k(x,y) = k(y,x)
identity jabs over Lattice : j(x,k(x,y)) = x
identity kabs over Lattice : k(x,j(x,y)) = x
identity dist over Lattice : k(x,j(y,z)) = j(k(x,y),k(x,z))
presentation BoolGroup = Monoid with massoc lunit runit sqe
presentation Semilattice = Magma with assoc comm idem
presentation DistLat = Lattice with jassoc kassoc jcomm kcomm jabs kabs dist
presentation Band = Magma with assoc idem
presentation LeftZero = Magma with lzero
"""


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# Per case: a digest of the applied identity instances in order, the free
# algebra's carrier, and a digest of its operation tables.
TRAJECTORY_RESULTS = {
    ("BoolGroup", 3): ("0469e353b1cf8309",
                       "x1 x2 x3 e() m(x1,x2) m(x1,x3) m(x2,x3) m(x1,m(x2,x3))",
                       "a11586f91a2d1de5"),
    ("Semilattice", 3): ("6ce5be68d8a0ecd3",
                         "x1 x2 x3 m(x1,x2) m(x1,x3) m(x2,x3) m(x1,m(x2,x3))",
                         "b77c6078da1c23f5"),
    ("DistLat", 2): ("09798feb5e759cd7", "x1 x2 j(x1,x2) k(x1,x2)", "a385ec4e2755e792"),
    ("Band", 2): ("0dc8f45c6bca4b5f",
                  "x1 x2 m(x1,x2) m(x2,x1) m(x1,m(x2,x1)) m(x2,m(x1,x2))",
                  "8bf59e31b74ed2a8"),
    ("DistLat", 1): ("191e352c3ab5a293", "x1", "130abbef8d5435c3"),
    ("LeftZero", 4): ("6483a02841880249", "x1 x2 x3 x4", "6483a02841880249"),
}


@pytest.mark.parametrize(
    "presentation, n, bound, at_depth, counts, universe, instances",
    [
        ("BoolGroup", 3, 6, 4, (10, 52, 8, 8), 2708, 799),
        ("Semilattice", 3, 6, 4, (6, 10, 7, 7), 103, 81),
        ("DistLat", 2, 6, 4, (8, 56, 4, 4), 6274, 487),
        # The count holds at 8 over depths 2 and 3 without stabilizing:
        # an unchanged class count alone is not the stop rule.
        ("Band", 2, 6, 5, (4, 8, 8, 6, 6), 94, 68),
        ("DistLat", 1, 6, 4, (3, 10, 1, 1), 201, 28),
        ("LeftZero", 4, 6, 1, (4,), 20, 16),
    ],
)
def test_saturation_trajectory(presentation, n, bound, at_depth, counts, universe, instances):
    """Pins the depth at which saturation stops, the class count after
    every depth, the applied identity instances in order, and the free
    algebra's carrier and tables, so a slip in the stop test or in how
    instances are built shows."""
    model = parse_spec(TRAJECTORY_SPEC)
    sig = model.signatures[model.presentations[presentation].sig_name]
    res = saturate(sig, model.presentation_identities(presentation), gens(n), bound)
    assert isinstance(res, Stabilized)
    assert res.state.depth == at_depth
    assert res.state.class_counts == counts
    assert len(res.state.universe) == universe
    assert len(res.state.instance_pairs) == instances
    pairs_digest, carrier, tables_digest = TRAJECTORY_RESULTS[(presentation, n)]
    assert _digest(
        f"{format_term(a)} = {format_term(b)}" for a, b in res.state.instance_pairs
    ) == pairs_digest
    alg = res.algebra
    assert " ".join(format_term(t) for t in alg.carrier) == carrier
    assert _digest(
        f"{op}({','.join(map(format_term, args))}) = {format_term(alg.tables[op][args])}"
        for op, arity in sig
        for args in itertools.product(alg.carrier.elements, repeat=arity)
    ) == tables_digest


def _band_result():
    model = parse_spec(TRAJECTORY_SPEC)
    sig = model.signatures[model.presentations["Band"].sig_name]
    return saturate(sig, model.presentation_identities("Band"), gens(2), 6)


def _tampered(res, identity):
    """Tampered copies of a stabilized result, each by what was changed."""
    state = res.state
    log, least, ops = state.union_log, state.least, state.ops
    congruences = [k for k, (_, _, reason) in enumerate(log) if reason == CONGRUENCE]
    kids = state.node_args
    # An instance joining two nodes whose children end in different classes,
    # which no congruence step could justify.
    instance = next(
        k for k, (a, b, reason) in enumerate(log)
        if reason != CONGRUENCE and kids[a] and kids[b]
        and any(least[p] != least[q] for p, q in zip(kids[a], kids[b]))
    )
    a, b, (component, images, left, right) = log[instance]

    def relogged(reason):
        return dataclasses.replace(
            state, union_log=log[:instance] + ((a, b, reason),) + log[instance + 1:])

    reps = sorted(set(least))
    largest = max(reps, key=least.count)
    member = next(i for i, c in enumerate(least) if c == largest and i != largest)
    n = len(ops)
    components = sum(len(i.domain) for i in state.identities)
    x1, x2 = Var("x1"), Var("x2")
    tables = {op: dict(table) for op, table in res.algebra.tables.items()}
    tables["m"][(x1, x2)] = x1
    dropped = congruences[0]
    return {
        "identity instances dropped": dataclasses.replace(
            state, union_log=tuple(log[k] for k in congruences)),
        "two classes merged": dataclasses.replace(
            state, least=tuple(reps[0] if c == reps[1] else c for c in least)),
        "a class split": dataclasses.replace(
            state, least=tuple(member if i == member else c for i, c in enumerate(least))),
        "a congruence union dropped": dataclasses.replace(
            state, union_log=log[:dropped] + log[dropped + 1:]),
        "a spurious union added": dataclasses.replace(
            state, union_log=log + ((3, 4, CONGRUENCE),)),
        "a congruence between a node and a generator": dataclasses.replace(
            state, union_log=log + ((3, 0, CONGRUENCE),)),
        "an instance's images corrupted": relogged(
            (component, tuple(i + 1 for i in images), left, right)),
        "an instance given as a congruence": relogged(CONGRUENCE),
        "a node's op outside the signature or of another arity": dataclasses.replace(
            state, ops=ops[:-1] + ("e",)),
        "an identity the algebra fails added": dataclasses.replace(
            state, identities=state.identities + (identity,)),
        "a generator sent to another class": FinMap(
            res.unit.dom, res.algebra.carrier, {"x1": x1, "x2": x1}),
        "a table entry changed": FinAlgebra(res.algebra.sig, res.algebra.carrier, tables),
        "the depth claimed as another": dataclasses.replace(state, depth=9),
        # Each row below passes every other test of the checker, so exactly
        # one test refuses it.
        "a class entry for no id": dataclasses.replace(state, least=least + (0,)),
        "a generator given children": dataclasses.replace(state, node_args=((),) + kids[1:]),
        "a generator given an op": dataclasses.replace(state, ops=("m",) + ops[1:]),
        "a union naming an id by a negative index": dataclasses.replace(
            state, union_log=log + ((3, 3 - n, CONGRUENCE),)),
        "an instance naming its component by a negative index": relogged(
            (component - components, images, left, right)),
        "an instance with an extra image": relogged(
            (component, images + images[:1], left, right)),
        "an instance's ends swapped": dataclasses.replace(
            state, union_log=log[:instance] + ((b, a, log[instance][2]),)
            + log[instance + 1:]),
        "an instance of the old shape, without its steps": relogged((component, images)),
        "an instance's steps one id short": relogged((component, images, left[:-1], right)),
        "an instance's steps one id long": relogged((component, images, left, right + right[-1:])),
        "a step naming a node by a negative index": _step_replaced(
            state, lambda nid, find: nid - n),
        "a step naming an id past the last": _step_replaced(state, lambda nid, find: nid + n),
        "a step a generator of its class": _step_replaced(
            state, lambda nid, find: next(
                (g for g in range(len(state.x)) if find(g) == find(nid)), None)),
        "a step over children of other classes": _step_replaced(
            state, lambda nid, find: next(
                (o for o in range(len(state.x), n) if find(o) == find(nid)
                 and ops[o] == ops[nid]
                 and any(find(c) != find(d) for c, d in zip(kids[o], kids[nid]))), None)),
    }


def _step_replaced(state, pick):
    """The state with one id of an identity reason's steps replaced by
    ``pick(nid, find)``: the first id, in log order, that is not the last of
    its side's steps and for which ``pick`` gives a node of its class other
    than itself, ``find`` naming the classes of that point of the log.  The
    replacement then fails only the checks on the step itself."""
    log, parent = state.union_log, list(range(len(state.terms)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for k, (a, b, reason) in enumerate(log):
        if reason != CONGRUENCE:
            component, images, *sides = reason
            for s, built in enumerate(sides):
                for j, nid in enumerate(built[:-1]):
                    other = pick(nid, find)
                    if other is not None and other != nid:
                        sides[s] = built[:j] + (other,) + built[j + 1:]
                        return dataclasses.replace(state, union_log=(
                            log[:k] + ((a, b, (component, images, *sides)),) + log[k + 1:]))
        parent[find(b)] = find(a)
    raise LookupError("no step to replace")


def test_derivation_audit_refuses_tampered_states(comm):
    """The audit checks every union's reason, the claimed classes, the
    tables against every node, and that the algebra is in the variety and
    generated by its unit, so each tamper of the certificate shows."""
    res = _band_result()
    assert audit_derivations(res)
    x1, x2 = Var("x1"), Var("x2")
    assert res.state.terms[3:5] == (m(x1, x2), m(x2, x1))
    for what, tampered in _tampered(res, comm).items():
        if isinstance(tampered, FinMap):
            tampered = dataclasses.replace(res, unit=tampered)
        elif isinstance(tampered, FinAlgebra):
            assert evaluate(tampered, m(x1, x2), res.unit.table) != m(x1, x2)
            tampered = dataclasses.replace(res, algebra=tampered)
        else:
            tampered = dataclasses.replace(res, state=tampered)
        assert not audit_derivations(tampered), what


def test_derivation_audit_refuses_a_step_of_another_operation():
    """In a Boolean group on one generator, a step naming a node of its
    class with another operation and arity, such as e() for m(x1, x1) once
    ``sqe`` has joined them, passes every check but the step's operation."""
    model = parse_spec(TRAJECTORY_SPEC)
    res = saturate(model.signatures["Monoid"], model.presentation_identities("BoolGroup"),
                   gens(1), 6)
    assert audit_derivations(res)
    state = res.state
    terms = state.terms
    tampered = _step_replaced(state, lambda nid, find: next(
        (o for o in range(len(state.x), len(terms))
         if find(o) == find(nid) and terms[o].op != terms[nid].op), None))
    assert not audit_derivations(dataclasses.replace(res, state=tampered))


def test_derivation_audit_refuses_table_cells_no_node_holds():
    """Left-zero semigroups on two generators stabilize at depth 1 with the
    generators as carrier.  With every node and the log dropped, the
    classes, the depth and the class count still agree, but no node holds
    any of the algebra's four table cells, and the count of the tables'
    entries against the closure's refuses it."""
    model = parse_spec(TRAJECTORY_SPEC)
    res = saturate(model.signatures["Magma"], model.presentation_identities("LeftZero"),
                   gens(2), 6)
    state = res.state
    assert isinstance(res, Stabilized) and state.depth == 1 and audit_derivations(res)
    bare = dataclasses.replace(state, ops=state.ops[:2], node_args=state.node_args[:2],
                               least=state.least[:2], union_log=())
    assert not audit_derivations(dataclasses.replace(res, state=bare))


def _unclosed(state):
    """The state with its last congruence union dropped, each class renamed
    to its least id once the log is replayed without it, and its last class
    count made the number of those classes: consistent everywhere except
    that two nodes over joined children stay apart."""
    log, terms = state.union_log, state.terms
    last = max(k for k, (_, _, reason) in enumerate(log) if reason == CONGRUENCE)
    log = log[:last] + log[last + 1:]
    parent = list(range(len(terms)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for p, q, _ in log:
        p, q = find(p), find(q)
        parent[max(p, q)] = min(p, q)
    least = tuple(find(i) for i in range(len(terms)))
    counts = state.class_counts[:-1] + (len(set(least)),)
    return dataclasses.replace(state, union_log=log, least=least, class_counts=counts)


def _op_changed(state, op):
    """The state with ``op`` as the operation of the last node that no
    union names, as an end or a step: consistent everywhere except that
    node's operation."""
    named = set()
    for a, b, reason in state.union_log:
        named.update((a, b), *([] if reason == CONGRUENCE else reason[2:]))
    i = max(set(range(len(state.x), len(state.ops))) - named)
    return dataclasses.replace(state, ops=state.ops[:i] + (op,) + state.ops[i + 1:])


def _class_renamed(state, old, new):
    """The state with the class named ``old`` named ``new``: consistent
    everywhere except that name."""
    return dataclasses.replace(state, least=tuple(new if c == old else c for c in state.least))


def test_derivation_audit_refuses_tampered_unstabilized_states():
    """Without a carrier, unit or variety check to fall back on, the
    identity signature check, the congruence closure check, the check of
    each node's operation against the signature, the check that each
    class is named by its lowest id and the checks of the depth and the
    last class count each refuse their tamper alone."""
    state = _band_result().state
    assert audit_derivations(Unstabilized(state))
    # At depth 2 on two generators, some nodes of Band and of BoolGroup
    # are named by no union.
    model = parse_spec(TRAJECTORY_SPEC)
    band, group, band3 = (
        saturate(model.signatures[sig], model.presentation_identities(name), gens(2), depth).state
        for name, sig, depth in (("Band", "Magma", 2), ("BoolGroup", "Monoid", 2),
                                 ("Band", "Magma", 3)))
    assert all(audit_derivations(Unstabilized(s)) for s in (band, group, band3))
    other = ident(MONOID_SIG, m(X, Y), m(Y, X), ("x", "y"))
    singleton = min(c for c in set(band.least) if band.least.count(c) == 1)
    largest = max(sorted(set(band.least)), key=band.least.count)
    for what, tampered in {
        "an identity over another signature added": dataclasses.replace(
            state, identities=state.identities + (other,)),
        "a congruence union dropped, the rest made consistent": _unclosed(state),
        "a node's op outside the signature, the rest made consistent": _op_changed(band, "e"),
        "a node's op of another arity, the rest made consistent": _op_changed(group, "e"),
        # A negative index reads the tuple from its end, so it aliases a
        # real id, here the class's one member.
        "a class named by a negative index": _class_renamed(
            band, singleton, singleton - len(band.ops)),
        "a class named by a later member, the rest made consistent": _class_renamed(
            band, largest, max(i for i, c in enumerate(band.least) if c == largest)),
        "a depth other than the depths processed": dataclasses.replace(band, depth=3),
        # Band's class count is 8 after depths 2 and 3, so only the depth
        # tells a run one depth past its bound from a run to the bound.
        "a run one depth past its bound, claimed at the bound": dataclasses.replace(
            band3, depth=2),
        "a last class count other than the classes": dataclasses.replace(
            band, class_counts=band.class_counts[:-1] + (band.class_counts[-1] + 1,)),
    }.items():
        assert not audit_derivations(Unstabilized(tampered)), what


def _matrix_cases():
    """Every distinct free_variety query of the benchmark and every corpus
    presentation on 0-2 generators at depth 3: 50 saturation runs."""
    model = parse_spec(CORPUS.read_text())
    queries = json.loads((CORPUS.parent / "workloads.json").read_text())["free_variety"]
    cases = {(q["presentation"], q["generators"], q["depth"])
             for q in queries["round"] + queries["warmup"]}
    cases |= {(name, n, 3) for name in model.presentations for n in (0, 1, 2)}
    return model, sorted(cases)


def _engines_left(monkeypatch):
    """The engine of every saturation run, as it is when its state is read."""
    engines = []
    state_of = variety._state

    def recorded(engine, *rest):
        engines.append(engine)
        return state_of(engine, *rest)

    monkeypatch.setattr(variety, "_state", recorded)
    return engines


def _check_canonical_ids(state):
    """The state's ids are in canonical term order, so its terms are sorted,
    and each class is named by its lowest id."""
    terms = state.terms
    assert terms == tuple(sorted(terms, key=atom_key))
    classes: dict = {}
    for i, c in enumerate(state.least):
        classes.setdefault(c, []).append(i)
    assert all(c == members[0] for c, members in classes.items())


def test_ids_are_in_canonical_term_order(monkeypatch):
    """Each run registers its ids in canonical term order and names each
    class by its lowest id, and the height and size the engine keeps per id
    are its term's, on the trajectory presentations and on the 50-case
    matrix."""
    engines = _engines_left(monkeypatch)
    trajectory = parse_spec(TRAJECTORY_SPEC)
    runs = [(trajectory, name, n, 6) for name, n in TRAJECTORY_RESULTS]
    model, cases = _matrix_cases()
    assert len(cases) == 50
    runs += [(model, name, n, depth) for name, n, depth in cases]
    results = []
    for spec, name, n, depth in runs:
        sig = spec.signatures[spec.presentations[name].sig_name]
        results.append(saturate(sig, spec.presentation_identities(name), gens(n), depth))
    assert len(engines) == len(runs)
    for engine, res in zip(engines, results):
        _check_canonical_ids(res.state)
        terms = res.state.terms
        assert engine.height == [t.height for t in terms]
        assert engine.size == [t.size for t in terms]
        members: dict = {}
        for i in range(len(terms)):
            members.setdefault(engine.find(i), []).append(i)
        assert {root: ids[0] for root, ids in members.items()} == engine.rep


def _reference_build(engine, side, g):
    """What ``build`` must return for the side term ``side``, its variables
    bound by ``g``, found by a recursive walk that changes nothing: the ids
    of the side's nodes in post-order, left to right, and how many nodes it
    takes from ``sig_table``.  A node is the node with exactly its
    children, else the node ``sig_table`` files under their roots."""
    steps, by_roots = [], []

    def walk(t):
        if not isinstance(t, Node):
            return g[t.name]
        args = tuple(walk(a) for a in t.args)
        nid = engine.nodes.get((t.op, args))
        if nid is None:
            nid = engine.sig_table[(t.op, tuple(engine.find(a) for a in args))]
            by_roots.append(nid)
        steps.append(nid)
        return nid

    walk(side)
    return steps, len(by_roots)


def test_compiled_sides_build_what_recursive_instantiation_builds(monkeypatch):
    """For every identity instance built, each compiled side returns the ids
    the recursive reference finds for the side term's nodes, in post-order.
    No instance registers a node, which ``saturate``'s universe bound relies
    on, and many steps take a node that ``sig_table`` holds over their
    children's roots."""
    compiled = {}
    compile_side = variety._compile_side

    def recorded(side, deepest):
        out = compile_side(side, deepest)
        compiled[id(out)] = (side, tuple(deepest))
        return out

    built, by_roots = [], []
    build = _Engine.build

    def checked(engine, side, images):
        term, used = compiled[id(side)]
        steps, from_table = _reference_build(engine, term, dict(zip(used, images)))
        before = len(engine.ops)
        got = build(engine, side, images)
        assert got == [*images, *steps]
        assert len(engine.ops) == before
        built.append(got)
        by_roots.append(from_table)
        return got

    monkeypatch.setattr(variety, "_compile_side", recorded)
    monkeypatch.setattr(_Engine, "build", checked)
    model = parse_spec(TRAJECTORY_SPEC)
    for name, n in TRAJECTORY_RESULTS:
        sig = model.signatures[model.presentations[name].sig_name]
        res = saturate(sig, model.presentation_identities(name), gens(n), 6)
        assert audit_derivations(res)
    assert len(built) > 10_000
    assert sum(by_roots) > 1_000


def test_build_registers_nothing():
    """``build`` is a lookup: on a fresh engine no node of m(x1, x2) exists,
    so it raises ``KeyError`` and registers nothing."""
    engine = _Engine(gens(2))
    side = variety._compile_side(m(X, Y), dict.fromkeys(("x", "y"), 0))
    with pytest.raises(KeyError):
        engine.build(side, (0, 1))
    assert len(engine.ops) == 2


def test_build_takes_the_node_filed_under_its_child_roots():
    """Once x1 and x2 are joined, m(x2, x2) misses the exact-children table
    but m(x1, x2) is filed under the same operation and child roots:
    ``build`` returns that node and registers nothing."""
    engine = _Engine(gens(2))
    engine._register(1, 3, "m", (0, 1))
    held = engine.nodes[("m", (0, 1))]
    engine.union(0, 1, CONGRUENCE)
    engine.drain()
    assert ("m", (1, 1)) not in engine.nodes
    registered = len(engine.ops)
    side = variety._compile_side(m(X, X), {"x": 0})
    assert engine.build(side, (1,)) == [1, held]
    assert len(engine.ops) == registered


RANDOM_OPS = (("e", 0), ("u", 1), ("m", 2), ("t", 3))


def _random_terms(sig, height):
    """Terms over ``sig`` and the variables x and y of height at most
    ``height``."""
    leaves = st.sampled_from([X, Y] + [Node(op, ()) for op, k in sig if k == 0])
    if height == 0:
        return leaves
    sub = _random_terms(sig, height - 1)
    return st.one_of(leaves, *[
        st.tuples(*[sub] * k).map(lambda args, op=op: Node(op, args)) for op, k in sig if k
    ])


def _random_saturation(data):
    """The result of saturating a small random presentation (ops of arity
    0-3, 1-3 identities of height at most 2, 0-2 generators, depth at most
    4), or None when the universe is refused."""
    ops = data.draw(st.lists(st.sampled_from(RANDOM_OPS), min_size=1, max_size=4, unique=True))
    sig = Signature(tuple(ops))
    sides = _random_terms(sig, 2)
    pairs = data.draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=3))
    ids = [ident(sig, left, right, ("x", "y")) for left, right in pairs]
    n, depth = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 4))
    try:
        return saturate(sig, ids, gens(n), depth, max_universe=2_000)
    except ResourceLimitError:
        return None


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_presentations_build_every_instance_by_lookup(data):
    """On small random presentations saturation either refuses the universe
    or returns a result the audit accepts: ``build`` never misses a node,
    since only the frontier registers them."""
    res = _random_saturation(data)
    if res is not None:
        assert audit_derivations(res)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_presentations_register_ids_in_canonical_term_order(data):
    """On small random presentations every saturation result's terms are
    sorted in id order and each class is named by its lowest id."""
    res = _random_saturation(data)
    if res is not None:
        _check_canonical_ids(res.state)


def test_components_match_a_reference_depth_walk():
    """Per identity component, the saturation engine's used variables, in
    order, their offsets and the ground height are those a plain depth walk
    over the data terms finds, on the trajectory presentations, the 50-case
    matrix and an identity with a variable that occurs on neither side."""
    trajectory = parse_spec(TRAJECTORY_SPEC)
    runs = [(trajectory, name) for name, _ in TRAJECTORY_RESULTS]
    model, cases = _matrix_cases()
    assert len(cases) == 50
    runs += [(model, name) for name, _, _ in cases]
    presentations = [
        (spec.signatures[spec.presentations[name].sig_name], spec.presentation_identities(name))
        for spec, name in runs
    ]
    unused_y = ident(MAGMA, m(m(X, Z), Z), m(Z, X), ("x", "y", "z"))
    presentations.append((MAGMA, [unused_y]))
    assert tuple(variety._components([unused_y], MAGMA)[0][0].items()) == (("v1", 2), ("v3", 2))
    for sig, ids in presentations:
        got = variety._components(ids, sig)
        want = reference_components(ids)
        assert len(got) == len(want) > 0
        for (deepest, _, _, ground), (used, offsets, _, _, height) in zip(got, want):
            assert tuple(deepest) == used
            assert deepest == offsets
            assert ground == height


def _state_lines(state):
    """What a saturation run decides, one line per item: the registered
    terms in id order, each id's least class member, the identity instances
    that merged classes with their reasons, the operation tables read off
    the certificate (each node's operation over its children's least
    terms, to its own least term), deduplicated and in a canonical order,
    and the class count after each depth.  The congruence entries of the
    union log are left out: their order and pairs depend on the engine's
    filing order, not on the classes."""
    yield from (format_term(t) for t in state.terms)
    yield " ".join(map(str, state.least))
    yield from (
        f"{format_term(state.terms[a])} = {format_term(state.terms[b])} {reason}"
        for a, b, reason in state.union_log if reason != CONGRUENCE
    )
    cells: dict = {}
    for i in range(len(state.x), len(state.ops)):
        args = ",".join(format_term(state.terms[state.least[c]]) for c in state.node_args[i])
        cells.setdefault(state.ops[i], set()).add(
            f"{state.ops[i]}({args}) = {format_term(state.terms[state.least[i]])}")
    for op in sorted(cells):
        yield from sorted(cells[op])
    yield " ".join(map(str, state.class_counts))


# Per case of ``_matrix_cases``: a digest of ``_state_lines``.
MATRIX_RESULTS = {
    ('Band', 0, 3): 'c7757c0896cbfe61',
    ('Band', 1, 3): '2af17537dfd36242',
    ('Band', 1, 6): '2af17537dfd36242',
    ('Band', 2, 3): '1d73ee9009fcd249',
    ('Band', 2, 6): '10e03799f4b3972e',
    ('BoolGroup', 0, 3): '25d84a4ea1eb2888',
    ('BoolGroup', 1, 3): '86087caf2207b176',
    ('BoolGroup', 1, 6): '86087caf2207b176',
    ('BoolGroup', 2, 3): '96c6a334bfb97e68',
    ('BoolGroup', 2, 6): '980aecdb1bcfcf75',
    ('BoolGroup', 3, 6): 'e8506c9fbc653e31',
    ('CommMonoid', 0, 3): 'a9421d08bbd18496',
    ('CommMonoid', 1, 3): '2705e134a534d670',
    ('CommMonoid', 2, 3): '6d992ee6543e54e7',
    ('CommSemigroup', 0, 3): 'c7757c0896cbfe61',
    ('CommSemigroup', 1, 3): 'f270838624fdb603',
    ('CommSemigroup', 1, 5): 'bfd0fc743691b4ee',
    ('CommSemigroup', 2, 3): '4b4b2049823e24de',
    ('DistLat', 0, 3): 'c7757c0896cbfe61',
    ('DistLat', 1, 3): '5facb5a8467ed14a',
    ('DistLat', 1, 6): '23769341d35da599',
    ('DistLat', 2, 3): 'ffddaa9c4dac1c5f',
    ('DistLat', 2, 6): '73e8b525f6627eb8',
    ('LeftZero', 0, 3): 'c7757c0896cbfe61',
    ('LeftZero', 1, 3): '939d63d15fb15559',
    ('LeftZero', 2, 3): '45400d9f3259b5e6',
    ('LeftZero', 4, 6): 'eeaf2eaa28c99608',
    ('MonoidPres', 0, 3): '25d84a4ea1eb2888',
    ('MonoidPres', 1, 3): 'a8da617eb1a7a82e',
    ('MonoidPres', 1, 4): 'db75330103bcc14c',
    ('MonoidPres', 1, 5): '5ad39f8fc8fefc86',
    ('MonoidPres', 2, 3): '3dc6bbf6eecc42ec',
    ('RectBand', 0, 3): 'c7757c0896cbfe61',
    ('RectBand', 1, 3): '2af17537dfd36242',
    ('RectBand', 1, 6): '2af17537dfd36242',
    ('RectBand', 2, 3): 'b2c3caeb2221eb68',
    ('RectBand', 2, 6): 'b2c3caeb2221eb68',
    ('RectBand', 3, 6): '2fb6bed5dcce0543',
    ('Semigroup', 0, 3): 'c7757c0896cbfe61',
    ('Semigroup', 1, 3): '1b4a18b8dd6f6dc2',
    ('Semigroup', 2, 3): 'e6af7453c6c2032f',
    ('Semilattice', 0, 3): 'c7757c0896cbfe61',
    ('Semilattice', 1, 3): '6b375a43b67a715b',
    ('Semilattice', 1, 6): '6b375a43b67a715b',
    ('Semilattice', 2, 3): '67d502d8938f0c62',
    ('Semilattice', 2, 6): '67d502d8938f0c62',
    ('Semilattice', 3, 6): 'ace6b7bf0596a697',
    ('SemilatticeUnit', 0, 3): '867e33846c4d480e',
    ('SemilatticeUnit', 1, 3): 'a1770c59065e29c1',
    ('SemilatticeUnit', 2, 3): '7e4514855cde5c27',
}


def test_matrix_results_are_pinned():
    """Every run of the 50-case matrix registers the same terms, classes,
    identity instances, tables and class counts, and passes the audit, so
    an engine change that moves any of them shows."""
    model, cases = _matrix_cases()
    assert len(cases) == 50
    got = {}
    for name, n, depth in cases:
        sig = model.signatures[model.presentations[name].sig_name]
        res = saturate(sig, model.presentation_identities(name), gens(n), depth)
        assert audit_derivations(res), (name, n, depth)
        got[(name, n, depth)] = _digest(_state_lines(res.state))
    assert got == MATRIX_RESULTS


def test_engine_is_closed_and_sorts_only_what_pools_read(monkeypatch):
    """On the trajectory cases, the 50-case matrix, a presentation with no
    identities and one with a variable of offset 0: when an engine's state
    is read nothing is pending or dirty, and every registered node is filed
    in ``sig_table`` under its operation and its children's current roots,
    in its own class; and every capped sort of an instance pass returns the
    full order of the roots, cut at its height, once per processed depth.
    With no identities, or an offset-0 variable, the cap keeps every root."""
    engines = _engines_left(monkeypatch)
    sorts = []
    least_ids = _Engine.least_ids

    def recorded(engine, height=None):
        got = least_ids(engine, height)
        if height is not None:
            sorts.append((engine, height, got, least_ids(engine)))
        return got

    monkeypatch.setattr(_Engine, "least_ids", recorded)
    trajectory = parse_spec(TRAJECTORY_SPEC)
    runs = [(trajectory, name, n, 6) for name, n in TRAJECTORY_RESULTS]
    model, cases = _matrix_cases()
    assert len(cases) == 50
    runs += [(model, name, n, depth) for name, n, depth in cases]
    results = []
    for spec, name, n, depth in runs:
        sig = spec.signatures[spec.presentations[name].sig_name]
        results.append(saturate(sig, spec.presentation_identities(name), gens(n), depth))
    uncapped = set()
    for ids in ([], [ident(MONOID_SIG, X, e(), ("x",))]):
        results.append(saturate(MONOID_SIG, ids, gens(2), 3))
        uncapped.add(id(engines[-1]))
    assert len(engines) == len(runs) + 2
    for engine, res in zip(engines, results):
        assert sum(owner is engine for owner, *_ in sorts) == len(res.state.class_counts)
    for engine in engines:
        assert not engine.pending and not engine.dirty
        find = engine.find
        for i, args in enumerate(engine.node_args):
            if args is not None:
                filed = engine.sig_table[(engine.ops[i], tuple(find(a) for a in args))]
                assert find(filed) == find(i)
    assert {id(engine) for engine, *_ in sorts} == {id(engine) for engine in engines}
    for engine, height, got, full in sorts:
        assert got == [i for i in full if engine.height[i] <= height]
        if id(engine) in uncapped:
            assert got == full
    assert any(len(got) < len(full) for _, _, got, full in sorts)


def test_engine_retires_only_congruent_duplicates(monkeypatch):
    """On the trajectory cases and the 50-case matrix, when an engine's
    state is read: every live node holds its operation and current child
    roots in ``sig_table`` and is in the parent list of each of those
    roots, every retired node's current key is held by a live node of its
    own class, and no node was filed again after it was retired.  No node
    is retired when it is registered, and each has the height of the depth
    whose frontier registered it."""
    engines = _engines_left(monkeypatch)
    refiled = []
    file = _Engine._file

    def recorded(engine, nid):
        if engine.retired[nid]:
            refiled.append(nid)
        return file(engine, nid)

    # ``saturate`` sorts all the roots, with no height, once per depth, for
    # its frontier.
    depths = {}
    least_ids = _Engine.least_ids

    def counted(engine, height=None):
        if height is None:
            depths[engine] = depths.get(engine, 0) + 1
        return least_ids(engine, height)

    registered, misfiled = [], []
    register = _Engine._register

    def checked(engine, height, size, op, arg_ids):
        nid = len(engine.ops)
        register(engine, height, size, op, arg_ids)
        registered.append(nid)
        depth = depths[engine]
        if engine.retired[nid] or engine.height[nid] != depth or depth != 1 + max(
            (engine.height[a] for a in arg_ids), default=0
        ):
            misfiled.append((op, arg_ids))

    monkeypatch.setattr(_Engine, "_file", recorded)
    monkeypatch.setattr(_Engine, "least_ids", counted)
    monkeypatch.setattr(_Engine, "_register", checked)
    trajectory = parse_spec(TRAJECTORY_SPEC)
    runs = [(trajectory, name, n, 6) for name, n in TRAJECTORY_RESULTS]
    model, cases = _matrix_cases()
    assert len(cases) == 50
    runs += [(model, name, n, depth) for name, n, depth in cases]
    for spec, name, n, depth in runs:
        sig = spec.signatures[spec.presentations[name].sig_name]
        saturate(sig, spec.presentation_identities(name), gens(n), depth)
    assert len(engines) == len(runs)
    assert not refiled
    assert not misfiled and len(registered) > 10_000
    retired_count = 0
    for engine in engines:
        find, retired = engine.find, engine.retired
        assert len(retired) == len(engine.ops)
        parents = {root: set(engine.parents[root]) for root in engine.rep}
        for i, args in enumerate(engine.node_args):
            if args is None:
                continue
            roots = tuple(find(a) for a in args)
            holder = engine.sig_table[(engine.ops[i], roots)]
            assert not retired[holder] and find(holder) == find(i)
            if retired[i]:
                retired_count += 1
            else:
                assert holder == i
                assert all(i in parents[root] for root in roots)
    assert retired_count > 10_000
