import itertools

import pytest

from finalg import (
    FinAlgebra,
    FinMap,
    FinSet,
    NaturalIdentity,
    NaturalTerm,
    Node,
    ResourceLimitError,
    Signature,
    ValidationError,
    Var,
    bundle,
    check_monad_map,
    DAlgebraPair,
    dalg_check,
    em_satisfies,
    em_structures,
    enumerate_algebras,
    enumerate_maps,
    equi_check,
    evaluate,
    format_term,
    from_sigma,
    is_morphism,
    mu_flatten,
    powerset_instance,
    rho_level,
    satisfies,
    saturate,
    stage,
    variety_vs_dalg,
)
from finalg import monadic, terms
from finalg.core import atom_key
from finalg.monadic import (
    dalg_violation,
    domain_signature,
    satisfies_level,
)
from finalg.variety import Stabilized
from conftest import MAGMA, MONOID_SIG, e, ident, m, two_element, v
from oracles import (
    FreeMonadView,
    em_to_algebra,
    fold,
    is_injective,
    satisfies_level_enumerated,
    translate,
    wrap_term,
)

TWO = FinSet(("x", "y"))


def _map_vars(t, f):
    match t:
        case Var(name):
            return f(name)
        case Node(op, args):
            return Node(op, tuple(_map_vars(a, f) for a in args))


# --- free monad: substitution as multiplication ---------------------------


def test_mu_flatten_substitution():
    tt = m(wrap_term(v("x")), wrap_term(m(v("y"), v("x"))))
    assert mu_flatten(MAGMA, TWO, tt) == m(v("x"), m(v("y"), v("x")))


def test_mu_flatten_unit_laws():
    view = FreeMonadView(MAGMA)
    for t in stage(MAGMA, TWO, 2).terms:
        assert view.mu(TWO, wrap_term(t)) == t
        wrapped_vars = _map_vars(t, lambda name: wrap_term(Var(name)))
        assert view.mu(TWO, wrapped_vars) == t


def test_mu_flatten_associativity():
    inner = list(stage(MAGMA, TWO, 1).terms)
    shapes = list(stage(MAGMA, FinSet(("s1", "s2")), 1).terms)
    middles = []
    for shape in shapes:
        for t1, t2 in itertools.islice(itertools.product(inner, repeat=2), 4):
            middles.append(_map_vars(shape, lambda nm: wrap_term(t1 if nm == "s1" else t2)))
    inner_atoms = FinSet(tuple(inner))
    for shape in shapes:
        for m1, m2 in itertools.islice(itertools.product(middles, repeat=2), 6):
            tt2 = _map_vars(shape, lambda nm: wrap_term(m1 if nm == "s1" else m2))
            outer_then_inner = mu_flatten(
                MAGMA, TWO, mu_flatten(MAGMA, inner_atoms, tt2)
            )
            inner_then_outer = mu_flatten(
                MAGMA,
                TWO,
                _map_vars(shape, lambda nm: wrap_term(mu_flatten(MAGMA, TWO, m1 if nm == "s1" else m2))),
            )
            assert outer_then_inner == inner_then_outer


def test_mu_flatten_validates_slots():
    with pytest.raises(ValidationError):
        mu_flatten(MAGMA, TWO, Var("x"))
    with pytest.raises(ValidationError):
        mu_flatten(MAGMA, FinSet(("x",)), wrap_term(v("y")))


# --- rho chain -------------------------------------------------------------


@pytest.fixture(scope="module")
def comm_chain():
    return NaturalTerm(MAGMA, (2,), 1, (m(v("v2"), v("v1")),))


def test_rho_level_unit(comm_chain):
    for k in range(4):
        assert rho_level(comm_chain, k, v("x")) == v("x")


def test_rho_level_one_step(comm_chain):
    elem = Node("c0", (v("x"), v("y")))
    assert rho_level(comm_chain, 1, elem) == m(v("y"), v("x"))


def test_rho_level_two_steps(comm_chain):
    elem = Node("c0", (Node("c0", (v("x"), v("y"))), v("x")))
    assert rho_level(comm_chain, 2, elem) == m(v("x"), m(v("y"), v("x")))


def test_rho_level_zero_rejects_nodes(comm_chain):
    with pytest.raises(ValidationError):
        rho_level(comm_chain, 0, Node("c0", (v("x"), v("y"))))


def test_rho_level_rejects_unknown_component(comm_chain):
    with pytest.raises(ValidationError, match="^unknown domain component 'c1'$"):
        rho_level(comm_chain, 1, Node("c1", (v("x"), v("y"))))


@pytest.mark.parametrize("children", [(v("a"), v("b"), v("c")), (v("a"),)])
def test_rho_level_refuses_a_wrong_number_of_children(comm, children):
    """A domain node is refused unless it has its component's arity: extra
    children are not dropped, and a missing one is not reported as an
    unbound variable of the generating term."""
    with pytest.raises(ValidationError, match="^arity mismatch at 'c0'$"):
        rho_level(comm.lhs, 1, Node("c0", children))


DOZEN = tuple(range(1, 13))
DOZEN_NAMES = [name for name, _ in domain_signature(DOZEN)]
NOT_DOZEN_NAMES = ["c12", "c", "c01", "c00", "c-1", "c+1", "c 1", "c1 ", "c\u0663", "c\u00b2",
                   "C0", "d0", "", "0", 0, None]


@pytest.fixture(scope="module")
def dozen():
    """An identity whose domain has 12 components, ``ci`` of arity i+1 and
    generating term its last variable, and a pair on the one-point magma."""
    last = NaturalTerm(MAGMA, DOZEN, 0, tuple(v(f"v{k}") for k in DOZEN))
    first = NaturalTerm(MAGMA, DOZEN, 0, tuple(v("v1") for _ in DOZEN))
    identity = NaturalIdentity(last, first)
    point = FinAlgebra(MAGMA, FinSet((0,)), {"m": {(0, 0): 0}})
    return identity, DAlgebraPair(point, identity, 1)


def test_every_domain_name_resolves_to_its_component(dozen):
    identity, pair = dozen
    for i, name in enumerate(DOZEN_NAMES):
        node = Node(name, tuple(Var(j) for j in range(i + 1)))
        assert rho_level(identity.lhs, 1, node) == Var(i)
        node = Node(name, (Var(0),) * (i + 1))
        assert pair.fold_along(identity.lhs, node, {}) == 0
        assert pair.fold_along(identity.rhs, node, {}) == 0


@pytest.mark.parametrize("op", NOT_DOZEN_NAMES)
def test_a_name_outside_the_domain_is_refused(dozen, op):
    """Only the names ``domain_signature`` gives are domain operations: no
    index past the last, no other spelling of a number, no other letter."""
    identity, pair = dozen
    node = Node(op, (Var(0),))
    with pytest.raises(ValidationError, match="^unknown domain component "):
        rho_level(identity.lhs, 1, node)
    memo = dict(pair.alpha0)
    with pytest.raises(ValidationError, match="^no operation "):
        pair.alpha0_of(node)
    assert pair.alpha0 == memo
    with pytest.raises(ValidationError, match="^no operation "):
        pair.fold_along(identity.rhs, node, {})


UNARY_INV = ident(Signature((("s", 1),)), Node("s", (Node("s", (v("x"),)),)), v("x"), ("x",))


@pytest.mark.parametrize("chain, bound, error, message", [
    (UNARY_INV.lhs, 128, ResourceLimitError,
     "^term height of translations at bound 128: needs 256, limit is 128$"),
    (UNARY_INV.lhs, 3000, ResourceLimitError,
     "^term height of stage 3000: needs 3000, limit is 128$"),
    (NaturalTerm(MAGMA, (2,), 1, (m(v("v2"), v("v1")),)), 5, ResourceLimitError,
     "^stage 4 over 2 variables: needs 2090918, limit is 1000000$"),
    (UNARY_INV.lhs, -1, ValidationError, "^negative stage index$"),
])
def test_check_monad_map_refuses_before_building_a_stage(monkeypatch, chain, bound, error,
                                                         message):
    """``rho-chain --bound 128`` on s(s(x)) = x is refused from the bound
    alone, and so are an over-large stage and a negative bound: no stage
    of the domain chain is built first."""
    def unbuilt(*args):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(terms, "_stage_terms", unbuilt)
    with pytest.raises(error, match=message):
        check_monad_map(chain, bound, TWO)


def test_rho_chain_compatibility(comm_chain):
    report = check_monad_map(comm_chain, 3, TWO)
    assert report.holds
    assert report.checked > 1500


@pytest.mark.parametrize("bound, checked", [(0, 8), (1, 18), (2, 66), (3, 1560)])
def test_rho_chain_checked_counts(comm_chain, bound, checked):
    """Units per level, one-step elements, then every (j, k, element) pair."""
    report = check_monad_map(comm_chain, bound, TWO)
    assert (report.holds, report.checked, report.failures) == (True, checked, ())


def test_rho_chain_of_signature_injection():
    chain = NaturalTerm(MAGMA, (2,), 1, (m(v("v1"), v("v2")),))

    def rename(t):
        match t:
            case Var(name):
                return Var(name)
            case Node(_, args):
                return Node("m", tuple(rename(a) for a in args))

    for k in range(3):
        for elem in stage(domain_signature(chain.domain), TWO, k).terms:
            assert rho_level(chain, k, elem) == rename(elem)


def test_rho_chain_ternary_compatibility(assoc):
    assert check_monad_map(assoc.lhs, 2, TWO).holds


def test_monad_map_commutes_with_substitution(comm):
    chain = comm.lhs
    gsig = domain_signature(chain.domain)
    assert translate(chain, v("x")) == v("x")
    inner = list(stage(gsig, TWO, 1).terms)
    shapes = stage(gsig, FinSet(("s1", "s2")), 1).terms
    for shape in shapes:
        for t1, t2 in itertools.product(inner, repeat=2):
            tt = _map_vars(shape, lambda nm: wrap_term(t1 if nm == "s1" else t2))
            lhs = translate(chain, mu_flatten(gsig, TWO, tt))
            slots_translated = _map_vars(
                tt, lambda inner_term: wrap_term(translate(chain, inner_term))
            )
            rhs = mu_flatten(MAGMA, TWO, translate(chain, slots_translated))
            assert lhs == rhs


# --- level satisfaction and the identity/level equivalence -----------------


def test_level_routes_agree_binary(comm):
    for alg in enumerate_algebras(MAGMA, FinSet((0, 1))):
        for k in (1, 2, 3):
            assert satisfies_level(alg, comm, k) == satisfies_level_enumerated(alg, comm, k)


def test_level_routes_agree_ternary(assoc, or_magma, left_projection):
    for alg in (or_magma, left_projection):
        for k in (1, 2):
            assert satisfies_level(alg, assoc, k) == satisfies_level_enumerated(alg, assoc, k)


def test_equi_commutativity(comm):
    for k in (1, 2, 3):
        assert equi_check(comm, k, 2).equal


def test_equi_associativity(assoc):
    for k in (1, 2, 3):
        assert equi_check(assoc, k, 2).equal


def test_equi_tautology():
    taut = ident(MAGMA, m(v("x"), v("y")), m(v("x"), v("y")), ("x", "y"))
    assert equi_check(taut, 2, 2).equal
    for alg in enumerate_algebras(MAGMA, FinSet((0, 1))):
        assert satisfies_level(alg, taut, 3)


def test_equi_level_one_matches_direct_satisfaction(comm):
    for alg in enumerate_algebras(MAGMA, FinSet((0, 1))):
        assert satisfies_level(alg, comm, 1) == satisfies(alg, comm)


def test_equi_evaluates_one_algebra_per_isomorphism_orbit(idem, monkeypatch):
    """Magmas on 1, 2 and 3 points fall into 1 + 10 + 3330 orbits; the
    comparison evaluates one algebra from each, while ``checked`` still
    counts all 19,700."""
    calls = []

    def counting(alg, ident):
        calls.append(len(alg.carrier))
        return satisfies(alg, ident)

    monkeypatch.setattr(monadic, "satisfies", counting)
    cmp = equi_check(idem, 1, 3)
    assert (cmp.equal, cmp.checked) == (True, 19700)
    assert [calls.count(size) for size in (1, 2, 3)] == [1, 10, 3330]


def test_equi_compares_the_closures_with_the_generated_check():
    """A fault in the closures that ``satisfies_level`` folds shows up as a
    witness: here the right side folds the left side's closure, so every
    magma passes the level check while the generated check still refuses
    the non-commutative ones."""
    comm = from_sigma(MAGMA, m(v("x"), v("y")), m(v("y"), v("x")), FinSet(("x", "y")))
    vars(comm.rhs)["compiled"] = comm.lhs.compiled
    cmp = equi_check(comm, 2, 2)
    assert (cmp.equal, cmp.checked) == (False, 4)
    assert cmp.witness is not None and not satisfies(cmp.witness, comm)
    assert satisfies_level(cmp.witness, comm, 2)


# --- evaluation is an Eilenberg-Moore structure ----------------------------


def test_evaluation_is_em_structure(or_magma, left_projection):
    for alg in (or_magma, left_projection):
        binding = {a: a for a in alg.carrier}
        for a in alg.carrier:
            assert evaluate(alg, Var(a), binding) == a
        inner = stage(MAGMA, alg.carrier, 1).terms
        shapes = stage(MAGMA, FinSet(("s1", "s2")), 1).terms
        for shape in shapes:
            for t1, t2 in itertools.product(inner, repeat=2):
                tt = _map_vars(shape, lambda nm: wrap_term(t1 if nm == "s1" else t2))
                flat = mu_flatten(MAGMA, alg.carrier, tt)
                collapsed = _map_vars(
                    shape,
                    lambda nm: Var(evaluate(alg, t1 if nm == "s1" else t2, binding)),
                )
                assert evaluate(alg, flat, binding) == evaluate(alg, collapsed, binding)


# --- power-set monad and Eilenberg-Moore structures ------------------------


def test_powerset_shape():
    base = FinSet((0, 1))
    inst = powerset_instance(base)
    assert len(inst.object) == 4
    assert inst.eta.table[0] == (0,)
    assert inst.mu_element(((0,), (0, 1))) == (0, 1)


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_powerset_unit_laws(size):
    inst = powerset_instance(FinSet(tuple(range(size))))
    for s in inst.object:
        assert inst.mu_element((s,)) == s
        assert inst.mu_element(tuple((a,) for a in s)) == s


@pytest.mark.parametrize("size", [0, 1, 2])
def test_powerset_multiplication_associative(size):
    inst = powerset_instance(FinSet(tuple(range(size))))
    double = powerset_instance(inst.object)
    triple = powerset_instance(double.object)
    for fam in triple.object:
        outer_first = inst.mu_element(double.mu_element(fam))
        mapped = tuple(
            sorted({inst.mu_element(f) for f in fam}, key=atom_key)
        )
        assert inst.mu_element(mapped) == outer_first


def test_power_sets_are_bounded_before_they_are_built(monkeypatch):
    """Both the subsets of a base and the families of subsets that
    ``em_satisfies`` folds over are refused before any is built."""
    inst = powerset_instance(FinSet(tuple(range(5))))
    alpha = FinMap(inst.object, inst.base, {s: 0 for s in inst.object})

    def unbuilt(*args):
        raise AssertionError("subsets built before the bound")

    monkeypatch.setattr(itertools, "combinations", unbuilt)
    with pytest.raises(ResourceLimitError, match="subsets of 21 atoms: needs 2097152"):
        powerset_instance(FinSet(tuple(range(21))))
    with pytest.raises(ResourceLimitError, match="subsets of 32 atoms: needs 4294967296"):
        em_satisfies(inst, alpha)


def test_em_satisfies_join():
    base = FinSet((0, 1))
    inst = powerset_instance(base)
    join_max = FinMap(inst.object, base, {(): 0, (0,): 0, (1,): 1, (0, 1): 1})
    assert em_satisfies(inst, join_max)


def test_em_rejects_unit_violation():
    base = FinSet((0, 1))
    inst = powerset_instance(base)
    bad = FinMap(inst.object, base, {(): 0, (0,): 1, (1,): 1, (0, 1): 1})
    assert not em_satisfies(inst, bad)


def test_em_rejects_carrier_mismatch():
    inst = powerset_instance(FinSet((0, 1)))
    other = powerset_instance(FinSet((0, 1, 2)))
    with pytest.raises(ValidationError):
        em_satisfies(inst, other.eta)


def test_exactly_two_em_structures():
    inst = powerset_instance(FinSet((0, 1)))
    structs = em_structures(inst)
    assert len(structs) == 2
    derived = {
        tuple(sorted(em_to_algebra(inst, alpha).tables["m"].items()))
        + tuple(sorted(em_to_algebra(inst, alpha).tables["e"].items()))
        for alpha in structs
    }
    or_with_zero = two_element([0, 1, 1, 1], unit=0)
    and_with_one = two_element([0, 0, 0, 1], unit=1)
    expected = {
        tuple(sorted(alg.tables["m"].items())) + tuple(sorted(alg.tables["e"].items()))
        for alg in (or_with_zero, and_with_one)
    }
    assert derived == expected


def test_em_structures_are_the_free_semilattice_shapes(semilattice_unit_ids):
    inst = powerset_instance(FinSet((0, 1)))
    res = saturate(MONOID_SIG, semilattice_unit_ids, FinSet(("x1",)), 6)
    assert isinstance(res, Stabilized)
    for alpha in em_structures(inst):
        alg = em_to_algebra(inst, alpha)
        assert all(satisfies(alg, i) for i in semilattice_unit_ids)
        bijections = [
            h
            for h in enumerate_maps(res.algebra.carrier, alg.carrier)
            if is_injective(h) and is_morphism(res.algebra, alg, h)
        ]
        assert len(bijections) == 1


# --- algebras for the two-arrow diagram of monads --------------------------


# ``dalg_violation`` at bound 2 on the 16 two-point magmas, in
# ``enumerate_algebras`` order (tables m(0,0) m(0,1) m(1,0) m(1,1) counting
# up from 0000), as the rendered witness or None.  The values come from the
# earlier check that evaluated both translations of every element.
N = None
DALG_WITNESSES = {
    "comm": (N, N, "c0(0,1)", "c0(0,1)", "c0(0,1)", "c0(0,1)", N, N,
             N, N, "c0(0,1)", "c0(0,1)", "c0(0,1)", "c0(0,1)", N, N),
    "idem": ("c0(1)", N, "c0(1)", N, "c0(1)", N, "c0(1)", N,
             "c0(0)", "c0(0)", "c0(0)", "c0(0)", "c0(0)", "c0(0)", "c0(0)", "c0(0)"),
    "lzero": ("c0(1,0)", "c0(1,0)", "c0(1,1)", N, "c0(0,1)", "c0(0,1)", "c0(0,1)", "c0(0,1)",
              "c0(0,0)", "c0(0,0)", "c0(0,0)", "c0(0,0)", "c0(0,0)", "c0(0,0)", "c0(0,0)",
              "c0(0,0)"),
    "assoc": (N, N, "c0(1,0,1)", N, "c0(1,0,1)", N, N, N,
              "c0(0,0,1)", N, "c0(0,0,0)", "c0(0,0,0)", "c0(0,0,0)", "c0(0,0,0)", "c0(0,0,1)",
              N),
    "rect": (N, "c0(1,0,1)", "c0(1,1,0)", N, "c0(0,1,1)", N, "c0(0,1,0)", "c0(0,1,0)",
             "c0(0,0,0)", "c0(0,0,0)", N, "c0(0,0,1)", "c0(0,0,0)", "c0(0,0,0)", "c0(0,0,1)", N),
    "taut": (N,) * 16,
    # The bundle's domain has two components, so its witnesses fold
    # through c1 (the idem part) as well as c0.
    "comm+idem": ("c1(1)", N, "c1(1)", "c0(0,1)", "c1(1)", "c0(0,1)", "c1(1)", N,
                  "c1(0)", "c1(0)", "c1(0)", "c1(0)", "c1(0)", "c1(0)", "c1(0)", "c1(0)"),
}


@pytest.mark.parametrize("name", list(DALG_WITNESSES))
def test_dalg_witnesses_on_two_point_magmas(name, request):
    if name == "taut":
        identity = ident(MAGMA, m(v("x"), v("y")), m(v("x"), v("y")), ("x", "y"))
    elif name == "comm+idem":
        identity = bundle([request.getfixturevalue("comm"), request.getfixturevalue("idem")])
    else:
        identity = request.getfixturevalue(name)
    two = FinSet((0, 1))
    elements = stage(domain_signature(identity.domain), two, 2).terms
    translations = [(t, translate(identity.lhs, t), translate(identity.rhs, t)) for t in elements]
    binding = {a: a for a in two}
    witnesses = []
    for alg in enumerate_algebras(MAGMA, two):
        pair = DAlgebraPair(alg, identity, 2)
        witness = dalg_violation(pair)
        witnesses.append(None if witness is None else format_term(witness))
        assert dalg_check(pair) == (witness is None)
        # Each fold along an arrow is the algebra's value of the translation.
        via_g: dict = {}
        for t, f_image, g_image in translations:
            assert pair.alpha0_of(t) == fold(alg, f_image, binding)
            assert pair.fold_along(identity.rhs, t, via_g) == fold(alg, g_image, binding)
    assert tuple(witnesses) == DALG_WITNESSES[name]


def test_dalg_symmetric_vs_projection(comm, or_magma, left_projection):
    assert dalg_check(DAlgebraPair(or_magma, comm, 2))
    witness = dalg_violation(DAlgebraPair(left_projection, comm, 2))
    assert witness is not None
    assert translate(comm.lhs, witness) != translate(comm.rhs, witness)


def test_dalg_rejects_algebra_of_another_signature(comm):
    monoid = two_element([0, 1, 1, 1], unit=0)
    with pytest.raises(ValidationError, match="^algebra signature differs from the diagram$"):
        DAlgebraPair(monoid, comm, 2)


def test_dalg_rejects_corrupted_structure_map(comm, or_magma):
    pair = DAlgebraPair(or_magma, comm, 2)
    with pytest.raises(ValidationError, match="unbound variable 7"):
        pair.alpha1_of(Var(7))
    pair.alpha1[Var(0)] = 1
    with pytest.raises(ValidationError):
        dalg_check(pair)
    # Values outside the carrier have no table entry; they are refused as
    # a law violation, not a KeyError, on either side and at any depth.
    tampered = [("alpha1", Var(0)), ("alpha1", m(Var(1), Var(1))),
                ("alpha0", Node("c0", (Var(1), Var(1))))]
    for memo, key in tampered:
        pair = DAlgebraPair(or_magma, comm, 2)
        getattr(pair, memo)[key] = 7
        with pytest.raises(ValidationError):
            dalg_check(pair)


@pytest.mark.parametrize("side, term", [
    ("alpha1", Node("zz", ())),
    ("alpha1", Node("m", (Var(0),))),
    ("alpha1", Node("m", (Var(0), Var(1), Var(1)))),
    ("alpha0", Node("zz", ())),
    ("alpha0", Node("c0", (Var(0),))),
    ("alpha0", Node("c0", (Var(0), Var(1), Var(1)))),
    ("alpha1", "x"),
    ("alpha1", Node("m", (Var(0), "y"))),
    ("alpha0", Node("c0", (Var(0), "y"))),
])
def test_dalg_refuses_a_node_outside_its_signature(comm, or_magma, side, term):
    """A node with an unknown operation or the wrong number of arguments,
    and a non-term at the top or as a child, is refused on either side,
    and nothing is memoised."""
    pair = DAlgebraPair(or_magma, comm, 2)
    memo = dict(getattr(pair, side))
    with pytest.raises(ValidationError):
        getattr(pair, f"{side}_of")(term)
    assert getattr(pair, side) == memo


def test_fold_along_refuses_a_term_outside_the_diagram(comm, idem, or_magma):
    """Only the pair's own two arrows are folded along: an equal natural
    term that is another object, or another identity's, is refused."""
    pair = DAlgebraPair(or_magma, comm, 2)
    copy = NaturalTerm(comm.lhs.sig, comm.lhs.domain, comm.lhs.arity, comm.lhs.data)
    for nt in (idem.lhs, copy):
        with pytest.raises(ValidationError, match="^natural term is not an arrow of the pair's"):
            pair.fold_along(nt, Node("c0", (Var(0),)), {})


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_dalg_refuses_a_wrong_fold_at_the_top_stage(comm, or_magma, bound):
    """The laws are checked on every node of the pair's top stage (stage 1
    at bound 0): an in-carrier but wrong fold there is refused."""
    top = max(bound, 1)
    sides = (("alpha1", or_magma.sig), ("alpha0", domain_signature(comm.domain)))
    for memo, sig in sides:
        pair = DAlgebraPair(or_magma, comm, bound)
        node = next(t for t in stage(sig, or_magma.carrier, top).terms if t.height == top)
        value = getattr(pair, f"{memo}_of")(node)
        getattr(pair, memo)[node] = 1 - value
        with pytest.raises(ValidationError, match="violates the monad laws"):
            dalg_check(pair)


def test_variety_vs_dalg_commutativity(comm):
    assert variety_vs_dalg(comm, 2, 2).equal


def test_variety_vs_dalg_associativity(assoc):
    assert variety_vs_dalg(assoc, 2, 2).equal
