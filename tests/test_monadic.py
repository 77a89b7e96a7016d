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
from finalg.identities import canonical_vars
from finalg.monadic import (
    _subsets,
    dalg_violation,
    domain_signature,
    satisfies_level,
)
from finalg.variety import Stabilized
from conftest import MAGMA, MONOID_SIG, e, ident, m, two_element, v
from oracles import (
    FreeMonadView,
    dalg_violation_full_walk,
    em_to_algebra,
    fold,
    is_injective,
    reference_violation,
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
    """A natural term whose domain has 12 components, ``ci`` of arity i+1
    and generating term its last variable."""
    return NaturalTerm(MAGMA, DOZEN, 0, tuple(v(f"v{k}") for k in DOZEN))


def test_every_domain_name_resolves_to_its_component(dozen):
    for i, name in enumerate(DOZEN_NAMES):
        node = Node(name, tuple(Var(j) for j in range(i + 1)))
        assert rho_level(dozen, 1, node) == Var(i)


@pytest.mark.parametrize("op", NOT_DOZEN_NAMES)
def test_a_name_outside_the_domain_is_refused(dozen, op):
    """Only the names ``domain_signature`` gives are domain operations: no
    index past the last, no other spelling of a number, no other letter."""
    node = Node(op, (Var(0),))
    with pytest.raises(ValidationError, match="^unknown domain component "):
        rho_level(dozen, 1, node)


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


@pytest.mark.parametrize("bound, checked", [(0, 2), (1, 6), (2, 38), (3, 1446)])
def test_rho_chain_checked_counts(comm_chain, bound, checked):
    """One law per element of stage ``bound``: its size, 2, 6, 38, 1446."""
    report = check_monad_map(comm_chain, bound, TWO)
    assert (report.holds, report.checked, report.failures) == (True, checked, ())


@pytest.mark.parametrize("name, checked, failed", [
    ("comm", 38, 28), ("assoc", 1002, 896), ("rect", 1002, 896),
])
def test_check_monad_map_reports_a_wrong_node_translation(reversing_children, request, name,
                                                         checked, failed):
    chain = request.getfixturevalue(name).lhs
    report = check_monad_map(chain, 2, TWO)
    assert (report.holds, report.checked, len(report.failures)) == (False, checked, failed)
    assert {kind for kind, _, _ in report.failures} == {"multiplication"}
    _, height, elem = report.failures[0]
    assert height == elem.height == 2


def test_check_monad_map_reports_a_wrong_variable_translation(monkeypatch, comm_chain):
    real = monadic._translate

    def faulty(table, k, elem):
        return Var("z") if type(elem) is Var else real(table, k, elem)

    monkeypatch.setattr(monadic, "_translate", faulty)
    report = check_monad_map(comm_chain, 2, TWO)
    assert (report.holds, report.checked) == (False, 38)
    assert report.failures == (("unit", 0, v("x")), ("unit", 0, v("y")))


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


@pytest.mark.parametrize("atoms", [
    (3, 1, 0, 2),
    ("b", 10, "a", 2, "c"),
    ((1, "x"), "a", 0, (0,), ("b", 2), 5),
    (Var("y"), (0, Var("x")), "a", 1),
], ids=["ints", "ints-and-strings", "tuples", "terms"])
def test_subsets_are_the_checked_set_of_every_combination(atoms):
    """Sorting the subsets of a canonical base by their elements' positions
    gives the order and positions the checked ``FinSet`` gives them."""
    base = FinSet(atoms)
    checked = FinSet(tuple(c for r in range(len(base) + 1)
                           for c in itertools.combinations(base.elements, r)))
    subsets = _subsets(base)
    assert subsets.elements == checked.elements
    assert dict(subsets.position) == dict(checked.position)


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


@pytest.mark.parametrize("size, valid", [(0, 0), (1, 1), (2, 2), (3, 6)])
def test_em_structures_are_the_enumerated_maps_that_pass_the_laws(size, valid):
    """The search over the cells the unit law leaves open finds exactly the
    maps that plain enumeration and ``em_satisfies`` accept, with the same
    tables in the same order."""
    inst = powerset_instance(FinSet(tuple(str(i) for i in range(size))))
    expected = [alpha for alpha in enumerate_maps(inst.object, inst.base)
                if em_satisfies(inst, alpha)]
    got = em_structures(inst)
    assert [list(alpha.table.items()) for alpha in got] == [
        list(alpha.table.items()) for alpha in expected]
    assert got == expected
    assert len(got) == valid
    assert all(alpha.dom is inst.object and alpha.cod is inst.base for alpha in got)


def test_em_structures_refuses_four_points_from_the_map_count():
    """4^16 maps are refused before any family or map is built."""
    inst = powerset_instance(FinSet(("0", "1", "2", "3")))
    with pytest.raises(ResourceLimitError, match=(
            "^map enumeration from 16 into 4 atoms: needs 4294967296, limit is 1000000$")):
        em_structures(inst)


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


TAUT = ident(MAGMA, m(v("x"), v("y")), m(v("x"), v("y")), ("x", "y"))

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


UNARY = Signature((("s", 1),))


def _dalg_identity(name, request):
    """The identity a dalg test case names: a conftest fixture, the
    tautology, the bundle of comm and idem, or ``s(s(x)) = x``."""
    if name == "taut":
        return TAUT
    if name == "comm+idem":
        return bundle([request.getfixturevalue("comm"), request.getfixturevalue("idem")])
    if name == "s(s(x))=x":
        x = v("x")
        return ident(UNARY, Node("s", (Node("s", (x,)),)), x, ("x",))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", list(DALG_WITNESSES))
def test_dalg_witnesses_on_two_point_magmas(name, request):
    identity = _dalg_identity(name, request)
    witnesses = []
    for alg in enumerate_algebras(MAGMA, FinSet((0, 1))):
        witness = dalg_violation(alg, identity, 2)
        witnesses.append(None if witness is None else format_term(witness))
        assert dalg_check(alg, identity, 2) == (witness is None)
    assert tuple(witnesses) == DALG_WITNESSES[name]


def _dalg_cases():
    """(identity name, largest carrier size) for the stage-1 cross-check."""
    return [(name, 2) for name in ("comm", "assoc", "idem", "lzero", "taut", "comm+idem")] + [
        ("s(s(x))=x", 3)
    ]


@pytest.mark.parametrize("name, max_size", _dalg_cases())
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_dalg_violation_matches_the_full_stage_walk(name, max_size, bound, request):
    """Comparing the arrows on stage 1 gives the full walk's witness, or
    None, on every algebra up to ``max_size`` points; a stage over the
    size bound is refused by both."""
    identity = _dalg_identity(name, request)
    checked = 0
    for size in range(1, max_size + 1):
        for alg in enumerate_algebras(identity.sig, FinSet(tuple(range(size)))):
            try:
                witness = dalg_violation(alg, identity, bound)
            except ResourceLimitError:
                assert (name, bound) == ("assoc", 3)
                with pytest.raises(ResourceLimitError):
                    dalg_violation_full_walk(alg, identity, bound)
                continue
            assert witness == dalg_violation_full_walk(alg, identity, bound)
            checked += 1
    assert checked or (name, bound) == ("assoc", 3)


def test_dalg_symmetric_vs_projection(comm, or_magma, left_projection):
    assert dalg_check(or_magma, comm, 2)
    witness = dalg_violation(left_projection, comm, 2)
    assert witness is not None
    assert translate(comm.lhs, witness) != translate(comm.rhs, witness)


@pytest.mark.parametrize("k", range(12))
def test_dalg_reads_each_component_by_its_whole_index(comm, left_projection, k):
    """With 12 components, stage 1 lists c0, c1, c10, c11, c2, ..., c9 as
    strings sort; only component k, comm, fails on the left projection, so
    the witness is a node of ck, not of a component whose name shares a
    digit with it (c1 and c11 for k = 10)."""
    parts = [TAUT] * 12
    parts[k] = comm
    identity = bundle(parts)
    witness = dalg_violation(left_projection, identity, 2)
    assert witness == Node(f"c{k}", (Var(0), Var(1)))
    assert dalg_violation_full_walk(left_projection, identity, 2) == witness


@pytest.mark.parametrize("name, max_size", _dalg_cases())
@pytest.mark.parametrize("bound", [1, 2])
def test_dalg_algebras_are_the_variety(name, max_size, bound, request):
    """On every algebra up to ``max_size`` points, the check finds a
    witness exactly when some component of the identity fails under some
    assignment of the carrier, and a witness ``ci(a1..ak)`` names such a
    failure: component i with its variables bound to a1..ak."""
    identity = _dalg_identity(name, request)
    ops = [op for op, _ in domain_signature(identity.domain)]
    for size in range(1, max_size + 1):
        for alg in enumerate_algebras(identity.sig, FinSet(tuple(range(size)))):
            witness = dalg_violation(alg, identity, bound)
            assert (witness is None) == (reference_violation(alg, identity) is None)
            if witness is not None:
                i = ops.index(witness.op)
                binding = dict(zip(canonical_vars(identity.domain[i]),
                                   (a.name for a in witness.args)))
                assert fold(alg, identity.lhs.data[i], binding) != fold(
                    alg, identity.rhs.data[i], binding)


UNARY_AS_MAGMA = Signature((("m", 1),))


@pytest.mark.parametrize("algebra", [
    two_element([0, 1, 1, 1], unit=0),
    FinAlgebra(Signature((("n", 2),)), FinSet((0, 1)),
               {"n": {(a, b): a for a in (0, 1) for b in (0, 1)}}),
    FinAlgebra(UNARY_AS_MAGMA, FinSet((0, 1)), {"m": {(0,): 1, (1,): 0}}),
    FinAlgebra(Signature(()), FinSet((0, 1)), {}),
], ids=["extra-op", "other-name", "other-arity", "no-op"])
@pytest.mark.parametrize("bound", [0, 2, -1, 300])
def test_dalg_rejects_algebra_of_another_signature(comm, algebra, bound):
    """An algebra over another signature is refused first, before the
    bound is looked at: a negative or too-deep bound gives the same
    message as a valid one."""
    with pytest.raises(ValidationError, match="^algebra signature differs from the diagram$"):
        dalg_violation(algebra, comm, bound)


def test_dalg_walks_stage_1_once(monkeypatch, comm, or_magma, left_projection):
    """Finding a witness walks stage 1 once: the witness is built from the
    walk's first difference, not from a second walk after the check."""
    calls = []
    real = monadic._first_difference

    def counted(alg, identity):
        calls.append(alg)
        return real(alg, identity)

    monkeypatch.setattr(monadic, "_first_difference", counted)
    assert dalg_violation(left_projection, comm, 2) == Node("c0", (Var(0), Var(1)))
    assert calls == [left_projection]
    assert not dalg_check(left_projection, comm, 2)
    assert dalg_violation(or_magma, comm, 2) is None
    assert dalg_violation(left_projection, comm, 0) is None
    assert calls == [left_projection, left_projection, or_magma]


def test_dalg_accepts_an_equal_signature_that_is_another_object(comm, left_projection):
    """Signatures are compared by value: the left projection over a fresh
    copy of the magma signature gives the same witness as over MAGMA."""
    copy = FinAlgebra(Signature((("m", 2),)), left_projection.carrier, left_projection.tables)
    assert copy.sig is not comm.sig
    assert dalg_violation(copy, comm, 2) == dalg_violation(left_projection, comm, 2) \
        == Node("c0", (Var(0), Var(1)))


FLIP = FinAlgebra(UNARY, FinSet((0, 1)), {"s": {(0,): 1, (1,): 0}})


def _stage_1_at_most(monkeypatch):
    """Make building any stage above 1 fail."""
    real = terms._stage_terms

    def guarded(sig, x, n):
        if n > 1:
            raise AssertionError(f"stage {n} was built")
        return real(sig, x, n)

    monkeypatch.setattr(terms, "_stage_terms", guarded)


def test_dalg_builds_no_stage(monkeypatch, comm, assoc, left_projection):
    """The check builds no stage of either chain: with every stage build
    refused, it gives the witnesses and answers it gives otherwise, and
    the witnesses at bound 2 are the pinned nodes of stage 1."""
    twelve = bundle([TAUT] * 10 + [comm, TAUT])

    def answers():
        return (variety_vs_dalg(comm, 2, 2), variety_vs_dalg(assoc, 2, 2),
                dalg_violation(FLIP, UNARY_INV, 128), dalg_check(FLIP, UNARY_INV, 128),
                dalg_violation(left_projection, comm, 2),
                dalg_violation(left_projection, twelve, 2))

    expected = answers()

    def unbuilt(*args):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(terms, "_stage_terms", unbuilt)
    assert answers() == expected
    assert expected[2:] == (None, True, Node("c0", (Var(0), Var(1))),
                            Node("c10", (Var(0), Var(1))))


@pytest.mark.parametrize("identity, bound, error, message", [
    ("assoc", 3, ResourceLimitError,
     "^stage 3 over 2 variables: needs 1006012010, limit is 1000000$"),
    # The domain chain is over its limit at stage 3 too; the signature is
    # checked first.
    ("assoc", 4, ResourceLimitError,
     "^stage 4 over 2 variables: needs 2090918, limit is 1000000$"),
    ("s(s(x))=x", 300, ResourceLimitError,
     "^term height of stage 300: needs 300, limit is 128$"),
    ("s(s(x))=x", -1, ValidationError, "^negative stage index$"),
])
def test_dalg_refuses_from_the_sizes_alone(monkeypatch, or_magma, identity, bound, error,
                                          message, request):
    """An over-large or too-deep stage, and a negative bound, are refused
    from the stage sizes before any stage above 1 is built."""
    if identity == "s(s(x))=x":
        algebra, identity = FLIP, UNARY_INV
    else:
        algebra, identity = or_magma, request.getfixturevalue(identity)
    _stage_1_at_most(monkeypatch)
    with pytest.raises(error, match=message):
        dalg_violation(algebra, identity, bound)


WIDE = Signature((("w", 20),))


@pytest.mark.parametrize("identity, message", [
    # 20 variables: the domain chain's stage 1 over 2 points is 2^20 + 2.
    (NaturalIdentity(NaturalTerm(MAGMA, (20,), 1, (m(v("v1"), v("v2")),)),
                     NaturalTerm(MAGMA, (20,), 1, (m(v("v2"), v("v1")),))),
     "^stage 1 over 2 variables: needs 1048578, limit is 1000000$"),
    # A 20-ary operation: the signature's stage 1 is refused first.
    (NaturalIdentity(NaturalTerm(WIDE, (21,), 0, (v("v1"),)),
                     NaturalTerm(WIDE, (21,), 0, (v("v2"),))),
     "^stage 1 over 2 variables: needs 1048578, limit is 1000000$"),
], ids=["domain", "signature"])
def test_dalg_at_bound_0_refuses_an_over_large_stage_1(monkeypatch, identity, message):
    """At bound 0 the sizes of stage 1 are still checked, so an over-large
    stage 1 is refused, before any stage is built."""
    sig = identity.sig
    algebra = FinAlgebra._trusted(sig, FinSet((0, 1)), tuple(
        (0,) * 2**arity for _, arity in sig))

    def unbuilt(*args):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(terms, "_stage_terms", unbuilt)
    with pytest.raises(ResourceLimitError, match=message):
        dalg_violation(algebra, identity, 0)


def test_variety_vs_dalg_commutativity(comm):
    assert variety_vs_dalg(comm, 2, 2).equal


def test_variety_vs_dalg_associativity(assoc):
    assert variety_vs_dalg(assoc, 2, 2).equal


def test_variety_vs_dalg_checks_the_stage_bounds_once_per_size(monkeypatch, comm):
    """The refusals depend only on the carrier size, so they are checked
    at each size's first algebra, over the signature and the domain ops:
    4 checks for 2 sizes, not 2 per orbit representative."""
    calls = []
    real = monadic._stage_bounds

    def counted(sig, x, n, *rest):
        calls.append((sig, len(x), n))
        return real(sig, x, n, *rest)

    monkeypatch.setattr(monadic, "_stage_bounds", counted)
    assert variety_vs_dalg(comm, 2, 2).equal
    assert calls == [(MAGMA, 1, 2), (domain_signature((2,)), 1, 2),
                     (MAGMA, 2, 2), (domain_signature((2,)), 2, 2)]


# 13 variables: the domain chain's stage 1 is 2^13 + 2 = 8,194 terms on
# 2 points and 3^13 + 3 = 1,594,326 on 3, over the stage limit.
THIRTEEN = FinSet(tuple(f"x{i:02d}" for i in range(13)))


def test_variety_vs_dalg_returns_a_witness_before_a_larger_size_is_refused():
    """The check of a size is made at its first algebra, so a witness on 2
    points is found before 3 points could be refused."""
    x, y = Var("x00"), Var("x01")
    found = variety_vs_dalg(from_sigma(MAGMA, m(x, y), m(y, x), THIRTEEN), 3, 0)
    assert not found.equal
    assert len(found.witness.carrier) == 2


def test_variety_vs_dalg_refuses_a_size_at_its_first_algebra():
    """With no witness, the size whose domain stage 1 is over the limit is
    refused with ``dalg_check``'s message."""
    x, y = Var("x00"), Var("x01")
    trivial = from_sigma(MAGMA, m(x, y), m(x, y), THIRTEEN)
    with pytest.raises(ResourceLimitError,
                       match="^stage 1 over 3 variables: needs 1594326, limit is 1000000$"):
        variety_vs_dalg(trivial, 3, 0)


def test_a_negative_level_is_refused(comm):
    left_projection = two_element((0, 0, 1, 1))
    assert not satisfies(left_projection, comm)
    assert satisfies_level(left_projection, comm, 0)
    with pytest.raises(ValidationError, match="level must be non-negative, got -1"):
        satisfies_level(left_projection, comm, -1)
