import pytest

from finalg import (
    FinSet,
    NaturalIdentity,
    NaturalTerm,
    ReprF,
    SumF,
    ValidationError,
    bundle,
    enumerate_algebras,
    equivalent_upto,
    from_sigma,
    raise_arity,
    satisfies,
)
from finalg.identities import canonical_vars, violation
from conftest import MAGMA, MONOID_SIG, e, ident, m, v
from oracles import domain_expr, reference_violation, satisfies_transform


def test_canonical_vars():
    assert canonical_vars(3) == ("v1", "v2", "v3")


def test_natural_term_validation():
    with pytest.raises(ValidationError):
        NaturalTerm(MAGMA, (2,), 0, (m(v("v1"), v("v2")),))
    with pytest.raises(ValidationError):
        NaturalTerm(MAGMA, (1,), 1, (m(v("v1"), v("v2")),))
    with pytest.raises(ValidationError):
        NaturalTerm(MAGMA, (1, 2), 1, (v("v1"),))


def test_identity_normalizes_arity_couple():
    unit_law = from_sigma(MONOID_SIG, m(e(), v("x")), v("x"), FinSet(("x",)))
    assert unit_law.arity_couple == (2, 0)
    assert unit_law.arity == 2
    assert unit_law.lhs.arity == unit_law.rhs.arity == 2


def test_from_sigma_associativity_shape():
    assoc = ident(MAGMA, m(m(v("x"), v("y")), v("z")), m(v("x"), m(v("y"), v("z"))),
                  ("x", "y", "z"))
    assert assoc.domain == (3,)
    assert assoc.arity == 2


def test_from_sigma_tautology():
    taut = from_sigma(MAGMA, v("x"), v("x"), FinSet(("x",)))
    assert taut.arity == 0 and taut.domain == (1,)


def test_from_sigma_unbound():
    with pytest.raises(ValidationError):
        from_sigma(MAGMA, m(v("x"), v("y")), v("x"), FinSet(("x",)))


def test_satisfies_commutativity(comm, or_magma, left_projection):
    assert satisfies(or_magma, comm)
    assert not satisfies(left_projection, comm)
    assert violation(left_projection, comm) == (0, (0, 1))


def test_satisfies_reflexive_identity(or_magma, left_projection):
    taut = from_sigma(MAGMA, m(v("x"), v("y")), m(v("x"), v("y")), FinSet(("x", "y")))
    for alg in (or_magma, left_projection):
        assert satisfies(alg, taut)


def test_satisfies_signature_mismatch(or_monoid, comm):
    with pytest.raises(ValidationError):
        satisfies(or_monoid, comm)


def test_satisfied_class_counts(comm, assoc, idem):
    two = FinSet((0, 1))
    algebras = list(enumerate_algebras(MAGMA, two))
    assert sum(satisfies(a, comm) for a in algebras) == 8
    assert sum(satisfies(a, assoc) for a in algebras) == 8
    assert sum(satisfies(a, comm) and satisfies(a, idem) for a in algebras) == 2


def test_raise_arity(comm):
    lifted_lhs = raise_arity(comm.lhs, 3)
    assert lifted_lhs.arity == 3 and lifted_lhs.data == comm.lhs.data
    same = raise_arity(comm.lhs, comm.lhs.arity)
    assert same == comm.lhs
    with pytest.raises(ValidationError):
        raise_arity(comm.lhs, 0)


def test_raise_arity_preserves_satisfied_class(comm):
    lifted = NaturalIdentity(raise_arity(comm.lhs, 5), raise_arity(comm.rhs, 5))
    cmp = equivalent_upto(comm, lifted, 2)
    assert cmp.equal
    two = FinSet((0, 1))
    assert sum(satisfies(a, lifted) for a in enumerate_algebras(MAGMA, two)) == 8


def test_bundle_monoid_shape(monoid_ids):
    bundled = bundle(monoid_ids)
    assert bundled.domain == (3, 1, 1)
    assert bundled.arity == 2
    assert domain_expr(bundled) == SumF((ReprF(3), ReprF(1), ReprF(1)))


def test_bundle_satisfaction(monoid_ids, or_monoid, and_monoid):
    bundled = bundle(monoid_ids)
    assert satisfies(or_monoid, bundled)
    for alg in enumerate_algebras(MONOID_SIG, FinSet((0, 1))):
        assert satisfies(alg, bundled) == all(satisfies(alg, i) for i in monoid_ids)


def test_bundle_single_and_empty(comm):
    assert equivalent_upto(bundle([comm]), comm, 2).equal
    with pytest.raises(ValidationError):
        bundle([])


def test_bundle_filter_count(comm, idem):
    bundled = bundle([comm, idem])
    two = FinSet((0, 1))
    count = sum(satisfies(a, bundled) for a in enumerate_algebras(MAGMA, two))
    assert count == 2


def test_equivalent_upto_differences(comm, assoc):
    cmp = equivalent_upto(comm, assoc, 2)
    assert not cmp.equal
    assert cmp.witness is not None
    assert satisfies(cmp.witness, comm) != satisfies(cmp.witness, assoc)


def test_equivalent_upto_set_vs_bundle(comm, idem):
    assert equivalent_upto([comm, idem], bundle([comm, idem]), 2).equal


def test_yoneda_renaming_invariance(or_magma, left_projection):
    a = from_sigma(MAGMA, m(v("x"), v("y")), m(v("y"), v("x")), FinSet(("x", "y")))
    b = from_sigma(MAGMA, m(v("p"), v("q")), m(v("q"), v("p")), FinSet(("p", "q")))
    assert a == b
    for alg in (or_magma, left_projection):
        assert satisfies(alg, a) == satisfies(alg, b)


@pytest.mark.parametrize("size", [1, 2])
def test_transform_route_agrees(size, comm, assoc, idem, lzero, rect):
    """Satisfaction agrees with the transform route, and the witness with
    the reference fold, for every corpus magma identity and a bundle whose
    second component can fail alone."""
    carrier = FinSet(tuple(range(size)))
    identities = (comm, assoc, idem, lzero, rect, bundle([idem, comm]))
    for alg in enumerate_algebras(MAGMA, carrier):
        for identity in identities:
            assert satisfies(alg, identity) == satisfies_transform(alg, identity)
            assert violation(alg, identity) == reference_violation(alg, identity)


def test_violation_matches_reference_on_three_points(assoc):
    for alg in enumerate_algebras(MAGMA, FinSet((0, 1, 2))):
        assert violation(alg, assoc) == reference_violation(alg, assoc)


def test_transform_route_agrees_with_nullary(monoid_ids):
    for alg in enumerate_algebras(MONOID_SIG, FinSet((0, 1))):
        bundled = bundle(monoid_ids)
        for identity in (*monoid_ids, bundled):
            assert satisfies(alg, identity) == satisfies_transform(alg, identity)
            assert violation(alg, identity) == reference_violation(alg, identity)
