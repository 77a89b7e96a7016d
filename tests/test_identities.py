import itertools
import time

import pytest

from finalg import (
    FinAlgebra,
    FinSet,
    NaturalIdentity,
    NaturalTerm,
    ResourceLimitError,
    Signature,
    ValidationError,
    bundle,
    enumerate_algebras,
    equivalent_upto,
    from_sigma,
    raise_arity,
    satisfies,
)
from finalg.algebras import _orbit_representatives
from finalg.equations import roundtrip_class_equal
from finalg.identities import ClassComparison, canonical_vars, compare_classes, violation
from finalg.monadic import equi_check, variety_vs_dalg
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
    with pytest.raises(ValidationError, match="negative domain component -1"):
        NaturalTerm(MONOID_SIG, (-1,), 1, (e(),))


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
    assert domain_expr(bundled) == Signature((("c0", 3), ("c1", 1), ("c2", 1)))


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


def test_bounded_carrier_checks_read_only_the_flat_tables(monkeypatch, comm, assoc, idem):
    """Enumeration, satisfaction, violations, the level-k check and the
    diagram algebras fold on the flat tables: with the table view's
    builder refusing, the counts over all 3-point magmas still come out."""
    def refuse(alg):
        raise AssertionError("table view built")

    monkeypatch.setattr(FinAlgebra, "_table_view", refuse)
    three = FinSet((0, 1, 2))
    assert [sum(satisfies(alg, i) for alg in enumerate_algebras(MAGMA, three))
            for i in (comm, assoc, idem)] == [729, 113, 729]
    assert sum(violation(alg, assoc) is None for alg in enumerate_algebras(MAGMA, three)) == 113
    assert equivalent_upto(comm, comm, 3).equal
    assert equi_check(assoc, 2, 2).equal
    assert variety_vs_dalg(comm, 2, 2).equal


def test_transform_route_agrees_with_nullary(monoid_ids):
    for alg in enumerate_algebras(MONOID_SIG, FinSet((0, 1))):
        bundled = bundle(monoid_ids)
        for identity in (*monoid_ids, bundled):
            assert satisfies(alg, identity) == satisfies_transform(alg, identity)
            assert violation(alg, identity) == reference_violation(alg, identity)


# Class comparison walks one algebra per isomorphism orbit; the references
# below enumerate every algebra.

UNARY2 = Signature((("f", 1), ("g", 1)))
CONSTANTS = Signature((("a", 0), ("b", 0), ("c", 0)))


@pytest.mark.parametrize("max_size", [0, -1])
def test_class_comparisons_refuse_an_empty_size_range(comm, assoc, max_size):
    """No carrier has size at most 0: such a bound is refused, not answered
    with ``equal`` over no algebras, by every caller of the comparison."""
    calls = [
        lambda: compare_classes(MAGMA, max_size, bool, bool),
        lambda: equivalent_upto(comm, assoc, max_size),
        lambda: equi_check(assoc, 2, max_size),
        lambda: variety_vs_dalg(comm, max_size, 2),
        lambda: roundtrip_class_equal(comm, [2], max_size),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^max size must be at least 1$"):
            call()


def _reference_compare(sig, max_size, in_left, in_right):
    """Plain enumeration: ``(equal, checked, witness tables)``."""
    checked = 0
    for size in range(1, max_size + 1):
        for alg in enumerate_algebras(sig, FinSet(tuple(range(size)))):
            checked += 1
            if in_left(alg) != in_right(alg):
                return False, checked, alg.tables
    return True, checked, None


def _cells(alg):
    return tuple(
        alg.tables[name][key]
        for name, arity in alg.sig
        for key in itertools.product(alg.carrier.elements, repeat=arity)
    )


def _relabel(alg, p):
    return {
        (name, tuple(p[a] for a in key)): p[value]
        for name, table in alg.tables.items()
        for key, value in table.items()
    }


def _lex_least_in_orbit(alg):
    cells, size = _cells(alg), len(alg.carrier)
    layout = [(name, key) for name, arity in alg.sig
              for key in itertools.product(range(size), repeat=arity)]
    for p in itertools.permutations(range(size)):
        image = _relabel(alg, p)
        if tuple(image[cell] for cell in layout) < cells:
            return False
    return True


def _idempotents(alg):
    return sum(alg.tables["m"][(x, x)] == x for x in alg.carrier)


def _commutative(alg):
    t = alg.tables["m"]
    return all(t[(x, y)] == t[(y, x)] for x in alg.carrier for y in alg.carrier)


def _image(alg):
    return len({value for table in alg.tables.values() for value in table.values()})


def _commute(alg, p, q):
    tp, tq = alg.tables[p], alg.tables[q]
    return all(tp[(tq[(x,)],)] == tq[(tp[(x,)],)] for x in alg.carrier)


def _unit_idempotent(alg):
    unit = alg.tables["e"][()]
    return alg.tables["m"][(unit, unit)] == unit


def _no_idempotent_on_three(alg):
    return len(alg.carrier) == 3 and _idempotents(alg) == 0


def _three_distinct_constants(alg):
    return len({alg.tables[name][()] for name in "abc"}) == 3


PARITY_CASES = {
    # Magma, 17 + 19683 algebras; the late witnesses are on 3 points.
    "magma-no-idempotent": (MAGMA, 3, _no_idempotent_on_three, lambda a: False, 6579),
    "magma-noncommutative": (
        MAGMA, 3, _no_idempotent_on_three,
        lambda a: _no_idempotent_on_three(a) and _commutative(a), 6582),
    "magma-full-image": (
        MAGMA, 3, lambda a: _idempotents(a) == 0 and _image(a) == 3,
        lambda a: _idempotents(a) == 0 and _image(a) == 3 and not _commutative(a), 6639),
    "magma-equal": (
        MAGMA, 3, _commutative,
        lambda a: a.tables["m"] == {(y, x): v for (x, y), v in a.tables["m"].items()}, 19700),
    # Magma with a nullary e, 33 + 59049 algebras.
    "monoid-sig-no-idempotent": (
        MONOID_SIG, 3, lambda a: _idempotents(a) == 0,
        lambda a: _idempotents(a) == 0 and _image(a) < 3, 19719),
    "monoid-sig-equal": (
        MONOID_SIG, 3, _unit_idempotent,
        lambda a: _idempotents(a) > 0 and _unit_idempotent(a), 59082),
    # Two unary operations, 17 + 729 algebras.
    "unary-late": (
        UNARY2, 3,
        lambda a: len(a.carrier) == 3 and all(a.tables["f"][(x,)] != x for x in a.carrier)
        and not _commute(a, "f", "g"),
        lambda a: False, 261),
    "unary-equal": (UNARY2, 3, lambda a: _commute(a, "f", "g"), lambda a: _commute(a, "g", "f"),
                    746),
    # Constants only: orbits are restricted growth strings.
    "constants-late": (
        CONSTANTS, 5, lambda a: len(a.carrier) == 5 and _three_distinct_constants(a),
        lambda a: False, 108),
    "constants-equal": (CONSTANTS, 5, _three_distinct_constants, lambda a: _image(a) == 3, 225),
    "no-operations": (Signature(()), 4, lambda a: True, lambda a: len(a.carrier) < 3, 3),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_orbit_comparison_matches_plain_enumeration(case):
    """Equal verdict, nominal ``checked`` and witness tables, with
    isomorphism-invariant predicates whose witnesses come late."""
    sig, max_size, in_left, in_right, checked = PARITY_CASES[case]
    cmp = compare_classes(sig, max_size, in_left, in_right)
    expected = _reference_compare(sig, max_size, in_left, in_right)
    witness = None if cmp.witness is None else cmp.witness.tables
    assert (cmp.equal, cmp.checked, witness) == expected
    assert cmp.checked == checked


@pytest.mark.parametrize(
    "sig, size, needs, checked",
    [(Signature(()), 1413, 1000404, 1412), (Signature((("e", 0),)), 1000, 1001000, 499500)],
    ids=["no-operations", "one-constant"],
)
def test_class_comparison_bounds_its_whole_walk(sig, size, needs, checked):
    """With no operation of positive arity a carrier size holds few
    algebras, so the number of sizes is what grows: each size adds its
    carrier and its count to one total, and the walk is refused at the
    first size that takes the total past the enumeration bound."""
    trivial = ident(sig, v("x"), v("x"), ("x",))
    start = time.monotonic()
    with pytest.raises(ResourceLimitError) as exc:
        equivalent_upto(trivial, trivial, 3000)
    assert time.monotonic() - start < 1
    assert str(exc.value) == (
        f"carriers and algebras of sizes 1..{size}: needs {needs}, limit is 1000000")
    assert equivalent_upto(trivial, trivial, size - 1) == ClassComparison(True, None, checked)


@pytest.mark.parametrize("size, orbits", [(1, 1), (2, 10), (3, 3330)])
def test_magma_orbit_counts(size, orbits):
    """OEIS A001329: magmas up to isomorphism."""
    assert sum(1 for _ in _orbit_representatives(MAGMA, FinSet(tuple(range(size))))) == orbits


@pytest.mark.parametrize(
    "sig, size",
    [(MAGMA, 2), (MAGMA, 3), (MONOID_SIG, 2), (Signature((("e", 0), ("m", 2))), 2),
     (UNARY2, 3), (Signature((("f", 1),)), 4), (Signature((("t", 3),)), 2),
     (CONSTANTS, 4), (Signature(()), 3)],
    ids=["magma-2", "magma-3", "monoid-sig-2", "nullary-first-2", "unary2-3", "unary-4",
         "ternary-2", "constants-4", "no-operations-3"],
)
def test_orbit_representatives_are_the_lex_least_members(sig, size):
    """Exactly the algebras no relabelling makes smaller, in enumeration
    order, each with its position in ``enumerate_algebras``."""
    carrier = FinSet(tuple(range(size)))
    expected = [
        (rank, alg.tables) for rank, alg in enumerate(enumerate_algebras(sig, carrier))
        if _lex_least_in_orbit(alg)
    ]
    got = [(rank, alg.tables) for rank, alg in _orbit_representatives(sig, carrier)]
    assert got == expected


def test_one_point_carrier_with_many_operations():
    """One cell per operation on a single point: the walk is iterative, so
    1500 of them are one algebra, not a RecursionError."""
    sig = Signature(tuple((f"u{i}", 1) for i in range(1500)))
    assert compare_classes(sig, 1, lambda a: True, lambda a: True) == ClassComparison(
        True, None, 1)


def test_over_large_size_is_refused_before_its_algebras():
    """Each size's count is bounded before its walk: no algebra of the
    refused size reaches a predicate."""
    sizes = []

    def member(alg):
        sizes.append(len(alg.carrier))
        return True

    with pytest.raises(ResourceLimitError) as info:
        compare_classes(MAGMA, 4, member, member)
    assert str(info.value) == "algebra enumeration: needs 4294967296, limit is 1000000"
    assert max(sizes) == 3
    wide = Signature(tuple((f"m{i}", 2) for i in range(20)))
    sizes.clear()
    with pytest.raises(ResourceLimitError) as info:
        compare_classes(wide, 2, member, member)
    assert str(info.value) == (
        "algebra enumeration: needs 1208925819614629174706176, limit is 1000000")
    assert sizes == [1, 1]
