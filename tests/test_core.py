import math

import pytest
from hypothesis import given, strategies as st

from finalg import (
    FinAlgebra,
    FinMap,
    FinSet,
    ResourceLimitError,
    Signature,
    ValidationError,
    coproduct,
    enumerate_maps,
    quotient,
    stage,
)
from finalg.core import MAX_ENUMERATION, Partition, bounded_power
from finalg.equations import RoundtripReport
from finalg.identities import ClassComparison
from finalg.monadic import MonadMapReport
from conftest import MAGMA, m, v
from oracles import (
    block_rep,
    identity_map,
    is_injective,
    is_surjective,
    kernel_pair,
    projection,
    representatives,
    then,
)


def test_finset_canonical_order():
    s = FinSet(("b", "a", "c"))
    assert s.elements == ("a", "b", "c")
    assert FinSet(("b", "a")) == FinSet(("a", "b"))


def test_finset_rejects_duplicates():
    with pytest.raises(ValidationError):
        FinSet(("a", "a"))


def test_finset_mixed_kinds_sort_deterministically():
    s = FinSet(("a", 1, (0, "a")))
    assert s.elements == (1, "a", (0, "a"))


@pytest.mark.parametrize("atoms", [(), ("b", "a", "c"), ("a", 1, (0, "a")), (v("y"), v("x"))])
def test_finset_position_follows_elements_and_is_read_only(atoms):
    s = FinSet(atoms)
    assert list(s.position.items()) == [(a, i) for i, a in enumerate(s.elements)]
    assert all(a in s for a in atoms) and "zz" not in s
    with pytest.raises(TypeError):
        s.position["zz"] = 0
    with pytest.raises(AttributeError):
        s.position = {}
    assert FinSet(atoms) == s and hash(FinSet(atoms)) == hash(s)
    assert "position" not in repr(s)


def test_finmap_totality_and_codomain():
    a, b = FinSet(("x",)), FinSet((0, 1))
    with pytest.raises(ValidationError):
        FinMap(a, b, {})
    with pytest.raises(ValidationError):
        FinMap(a, b, {"x": 7})
    f = FinMap(a, b, {"x": 1})
    assert f("x") == 1


def test_finmap_composition():
    a = FinSet(("x", "y"))
    b = FinSet((0, 1))
    f = FinMap(a, b, {"x": 0, "y": 1})
    g = FinMap(b, b, {0: 1, 1: 1})
    assert then(f, g)("x") == 1
    assert then(identity_map(a), f) == f


def test_coproduct_empty_left():
    total, inl, inr = coproduct(FinSet(()), FinSet(("p",)))
    assert len(total) == 1
    assert is_injective(inr) and is_surjective(inr)


def test_coproduct_tags_disambiguate():
    total, inl, inr = coproduct(FinSet(("x",)), FinSet(("x",)))
    assert len(total) == 2
    assert inl("x") != inr("x")


def test_coproduct_cardinality():
    total, _, _ = coproduct(FinSet(("a", "b")), FinSet(("c",)))
    assert len(total) == 3


def test_coproduct_injections_jointly_surjective():
    for left, right in [((), ("p",)), (("a",), ("b", "c")), (("a", "b"), ("a", "b"))]:
        total, inl, inr = coproduct(FinSet(left), FinSet(right))
        images = set(inl.table.values()) | set(inr.table.values())
        assert images == set(total)
        assert set(inl.table.values()).isdisjoint(inr.table.values())


def test_quotient_empty_relation():
    part = quotient(FinSet(("a", "b", "c")), [])
    assert isinstance(part, Partition)
    assert part.blocks == (("a",), ("b",), ("c",))
    assert projection(part)("b") == "b"


def test_quotient_transitivity():
    part = quotient(FinSet(("a", "b", "c")), [("a", "b"), ("b", "c")])
    assert part.blocks == (("a", "b", "c"),)
    assert representatives(part) == FinSet(("a",))
    assert projection(part)("c") == "a"


def test_quotient_on_stage_set():
    st = stage(MAGMA, FinSet(("x", "y")), 1)
    assert len(st) == 6
    part = quotient(st, [(m(v("x"), v("y")), m(v("y"), v("x")))])
    assert len(part) == 5
    assert (m(v("x"), v("y")), m(v("y"), v("x"))) in part.blocks
    assert block_rep(part, m(v("y"), v("x"))) == m(v("x"), v("y"))
    assert projection(part)(m(v("y"), v("x"))) == m(v("x"), v("y"))


def test_quotient_rejects_unknown_atom():
    with pytest.raises(ValidationError):
        quotient(FinSet(("a",)), [("a", "b")])


def test_kernel_pair_of_injection():
    f = identity_map(FinSet(("a", "b")))
    assert kernel_pair(f) == [("a", "a"), ("b", "b")]


def test_kernel_pair_of_constant():
    f = FinMap(FinSet(("a", "b")), FinSet(("*",)), {"a": "*", "b": "*"})
    assert kernel_pair(f) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_kernel_pair_of_stage_quotient():
    st = stage(MAGMA, FinSet(("x", "y")), 1)
    part = quotient(st, [(m(v("x"), v("y")), m(v("y"), v("x")))])
    pairs = kernel_pair(projection(part))
    assert len(pairs) == 8
    assert [(s, t) for s, t in pairs if s != t] == [
        (m(v("x"), v("y")), m(v("y"), v("x"))), (m(v("y"), v("x")), m(v("x"), v("y")))]


def test_enumerate_maps_counts():
    assert len(list(enumerate_maps(FinSet(("x",)), FinSet((0, 1))))) == 2
    assert len(list(enumerate_maps(FinSet(("x", "y")), FinSet((0, 1))))) == 4
    empty = list(enumerate_maps(FinSet(()), FinSet(())))
    assert len(empty) == 1 and empty[0].table == {}


def test_enumerate_maps_unique_and_deterministic():
    maps = list(enumerate_maps(FinSet(("x", "y")), FinSet((0, 1, 2))))
    tables = [tuple(sorted(f.table.items())) for f in maps]
    assert len(set(tables)) == 9
    again = [tuple(sorted(f.table.items())) for f in enumerate_maps(FinSet(("x", "y")), FinSet((0, 1, 2)))]
    assert tables == again


def test_enumerate_maps_bounded_before_it_starts():
    """3^13 maps exceed the bound: refused at the call, not mid-walk."""
    with pytest.raises(ResourceLimitError) as info:
        enumerate_maps(FinSet(tuple(range(13))), FinSet((0, 1, 2)))
    assert info.value.needed == 3**13
    assert info.value.limit == MAX_ENUMERATION
    assert str(info.value) == (
        "map enumeration from 13 into 3 atoms: needs 1594323, limit is 1000000")
    first = next(enumerate_maps(FinSet(tuple(range(12))), FinSet((0, 1, 2))))
    assert set(first.table.values()) == {0}


@pytest.mark.parametrize(
    "base, exp", [(7, 6000), (2, 20000), (60, 3600), (18, 262144), (3000, 9_000_000)]
)
def test_demands_too_long_to_print_are_stated_from_below(base, exp):
    """Past what ``str`` prints, the refusal states a power of ten 10^k with
    10^k <= base^exp; the two largest powers are never built."""
    with pytest.raises(ResourceLimitError) as info:
        bounded_power("demand", base, exp, MAX_ENUMERATION)
    message = str(info.value)
    assert message.startswith("demand: needs at least 10^")
    assert message.endswith(f", limit is {MAX_ENUMERATION}")
    k = int(message.split("10^")[1].split(",")[0])
    assert exp * math.log10(base) / 2 <= k <= exp * math.log10(base)


def test_bounded_power_admits_its_limit():
    assert bounded_power("demand", 10, 6, MAX_ENUMERATION) == MAX_ENUMERATION
    assert bounded_power("demand", 0, 0, 1) == 1


small_atoms = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5, unique=True)


@given(small_atoms, st.data())
def test_quotient_kernel_roundtrip(atoms, data):
    base = FinSet(tuple(atoms))
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(atoms), st.sampled_from(atoms)), max_size=6)
    )
    part = quotient(base, pairs)
    assert quotient(base, kernel_pair(projection(part))) == part


@given(small_atoms, st.data())
def test_quotient_projection_constant_on_blocks(atoms, data):
    base = FinSet(tuple(atoms))
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(atoms), st.sampled_from(atoms)), max_size=6)
    )
    part = quotient(base, pairs)
    proj = projection(part)
    assert is_surjective(proj)
    for s, t in pairs:
        assert proj(s) == proj(t)
    for block in part.blocks:
        assert len({proj(a) for a in block}) == 1
        assert proj(block[0]) == block[0]


@pytest.mark.parametrize("make, truth, text", [
    (lambda: ClassComparison(False, None, 3), False,
     "ClassComparison(equal=False, witness=None, checked=3)"),
    (lambda: RoundtripReport(((1, ClassComparison(True, None, 2)),)), True,
     "RoundtripReport(outcomes=((1, ClassComparison(equal=True, witness=None, checked=2)),))"),
    (lambda: MonadMapReport(False, 2, (("unit", 0, v("x")),)), False,
     "MonadMapReport(holds=False, checked=2, failures=(('unit', 0, Var('x')),))"),
    (lambda: FinMap(FinSet(("a", "b")), FinSet((0,)), {"a": 0, "b": 0}), True,
     "FinMap('a'->0, 'b'->0)"),
    (lambda: Partition(FinSet(("a", "b", "c")), [("c", "a"), ("b",)]), True,
     "Partition(2 blocks of 3)"),
])
def test_value_truth_repr_and_hash(make, truth, text):
    """Reports are true when their verdict is; every value has a readable
    repr and hashes as an equal copy does."""
    value = make()
    assert bool(value) is truth
    assert repr(value) == text
    assert hash(value) == hash(make())


AB, BITS = FinSet(("a", "b")), FinSet((0, 1))
SEMI = {"m": {(x, y): max(x, y) for x in (0, 1) for y in (0, 1)}}


@pytest.mark.parametrize("left, right", [
    (FinMap(AB, BITS, {"a": 0, "b": 0}), FinMap(AB, BITS, {"a": 0, "b": 1})),
    (FinMap(AB, BITS, {"a": 0, "b": 0}), FinMap(AB, FinSet((0,)), {"a": 0, "b": 0})),
    (FinMap(AB, BITS, {"a": 0, "b": 0}), FinMap(FinSet(("a",)), BITS, {"a": 0})),
    (FinMap(AB, BITS, {"a": 0, "b": 0}), {"a": 0, "b": 0}),
    (Partition(AB, [("a",), ("b",)]), Partition(AB, [("a", "b")])),
    (Partition(AB, [("a", "b")]), Partition(FinSet(("a", "b", "c")), [("a", "b"), ("c",)])),
    (Partition(AB, [("a", "b")]), (("a", "b"),)),
    (FinAlgebra(MAGMA, BITS, SEMI), FinAlgebra(MAGMA, BITS, {"m": {k: 0 for k in SEMI["m"]}})),
    (FinAlgebra(MAGMA, BITS, SEMI), FinAlgebra(Signature((("n", 2),)), BITS, {"n": SEMI["m"]})),
    (FinAlgebra(MAGMA, BITS, SEMI), FinAlgebra(MAGMA, FinSet(("0", "1")), {"m": {
        (str(x), str(y)): str(z) for (x, y), z in SEMI["m"].items()}})),
    (FinAlgebra(MAGMA, BITS, SEMI), SEMI),
], ids=["map-table", "map-codomain", "map-domain", "map-other-kind",
        "partition-blocks", "partition-base", "partition-other-kind",
        "algebra-tables", "algebra-signature", "algebra-carrier", "algebra-other-kind"])
def test_values_differing_in_one_part_are_unequal(left, right):
    """A map, a partition and an algebra each compare unequal to a value
    that differs from it in one part, or is of another kind."""
    assert left.__eq__(right) is False
    assert left != right
