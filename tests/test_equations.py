import itertools
from pathlib import Path

import pytest
from hypothesis import given, strategies as hst

from finalg import (
    EquationArrow,
    FinAlgebra,
    FinSet,
    Node,
    Partition,
    ValidationError,
    Signature,
    Var,
    enumerate_algebras,
    enumerate_maps,
    equation_to_identity,
    from_sigma,
    identity_to_equation,
    roundtrip_class_equal,
    satisfies,
    satisfies_equation,
    stage,
    substitute,
)
from finalg import equations
from finalg.dsl import parse_spec
from finalg.identities import canonical_vars
from conftest import MAGMA, MONOID_SIG, ident, m, v
from oracles import fold, kernel_pair_identity

REPO = Path(__file__).resolve().parents[1]

TWO = FinSet(("x", "y"))


def discrete_arrow(sig, x, n):
    st = stage(sig, x, n)
    return EquationArrow(sig, x, n, Partition(st.terms, [[t] for t in st.terms]))


def naive_instance_partition(identity, x):
    """Independent pairwise-merge closure: repeatedly sweep the instance
    pairs, merging blocks held as plain sets, until nothing changes."""
    st = stage(identity.sig, x, identity.arity)
    blocks = [{t} for t in st.terms]
    pairs = []
    for i, k in enumerate(identity.domain):
        names = canonical_vars(k)
        for images in itertools.product(x.elements, repeat=k):
            g = {nm: Var(a) for nm, a in zip(names, images)}
            pairs.append(
                (substitute(identity.lhs.data[i], g), substitute(identity.rhs.data[i], g))
            )
    changed = True
    while changed:
        changed = False
        for s, t in pairs:
            bs = next(b for b in blocks if s in b)
            bt = next(b for b in blocks if t in b)
            if bs is not bt:
                bs.update(bt)
                blocks.remove(bt)
                changed = True
    return Partition(st.terms, blocks)


def test_arrow_requires_full_stage_partition(comm):
    st = stage(MAGMA, TWO, 1)
    with pytest.raises(ValidationError):
        EquationArrow(MAGMA, TWO, 1, Partition(FinSet(st.terms.elements[:3]), [st.terms.elements[:3]]))


def test_discrete_arrow_satisfied_by_all():
    arrow = discrete_arrow(MAGMA, TWO, 1)
    for alg in enumerate_algebras(MAGMA, FinSet((0, 1))):
        assert satisfies_equation(alg, arrow)


def test_commutativity_arrow(comm, or_magma, left_projection):
    arrow = identity_to_equation(comm, TWO)
    assert len(arrow.part) == 5
    assert satisfies_equation(or_magma, arrow)
    assert not satisfies_equation(left_projection, arrow)


def test_identity_to_equation_blocks(comm):
    arrow = identity_to_equation(comm, TWO)
    merged = [b for b in arrow.part.blocks if len(b) > 1]
    assert merged == [(m(v("x"), v("y")), m(v("y"), v("x")))]


def test_identity_to_equation_tautology():
    taut = from_sigma(MAGMA, m(v("x"), v("y")), m(v("x"), v("y")), FinSet(("x", "y")))
    arrow = identity_to_equation(taut, TWO)
    assert len(arrow.part) == len(arrow.part.base)


def test_identity_to_equation_single_generator(comm):
    one = FinSet(("x",))
    arrow = identity_to_equation(comm, one)
    assert len(arrow.part.base) == 2
    assert len(arrow.part) == 2


def test_identity_to_equation_matches_naive_closure(comm, assoc, monoid_ids):
    cases = [(comm, TWO), (comm, FinSet(("x",))), (assoc, TWO)]
    cases += [(i, TWO) for i in monoid_ids]
    for identity, x in cases:
        arrow = identity_to_equation(identity, x)
        assert arrow.part == naive_instance_partition(identity, x)


def test_equation_to_identity_commutativity(comm):
    back = equation_to_identity(identity_to_equation(comm, TWO))
    assert back.domain == (2,)
    assert back.lhs.data == (m(v("v1"), v("v2")),)
    assert back.rhs.data == (m(v("v2"), v("v1")),)


def test_equation_to_identity_discrete():
    arrow = discrete_arrow(MAGMA, TWO, 1)
    back = equation_to_identity(arrow)
    assert back.domain == ()
    for alg in enumerate_algebras(MAGMA, FinSet((0, 1))):
        assert satisfies(alg, back)


def test_equation_to_identity_unit_law():
    one = FinSet(("x",))
    st = stage(MONOID_SIG, one, 1)
    blocks = [{Node("e", ()), v("x")}]
    rest = [[t] for t in st.terms if t not in blocks[0]]
    arrow = EquationArrow(MONOID_SIG, one, 1, Partition(st.terms, list(blocks) + rest))
    back = equation_to_identity(arrow)
    assert back.domain == (1,)
    assert back.lhs.data == (v("v1"),)
    assert back.rhs.data == (Node("e", ()),)


def test_arrow_iff_identity_at_own_carrier(comm, assoc, idem):
    for identity in (comm, assoc, idem):
        for size in (1, 2):
            carrier = FinSet(tuple(range(size)))
            arrow = identity_to_equation(identity, carrier)
            for alg in enumerate_algebras(MAGMA, carrier):
                assert satisfies(alg, identity) == satisfies_equation(alg, arrow)


def test_arrow_satisfaction_iff_converted_identity(comm, assoc):
    for identity in (comm, assoc):
        arrow = identity_to_equation(identity, TWO)
        back = equation_to_identity(arrow)
        for size in (1, 2):
            for alg in enumerate_algebras(MAGMA, FinSet(tuple(range(size)))):
                assert satisfies_equation(alg, arrow) == satisfies(alg, back)


def test_roundtrip_commutativity(comm):
    report = roundtrip_class_equal(comm, [2], 2)
    assert report.equal
    assert report.outcomes[0][1].checked == 17


def test_roundtrip_associativity(assoc):
    assert roundtrip_class_equal(assoc, [3], 2).equal


def test_roundtrip_tautology():
    taut = from_sigma(MAGMA, m(v("x"), v("y")), m(v("x"), v("y")), FinSet(("x", "y")))
    assert roundtrip_class_equal(taut, [1, 2], 2).equal


def reference_satisfies_equation(alg, arrow):
    """Every map of the variables into the carrier, every block evaluated
    whole by the recursive fold."""
    for f in enumerate_maps(arrow.var_object, alg.carrier):
        for block in arrow.part.blocks:
            if len({fold(alg, t, f.table) for t in block}) > 1:
                return False
    return True


UNARY = Signature((("s", 1),))
FLIP = FinAlgebra(UNARY, FinSet((0, 1)), {"s": {(0,): 1, (1,): 0}})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_wise_check_matches_every_map(n, comm, assoc, or_magma, left_projection):
    """Checking each block over its own variables gives the answer that
    every map of all N variables gives, true and false alike."""
    x = FinSet(tuple(f"x{i + 1}" for i in range(n)))
    flip_cases = [(FLIP, ident(UNARY, Node("s", (Node("s", (v("x"),)),)), v("x"), ("x",))),
                  (FLIP, ident(UNARY, Node("s", (v("x"),)), v("x"), ("x",)))]
    magma_cases = [(alg, identity) for alg in (or_magma, left_projection)
                   for identity in (comm, assoc)]
    answers = []
    for alg, identity in flip_cases + magma_cases:
        arrow = identity_to_equation(identity, x)
        expected = reference_satisfies_equation(alg, arrow)
        assert satisfies_equation(alg, arrow) == expected
        answers.append(expected)
    assert answers[:2] == [True, False]
    assert answers[2:] == [True, True, n == 1, True]


@pytest.mark.parametrize("sizes, max_size, message", [
    ([-3], 2, "negative variable-object size -3"),
    ([2, -1], 2, "negative variable-object size -1"),
    ([], 2, "round trip needs at least one variable-object size"),
    ([2], 0, "max size must be at least 1"),
])
def test_roundtrip_refuses_nonsense_sizes_before_any_stage(comm, sizes, max_size, message,
                                                           monkeypatch):
    def fail(*args):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(equations, "stage", fail)
    with pytest.raises(ValidationError) as exc:
        roundtrip_class_equal(comm, sizes, max_size)
    assert str(exc.value) == message


def _same_reading(eq):
    """``equation_to_identity`` gives the kernel-pair reading of ``eq``:
    the same domain and the same component terms in the same order."""
    got, want = equation_to_identity(eq), kernel_pair_identity(eq)
    assert got.domain == want.domain
    assert got.lhs.data == want.lhs.data
    assert got.rhs.data == want.rhs.data


def _spec_identities():
    for path in ("workbench.alg", "perfbench/corpus/corpus.alg"):
        model = parse_spec((REPO / path).read_text("utf-8"))
        for name in model.identities:
            yield pytest.param(model, name, id=f"{Path(path).stem}-{name}")


@pytest.mark.parametrize("model, name", list(_spec_identities()))
@pytest.mark.parametrize("generators", [0, 1, 2, 3])
def test_blocks_read_as_the_kernel_pair(model, name, generators):
    """Each declared identity's arrow over 0-3 generators reads back from
    its blocks as through the kernel pair of its projection."""
    x = FinSet(tuple(f"x{i + 1}" for i in range(generators)))
    _same_reading(identity_to_equation(model.natural_identity(name), x))


SMALL_STAGES = [(MAGMA, 1, 1), (MAGMA, 2, 1), (MAGMA, 3, 1), (MAGMA, 1, 2),
                (MONOID_SIG, 2, 1), (Signature((("s", 1),)), 2, 3)]


@given(hst.sampled_from(SMALL_STAGES), hst.data())
def test_any_partition_reads_as_the_kernel_pair(shape, data):
    """On a random partition of a small stage the blocks give the
    kernel-pair reading."""
    sig, generators, arity = shape
    x = FinSet(tuple(f"x{i + 1}" for i in range(generators)))
    terms = stage(sig, x, arity).terms
    labels = data.draw(hst.lists(hst.integers(0, 3), min_size=len(terms), max_size=len(terms)))
    blocks: dict = {}
    for t, label in zip(terms, labels):
        blocks.setdefault(label, []).append(t)
    _same_reading(EquationArrow(sig, x, arity, Partition(terms, blocks.values())))
