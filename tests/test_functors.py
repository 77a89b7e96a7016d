import pytest

from finalg import (
    CompF,
    ConstF,
    CopowerF,
    FinMap,
    FinSet,
    IdF,
    ReprF,
    SigF,
    Signature,
    SumF,
    ValidationError,
    apply_map,
    apply_obj,
    enumerate_maps,
)
from conftest import MAGMA, MONOID_SIG


def test_signature_validation():
    with pytest.raises(ValidationError):
        Signature((("m", 2), ("m", 1)))
    with pytest.raises(ValidationError):
        Signature((("m", -1),))
    assert MAGMA.arity("m") == 2
    with pytest.raises(ValidationError):
        MAGMA.arity("nope")


def test_sigf_object_sizes():
    two = FinSet((0, 1))
    assert len(apply_obj(SigF(MAGMA), two)) == 4
    assert len(apply_obj(SigF(MONOID_SIG), FinSet(()))) == 1
    three = FinSet((0, 1, 2))
    assert len(apply_obj(CompF(SigF(MAGMA), IdF()), three)) == 9


def test_sigf_cardinality_formula():
    sigs = [MAGMA, MONOID_SIG, Signature((("f", 1), ("g", 3)))]
    for sig in sigs:
        for size in range(5):
            x = FinSet(tuple(range(size)))
            expected = sum(size**arity for _, arity in sig)
            assert len(apply_obj(SigF(sig), x)) == expected


def test_other_constructors_on_objects():
    x = FinSet(("a", "b"))
    assert apply_obj(IdF(), x) == x
    assert apply_obj(ConstF(FinSet((7,))), x) == FinSet((7,))
    assert len(apply_obj(SumF((IdF(), IdF())), x)) == 4
    assert len(apply_obj(ReprF(3), x)) == 8
    assert len(apply_obj(CopowerF(3, ReprF(1)), x)) == 6


def test_apply_map_identity_law():
    x = FinSet((0, 1))
    h = FinMap.identity(x)
    for f in [IdF(), SigF(MAGMA), SumF((IdF(), SigF(MAGMA))), ReprF(2), CopowerF(2, IdF())]:
        assert apply_map(f, h) == FinMap.identity(apply_obj(f, x))


def test_apply_map_pointwise_on_sigf():
    h = FinMap(FinSet((0, 1)), FinSet((0,)), {0: 0, 1: 0})
    fh = apply_map(SigF(MAGMA), h)
    assert fh(("m", (0, 1))) == ("m", (0, 0))


def test_apply_map_tagged_on_sum():
    h = FinMap(FinSet((0, 1)), FinSet((0, 1)), {0: 1, 1: 0})
    fh = apply_map(SumF((IdF(), IdF())), h)
    assert fh((0, 0)) == (0, 1)
    assert fh((1, 1)) == (1, 0)


@pytest.mark.parametrize(
    "f",
    [IdF(), SigF(MAGMA), SigF(MONOID_SIG), SumF((IdF(), SigF(MAGMA))), ReprF(2),
     CompF(SigF(MAGMA), IdF()), CopowerF(2, ReprF(1))],
)
def test_apply_map_preserves_composition(f):
    a, b, c = FinSet((0, 1)), FinSet((0, 1, 2)), FinSet((0, 1))
    for g in enumerate_maps(a, b):
        for h in enumerate_maps(b, c):
            assert apply_map(f, g.then(h)) == apply_map(f, g).then(apply_map(f, h))
