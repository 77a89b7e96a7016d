import pytest

from finalg import (
    FinMap,
    FinSet,
    Signature,
    ValidationError,
    apply_map,
    apply_obj,
    enumerate_maps,
)
from finalg.monadic import domain_signature
from conftest import MAGMA, MONOID_SIG
from oracles import identity_map, then


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
    assert len(apply_obj(MAGMA, two)) == 4
    assert len(apply_obj(MONOID_SIG, FinSet(()))) == 1


def test_sigf_cardinality_formula():
    sigs = [MAGMA, MONOID_SIG, Signature((("f", 1), ("g", 3)))]
    for sig in sigs:
        for size in range(5):
            x = FinSet(tuple(range(size)))
            expected = sum(size**arity for _, arity in sig)
            assert len(apply_obj(sig, x)) == expected


def test_apply_map_identity_law():
    x = FinSet((0, 1))
    h = identity_map(x)
    for f in [MAGMA, MONOID_SIG, domain_signature((3, 1, 1))]:
        assert apply_map(f, h) == identity_map(apply_obj(f, x))


def test_apply_map_pointwise_on_sigf():
    h = FinMap(FinSet((0, 1)), FinSet((0,)), {0: 0, 1: 0})
    fh = apply_map(MAGMA, h)
    assert fh(("m", (0, 1))) == ("m", (0, 0))


@pytest.mark.parametrize(
    "f",
    [MAGMA, MONOID_SIG, domain_signature((2, 1))],
    ids=["magma", "monoid", "domain"],
)
def test_apply_map_preserves_composition(f):
    a, b, c = FinSet((0, 1)), FinSet((0, 1, 2)), FinSet((0, 1))
    for g in enumerate_maps(a, b):
        for h in enumerate_maps(b, c):
            assert apply_map(f, then(g, h)) == then(apply_map(f, g), apply_map(f, h))
