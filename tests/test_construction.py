"""Values that ``enumerate_algebras``, ``enumerate_maps`` and the declaration
parser build without a second check, rebuilt through the checked public
constructors: each is accepted, equal, hashes the same, and keys its
tables in signature (or domain) order."""
from pathlib import Path

import pytest

from finalg import FinAlgebra, FinMap, FinSet, Signature, enumerate_algebras, enumerate_maps
from finalg.dsl import parse_spec
from conftest import MAGMA

REPO = Path(__file__).resolve().parents[1]
SPECS = [REPO / "workbench.alg", REPO / "perfbench" / "corpus" / "corpus.alg"]
NULLARY_UNARY_BINARY = Signature((("e", 0), ("s", 1), ("m", 2)))

# The algebra block gives its tables out of signature order.
REORDERED = """
signature Monoid { op m : 2 op e : 0 }
algebra B over Monoid {
  carrier { 0 1 }
  op e { () -> 0 }
  op m { (1,1) -> 1 (0,0) -> 0 (0,1) -> 1 (1,0) -> 1 }
}
"""


def _assert_rebuilds(alg):
    again = FinAlgebra(alg.sig, alg.carrier, alg.tables)
    assert again == alg
    assert hash(again) == hash(alg)
    assert tuple(alg.tables) == alg.sig.names()


@pytest.mark.parametrize(
    "sig, size", [(MAGMA, 1), (MAGMA, 2), (NULLARY_UNARY_BINARY, 2)]
)
def test_enumerated_algebras_pass_the_checked_constructor(sig, size):
    algebras = list(enumerate_algebras(sig, FinSet(tuple(range(size)))))
    assert len(algebras) == len(set(algebras))
    for alg in algebras:
        _assert_rebuilds(alg)


@pytest.mark.parametrize("na, nb", [(0, 0), (0, 2), (2, 0), (1, 3), (3, 2), (2, 3)])
def test_enumerated_maps_pass_the_checked_constructor(na, nb):
    dom, cod = FinSet(tuple(range(na))), FinSet(tuple("abc"[:nb]))
    for f in enumerate_maps(dom, cod):
        again = FinMap(f.dom, f.cod, f.table)
        assert again == f
        assert hash(again) == hash(f)
        assert tuple(f.table) == dom.elements


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.name)
def test_parsed_algebras_pass_the_checked_constructor(path):
    model = parse_spec(path.read_text())
    assert model.algebras
    for decl in model.algebras.values():
        _assert_rebuilds(decl.algebra)


def test_parsed_tables_are_keyed_in_signature_order():
    alg = parse_spec(REORDERED).algebras["B"].algebra
    assert tuple(alg.tables) == ("m", "e")
    _assert_rebuilds(alg)
