"""Shared corpus: signatures, identities, and small algebras."""
import pytest

from finalg import FinAlgebra, FinSet, Node, Signature, Var, from_sigma, monadic


def v(name):
    return Var(name)


def m(a, b):
    return Node("m", (a, b))


def e():
    return Node("e", ())


MAGMA = Signature((("m", 2),))
MONOID_SIG = Signature((("m", 2), ("e", 0)))

X = v("x")
Y = v("y")
Z = v("z")


def ident(sig, lhs, rhs, names):
    return from_sigma(sig, lhs, rhs, FinSet(names))


@pytest.fixture(scope="session")
def magma_sig():
    return MAGMA


@pytest.fixture(scope="session")
def monoid_sig():
    return MONOID_SIG


@pytest.fixture(scope="session")
def comm():
    return ident(MAGMA, m(X, Y), m(Y, X), ("x", "y"))


@pytest.fixture(scope="session")
def assoc():
    return ident(MAGMA, m(m(X, Y), Z), m(X, m(Y, Z)), ("x", "y", "z"))


@pytest.fixture(scope="session")
def idem():
    return ident(MAGMA, m(X, X), X, ("x",))


@pytest.fixture(scope="session")
def lzero():
    return ident(MAGMA, m(X, Y), X, ("x", "y"))


@pytest.fixture(scope="session")
def rect():
    return ident(MAGMA, m(m(X, Y), Z), m(X, Z), ("x", "y", "z"))


@pytest.fixture(scope="session")
def semilattice_unit_ids():
    """Presentation of join semilattices with a least element."""
    return [
        ident(MONOID_SIG, m(m(X, Y), Z), m(X, m(Y, Z)), ("x", "y", "z")),
        ident(MONOID_SIG, m(X, Y), m(Y, X), ("x", "y")),
        ident(MONOID_SIG, m(X, X), X, ("x",)),
        ident(MONOID_SIG, m(e(), X), X, ("x",)),
    ]


@pytest.fixture(scope="session")
def monoid_ids():
    return [
        ident(MONOID_SIG, m(m(X, Y), Z), m(X, m(Y, Z)), ("x", "y", "z")),
        ident(MONOID_SIG, m(e(), X), X, ("x",)),
        ident(MONOID_SIG, m(X, e()), X, ("x",)),
    ]


def two_element(table, unit=None):
    """A magma (or monoid-signature algebra) on {0, 1} from a flat table."""
    carrier = FinSet((0, 1))
    tables = {"m": {(a, b): table[2 * a + b] for a in (0, 1) for b in (0, 1)}}
    if unit is None:
        return FinAlgebra(MAGMA, carrier, tables)
    tables["e"] = {(): unit}
    return FinAlgebra(MONOID_SIG, carrier, tables)


@pytest.fixture(scope="session")
def or_magma():
    return two_element([0, 1, 1, 1])


@pytest.fixture(scope="session")
def and_magma():
    return two_element([0, 0, 0, 1])


@pytest.fixture(scope="session")
def left_projection():
    return two_element([0, 0, 1, 1])


@pytest.fixture(scope="session")
def or_monoid():
    return two_element([0, 1, 1, 1], unit=0)


@pytest.fixture(scope="session")
def and_monoid():
    return two_element([0, 0, 0, 1], unit=1)


CORPUS_TEXT = """\
# Two-element workbench corpus.

signature Magma {
  op m : 2
}

signature Monoid {
  op m : 2
  op e : 0
}

vars x y z

identity comm over Magma : m(x,y) = m(y,x)
identity assoc over Magma : m(m(x,y),z) = m(x,m(y,z))
identity idem over Magma : m(x,x) = x

identity massoc over Monoid : m(m(x,y),z) = m(x,m(y,z))
identity mcomm over Monoid : m(x,y) = m(y,x)
identity midem over Monoid : m(x,x) = x
identity lunit over Monoid : m(e(),x) = x
identity runit over Monoid : m(x,e()) = x

algebra Or over Magma {
  carrier { 0 1 }
  op m {
    (0,0) -> 0
    (0,1) -> 1
    (1,0) -> 1
    (1,1) -> 1
  }
}

algebra LeftProj over Magma {
  carrier { 0 1 }
  op m {
    (0,0) -> 0
    (0,1) -> 0
    (1,0) -> 1
    (1,1) -> 1
  }
}

algebra B over Monoid {
  carrier { 0 1 }
  op m {
    (0,0) -> 0
    (0,1) -> 1
    (1,0) -> 1
    (1,1) -> 1
  }
  op e {
    () -> 0
  }
}

presentation SemilatticeUnit = Monoid with massoc mcomm midem lunit
presentation MonoidPres = Monoid with massoc lunit runit
"""


@pytest.fixture(scope="session")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "corpus.alg"
    path.write_text(CORPUS_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def reversing_children(monkeypatch):
    """Break the node case of the translation along a natural term: the
    translated children are reversed whenever one of them is not a
    variable."""
    real = monadic._instantiate

    def faulty(table, op, translated):
        if any(type(t) is not Var for t in translated):
            translated = translated[::-1]
        return real(table, op, translated)

    monkeypatch.setattr(monadic, "_instantiate", faulty)
