import pytest
from hypothesis import given, strategies as st

from finalg import FinAlgebra, FinSet, Node, ParseError, Signature, Var
from finalg.dsl import (
    AlgebraDecl,
    IdentityDecl,
    PresentationDecl,
    SpecModel,
    parse_spec,
)
from conftest import CORPUS_TEXT
from oracles import format_model


MONOID_TEXT = """\
signature Monoid {
  op m : 2
  op e : 0
}
vars x y z
identity assoc over Monoid : m(m(x,y),z) = m(x,m(y,z))
identity lunit over Monoid : m(e(),x) = x
identity runit over Monoid : m(x,e()) = x
presentation MonoidPres = Monoid with assoc lunit runit
"""


def test_monoid_presentation_parses():
    model = parse_spec(MONOID_TEXT)
    assert len(model.signatures) == 1
    assert len(model.identities) == 3
    assert model.presentations["MonoidPres"].identity_names == ("assoc", "lunit", "runit")


def test_empty_input():
    model = parse_spec("")
    assert model == SpecModel()
    assert parse_spec("# only a comment\n") == SpecModel()


def test_corpus_parses():
    model = parse_spec(CORPUS_TEXT)
    assert set(model.signatures) == {"Magma", "Monoid"}
    assert model.vars == ("x", "y", "z")
    assert set(model.algebras) == {"Or", "LeftProj", "B"}
    assert model.algebras["B"].algebra.tables["e"][()] == "0"


def test_missing_tuple_is_named():
    text = """\
signature S { op m : 2 }
algebra A over S {
  carrier { 0 1 }
  op m {
    (0,0) -> 0
    (0,1) -> 0
    (1,0) -> 0
  }
}
"""
    with pytest.raises(ParseError) as exc:
        parse_spec(text)
    assert "(1,1)" in str(exc.value)


def test_unknown_variable_position():
    text = "signature S { op m : 2 }\nvars x\nidentity bad over S : m(x,q) = x\n"
    with pytest.raises(ParseError) as exc:
        parse_spec(text)
    assert "q" in str(exc.value)
    assert exc.value.line == 3


def test_unknown_operation_and_arity_mismatch():
    with pytest.raises(ParseError) as exc:
        parse_spec("signature S { op m : 2 }\nvars x\nidentity b over S : f(x) = x\n")
    assert "f" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_spec("signature S { op m : 2 }\nvars x\nidentity b over S : m(x) = x\n")
    assert "2 arguments" in str(exc.value)


def test_declare_before_use():
    with pytest.raises(ParseError):
        parse_spec("identity b over S : x = x\n")
    with pytest.raises(ParseError):
        parse_spec("signature S { op m : 2 }\npresentation P = S with nope\n")


def test_keywords_cannot_name_things():
    with pytest.raises(ParseError):
        parse_spec("signature vars { op m : 2 }\n")


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError):
        parse_spec("signature S { op m : 2 }\nsignature S { op m : 2 }\n")
    with pytest.raises(ParseError):
        parse_spec("signature S { op m : 2 op m : 1 }\n")


def test_atom_outside_carrier():
    text = """\
signature S { op k : 0 }
algebra A over S {
  carrier { 0 }
  op k { () -> 7 }
}
"""
    with pytest.raises(ParseError) as exc:
        parse_spec(text)
    assert "7" in str(exc.value)


def test_natural_identity_translation():
    model = parse_spec(MONOID_TEXT)
    assoc = model.natural_identity("assoc")
    assert assoc.domain == (3,)
    assert assoc.arity == 2
    lunit = model.natural_identity("lunit")
    assert lunit.arity_couple == (2, 0)
    assert lunit.domain == (1,)
    assert len(model.presentation_identities("MonoidPres")) == 3


def test_roundtrip_on_corpus():
    model = parse_spec(CORPUS_TEXT)
    printed = format_model(model)
    assert parse_spec(printed) == model
    assert format_model(parse_spec(printed)) == printed


names = st.sampled_from(["f", "g", "k"])


@st.composite
def small_models(draw):
    arities = {"f": 1, "g": 2, "k": 0}
    chosen = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    sig = Signature(tuple((n, arities[n]) for n in chosen))

    def terms(depth):
        leaf = st.sampled_from([Var("x"), Var("y")])
        if depth == 0:
            return leaf
        options = [leaf]
        for n in chosen:
            if arities[n] == 0:
                options.append(st.just(Node(n, ())))
            else:
                options.append(
                    st.builds(
                        lambda *args, _n=n: Node(_n, tuple(args)),
                        *[terms(depth - 1)] * arities[n],
                    )
                )
        return st.one_of(options)

    lhs = draw(terms(2))
    rhs = draw(terms(2))
    carrier = ("a", "b")
    tables = {}
    for n in chosen:
        import itertools

        keys = list(itertools.product(carrier, repeat=arities[n]))
        tables[n] = {key: draw(st.sampled_from(carrier)) for key in keys}
    alg = FinAlgebra(sig, FinSet(carrier), tables)
    model = SpecModel()
    model.signatures["S"] = sig
    model.vars = ("x", "y")
    model.identities["i1"] = IdentityDecl("i1", "S", lhs, rhs)
    model.algebras["A"] = AlgebraDecl("A", "S", alg)
    model.presentations["P"] = PresentationDecl("P", "S", ("i1",))
    return model


@given(small_models())
def test_roundtrip_on_random_models(model):
    assert parse_spec(format_model(model)) == model
