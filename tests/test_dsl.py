import re

import pytest
from hypothesis import given, settings, strategies as st

from finalg import FinAlgebra, FinalgError, FinSet, Node, ParseError, Signature, ValidationError, Var
from finalg.dsl import (
    MAX_ARITY,
    AlgebraDecl,
    IdentityDecl,
    PresentationDecl,
    SpecModel,
    parse_spec,
    parse_term,
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


# Every row: what is parsed ("spec" for parse_spec, "term" for parse_term
# over S below), the text, and the ParseError message, line and column.
SIG = "signature S { op m : 2 op e : 0 }\nvars x y\n"
ERROR_POSITIONS = [
    # a bad character, before and after a comment (after one it is ignored)
    ("spec", "signature S { op m : - }", "unexpected character '-'", 1, 22),
    ("spec", "signature S @ # comment", "unexpected character '@'", 1, 13),
    ("spec", "# comment @\nsignature S \u00e9", "unexpected character '\u00e9'", 2, 13),
    ("spec", "signature S { op m : 2 } # \u00e9 @ - ignored\nvars x -",
     "unexpected character '-'", 2, 8),
    ("spec", "vars # @ \u00e9\n", "vars declaration names no variables", 1, 1),
    ("spec", "\ufeffsignature S { op m : 2 }", "unexpected character '\\ufeff'", 1, 1),
    ("spec", "signature S { op m : 2 }\n\ufeff", "unexpected character '\\ufeff'", 2, 1),
    ("spec", "signature S {\n  op m : 2 ~\n}", "unexpected character '~'", 2, 12),
    # empty input, and the end of input inside each kind of declaration
    ("term", "", "unexpected end of input", 1, 1),
    ("term", "   # only a comment", "unexpected end of input", 1, 1),
    ("spec", "signature", "unexpected end of input", 1, 1),
    ("spec", "signature S", "unexpected end of input", 1, 11),
    ("spec", "signature S { op m :", "unexpected end of input", 1, 20),
    ("spec", "signature S { op m : 2", "unexpected end of input", 1, 22),
    ("spec", "vars", "vars declaration names no variables", 1, 1),
    ("spec", SIG + "identity", "unexpected end of input", 3, 1),
    ("spec", SIG + "identity i over S :", "unexpected end of input", 3, 19),
    ("spec", SIG + "identity i over S : m(x,", "unexpected end of input", 3, 24),
    ("spec", SIG + "identity i over S : m(x,y) =", "unexpected end of input", 3, 28),
    ("spec", SIG + "algebra", "unexpected end of input", 3, 1),
    ("spec", SIG + "algebra A over S { carrier { 0", "unexpected end of input", 3, 30),
    ("spec", SIG + "algebra A over S { carrier { 0 } op m { (0,",
     "unexpected end of input", 3, 43),
    ("spec", SIG + "algebra A over S { carrier { 0 } op m { (0,0) ->",
     "unexpected end of input", 3, 47),
    ("spec", SIG + "algebra A over S { carrier { 0 } op m { (0,0) -> 0 }",
     "unexpected end of input", 3, 52),
    ("spec", SIG + "identity i over S : x = x\npresentation", "unexpected end of input", 4, 1),
    ("spec", SIG + "identity i over S : x = x\npresentation P = S with",
     "presentation lists no identities", 4, 20),
    ("term", "m(x,", "unexpected end of input", 1, 4),
    ("term", "m(", "unexpected end of input", 1, 2),
    # a keyword or a numeral where a name belongs
    ("spec", "signature vars { op m : 2 }", "keyword 'vars' cannot name a signature", 1, 11),
    ("spec", "signature 3 { op m : 2 }", "expected a signature name, found '3'", 1, 11),
    ("spec", "signature S { op carrier : 2 }", "keyword 'carrier' cannot name an operation", 1, 18),
    ("spec", "signature S { op 7 : 2 }", "expected an operation name, found '7'", 1, 18),
    ("spec", "vars x 1", "expected a variable name, found '1'", 1, 8),
    ("spec", SIG + "identity over over S : x = x", "keyword 'over' cannot name an identity", 3, 10),
    ("spec", SIG + "identity 12 over S : x = x", "expected an identity name, found '12'", 3, 10),
    ("spec", SIG + "identity i over S : over = x", "expected a term, found 'over'", 3, 21),
    ("spec", SIG + "identity i over S : 0 = x", "expected a term, found '0'", 3, 21),
    ("spec", SIG + "algebra 9 over S { carrier { 0 } }", "expected an algebra name, found '9'", 3, 9),
    ("spec", SIG + "algebra A over S { carrier { 0 with } }", "expected an atom, found 'with'", 3, 32),
    ("spec", SIG + "identity i over S : x = x\npresentation P = S with i 5",
     "expected an identity name, found '5'", 4, 27),
    ("term", "vars", "expected a term, found 'vars'", 1, 1),
    ("term", "4", "expected a term, found '4'", 1, 1),
    # -> out of place
    ("spec", "signature S -> { op m : 2 }", "expected '{', found '->'", 1, 13),
    ("spec", "signature S { op m -> 2 }", "expected ':', found '->'", 1, 20),
    ("spec", "signature S { op m : -> }", "expected an arity, found '->'", 1, 22),
    # an arity is an ASCII numeral of at most MAX_ARITY, refused before it is read
    ("spec", "signature S { op m : " + "9" * 5000 + " }", "arity larger than 16", 1, 22),
    ("spec", "signature S { op m : \u0663 }", "expected an arity, found '\u0663'", 1, 22),
    ("spec", "signature S { op m : 100000 }", "arity larger than 16", 1, 22),
    ("spec", "signature S { op m : 017 }", "arity larger than 16", 1, 22),
    ("spec", "->", "expected a declaration, found '->'", 1, 1),
    ("spec", SIG + "identity i over S : -> = x", "expected a term, found '->'", 3, 21),
    ("spec", SIG + "algebra A over S { carrier { 0 -> } }", "expected an atom, found '->'", 3, 32),
    ("spec", SIG + "algebra A over S { carrier { 0 } op m { (0 -> 0) -> 0 } }",
     "expected ')', found '->'", 3, 44),
    ("term", "m(x,->)", "expected a term, found '->'", 1, 5),
    ("term", "x ->", "unexpected '->' after the term", 1, 3),
    # lines split by \r\n, \x0c, \u2028 and \x0b, as str.splitlines splits them
    ("spec", "signature S {\r\n  op m : 2\r\n  op m : 1\r\n}", "operation 'm' already defined", 3, 6),
    ("spec", "signature S {\x0c op m : x }", "expected an arity, found 'x'", 2, 9),
    ("spec", "signature S { op m : 2 }\x0cvars\x0cidentity", "vars declaration names no variables", 2, 1),
    ("spec", "signature S {\u2028op m : 2\u2028op e : q }", "expected an arity, found 'q'", 3, 8),
    ("spec", "# c\r\n# c\x0c# c\u2028signature S { op m : @ }", "unexpected character '@'", 4, 22),
    ("spec", "signature S { op m : 2 }\r\n\r\nvars x\x0bidentity i over S : m(x) = x",
     "operation 'm' takes 2 arguments, got 1", 4, 21),
    # resolution errors point at the token at fault
    ("spec", SIG + "identity i over S : m(x,q) = x", "unknown variable 'q'", 3, 25),
    ("spec", SIG + "identity i over S : f(x) = x", "unknown operation 'f'", 3, 21),
    ("spec", SIG + "algebra A over S {\n carrier { 0 1 }\n op m { (0,0) -> 0 (0,1) -> 0 (1,0) -> 0 }"
     "\n op e { () -> 1 }\n}", "table for 'm' missing tuple (1,1)", 5, 42),
    ("spec", SIG + "algebra A over S { carrier { 0 0 } }", "duplicate carrier atom '0'", 3, 32),
    ("spec", SIG + "algebra A over S { carrier { 0 } op m { (0) -> 0 } }",
     "tuple of length 1 for 'm' of arity 2", 3, 41),
    ("spec", SIG + "algebra A over S { carrier { 0 } op m { (0,1) -> 0 } }",
     "atom '1' not in carrier", 3, 41),
    ("spec", SIG + "algebra A over S { carrier { 0 } op m { (0,0) -> 2 } }",
     "atom '2' not in carrier", 3, 50),
    ("spec", SIG + "algebra A over S { carrier { 0 } op e { () -> 0 } }",
     "algebra 'A' missing table for 'm'", 3, 51),
    ("term", "m(x,y) extra", "unexpected 'extra' after the term", 1, 8),
    ("term", "m(x)", "operation 'm' takes 2 arguments, got 1", 1, 1),
]


def test_arity_up_to_the_bound():
    for text, arity in (("16", 16), ("0016", 16), ("00", 0), ("3", 3)):
        sig = parse_spec(f"signature S {{ op m : {text} }}").signatures["S"]
        assert tuple(sig) == (("m", arity),)
    assert MAX_ARITY == 16


@pytest.mark.parametrize("kind, text, message, line, col", ERROR_POSITIONS)
def test_parse_error_positions(kind, text, message, line, col):
    with pytest.raises(ParseError) as exc:
        if kind == "spec":
            parse_spec(text)
        else:
            parse_term(parse_spec(SIG), "S", text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


CORPUS_MODEL = parse_spec(CORPUS_TEXT)
CORPUS_TOKENS = sorted(set(re.findall(r"->|\w+|\S", CORPUS_TEXT)))
STRAY = ["@", "-", ">", "#", "~", "\u00e9", "\ufeff", "\u0663", "\u00b2", "\r\n", "\x0c", "\u2028"]
token_soup = st.lists(
    st.tuples(st.sampled_from(CORPUS_TOKENS + STRAY), st.sampled_from(["", " ", "\n"])),
    max_size=30,
).map(lambda pieces: "".join(tok + gap for tok, gap in pieces))


@st.composite
def spliced_corpus(draw):
    """The corpus with one stretch of it replaced by token soup."""
    start = draw(st.integers(0, len(CORPUS_TEXT)))
    stop = draw(st.integers(start, min(len(CORPUS_TEXT), start + 40)))
    return CORPUS_TEXT[:start] + draw(token_soup) + CORPUS_TEXT[stop:]


@settings(max_examples=300, deadline=None)
@given(st.one_of(token_soup, spliced_corpus()), st.sampled_from(["Magma", "Monoid"]))
def test_parsers_return_or_refuse(text, sig_name):
    for parse in (parse_spec, lambda t: parse_term(CORPUS_MODEL, sig_name, t)):
        try:
            parse(text)
        except FinalgError:
            pass


DECLARATION_REFUSALS = [
    # a name defined twice is refused at its second definition
    (SIG + "identity i over S : x = x\nidentity i over S : y = y",
     "identity 'i' already defined", 4, 10),
    (SIG + "algebra A over S { carrier { 0 } op m { (0,0) -> 0 } op e { () -> 0 } }\n"
     "algebra A over S { carrier { 0 } }", "algebra 'A' already defined", 4, 9),
    (SIG + "identity i over S : x = x\npresentation P = S with i\npresentation P = S with i",
     "presentation 'P' already defined", 5, 14),
    # an algebra block names an unknown operation, gives a table twice, maps a tuple twice
    (SIG + "algebra A over S { carrier { 0 } op f { } }", "unknown operation 'f'", 3, 37),
    (SIG + "algebra A over S { carrier { 0 } op e { () -> 0 } op e { () -> 0 } }",
     "table for 'e' already given", 3, 54),
    (SIG + "algebra A over S { carrier { 0 } op e { () -> 0 () -> 0 } }",
     "tuple () already mapped", 3, 49),
    # a presentation names an identity over another signature
    (SIG + "signature T { op m : 2 }\nidentity i over T : x = x\npresentation P = S with i",
     "identity 'i' is over a different signature", 5, 25),
]


@pytest.mark.parametrize("text, message, line, col", DECLARATION_REFUSALS)
def test_declaration_refusals_point_at_the_token(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_spec(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


def test_parse_term_refuses_an_unknown_signature():
    with pytest.raises(ValidationError, match="^unknown signature 'T'$") as exc:
        parse_term(parse_spec(SIG), "T", "x")
    assert not isinstance(exc.value, ParseError)
