"""A model builds each declared identity once and keeps it.  The entry is
picked by the data the identity is built from, not by its name, so a
replaced declaration, signature or variable tuple builds it again."""
import dataclasses
import io

import pytest

from finalg import FinSet, Signature, ValidationError, dsl, from_sigma
from finalg.cli import run
from finalg.dsl import parse_spec
from conftest import CORPUS_TEXT, MAGMA, m, v


def test_one_model_returns_the_identity_it_built_before():
    model = parse_spec(CORPUS_TEXT)
    first = model.natural_identity("comm")
    assert model.natural_identity("comm") is first
    assert model.identity_vars("comm") is model.identity_vars("comm")
    assert model.identity_vars("comm") == FinSet(("x", "y"))
    other = parse_spec(CORPUS_TEXT).natural_identity("comm")
    assert other == first and other is not first


def test_the_memo_takes_no_part_in_equality_or_repr():
    used, fresh = parse_spec(CORPUS_TEXT), parse_spec(CORPUS_TEXT)
    used.presentation_identities("MonoidPres")
    assert used == fresh and repr(used) == repr(fresh)


def test_a_replaced_declaration_builds_the_new_identity():
    model = parse_spec(CORPUS_TEXT)
    old = model.natural_identity("comm")
    model.identities["comm"] = dataclasses.replace(model.identities["comm"], rhs=v("x"))
    new = model.natural_identity("comm")
    assert new != old
    assert new == from_sigma(MAGMA, m(v("x"), v("y")), v("x"), FinSet(("x", "y")))


def test_replaced_variables_build_the_identity_again():
    model = parse_spec(CORPUS_TEXT)
    old = model.natural_identity("comm")
    model.vars = ("w", "x", "y", "z")
    new = model.natural_identity("comm")
    assert new == old and new is not old
    assert model.natural_identity("comm") is new
    model.vars = ("x", "z")
    with pytest.raises(ValidationError, match="unbound variable 'y'"):
        model.natural_identity("comm")


def test_a_replaced_signature_builds_the_new_identity():
    model = parse_spec(CORPUS_TEXT)
    old = model.natural_identity("comm")
    wider = Signature((("m", 2), ("u", 1)))
    model.signatures["Magma"] = wider
    assert model.natural_identity("comm").sig == wider != old.sig


def test_stale_entries_do_not_accumulate():
    model = parse_spec(CORPUS_TEXT)
    decl = model.identities["comm"]
    for k in range(3 * len(model.identities)):
        model.identities["comm"] = dataclasses.replace(decl, name=f"comm{k}")
        model.natural_identity("comm")
        assert len(model._built) <= len(model.identities)


def test_presentation_identities_is_a_new_list_of_the_kept_identities():
    model = parse_spec(CORPUS_TEXT)
    first = model.presentation_identities("MonoidPres")
    first.clear()
    second = model.presentation_identities("MonoidPres")
    assert second is not first
    assert second == [model.natural_identity(n) for n in ("massoc", "lunit", "runit")]
    again = model.presentation_identities("MonoidPres")
    assert all(a is b for a, b in zip(again, second))
    assert second[0] is model.natural_identity("massoc")


def test_from_sigma_builds_a_new_identity_on_every_call():
    args = (MAGMA, m(v("x"), v("y")), m(v("y"), v("x")), FinSet(("x", "y")))
    first, second = from_sigma(*args), from_sigma(*args)
    assert first == second and first is not second


@pytest.mark.parametrize("lookup, kind", [
    ("natural_identity", "identity"),
    ("identity_vars", "identity"),
    ("presentation_identities", "presentation"),
])
def test_unknown_names_are_refused(lookup, kind):
    with pytest.raises(ValidationError) as exc:
        getattr(parse_spec(CORPUS_TEXT), lookup)("nope")
    assert str(exc.value) == f"unknown {kind} 'nope'"


def test_cli_calls_on_one_text_build_the_identity_once(tmp_path, monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return from_sigma(*args)

    monkeypatch.setattr(dsl, "from_sigma", counting)
    spec = tmp_path / "spec.alg"
    text = CORPUS_TEXT + f"# {tmp_path.name}\n"  # a text no other test has parsed
    spec.write_text(text, encoding="utf-8")
    argv = ["check", "--spec", str(spec), "--algebra", "LeftProj", "--identity", "comm"]
    want = (1, "mode: identity\nsatisfies: false\nwitness-component: 0\n"
               "witness-assignment: x=0 y=1\n", "")

    def invoke():
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)
        return code, out.getvalue(), err.getvalue()

    assert invoke() == want
    assert invoke() == want
    assert len(built) == 1
    spec.write_text(text + "# edited\n", encoding="utf-8")
    assert invoke() == want
    assert len(built) == 2
