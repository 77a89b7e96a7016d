"""Refusals of the library layers, each with its message: bad atoms, maps,
partitions, terms, tables, identities, levels and saturation results."""
import pytest

from finalg import (
    EquationArrow,
    FinAlgebra,
    FinMap,
    FinSet,
    NaturalIdentity,
    NaturalTerm,
    Node,
    Partition,
    ValidationError,
    Var,
    bundle,
    cli,
    equivalent_upto,
    format_term,
    is_morphism,
    mu_flatten,
    quotient,
    rho_level,
    satisfies_equation,
    saturate,
    stage,
    substitute,
    word_equal,
)
from finalg.monadic import satisfies_level
from finalg.terms import check_term, relabel, variables
from finalg.variety import audit_derivations, universal_property_witness
from conftest import MAGMA, MONOID_SIG, X, ident, m


AB = FinSet(("a", "b"))


# core


def test_finset_refuses_an_atom_of_unsupported_kind():
    with pytest.raises(ValidationError, match="^unsupported atom kind: 1.5$"):
        FinSet((1.5,))


def test_finmap_call_refuses_an_atom_outside_the_domain():
    f = FinMap(AB, AB, {"a": "a", "b": "a"})
    assert f("b") == "a"
    with pytest.raises(ValidationError, match="^'c' not in domain$"):
        f("c")


@pytest.mark.parametrize("blocks, message", [
    ([("a", "b"), ()], "^empty block$"),
    ([("a", "b", "c")], "^block atom 'c' not in base$"),
    ([("a", "b"), ("a",)], "^atom 'a' in two blocks$"),
    ([("a",)], "^blocks do not cover the base set$"),
])
def test_partition_refusals(blocks, message):
    with pytest.raises(ValidationError, match=message):
        Partition(AB, blocks)


def test_quotient_refuses_a_first_pair_atom_outside_the_base():
    with pytest.raises(ValidationError, match="^pair atom 'c' not in base$"):
        quotient(AB, [("c", "a")])


# terms


@pytest.mark.parametrize("call", [
    variables,
    lambda t: substitute(t, {"x": X}),
    lambda t: relabel(t, {"x": "x"}),
    format_term,
    lambda t: check_term(MAGMA, t),
])
def test_term_functions_refuse_a_non_term(call):
    with pytest.raises(ValidationError, match="^not a term: 'x'$"):
        call("x")
    with pytest.raises(ValidationError, match="^not a term: 'y'$"):
        call(m(X, "y"))


def test_relabel_refuses_an_unbound_variable():
    with pytest.raises(ValidationError, match="^unbound variable 'y'$"):
        relabel(m(X, Var("y")), {"x": "a"})


# algebras


def test_algebra_refuses_a_table_for_an_unknown_operation():
    table = {(a, b): a for a in "ab" for b in "ab"}
    with pytest.raises(ValidationError, match="^table for unknown operation 'f'$"):
        FinAlgebra(MAGMA, AB, {"m": table, "f": table})


def test_is_morphism_refuses_a_carrier_mismatch():
    alg = FinAlgebra(MAGMA, AB, {"m": {(a, b): a for a in "ab" for b in "ab"}})
    other = FinSet(("a", "b", "c"))
    for h in (FinMap(other, AB, {"a": "a", "b": "b", "c": "a"}),
              FinMap(AB, other, {"a": "a", "b": "b"})):
        with pytest.raises(ValidationError, match="^carrier mismatch$"):
            is_morphism(alg, alg, h)


# identities


def test_natural_identity_refuses_mismatched_sides():
    x1 = Var("v1")
    magma_side = NaturalTerm(MAGMA, (1,), 0, (x1,))
    with pytest.raises(ValidationError, match="^identity sides use different signatures$"):
        NaturalIdentity(magma_side, NaturalTerm(MONOID_SIG, (1,), 0, (x1,)))
    with pytest.raises(ValidationError, match="^identity sides have different domains$"):
        NaturalIdentity(magma_side, NaturalTerm(MAGMA, (2,), 0, (x1,)))


def test_bundle_and_equivalent_upto_refuse_mixed_signatures(comm):
    idem_monoid = ident(MONOID_SIG, m(X, X), X, ("x",))
    with pytest.raises(ValidationError, match="^bundled identities must share a signature$"):
        bundle([comm, idem_monoid])
    with pytest.raises(ValidationError, match="^all identities must share a signature$"):
        equivalent_upto(comm, idem_monoid, 1)
    for a, b in (([], comm), (comm, [])):
        with pytest.raises(ValidationError, match="^need at least one identity on each side$"):
            equivalent_upto(a, b, 1)


# equations


def test_satisfies_equation_refuses_an_algebra_of_another_signature(or_monoid):
    x = FinSet(("x",))
    terms = stage(MAGMA, x, 0).terms
    eq = EquationArrow(MAGMA, x, 0, Partition(terms, [terms.elements]))
    with pytest.raises(ValidationError,
                       match="^signature mismatch between algebra and equation$"):
        satisfies_equation(or_monoid, eq)


# monadic


def test_mu_flatten_refuses_an_arity_mismatch_and_a_non_term():
    x = FinSet(("x",))
    with pytest.raises(ValidationError, match="^arity mismatch at 'm'$"):
        mu_flatten(MAGMA, x, Node("m", (Var(X),)))
    with pytest.raises(ValidationError, match="^not a term: 'x'$"):
        mu_flatten(MAGMA, x, "x")
    with pytest.raises(ValidationError, match="^not a term: 'x'$"):
        mu_flatten(MAGMA, x, m(Var(X), "x"))


def test_rho_level_refuses_a_non_term(comm):
    with pytest.raises(ValidationError, match="^not a term: 'x'$"):
        rho_level(comm.lhs, 1, "x")


def test_satisfies_level_refuses_an_algebra_of_another_signature(comm, or_monoid):
    with pytest.raises(ValidationError,
                       match="^signature mismatch between algebra and identity$"):
        satisfies_level(or_monoid, comm, 1)


# variety


def test_saturate_refuses_an_identity_over_another_signature(comm):
    with pytest.raises(ValidationError, match="^identity signature differs from presentation$"):
        saturate(MONOID_SIG, [comm], FinSet(("a",)), 2)


@pytest.mark.parametrize("call", [
    lambda res: word_equal(res, X, X),
    audit_derivations,
])
def test_result_readers_refuse_a_non_result(call):
    with pytest.raises(ValidationError, match="^not a saturation result: 'res'$"):
        call("res")


def test_universal_property_refuses_a_target_of_another_signature(
    semilattice_unit_ids, or_magma
):
    res = saturate(MONOID_SIG, semilattice_unit_ids, FinSet(("a",)), 6)
    with pytest.raises(ValidationError, match="^signature mismatch$"):
        universal_property_witness(res, [], or_magma)


# cli


def test_main_exits_with_the_code_run_returns(corpus_file, capsys):
    codes = []
    for argv in (
        ["chain", "--spec", corpus_file, "--signature", "Magma", "--generators", "1",
         "--upto", "2"],
        ["check", "--spec", corpus_file, "--algebra", "LeftProj", "--identity", "comm"],
        ["chain", "--spec", corpus_file, "--signature", "Nope", "--generators", "1",
         "--upto", "2"],
    ):
        codes.append(cli.run(argv))
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == codes[-1]
    assert codes == [0, 1, 2]
    capsys.readouterr()
