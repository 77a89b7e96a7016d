import io
import os
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from finalg import FinMap, FinSet, cli, enumerate_algebras
from finalg.cli import MAX_PRINTED_STAGE_SIZE, _build_parser, run
from finalg.dsl import MAX_TERM_DEPTH, parse_spec
from finalg.identities import ClassComparison
from conftest import CORPUS_TEXT


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_chain_sizes(corpus_file):
    code, out, err = invoke(
        ["chain", "--spec", corpus_file, "--signature", "Magma",
         "--generators", "1", "--upto", "3"]
    )
    assert code == 0
    assert out == "sizes: 1 2 5 26\n"


def test_chain_terms_listing(corpus_file):
    code, out, _ = invoke(
        ["chain", "--spec", corpus_file, "--signature", "Magma",
         "--generators", "1", "--upto", "1", "--terms"]
    )
    assert code == 0
    assert "term: x1" in out
    assert "term: m(x1,x1)" in out


def test_eval(corpus_file):
    code, out, _ = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "Or",
         "--term", "m(m(x,y),x)", "--assign", "x=0,y=1"]
    )
    assert code == 0
    assert out == "value: 1\n"


@pytest.mark.parametrize(
    "assign, message",
    [
        ("x=0,x=1", "error: variable 'x' assigned twice\n"),
        ("q=0,x=0,y=1", "error: undeclared variable 'q'\n"),
    ],
)
def test_eval_refuses_nonsense_assignments(corpus_file, assign, message):
    code, out, err = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "Or", "--term", "m(x,y)", "--assign", assign]
    )
    assert (code, out, err) == (2, "", message)


def test_eval_accepts_declared_unused_variables(corpus_file):
    code, out, _ = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "Or",
         "--term", "m(x,y)", "--assign", "x=0,y=1,z=1"]
    )
    assert (code, out) == (0, "value: 1\n")


def test_eval_rejects_atom_outside_carrier(corpus_file):
    code, out, err = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "Or",
         "--term", "m(x,y)", "--assign", "x=0,y=7"]
    )
    assert code == 2
    assert "7" in err


@pytest.mark.parametrize(
    "term, message",
    [
        ("m(x)", "line 1, col 1: operation 'm' takes 2 arguments, got 1"),
        ("m(x,y) extra", "line 1, col 8: unexpected 'extra' after the term"),
    ],
)
def test_eval_term_errors_point_into_the_term(corpus_file, term, message):
    code, out, err = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "Or", "--term", term]
    )
    assert code == 2
    assert out == ""
    assert err == f"parse error: {message}\n"


def test_eval_refuses_terms_nested_too_deep(corpus_file):
    """A term nested past the DSL's bound is a parse error at the first
    node beyond it, not an uncaught RecursionError."""
    term = "m(" * 1500 + "x" + ",y)" * 1500
    code, out, err = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "Or", "--term", term]
    )
    assert code == 2
    assert out == ""
    col = 2 * MAX_TERM_DEPTH + 1
    assert err == (
        f"parse error: line 1, col {col}: term nested deeper than {MAX_TERM_DEPTH} levels\n"
    )
    ok = "m(" * MAX_TERM_DEPTH + "x" + ",y)" * MAX_TERM_DEPTH
    code, out, _ = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "Or", "--term", ok, "--assign", "x=0,y=1"]
    )
    assert code == 0
    assert out == "value: 1\n"


def test_chain_refuses_sizes_past_the_print_bound(corpus_file):
    code, out, err = invoke(
        ["chain", "--spec", corpus_file, "--signature", "Magma",
         "--generators", "1", "--upto", "40"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith(
        f"resource limit: printed size of stage 8: needs {(((458330**2 + 1)**2 + 1)**2 + 1)}, "
        f"limit is {MAX_PRINTED_STAGE_SIZE}"
    )


def test_convert_deep_identity_is_refused_promptly(tmp_path):
    """An identity of height 100 needs stage 100 of the chain: refused at
    the first stage over the bound, not after computing the sizes up to 100."""
    lhs = "x"
    for _ in range(100):
        lhs = f"m({lhs},x)"
    spec = tmp_path / "deep.alg"
    spec.write_text(CORPUS_TEXT + f"identity deep over Magma : {lhs} = x\n", encoding="utf-8")
    start = time.monotonic()
    code, out, err = invoke(
        ["convert", "to-identity", "--spec", str(spec), "--identity", "deep",
         "--generators", "1"]
    )
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("resource limit: stage 6 over 1 variables")


UNARY_SPEC = """\
signature Un { op s : 1 }
signature K { op e : 0 }
vars x
identity inv over Un : s(s(x)) = x
identity c over K : e() = e()
algebra Flip over Un { carrier { 0 1 } op s { (0) -> 1 (1) -> 0 } }
algebra A over K { carrier { 0 1 } op e { () -> 0 } }
"""


@pytest.mark.parametrize(
    "argv, stage_index",
    [
        (["chain", "--signature", "Un", "--generators", "1", "--terms", "--upto", "300"], 300),
        (["dalg-check", "--identity", "inv", "--algebra", "Flip", "--bound", "300"], 300),
        (["rho-chain", "--identity", "inv", "--bound", "3000"], 3000),
        (["rho-chain", "--identity", "c", "--bound", "3000000"], 3000000),
        (["dalg-check", "--identity", "c", "--algebra", "A", "--bound", "3000000"], 3000000),
        (["chain", "--signature", "K", "--generators", "1", "--upto", "3000000"], 3000000),
        (["chain", "--signature", "Un", "--generators", "1", "--upto", "3000000"], 3000000),
    ],
)
def test_unary_stage_index_is_bounded(argv, stage_index, tmp_path):
    """On a unary or nullary-only signature the stage sizes stay small at
    any index, so the term height bound is what refuses these, at once,
    after at most ``MAX_TERM_DEPTH + 1`` sizes, and without a traceback."""
    spec = tmp_path / "unary.alg"
    spec.write_text(UNARY_SPEC, encoding="utf-8")
    start = time.monotonic()
    code, out, err = invoke([argv[0], "--spec", str(spec)] + argv[1:])
    assert time.monotonic() - start < 1
    assert code == 2
    assert err == (
        f"resource limit: term height of stage {stage_index}: needs {stage_index}, "
        f"limit is {MAX_TERM_DEPTH}\n"
    )
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["free", "uprop"])
def test_saturation_depth_is_bounded_by_the_term_height(command, tmp_path):
    """Depth d of ``free`` and ``uprop`` registers terms of height d: on
    s(x) = s(x), which never merges, ``--max-depth`` past the term height
    bound is refused at once, and the bound itself still answers."""
    spec = tmp_path / "unary.alg"
    spec.write_text(
        UNARY_SPEC + "identity same over Un : s(x) = s(x)\npresentation Still = Un with same\n",
        encoding="utf-8",
    )
    argv = [command, "--spec", str(spec), "--presentation", "Still", "--generators", "1"]
    if command == "uprop":
        argv += ["--target", "Flip"]
    start = time.monotonic()
    code, out, err = invoke(argv + ["--max-depth", str(MAX_TERM_DEPTH + 1)])
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        f"resource limit: term height of depth {MAX_TERM_DEPTH + 1}: "
        f"needs {MAX_TERM_DEPTH + 1}, limit is {MAX_TERM_DEPTH}\n"
    )
    code, out, err = invoke(argv + ["--max-depth", str(MAX_TERM_DEPTH)])
    if command == "free":
        assert code == 1
        assert out.endswith(f"universe-size: {MAX_TERM_DEPTH + 1}\n")
    else:
        assert (code, err) == (2, "error: saturation did not stabilize; cannot test freeness\n")


WIDE_SPEC = """\
signature Magma { op m : 2 }
vars a b c d e f g h i j k l n o p q x y
identity lzero over Magma : m(x,y) = x
identity wide over Magma :
  m(m(m(m(a,b),m(c,d)),m(m(e,f),m(g,h))),m(m(m(i,j),m(k,l)),m(m(n,o),m(p,q)))) = q
presentation Wide = Magma with lzero wide
"""


def test_saturation_bounds_the_instances_of_a_depth(tmp_path):
    """Under m(x,y) = x every class's least term is a generator, so at
    depth 4, where the 16-variable ``wide`` fits, its instances are every
    16-tuple of generators: 3^16 on three generators are refused before
    the pass starts, and the 2^16 on two are applied and stabilize.  The
    right side of ``wide`` is the variable the identity check varies
    first, so each earlier depth's stop test fails at once."""
    spec = tmp_path / "wide.alg"
    spec.write_text(WIDE_SPEC, encoding="utf-8")
    argv = ["free", "--spec", str(spec), "--presentation", "Wide", "--max-depth", "5"]
    start = time.monotonic()
    code, out, err = invoke(argv + ["--generators", "3"])
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "resource limit: instances of identity component 1 at depth 4: "
        "needs 43046721, limit is 1000000\n"
    )
    code, out, _ = invoke(argv + ["--generators", "2"])
    assert code == 0
    assert out.startswith("status: stabilized\nat-depth: 5\n")


@pytest.mark.parametrize("bound", [17, 40])
def test_rho_chain_refuses_translations_past_the_height_bound(bound, tmp_path):
    """A translation is up to bound × 8 high here; past the term height bound
    it is refused before any is built, not compared until RecursionError."""
    spec = tmp_path / "unary.alg"
    spec.write_text(
        UNARY_SPEC + "identity inv8 over Un : s(s(s(s(s(s(s(s(x)))))))) = x\n",
        encoding="utf-8",
    )
    argv = ["rho-chain", "--spec", str(spec), "--identity", "inv8", "--generators", "1"]
    start = time.monotonic()
    code, out, err = invoke(argv + ["--bound", str(bound)])
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert err == (
        f"resource limit: term height of translations at bound {bound}: "
        f"needs {8 * bound}, limit is {MAX_TERM_DEPTH}\n"
    )
    code, out, _ = invoke(argv + ["--bound", "16"])
    assert code == 0
    assert "holds: true" in out


def test_rho_chain_tabulates_one_stage_once(tmp_path):
    """One table over stage 48 serves every level, and each element is
    translated once, from its children's entries."""
    spec = tmp_path / "unary.alg"
    spec.write_text(UNARY_SPEC, encoding="utf-8")
    start = time.monotonic()
    code, out, err = invoke(
        ["rho-chain", "--spec", str(spec), "--identity", "inv", "--bound", "48",
         "--generators", "2"]
    )
    assert time.monotonic() - start < 5
    assert (code, out, err) == (0, "checked: 98\nholds: true\n", "")


def test_dalg_check_refuses_before_folding(corpus_file):
    """``dalg-check`` refuses an over-large stage from the stage sizes
    alone, before it builds or folds anything, so the refusal comes at
    once."""
    start = time.monotonic()
    code, out, err = invoke(
        ["dalg-check", "--spec", corpus_file, "--identity", "assoc",
         "--algebra", "Or", "--bound", "3"]
    )
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert err == (
        "resource limit: stage 3 over 2 variables: needs 1006012010, limit is 1000000\n"
    )


def test_help_goes_to_out():
    code, out, err = invoke(["em-check", "--help"])
    assert code == 0
    assert out.startswith("usage: finalg em-check [-h] [--size SIZE]\n")
    assert err == ""


def test_check_associativity_holds(corpus_file):
    code, out, _ = invoke(
        ["check", "--spec", corpus_file, "--algebra", "B", "--identity", "massoc"]
    )
    assert code == 0
    assert "satisfies: true" in out


def test_check_failure_witness_replays(corpus_file):
    code, out, _ = invoke(
        ["check", "--spec", corpus_file, "--algebra", "LeftProj", "--identity", "comm"]
    )
    assert code == 1
    assert "satisfies: false" in out
    witness_line = next(l for l in out.splitlines() if l.startswith("witness-assignment:"))
    assignment = witness_line.split(":", 1)[1].strip().replace(" ", ",")
    lhs_code, lhs_out, _ = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "LeftProj",
         "--term", "m(x,y)", "--assign", assignment]
    )
    rhs_code, rhs_out, _ = invoke(
        ["eval", "--spec", corpus_file, "--algebra", "LeftProj",
         "--term", "m(y,x)", "--assign", assignment]
    )
    assert lhs_code == rhs_code == 0
    assert lhs_out != rhs_out
    code2, out2, _ = invoke(
        ["check", "--spec", corpus_file, "--algebra", "LeftProj",
         "--identity", "comm", "--equation-generators", "2"]
    )
    assert code2 == 1


def test_check_via_equation_route(corpus_file):
    code, out, _ = invoke(
        ["check", "--spec", corpus_file, "--algebra", "Or", "--identity", "comm",
         "--equation-generators", "2"]
    )
    assert code == 0
    assert "mode: equation" in out


def test_enumerate_with_filter(corpus_file):
    code, out, _ = invoke(
        ["enumerate", "--spec", corpus_file, "--signature", "Magma", "--size", "2",
         "--identity", "comm"]
    )
    assert code == 0
    assert out.strip().endswith("count: 8")


def test_convert_to_equation(corpus_file):
    code, out, _ = invoke(
        ["convert", "to-equation", "--spec", corpus_file, "--identity", "comm",
         "--generators", "2"]
    )
    assert code == 0
    assert "stage-size: 6" in out
    assert "blocks: 5" in out
    assert "block: m(x1,x2) m(x2,x1)" in out


def test_convert_to_identity(corpus_file):
    code, out, _ = invoke(
        ["convert", "to-identity", "--spec", corpus_file, "--identity", "comm",
         "--generators", "2"]
    )
    assert code == 0
    assert "components: 1" in out
    assert "component: m(v1,v2) = m(v2,v1)" in out


def test_convert_roundtrip(corpus_file):
    code, out, _ = invoke(
        ["convert", "roundtrip", "--spec", corpus_file, "--identity", "comm",
         "--generators", "2", "--max-size", "2"]
    )
    assert code == 0
    assert "equal: true" in out


@pytest.mark.parametrize("argv", [
    ["equi", "--identity", "comm", "--level", "2", "--max-size", "0"],
    ["convert", "roundtrip", "--identity", "comm", "--generators", "2", "--max-size", "0"],
])
def test_an_empty_size_range_is_refused(argv, corpus_file):
    assert invoke(argv + ["--spec", corpus_file]) == (
        2, "", "error: max size must be at least 1\n")


def test_free_stabilizes(corpus_file):
    code, out, _ = invoke(
        ["free", "--spec", corpus_file, "--presentation", "SemilatticeUnit",
         "--generators", "2", "--max-depth", "5"]
    )
    assert code == 0
    assert "status: stabilized" in out
    assert "carrier: 4" in out


def test_free_unstabilized(corpus_file):
    code, out, _ = invoke(
        ["free", "--spec", corpus_file, "--presentation", "MonoidPres",
         "--generators", "1", "--max-depth", "6"]
    )
    assert code == 1
    assert "status: unstabilized" in out
    counts = next(l for l in out.splitlines() if l.startswith("class-counts:"))
    values = [int(c) for c in counts.split(":")[1].split()]
    assert values == sorted(values) and len(set(values)) == len(values)


def test_uprop(corpus_file):
    code, out, _ = invoke(
        ["uprop", "--spec", corpus_file, "--presentation", "SemilatticeUnit",
         "--generators", "1", "--max-depth", "5", "--target", "B"]
    )
    assert code == 0
    assert "unique-extensions: true" in out


def test_rho_chain(corpus_file):
    code, out, _ = invoke(
        ["rho-chain", "--spec", corpus_file, "--identity", "comm", "--bound", "2"]
    )
    assert code == 0
    assert "holds: true" in out


def test_equi(corpus_file):
    code, out, _ = invoke(
        ["equi", "--spec", corpus_file, "--identity", "comm", "--level", "2",
         "--max-size", "2"]
    )
    assert code == 0
    assert "equivalent: true" in out


def test_em_check():
    code, out, _ = invoke(["em-check", "--size", "2"])
    assert code == 0
    assert "candidates: 16" in out
    assert "valid: 2" in out
    assert out.count("structure:") == 2


def test_dalg_check(corpus_file):
    code, out, _ = invoke(
        ["dalg-check", "--spec", corpus_file, "--identity", "comm",
         "--algebra", "Or", "--bound", "2"]
    )
    assert code == 0
    assert "compatible: true" in out
    code, out, _ = invoke(
        ["dalg-check", "--spec", corpus_file, "--identity", "comm",
         "--algebra", "LeftProj", "--bound", "2"]
    )
    assert code == 1
    assert "compatible: false" in out
    assert "witness:" in out


def test_dalg_check_signature_mismatch(corpus_file):
    code, out, err = invoke(
        ["dalg-check", "--spec", corpus_file, "--identity", "comm",
         "--algebra", "B", "--bound", "1"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: algebra signature differs from the diagram\n"


def test_equation_check_signature_mismatch(corpus_file):
    """An algebra over another signature than the identity's is one error
    line on the equation route too."""
    result = invoke(["check", "--spec", corpus_file, "--identity", "comm", "--algebra", "B",
                     "--equation-generators", "2"])
    assert result == (2, "", "error: signature mismatch between algebra and equation\n")


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("signature S { op m : 2 }\nvars x\nidentity b over S : m(x) = x\n")
    code, out, err = invoke(
        ["check", "--spec", str(bad), "--algebra", "A", "--identity", "b"]
    )
    assert code == 2
    assert out == ""
    assert "line 3" in err


def test_non_utf8_spec_is_one_error_line(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = invoke(["check", "--spec", str(bad), "--algebra", "Or", "--identity", "comm"])
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read {str(bad)!r}: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )


def test_nul_in_spec_path_is_one_error_line():
    code, out, err = invoke(["check", "--spec", "a\0b", "--algebra", "Or", "--identity", "comm"])
    assert (code, out, err) == (2, "", "error: cannot read 'a\\x00b': embedded null byte\n")


_S = ["--spec", "{spec}"]
_ENUM = ["enumerate", *_S, "--signature", "Magma", "--size", "2"]
_PRES = ["--presentation", "SemilatticeUnit", "--generators", "2", "--max-depth", "5"]
_CHECK = ["check", *_S, "--algebra", "LeftProj", "--identity", "comm"]


@pytest.mark.parametrize(
    "first, second",
    [
        (_ENUM + ["--identity", "comm", "--identity", "idem"], _ENUM),
        (["chain", *_S, "--signature", "Magma", "--generators", "-1", "--upto", "1"], _CHECK),
        (["chain", *_S, "--generators", "1"], _CHECK),
        (["--help"], _CHECK),
        (["free", "--help"], ["free", *_S, *_PRES]),
        (["free", *_S, *_PRES, "--max-universe", "20"], ["uprop", *_S, *_PRES, "--target", "B"]),
        (
            ["free", *_S, *_PRES, "--max-universe", "2000"],
            ["uprop", *_S, *_PRES, "--target", "B", "--max-universe", "20"],
        ),
    ],
)
def test_shared_parser_keeps_no_state_between_calls(first, second, corpus_file, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    first, second = ([a.replace("{spec}", corpus_file) for a in argv] for argv in (first, second))
    _build_parser.cache_clear()
    alone = invoke(second)
    _build_parser.cache_clear()
    invoke(first)
    assert invoke(second) == alone
    assert _build_parser.cache_info().misses == 1


def test_usage_error_exit_code():
    code, _, err = invoke(["chain"])
    assert code == 2
    assert "usage error" in err


def test_unknown_name_exit_code(corpus_file):
    code, _, err = invoke(
        ["check", "--spec", corpus_file, "--algebra", "Nope", "--identity", "comm"]
    )
    assert code == 2
    assert "Nope" in err


def test_resource_guard_is_clean_diagnostic(corpus_file):
    code, out, err = invoke(
        ["chain", "--spec", corpus_file, "--signature", "Magma",
         "--generators", "2", "--upto", "6", "--terms", "--max-stage-size", "500"]
    )
    assert code == 2
    assert "resource limit" in err


def test_em_check_refuses_unbounded_enumeration():
    """Size 5 has 5^32 candidate maps: refused before the walk starts."""
    code, out, err = invoke(["em-check", "--size", "5"])
    assert code == 2
    assert out == ""
    assert "resource limit: map enumeration" in err


def test_em_check_refuses_four_points():
    """4^16 candidate maps: refused from the count, with one line."""
    assert invoke(["em-check", "--size", "4"]) == (
        2, "", "resource limit: map enumeration from 16 into 4 atoms: "
        "needs 4294967296, limit is 1000000\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["enumerate", "--spec", "{corpus}", "--signature", "Magma", "--size", "60"],
         "resource limit: algebra enumeration: needs at least 10^6401, limit is 1000000\n"),
        (["em-check", "--size", "12"],
         "resource limit: map enumeration from 4096 into 12 atoms: "
         "needs at least 10^4420, limit is 1000000\n"),
        (["check", "--spec", "{unary}", "--algebra", "Flip", "--identity", "inv",
          "--equation-generators", "20000"],
         "resource limit: map enumeration from 20000 into 2 atoms: "
         "needs at least 10^6020, limit is 1000000\n"),
    ],
    ids=["enumerate-60", "em-check-12", "check-equation-20000"],
)
def test_demands_too_long_to_print_are_stated_as_lower_bounds(argv, err, corpus_file, tmp_path):
    """60^3600, 12^4096 and 2^20000 have more digits than ``str`` prints:
    each refusal is one line with a power of ten below the demand."""
    unary = tmp_path / "unary.alg"
    unary.write_text(UNARY_SPEC, encoding="utf-8")
    argv = [a.format(corpus=corpus_file, unary=unary) for a in argv]
    assert invoke(argv) == (2, "", err)


def test_equation_check_reads_each_block_over_its_own_variables(tmp_path):
    """s(s(x)) = x at 18 generators has 2^18 assignments, but each block of
    its arrow uses one generator, so each is checked on two."""
    spec = tmp_path / "unary.alg"
    spec.write_text(UNARY_SPEC, encoding="utf-8")
    start = time.monotonic()
    result = invoke(["check", "--spec", str(spec), "--algebra", "Flip", "--identity", "inv",
                     "--equation-generators", "18"])
    assert time.monotonic() - start < 1
    assert result == (0, "mode: equation\nsatisfies: true\n", "")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["check", "--spec", "{unary}", "--algebra", "Flip", "--identity", "inv",
          "--equation-generators", "20000"],
         "resource limit: map enumeration from 20000 into 2 atoms: "
         "needs at least 10^6020, limit is 1000000\n"),
        (["check", "--spec", "{corpus}", "--algebra", "Or", "--identity", "assoc",
          "--equation-generators", "21"],
         "resource limit: map enumeration from 21 into 2 atoms: "
         "needs 2097152, limit is 1000000\n"),
        (["check", "--spec", "{corpus}", "--algebra", "Or", "--identity", "assoc",
          "--equation-generators", "100"],
         "resource limit: stage 2 over 100 variables: needs 102010100, limit is 1000000\n"),
    ],
    ids=["flip-20000", "or-21", "or-100"],
)
def test_equation_check_is_bounded_before_the_conversion(argv, err, corpus_file, tmp_path,
                                                         monkeypatch):
    """The stage sizes and the |A|^N assignments are known from N and the
    carrier, so an over-large demand is refused before the equation arrow is
    built; a stage over its bound is still refused first."""
    def fail(ident, x):
        raise AssertionError("identity_to_equation called")

    monkeypatch.setattr(cli, "identity_to_equation", fail)
    unary = tmp_path / "unary.alg"
    unary.write_text(UNARY_SPEC, encoding="utf-8")
    start = time.monotonic()
    result = invoke([a.format(corpus=corpus_file, unary=unary) for a in argv])
    assert time.monotonic() - start < 0.5
    assert result == (2, "", err)


@pytest.mark.parametrize(
    "argv, err",
    [
        (["enumerate", "--spec", "{corpus}", "--signature", "Magma", "--size", "3000"],
         "resource limit: algebra enumeration: needs at least 10^29801969, limit is 1000000\n"),
        (["enumerate", "--spec", "{corpus}", "--signature", "Magma", "--size", "3000000"],
         "resource limit: algebra enumeration: needs at least 10^56894669179740, "
         "limit is 1000000\n"),
        (["em-check", "--size", "18"],
         "resource limit: map enumeration from 262144 into 18 atoms: "
         "needs at least 10^315652, limit is 1000000\n"),
        (["em-check", "--size", "25"],
         "resource limit: subsets of 25 atoms: needs 33554432, limit is 1000000\n"),
    ],
    ids=["enumerate-3000", "enumerate-3000000", "em-check-18", "em-check-25"],
)
def test_large_enumerations_are_refused_before_any_work(argv, err, corpus_file):
    """The count is compared with its bound before the power is built and
    before any subset of the base exists."""
    start = time.monotonic()
    result = invoke([a.format(corpus=corpus_file) for a in argv])
    assert time.monotonic() - start < 0.5
    assert result == (2, "", err)


def test_uprop_prints_the_witness_on_a_disagreement(corpus_file, monkeypatch):
    def disagree(res, ids, target):
        return FinMap(res.unit.dom, target.carrier, {"x1": "1"}), 2

    monkeypatch.setattr(cli.variety_mod, "universal_property_witness", disagree)
    assert invoke(
        ["uprop", "--spec", corpus_file, "--presentation", "SemilatticeUnit",
         "--generators", "1", "--max-depth", "5", "--target", "B"]
    ) == (1, "assignments: 2\nunique-extensions: false\n"
             "witness-assignment: x1=1\nwitness-extensions: 2\n", "")


def test_equi_prints_the_witness_on_a_disagreement(corpus_file, monkeypatch):
    def disagree(ident, level, max_size):
        witness = next(enumerate_algebras(ident.sig, FinSet(("0", "1"))))
        return ClassComparison(False, witness, 7)

    monkeypatch.setattr(cli, "equi_check", disagree)
    assert invoke(
        ["equi", "--spec", corpus_file, "--identity", "comm", "--level", "2",
         "--max-size", "2"]
    ) == (1, "checked: 7\nequivalent: false\nwitness-carrier: 2\n", "")


def test_rho_chain_prints_the_witness_on_a_disagreement(corpus_file, reversing_children):
    assert invoke(
        ["rho-chain", "--spec", corpus_file, "--identity", "comm", "--bound", "2"]
    ) == (1, "checked: 38\nholds: false\n"
             "witness: multiplication at 2 on c0(x1,c0(x1,x1))\n", "")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["enumerate", "--signature", "Magma", "--size", "-2"], "--size"),
        (["em-check", "--size", "-1"], "--size"),
        (["rho-chain", "--identity", "comm", "--bound", "-3"], "--bound"),
        (["chain", "--signature", "Magma", "--generators", "-1", "--upto", "2"],
         "--generators"),
        (["equi", "--identity", "comm", "--level", "-1", "--max-size", "2"], "--level"),
    ],
)
def test_negative_sizes_and_bounds_are_usage_errors(argv, option, corpus_file):
    if argv[0] != "em-check":
        argv = [argv[0], "--spec", corpus_file] + argv[1:]
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: argument {option}: expected a non-negative integer")


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--signature", "Magma", "--generators", "1", "--upto", "3"],
        ["free", "--presentation", "SemilatticeUnit", "--generators", "2", "--max-depth", "5"],
        ["convert", "to-equation", "--identity", "comm", "--generators", "2"],
        ["em-check", "--size", "2"],
    ],
)
def test_byte_identical_reruns(argv, corpus_file):
    if argv[0] != "em-check":
        argv = [argv[0]] + ["--spec", corpus_file] + argv[1:]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second


_GIANT = str(10**12)


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--signature", "Magma", "--generators", _GIANT, "--upto", "0"],
        ["free", "--presentation", "SemilatticeUnit", "--generators", _GIANT,
         "--max-depth", "5"],
        ["uprop", "--presentation", "SemilatticeUnit", "--generators", _GIANT,
         "--max-depth", "5", "--target", "B"],
        ["convert", "to-equation", "--identity", "comm", "--generators", _GIANT],
        ["rho-chain", "--identity", "comm", "--bound", "1", "--generators", _GIANT],
        ["check", "--algebra", "Or", "--identity", "comm", "--equation-generators", _GIANT],
    ],
    ids=lambda argv: argv[0],
)
def test_generator_sets_are_bounded_before_they_are_built(argv, corpus_file):
    """The generators are stage 0, so a count above the stage bound is
    refused before a single generator is made."""
    start = time.monotonic()
    result = invoke([argv[0], "--spec", corpus_file, *argv[1:]])
    assert time.monotonic() - start < 1
    assert result == (2, "", f"resource limit: stage 0 over {_GIANT} variables: "
                             f"needs {_GIANT}, limit is 1000000\n")


def test_enumerate_refuses_a_carrier_before_it_is_built(tmp_path):
    """With no operations there is one algebra at every size, so it is the
    carrier itself that is bounded, before a single atom is made."""
    spec = tmp_path / "empty.alg"
    spec.write_text("signature E { }\n", encoding="utf-8")
    start = time.monotonic()
    result = invoke(["enumerate", "--spec", str(spec), "--signature", "E", "--size", "3000000"])
    assert time.monotonic() - start < 1
    assert result == (2, "", "resource limit: carrier of 3000000 atoms: needs 3000000, "
                             "limit is 1000000\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["equi", "--identity", "c", "--level", "1", "--max-size", "3000"],
        ["convert", "roundtrip", "--identity", "c", "--generators", "1", "--max-size", "3000"],
    ],
    ids=lambda argv: argv[0],
)
def test_class_oracles_bound_their_whole_walk(argv, tmp_path):
    """Over constants alone each carrier size holds few algebras, so the
    number of sizes is what grows: the walk is refused once its carriers
    and counts together pass the enumeration bound."""
    spec = tmp_path / "unary.alg"
    spec.write_text(UNARY_SPEC, encoding="utf-8")
    start = time.monotonic()
    result = invoke([argv[0], "--spec", str(spec), *argv[1:]])
    assert time.monotonic() - start < 1
    assert result == (2, "", "resource limit: carriers and algebras of sizes 1..1000: "
                             "needs 1001000, limit is 1000000\n")


_EXTRA = """
algebra Extra over Magma {
  carrier { 0 1 }
  op m { (0,0) -> 0 (0,1) -> 0 (1,0) -> 1 (1,1) -> 1 }
}
"""


def test_an_edited_declaration_file_is_parsed_again(tmp_path):
    spec = tmp_path / "spec.alg"
    spec.write_text(CORPUS_TEXT, encoding="utf-8")
    argv = ["check", "--spec", str(spec), "--algebra", "Extra", "--identity", "comm"]
    assert invoke(argv) == (2, "", "error: unknown algebra 'Extra'\n")
    spec.write_text(CORPUS_TEXT + _EXTRA, encoding="utf-8")
    assert invoke(argv) == (1, "mode: identity\nsatisfies: false\nwitness-component: 0\n"
                               "witness-assignment: x=0 y=1\n", "")


def test_a_parse_error_is_never_cached(tmp_path):
    spec = tmp_path / "spec.alg"
    spec.write_text(CORPUS_TEXT + "identity broken over Magma : m(x = x\n", encoding="utf-8")
    argv = ["chain", "--spec", str(spec), "--signature", "Magma", "--generators", "1",
            "--upto", "1"]
    misses = cli._parse.cache_info().misses
    for _ in range(2):
        assert invoke(argv) == (2, "", "parse error: line 59, col 34: expected ')', found '='\n")
    assert cli._parse.cache_info().misses == misses + 2
    spec.write_text(CORPUS_TEXT, encoding="utf-8")
    assert invoke(argv) == (0, "sizes: 1 2\n", "")


def test_files_with_one_text_share_one_read_only_model(tmp_path):
    a, b = tmp_path / "a.alg", tmp_path / "b.alg"
    for path in (a, b):
        path.write_text(CORPUS_TEXT, encoding="utf-8")
    model = cli._load(str(a))
    assert cli._load(str(b)) is model
    assert model == parse_spec(CORPUS_TEXT)
    for table in (model.signatures, model.identities, model.algebras, model.presentations):
        with pytest.raises(TypeError):
            table["Or"] = None
    assert cli._parse.cache_info().maxsize == 8


@pytest.mark.parametrize("module", ["finalg", "finalg.cli"])
def test_the_module_forms_run_the_command(module, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=60)

    done = python_m("em-check", "--size", "2")
    assert (done.returncode, done.stdout, done.stderr) == invoke(["em-check", "--size", "2"])
    done = python_m("em-check", "--size", "-1")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage error: argument --size: ")


@pytest.mark.parametrize("module", ["finalg", "finalg.cli"])
def test_the_module_forms_run_the_command_in_process(module, monkeypatch, capsys):
    """Each module run as ``__main__`` in this process calls ``cli.main``
    on ``sys.argv``, which exits with the command's code after printing
    its report."""
    monkeypatch.setattr(sys, "argv", [module, "em-check", "--size", "2"])
    with warnings.catch_warnings():
        # runpy warns that ``finalg.cli`` is imported already; it runs a fresh copy.
        warnings.filterwarnings("ignore", "'finalg.cli' found in sys.modules", RuntimeWarning)
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module(module, run_name="__main__")
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out, captured.err) == invoke(["em-check", "--size", "2"])
    assert captured.out
