"""The command line is total: any argument vector, with any small
declaration file, ends in exit code 0, 1 or 2 with no exception escaping
``cli.run``, and in bounded time.

The generated numerals are small (0-2), negative or too long for ``int``,
and the generated signatures have arities of at most 2 when they parse,
so no example starts a large enumeration or saturation.
"""
import io
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from finalg.cli import run

# Seconds one call may take; every well-formed call here is far below it.
TIME_BOUND = 10.0

TOO_LONG = "9" * 5000
# Mostly values that parse, so that most calls get past argument checking.
NUMERAL = st.sampled_from(["0", "1", "2"] * 5 + ["-1", "-3", TOO_LONG])
ARITY = st.sampled_from(["0", "1", "2", TOO_LONG, "٣", "100000", "17"])
ARITIES = {"m": "2", "s": "1", "e": "0"}
# Declared names three times in four, of the right kind.
SIGNATURE = st.sampled_from(["S", "S", "S", "A"])
ALGEBRA = st.sampled_from(["A", "A", "A", "S"])
IDENTITY = st.sampled_from(["i0", "i1", "i2", "P"])
PRESENTATION = st.sampled_from(["P", "P", "P", "nope"])
TERM = st.sampled_from(["m(x,y)", "s(x)", "e()", "x", "m(x", "q(x)", TOO_LONG])
ASSIGN = st.sampled_from(["", "x=0", "x=0,y=1", "x=1,x=0", "q=0", "x"])
SIDES = [
    ("m(x,y)", "m(y,x)"),
    ("m(m(x,y),z)", "m(x,m(y,z))"),
    ("m(x,x)", "x"),
    ("m(x,y)", "x"),
    ("s(s(x))", "x"),
    ("m(e(),x)", "x"),
]
FLAG = object()
MOSTLY = st.sampled_from([True] * 19 + [False])
OPTIONS = {
    "chain": {"--signature": SIGNATURE, "--generators": NUMERAL, "--upto": NUMERAL,
              "--terms": FLAG, "--max-stage-size": NUMERAL},
    "eval": {"--algebra": ALGEBRA, "--term": TERM, "--assign": ASSIGN},
    "check": {"--algebra": ALGEBRA, "--identity": IDENTITY, "--equation-generators": NUMERAL},
    "enumerate": {"--signature": SIGNATURE, "--size": NUMERAL, "--identity": IDENTITY,
                  "--print-tables": FLAG, "--max-count": NUMERAL},
    "convert": {"--identity": IDENTITY, "--generators": NUMERAL, "--max-size": NUMERAL},
    "free": {"--presentation": PRESENTATION, "--generators": NUMERAL, "--max-depth": NUMERAL,
             "--max-universe": NUMERAL},
    "uprop": {"--presentation": PRESENTATION, "--generators": NUMERAL, "--max-depth": NUMERAL,
              "--target": ALGEBRA, "--max-universe": NUMERAL},
    "rho-chain": {"--identity": IDENTITY, "--side": st.sampled_from(["lhs", "rhs", "mid"]),
                  "--bound": NUMERAL, "--generators": NUMERAL},
    "equi": {"--identity": IDENTITY, "--level": NUMERAL, "--max-size": NUMERAL},
    "em-check": {"--size": NUMERAL},
    "dalg-check": {"--identity": IDENTITY, "--algebra": ALGEBRA, "--bound": NUMERAL},
    "nope": {},
}


@st.composite
def declarations(draw) -> str:
    """A declaration file over one signature S: some of m, s and e, each
    with its usual arity seven times in eight, one to three identities, an
    algebra A with a table for each operation whose arity parses, and a
    presentation P."""
    names = draw(st.lists(st.sampled_from("mse"), min_size=1, max_size=3, unique=True))
    ops = [(op, ARITIES[op] if draw(st.sampled_from([True] * 7 + [False])) else draw(ARITY))
           for op in names]
    lines = ["signature S {", *(f"op {op} : {arity}" for op, arity in ops), "}", "vars x y z"]
    declared = [(lhs, rhs) for lhs, rhs in SIDES if set(lhs + rhs) & set("mse") <= set(names)]
    sides = draw(st.lists(st.sampled_from(declared or SIDES), min_size=1, max_size=3))
    lines += [f"identity i{k} over S : {lhs} = {rhs}" for k, (lhs, rhs) in enumerate(sides)]
    lines.append("algebra A over S { carrier { 0 1 }")
    for op, arity in ops:
        if arity in ("0", "1", "2"):
            images = draw(st.lists(st.sampled_from("01"), min_size=2 ** int(arity),
                                   max_size=2 ** int(arity)))
            rows = [f"({','.join(map(str, row))}) -> {image}"
                    for row, image in zip(_tuples(int(arity)), images)]
            lines.append(f"op {op} {{ {' '.join(rows)} }}")
    lines.append("}")
    lines.append("presentation P = S with " + " ".join(f"i{k}" for k in range(len(sides))))
    return "\n".join(lines)


def _tuples(arity: int) -> list[tuple]:
    rows = [()]
    for _ in range(arity):
        rows = [row + (a,) for row in rows for a in (0, 1)]
    return rows


@st.composite
def argument_vectors(draw, spec: str) -> list[str]:
    """A subcommand with each of its options present 19 times in 20;
    ``convert`` takes a mode, and every subcommand but ``em-check`` the
    declaration file."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    if command == "convert":
        argv.append(draw(st.sampled_from(["to-equation", "to-identity", "roundtrip", "up"])))
    if command != "em-check" and draw(MOSTLY):
        argv += ["--spec", spec]
    for option, values in OPTIONS[command].items():
        if draw(MOSTLY):
            argv += [option] if values is FLAG else [option, draw(values)]
    return argv


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_total") / "spec.alg"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_call_exits_0_1_or_2_in_bounded_time(spec_path, data):
    spec_path.write_text(data.draw(declarations(), label="declarations"), encoding="utf-8")
    argv = data.draw(argument_vectors(str(spec_path)), label="argv")
    start = time.perf_counter()
    code = run(argv, io.StringIO(), io.StringIO())
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert elapsed < TIME_BOUND
