"""Byte-for-byte CLI outputs over the shipped declaration files.

``data/cli_golden.json`` records argv, exit code, stdout and stderr for
every command over ``workbench.alg`` and ``perfbench/corpus/corpus.alg``,
unknown names of every kind, usage errors, and ``--help`` for the top
level and each subcommand.  The records were made with the argument
parser rebuilt on every call and the per-token tokenizer, so they pin
that the shared parser and the one-pass tokenizer change no output.  In
argv and outputs, ``{workbench}``, ``{corpus}`` and ``{missing}`` stand
for the two files and a path that does not exist.  The cases run in
file order in one process, so state left between calls would show too.
"""
import io
import itertools
import json
from pathlib import Path

import pytest

from finalg import FinSet
from finalg.cli import run
from finalg.dsl import parse_spec
from finalg.monadic import domain_signature
from finalg.terms import iter_stage_sizes

REPO = Path(__file__).resolve().parents[1]
CASES = json.loads((Path(__file__).with_name("data") / "cli_golden.json").read_text("utf-8"))


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:03d}-{'-'.join(c['argv'][:1])}" for i, c in enumerate(CASES)]
)
def test_cli_output_is_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    paths = {
        "{workbench}": str(REPO / "workbench.alg"),
        "{corpus}": str(REPO / "perfbench" / "corpus" / "corpus.alg"),
        "{missing}": str(tmp_path / "missing.alg"),
    }

    def fill(text):
        for placeholder, path in paths.items():
            text = text.replace(placeholder, path)
        return text

    out, err = io.StringIO(), io.StringIO()
    code = run([fill(arg) for arg in case["argv"]], out, err)
    assert (code, out.getvalue(), err.getvalue()) == (
        case["code"], fill(case["out"]), fill(case["err"])
    )


def test_rho_chain_checks_each_element_of_its_stage_once():
    """Every golden ``rho-chain`` verdict checked exactly the elements of
    stage ``--bound`` of the identity's domain chain over its generators."""
    models = {name: parse_spec((REPO / path).read_text("utf-8")) for name, path in
              [("{workbench}", "workbench.alg"), ("{corpus}", "perfbench/corpus/corpus.alg")]}
    cases = [c for c in CASES if c["argv"][:1] == ["rho-chain"] and "--bound" in c["argv"]
             and c["code"] == 0]
    assert len(cases) == 54
    for case in cases:
        opts = dict(zip(case["argv"][1::2], case["argv"][2::2]))
        domain = models[opts["--spec"]].natural_identity(opts["--identity"]).domain
        x = FinSet(tuple(range(int(opts.get("--generators", 2)))))
        sizes = iter_stage_sizes(domain_signature(domain), x)
        size = next(itertools.islice(sizes, int(opts["--bound"]), None))
        assert case["out"].splitlines()[0] == f"checked: {size}", case["argv"]
