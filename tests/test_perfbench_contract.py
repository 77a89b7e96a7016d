"""The finalg names the benchmark in ``perfbench/`` calls, with their
parameter names, reached by the module paths it uses.  The benchmark is
not part of this suite, so a renamed or re-shaped name would otherwise
show only when the benchmark runs."""
import dataclasses
import inspect
from pathlib import Path

import pytest

import finalg
import finalg.cli
import finalg.dsl
import finalg.terms

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "corpus.alg"

CALLED = [
    ("variety", "saturate", ("sig", "ids", "x", "depth_bound", "max_universe")),
    ("variety", "audit_derivations", ("res",)),
    ("variety", "check_universal_property", ("res", "ids", "target")),
    ("algebras", "enumerate_algebras", ("sig", "carrier", "max_count")),
    ("identities", "satisfies", ("alg", "ident")),
    ("identities", "bundle", ("idents",)),
    ("identities", "equivalent_upto", ("a", "b", "max_size")),
    (None, "from_sigma", ("sig", "lhs", "rhs", "vars")),
    ("terms", "relabel", ("t", "f")),
    ("terms", "variables", ("t",)),
    ("equations", "roundtrip_class_equal", ("ident", "x_sizes", "max_size")),
    ("monadic", "equi_check", ("ident", "k", "max_size")),
    ("monadic", "variety_vs_dalg", ("ident", "max_size", "bound")),
    ("monadic", "em_structures", ("m",)),
    ("monadic", "powerset_instance", ("base",)),
    ("cli", "run", ("argv", "out", "err")),
    ("dsl", "parse_spec", ("text",)),
]


@pytest.mark.parametrize("module, name, params", CALLED)
def test_benchmark_names_keep_their_parameters(module, name, params):
    owner = finalg if module is None else getattr(finalg, module)
    assert tuple(inspect.signature(getattr(owner, name)).parameters) == params


def test_benchmark_reads_the_stage_cache_and_the_state():
    """The state builds ``universe``, ``classes`` and ``instance_pairs`` on
    first access, so they are read off real results, as the benchmark does:
    their sizes under tracing, and the blocks of an unstabilized answer."""
    assert callable(finalg.terms._stage_terms.cache_info)
    assert {f.name for f in dataclasses.fields(finalg.variety.Stabilized)} >= {"algebra", "unit"}
    model = finalg.dsl.parse_spec(CORPUS.read_text())
    x = finalg.FinSet(("x1",))
    for name, depth, kind in (("Semilattice", 6, finalg.Stabilized),
                              ("MonoidPres", 3, finalg.Unstabilized)):
        sig = model.signatures[model.presentations[name].sig_name]
        res = finalg.variety.saturate(sig, model.presentation_identities(name), x, depth)
        assert isinstance(res, kind)
        state = res.state
        assert len(state.universe) == len(state.terms) > 0
        assert 0 < len(state.classes) <= len(state.universe)
        assert len(state.instance_pairs) > 0
        assert all(isinstance(a, finalg.Term) and isinstance(b, finalg.Term)
                   for a, b in state.instance_pairs)
        blocks = state.classes.blocks
        assert sum(map(len, blocks)) == len(state.universe)
        assert all(isinstance(t, finalg.Term) for block in blocks for t in block)


def test_benchmark_reads_the_values_built_without_a_second_check():
    """``enumerate_algebras``, ``enumerate_maps`` (through ``em_structures``)
    and the declaration parser build these with no second check; the
    benchmark's references read their attributes directly."""
    magma = finalg.Signature((("m", 2),))
    enumerated = next(finalg.enumerate_algebras(magma, finalg.FinSet((0, 1))))
    parsed = finalg.dsl.parse_spec(CORPUS.read_text()).algebras["Or"].algebra
    for alg, atoms in ((enumerated, (0, 1)), (parsed, ("0", "1"))):
        assert alg.sig == magma
        assert alg.carrier.elements == atoms
        assert set(alg.tables) == {"m"}
        assert set(alg.tables["m"]) == {(a, b) for a in atoms for b in atoms}
    base = finalg.FinSet((0, 1))
    mapped = next(finalg.enumerate_maps(base, base))
    assert mapped.table == {0: 0, 1: 0}
    powerset = finalg.powerset_instance(base)
    alpha = finalg.em_structures(powerset)[0]
    assert set(alpha.table) == set(powerset.object)
