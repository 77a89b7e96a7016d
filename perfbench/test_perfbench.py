"""Tests of the benchmark itself.  Run from the repository root with
``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(workload):
    templates = workloads.load_templates()
    first = workloads.generate(workload, 7, templates)
    again = workloads.generate(workload, 7, templates)
    other = workloads.generate(workload, 8, templates)
    assert first == again
    assert workloads.digest(first[0]) == workloads.digest(again[0])
    assert workloads.digest(first[0]) != workloads.digest(other[0])


def test_seed_keeps_the_mix_of_query_shapes():
    templates = workloads.load_templates()
    shapes = [
        sorted((q["presentation"], q["generators"], q["depth"])
               for q in workloads.generate("free_variety", seed, templates)[0])
        for seed in (1, 2, 3)
    ]
    assert shapes[0] == shapes[1] == shapes[2]


def test_tail_percentile_rule():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 50) == 50.0
    assert run.percentile(samples, 90) == 90.0
    assert run.percentile(list(reversed(samples)), 90) == 90.0
    assert run.percentile([3.0], 90) == 3.0
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(run.MIN_SAMPLES, run.TAIL) >= 10
    assert run.samples_beyond(run.MIN_SAMPLES - 1, run.TAIL) < 10


def test_self_time_is_duration_minus_child_coverage():
    # parent 0..10; children overlap (1..3, 2..5 cover 4) and one runs past
    # the parent's end (9..12 covers 1); a grandchild sits inside 2..5.
    start = [0.0, 1.0, 2.0, 9.0, 3.0]
    end = [10.0, 3.0, 5.0, 12.0, 4.0]
    parent = [spans.NO_PARENT, 0, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [5.0, 2.0, 2.0, 3.0, 1.0]
    assert spans.covered([], 0.0, 1.0) == 0.0


def test_tracer_links_parents_and_queries():
    tracer = spans.Tracer()
    tracer.query_id = 4

    def inner():
        return sum(spans.iterate(tracer, "mod.gen", iter(range(3))))

    assert spans.call(tracer, "mod.outer", inner) == 3
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["mod.outer", "mod.gen", "mod.gen", "mod.gen", "mod.gen"]
    assert list(tracer.parent) == [spans.NO_PARENT, 0, 0, 0, 0]
    assert set(tracer.query) == {4}
    self_s, calls = spans.layer_totals(tracer)
    assert calls == {"mod.outer": 1, "mod.gen": 4}
    total = tracer.end[0] - tracer.start[0]
    assert self_s["mod.outer"] + self_s["mod.gen"] == pytest.approx(total)


def _entries_with_formula(node):
    if isinstance(node, dict):
        if "formula" in node:
            yield node
        for value in node.values():
            yield from _entries_with_formula(value)


def test_closed_form_answers_match_their_formulas():
    entries = list(_entries_with_formula(reference.load_answers()))
    assert len(entries) >= 10
    for entry in entries:
        formula = reference.FORMULAS[entry["formula"]]
        table = entry.get("sizes", entry.get("counts"))
        for arg, value in table.items():
            assert formula(int(arg)) == value, (entry["formula"], arg)


def test_every_answer_names_its_source():
    answers = reference.load_answers()
    for group in ("free_sizes", "algebra_counts", "verdicts"):
        for entry in answers[group].values():
            assert entry["source"]


def test_satisfies_table_matches_the_operation_tables():
    import finalg.dsl

    model = finalg.dsl.parse_spec(workloads.CORPUS_SPEC.read_text())
    answers = reference.load_answers()["satisfies"]
    for alg_name, verdicts in answers.items():
        if alg_name == "source":
            continue
        alg = model.algebras[alg_name].algebra
        for ident, expected in verdicts.items():
            decl = model.identities[ident]
            lhs, rhs = reference.plain(decl.lhs), reference.plain(decl.rhs)
            assert reference.holds(alg.tables, alg.carrier.elements, lhs, rhs) == expected


def test_every_target_algebra_is_in_its_variety():
    import finalg.dsl

    model = finalg.dsl.parse_spec(workloads.CORPUS_SPEC.read_text())
    templates = workloads.load_templates()
    entries = templates["free_variety"]["round"] + templates["free_variety"]["warmup"]
    entries += [e for e in templates["cli_session"]["round"] if e["cmd"] == "uprop"]
    pairs = set()
    for entry in entries:
        targets = entry.get("target")
        for target in targets["choose"] if isinstance(targets, dict) else [targets]:
            if target:
                pairs.add((entry["presentation"], target))
    assert pairs
    for presentation, target in pairs:
        alg = model.algebras[target].algebra
        for ident in model.presentations[presentation].identity_names:
            decl = model.identities[ident]
            lhs, rhs = reference.plain(decl.lhs), reference.plain(decl.rhs)
            assert reference.holds(alg.tables, alg.carrier.elements, lhs, rhs), (target, ident)


def test_band_normal_form_gives_the_free_band_on_two_letters():
    words = [w for n in range(1, 7) for w in itertools.product("ab", repeat=n)]
    forms = {reference.band_normal_form(w) for w in words}
    assert len(forms) == reference.load_answers()["free_sizes"]["Band"]["sizes"]["2"]


def test_stage_size_recurrence():
    assert reference.stage_sizes([2], 1, 3) == [1, 2, 5, 26]
    assert reference.stage_sizes([2, 0], 2, 2) == [2, 7, 52]


def test_cli_answers_are_compared_line_by_line():
    out = "mode: identity\nsatisfies: false\n"
    assert workloads.check_cli_output((1, out, ""), 1, {"satisfies": "false"}, None) == ""
    assert "exit code" in workloads.check_cli_output((2, out, "err"), 1, {}, None)
    assert "satisfies" in workloads.check_cli_output((1, out, ""), 1, {"satisfies": "true"}, None)
    terms = "sizes: 1 2\nterm: x1\nterm: m(x1,x1)\n"
    assert workloads.check_cli_output((0, terms, ""), 0, {"sizes": "1 2"}, 2) == ""
    assert workloads.check_cli_output((0, terms, ""), 0, {"sizes": "1 2"}, 3) != ""


def test_failures_are_counted_not_raised():
    def boom(tracer):
        raise RuntimeError("boom")

    tally = run.Tally()
    raising = workloads.Query(0, {}, boom, lambda raw: "")
    wrong = workloads.Query(1, {}, lambda tracer: 1, lambda raw: "expected 2")
    right = workloads.Query(2, {}, lambda tracer: 2, lambda raw: "")
    latencies, raw, rounds = run.measure([raising, wrong, right], "w", tally, 0, 0, rounds=2)
    assert rounds == 2 and len(latencies) == len(raw) == 6
    assert (tally.attempted, tally.failed, tally.wrong) == (6, 4, 2)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
