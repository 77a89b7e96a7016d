"""The three workloads: query generation from a seed, execution, checks.

A workload's corpus entry (``corpus/workloads.json``) lists the queries
of one round.  A field written ``{"choose": [...]}`` is drawn by the
seed, and ``repeat`` asks for several independent draws.  The seed also
draws the labels inside each query (generator names, carrier atoms,
variable renamings, terms to evaluate) and the order of the round.  The
round is then repeated for as long as the run lasts, so every run of a
workload sees the same mix of query shapes whatever its seed; the seed
only chooses between queries of about the same cost.

The free_variety and class_oracle rounds hold 25 queries.  By cost, the
queries at ranks 11-15 are copies of one query and those at ranks 22-24
copies of another, so the 50th and 90th percentiles fall inside a block
of equal-cost queries and measure that query's latency, rather than a
boundary between two query shapes that noise can move either way.

Each generated query is a plain JSON-able dict; ``prepare`` binds it to
the parsed corpus and returns a :class:`Query` whose ``run`` calls into
finalg (inside spans when a tracer is given) and whose ``check``
compares the result with the reference answers.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import string
from dataclasses import dataclass
from typing import Callable

import reference
from spans import call, iterate

CORPUS = reference.CORPUS
WORKLOADS = ("free_variety", "class_oracle", "cli_session")
CORPUS_SPEC = CORPUS / "corpus.alg"
LABELS = string.ascii_lowercase


@dataclass
class Query:
    qid: int
    spec: dict
    run: Callable  # run(tracer or None) -> raw result
    check: Callable  # check(raw result) -> "" or what is wrong


def load_templates() -> dict:
    with open(CORPUS / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Generation: seed + corpus -> list of plain query dicts


def _draw(value, rng: random.Random):
    if isinstance(value, dict) and set(value) == {"choose"}:
        return rng.choice(value["choose"])
    if isinstance(value, list):
        return [_draw(v, rng) for v in value]
    return value


def _labels(rng: random.Random, k: int) -> list[str]:
    return sorted(rng.sample(LABELS, k))


def _random_term(rng: random.Random, nodes: int, names: tuple) -> list:
    """A random plain term with ``nodes`` binary ``m`` nodes, as nested lists."""
    if nodes == 0:
        return ["v", rng.choice(names)]
    left = rng.randrange(nodes)
    return ["m", _random_term(rng, left, names), _random_term(rng, nodes - 1 - left, names)]


def _as_plain(term: list) -> tuple:
    return tuple(_as_plain(a) if isinstance(a, list) else a for a in term)


def _format(term: tuple) -> str:
    if term[0] == "v":
        return term[1]
    return f"{term[0]}({','.join(_format(a) for a in term[1:])})"


def _fill(workload: str, entry: dict, rng: random.Random) -> dict:
    """Draw the seed-dependent labels of one query."""
    q = {k: _draw(v, rng) for k, v in entry.items() if k != "repeat"}
    if workload == "free_variety":
        q["names"] = _labels(rng, q["generators"])
    elif workload == "class_oracle":
        if q["kind"] == "count":
            q["carrier"] = _labels(rng, q["size"])
        if q["kind"] == "equivalent" and q["mode"] == "renamed":
            q["permutation"] = rng.sample(["x", "y", "z"], 3)
            q["swap"] = rng.random() < 0.5
    elif q["cmd"] == "eval":
        q["term"] = _random_term(rng, q["nodes"], ("x", "y", "z"))
        q["assign"] = {v: rng.randrange(3 if q["algebra"] == "Max3" else 2) for v in "xyz"}
    return q


def generate(workload: str, seed: int, templates: dict) -> tuple[list[dict], list[dict]]:
    """The round and the warm-up queries for ``seed``: a pure function of
    the seed and the corpus."""
    rng = random.Random(seed)
    section = templates[workload]
    round_ = [
        _fill(workload, entry, rng)
        for entry in section["round"]
        for _ in range(entry.get("repeat", 1))
    ]
    rng.shuffle(round_)
    warmup = [_fill(workload, entry, rng) for entry in section.get("warmup", [])]
    return round_, warmup


def digest(queries: list[dict]) -> str:
    text = json.dumps(queries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Binding to finalg


class Context:
    """The parsed corpus and the reference table, shared by all queries."""

    def __init__(self, finalg, model, answers: dict):
        self.fg = finalg
        self.model = model
        self.answers = answers

    def plain_identity(self, name: str):
        decl = self.model.identities[name]
        return reference.plain(decl.lhs), reference.plain(decl.rhs)

    def arities(self, sig_name: str) -> list[int]:
        return [arity for _, arity in self.model.signatures[sig_name]]

    def algebra(self, name: str):
        return self.model.algebras[name].algebra


def prepare(workload: str, qid: int, spec: dict, ctx: Context) -> Query:
    bind = {
        "free_variety": _free_query,
        "class_oracle": _class_query,
        "cli_session": _cli_query,
    }[workload]
    run, check = bind(spec, ctx)
    return Query(qid, spec, run, check)


def _expect(condition: bool, what: str) -> str:
    return "" if condition else what


# --- free_variety -----------------------------------------------------------


def _free_query(q: dict, ctx: Context):
    fg = ctx.fg
    variety = fg.variety
    model = ctx.model
    pres = q["presentation"]
    sig = model.signatures[model.presentations[pres].sig_name]
    ids = model.presentation_identities(pres)
    x = fg.FinSet(tuple(q["names"]))
    target = ctx.algebra(q["target"]) if q["target"] else None
    expected = ctx.answers["free_sizes"][pres]["sizes"]
    if expected != "unstabilized":
        expected = expected[str(q["generators"])]

    def run(tr):
        res = call(tr, "variety.saturate", variety.saturate, sig, ids, x, q["depth"])
        audit = call(tr, "variety.audit_derivations", variety.audit_derivations, res)
        uprop = None
        if target is not None and isinstance(res, variety.Stabilized):
            uprop = call(
                tr, "variety.check_universal_property",
                variety.check_universal_property, res, ids, target,
            )
        if tr is not None:
            tr.count("variety.universe_terms", len(res.state.universe))
            tr.count("variety.classes", len(res.state.classes))
            tr.count("variety.instance_merges", len(res.state.instance_pairs))
        return res, audit, uprop

    def check(raw) -> str:
        res, audit, uprop = raw
        names = tuple(x.elements)
        if not audit:
            return "derivation audit failed"
        if expected == "unstabilized":
            if not isinstance(res, variety.Unstabilized):
                return "stabilized, expected no stabilization"
            return reference.check_classes(pres, names, res.state.classes.blocks)
        if not isinstance(res, variety.Stabilized):
            return "did not stabilize"
        if len(res.algebra.carrier) != expected:
            return f"carrier {len(res.algebra.carrier)}, expected {expected}"
        if uprop is not True:
            return "universal property fails"
        return reference.check_free_algebra(
            pres, names, res.algebra.carrier.elements, res.algebra.tables, res.unit.table
        )

    return run, check


# --- class_oracle -----------------------------------------------------------


def _renamed_identity(ctx: Context, name: str, permutation: list, swap: bool):
    fg = ctx.fg
    decl = ctx.model.identities[name]
    mapping = dict(zip(["x", "y", "z"], permutation))
    lhs = fg.terms.relabel(decl.lhs, mapping)
    rhs = fg.terms.relabel(decl.rhs, mapping)
    if swap:
        lhs, rhs = rhs, lhs
    used = fg.terms.variables(lhs) | fg.terms.variables(rhs)
    sig = ctx.model.signatures[decl.sig_name]
    return fg.from_sigma(sig, lhs, rhs, fg.FinSet(tuple(used)))


def _height(term) -> int:
    return 0 if term[0] == "v" else 1 + max((_height(a) for a in term[1:]), default=0)


def _class_query(q: dict, ctx: Context):
    fg = ctx.fg
    model = ctx.model
    answers = ctx.answers
    magma = model.signatures["Magma"]
    checked_all = answers["magma_checked"]["counts"]
    kind = q["kind"]

    if kind == "count":
        carrier = fg.FinSet(tuple(q["carrier"]))
        ids = [model.natural_identity(n) for n in q["identities"]]
        key = "+".join(q["identities"])
        want = answers["algebra_counts"][key]["counts"][str(q["size"])]
        total = answers["algebra_counts"][""]["counts"][str(q["size"])]

        def run(tr):
            seen = matched = 0
            algebras = fg.algebras.enumerate_algebras(magma, carrier)
            for alg in iterate(tr, "algebras.enumerate_algebras", algebras):
                seen += 1
                if all(call(tr, "identities.satisfies", fg.identities.satisfies, alg, i)
                       for i in ids):
                    matched += 1
            if tr is not None:
                tr.count("algebras.enumerated", seen)
            return matched, seen

        def check(raw):
            matched, seen = raw
            return _expect(seen == total, f"enumerated {seen}, expected {total}") or _expect(
                matched == want, f"counted {matched}, expected {want}")

        return run, check

    if kind == "equivalent":
        mode = q["mode"]
        names = q["identities"]
        if mode == "renamed":
            left = [model.natural_identity(names[0])]
            right = [_renamed_identity(ctx, names[0], q["permutation"], q["swap"])]
        elif mode == "bundle":
            left = fg.identities.bundle([model.natural_identity(n) for n in names])
            right = [model.natural_identity(n) for n in names]
        else:
            left = [model.natural_identity(names[0])]
            right = [model.natural_identity(names[1])]
        verdict = answers["verdicts"][f"equivalent_{mode}"]["value"]
        plain_ids = [ctx.plain_identity(n) for n in names]

        def run(tr):
            cmp = call(tr, "identities.equivalent_upto", fg.identities.equivalent_upto,
                       left, right, q["max_size"])
            if tr is not None:
                tr.count("identities.algebras_checked", cmp.checked)
            return cmp

        def check(cmp):
            if cmp.equal != verdict:
                return f"verdict {cmp.equal}, expected {verdict}"
            if verdict:
                want = checked_all[str(q["max_size"])]
                return _expect(cmp.checked == want, f"checked {cmp.checked}, expected {want}")
            w = cmp.witness
            verdicts = [reference.holds(w.tables, w.carrier.elements, lhs, rhs)
                        for lhs, rhs in plain_ids]
            return _expect(verdicts[0] != verdicts[1], "witness does not separate the classes")

        return run, check

    if kind == "roundtrip":
        ident = model.natural_identity(q["identity"])
        lhs, rhs = ctx.plain_identity(q["identity"])
        arity = max(_height(lhs), _height(rhs))
        stage_terms = reference.stage_sizes(ctx.arities("Magma"), q["x_size"], arity)[-1]
        want = checked_all[str(q["max_size"])]

        def run(tr):
            report = call(tr, "equations.roundtrip_class_equal",
                          fg.equations.roundtrip_class_equal, ident, [q["x_size"]], q["max_size"])
            if tr is not None:
                tr.count("equations.stage_terms", stage_terms)
            return report

        def check(report):
            checked = [cmp.checked for _, cmp in report.outcomes]
            return _expect(report.equal is answers["verdicts"]["roundtrip"]["value"],
                           "round trip changed the class") or _expect(
                checked == [want], f"checked {checked}, expected {want}")

        return run, check

    if kind in ("equi", "dalg"):
        ident = model.natural_identity(q["identity"])
        want = checked_all[str(q["max_size"])]
        if kind == "equi":
            name, fn = "monadic.equi_check", fg.monadic.equi_check
            args = (ident, q["level"], q["max_size"])
        else:
            name, fn = "monadic.variety_vs_dalg", fg.monadic.variety_vs_dalg
            args = (ident, q["max_size"], q["bound"])
        verdict = answers["verdicts"][kind]["value"]

        def run(tr):
            cmp = call(tr, name, fn, *args)
            if tr is not None:
                tr.count("monadic.checked", cmp.checked)
            return cmp

        def check(cmp):
            return _expect(cmp.equal is verdict, f"verdict {cmp.equal}, expected {verdict}") or \
                _expect(cmp.checked == want, f"checked {cmp.checked}, expected {want}")

        return run, check

    if kind == "em":
        base = fg.FinSet(tuple(str(i) for i in range(q["size"])))
        want = answers["em_structures"]["counts"][str(q["size"])]
        candidates = q["size"] ** (2 ** q["size"])

        def run(tr):
            m = call(tr, "monadic.powerset_instance", fg.monadic.powerset_instance, base)
            found = call(tr, "monadic.em_structures", fg.monadic.em_structures, m)
            if tr is not None:
                tr.count("monadic.checked", candidates)
            return [dict(alpha.table) for alpha in found]

        def check(found):
            distinct = {tuple(sorted(alpha.items())) for alpha in found}
            if len(found) != want or len(distinct) != want:
                return f"{len(distinct)} distinct of {len(found)} structures, expected {want}"
            return _expect(all(_is_em_structure(base.elements, alpha) for alpha in found),
                           "a structure breaks the Eilenberg-Moore laws")

        return run, check

    raise ValueError(f"unknown class_oracle query kind {kind!r}")


def _is_em_structure(points: tuple, alpha: dict) -> bool:
    """Unit law and the flattening law over every family of subsets,
    checked on sorted-tuple subsets without finalg."""
    subsets = [s for r in range(len(points) + 1) for s in itertools.combinations(points, r)]
    if any(alpha[(a,)] != a for a in points):
        return False
    for r in range(len(subsets) + 1):
        for family in itertools.combinations(subsets, r):
            union = tuple(sorted({a for s in family for a in s}))
            folded = tuple(sorted({alpha[s] for s in family}))
            if alpha[union] != alpha[folded]:
                return False
    return True


# --- cli_session ------------------------------------------------------------


def _cli_query(q: dict, ctx: Context):
    spec = ["--spec", str(CORPUS_SPEC)]
    answers = ctx.answers
    cmd = q["cmd"]
    lines: dict[str, str] = {}
    term_lines = None
    rc = 0
    if cmd == "chain":
        argv = ["chain", *spec, "--signature", q["signature"], "--generators",
                str(q["generators"]), "--upto", str(q["upto"])]
        sizes = reference.stage_sizes(ctx.arities(q["signature"]), q["generators"], q["upto"])
        lines["sizes"] = " ".join(map(str, sizes))
        if q["terms"]:
            argv.append("--terms")
            term_lines = sizes[-1]
    elif cmd == "check":
        argv = ["check", *spec, "--algebra", q["algebra"], "--identity", q["identity"]]
        holds = answers["satisfies"][q["algebra"]][q["identity"]]
        lines["satisfies"] = "true" if holds else "false"
        rc = 0 if holds else 1
    elif cmd == "eval":
        term = _as_plain(q["term"])
        binding = {v: str(a) for v, a in sorted(q["assign"].items())}
        assign = ",".join(f"{v}={a}" for v, a in binding.items())
        argv = ["eval", *spec, "--algebra", q["algebra"], "--term", _format(term),
                "--assign", assign]
        lines["value"] = reference.evaluate(ctx.algebra(q["algebra"]).tables, term, binding)
    elif cmd == "convert":
        argv = ["convert", q["mode"], *spec, "--identity", q["identity"],
                "--generators", str(q["generators"])]
        if q["mode"] == "to-equation":
            lhs, rhs = ctx.plain_identity(q["identity"])
            arity = max(_height(lhs), _height(rhs))
            size = reference.stage_sizes(ctx.arities("Magma"), q["generators"], arity)[-1]
            lines["stage-size"] = str(size)
        elif q["mode"] == "to-identity":
            entry = answers["comm_components"]
            lines["components"] = str(entry["counts"][str(q["generators"])])
        else:
            argv += ["--max-size", str(q["max_size"])]
            lines["equal"] = "true" if answers["verdicts"]["roundtrip"]["value"] else "false"
    elif cmd in ("free", "uprop"):
        argv = [cmd, *spec, "--presentation", q["presentation"], "--generators",
                str(q["generators"]), "--max-depth", str(q["depth"])]
        size = answers["free_sizes"][q["presentation"]]["sizes"]
        if cmd == "uprop":
            argv += ["--target", q["target"]]
            points = len(ctx.algebra(q["target"]).carrier)
            lines["assignments"] = str(points ** q["generators"])
            lines["unique-extensions"] = "true"
        elif size == "unstabilized":
            lines["status"] = "unstabilized"
            rc = 1
        else:
            lines["status"] = "stabilized"
            lines["carrier"] = str(size[str(q["generators"])])
    elif cmd == "em-check":
        argv = ["em-check", "--size", str(q["size"])]
        lines["candidates"] = str(q["size"] ** (2 ** q["size"]))
        lines["valid"] = str(answers["em_structures"]["counts"][str(q["size"])])
    elif cmd == "rho-chain":
        argv = ["rho-chain", *spec, "--identity", q["identity"], "--bound", str(q["bound"])]
        lines["holds"] = "true"
    elif cmd == "equi":
        argv = ["equi", *spec, "--identity", q["identity"], "--level", str(q["level"]),
                "--max-size", str(q["max_size"])]
        lines["equivalent"] = "true"
        lines["checked"] = str(answers["magma_checked"]["counts"][str(q["max_size"])])
    elif cmd == "dalg-check":
        argv = ["dalg-check", *spec, "--identity", q["identity"], "--algebra", q["algebra"],
                "--bound", str(q["bound"])]
        holds = answers["satisfies"][q["algebra"]][q["identity"]]
        lines["compatible"] = "true" if holds else "false"
        rc = 0 if holds else 1
    elif cmd == "enumerate":
        argv = ["enumerate", *spec, "--signature", "Magma", "--size", str(q["size"])]
        for name in q["identities"]:
            argv += ["--identity", name]
        key = "+".join(q["identities"])
        lines["count"] = str(answers["algebra_counts"][key]["counts"][str(q["size"])])
    else:
        raise ValueError(f"unknown cli_session command {cmd!r}")
    run_cli = ctx.fg.cli.run

    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        code = call(tr, "cli.run", run_cli, argv, out, err)
        return code, out.getvalue(), err.getvalue()

    def check(raw):
        return check_cli_output(raw, rc, lines, term_lines)

    return run, check


def check_cli_output(raw, rc: int, lines: dict, term_lines) -> str:
    code, out, err = raw
    if code != rc:
        return f"exit code {code}, expected {rc}: {err.strip()[:120]}"
    report: dict[str, str] = {}
    terms = 0
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        report.setdefault(key, value)
        terms += key == "term"
    for key, value in lines.items():
        if report.get(key) != value:
            return f"{key}: {report.get(key)!r}, expected {value!r}"
    return _expect(term_lines is None or terms == term_lines,
                   f"{terms} term lines, expected {term_lines}")


# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, finalg):
    """Parse the corpus, generate and bind the round and the warm-up."""
    with open(CORPUS_SPEC, encoding="utf-8") as handle:
        model = finalg.dsl.parse_spec(handle.read())
    ctx = Context(finalg, model, reference.load_answers())
    round_specs, warm_specs = generate(workload, seed, load_templates())
    round_ = [prepare(workload, i, q, ctx) for i, q in enumerate(round_specs)]
    warm = [prepare(workload, -1 - i, q, ctx) for i, q in enumerate(warm_specs)]
    # free_variety and class_oracle keep little between queries: a few small
    # stage-cache entries.  Their warm-up runs each query kind once at a small
    # size, so first-call costs land in set-up without paying for a round of
    # seconds in every set-up.
    if workload == "cli_session":
        # This workload models one long-lived process answering CLI requests,
        # so it warms up on a whole round: finalg's process-global stage cache
        # is then as full as in that process's steady state, and the misses
        # that fill it are paid in set-up.  What every call pays again
        # (building the argument parser, parsing the declaration file) is not
        # cached by finalg, so the warm-up hides none of it.
        warm = round_
    return round_, warm, digest(round_specs)
