"""Acceptance suite: every criterion checked exactly, with its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""
import io
import itertools
import time
from contextlib import contextmanager

from finalg import (
    FinSet,
    Node,
    Stabilized,
    Unstabilized,
    Var,
    apply_map,
    check_universal_property,
    enumerate_algebras,
    enumerate_maps,
    evaluate,
    identity_to_equation,
    equation_to_identity,
    iota,
    is_morphism,
    powerset_instance,
    q_node,
    satisfies,
    saturate,
    stage,
    variety_vs_dalg,
    w_embed,
    y_inject,
)
from finalg.monadic import em_structures, equi_check
from finalg.cli import run as cli_run
from conftest import CORPUS_TEXT, MAGMA, MONOID_SIG
from oracles import em_to_algebra, is_injective, structure_map, then


@contextmanager
def criterion(number, limit_seconds, description):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"
    print(f"criterion {number}: PASS ({elapsed:.2f}s < {limit_seconds}s) {description}")


def corpus_algebras(sig, max_size=2):
    for size in range(1, max_size + 1):
        yield from enumerate_algebras(sig, FinSet(tuple(range(size))))


CORPUS_SIGS = (MAGMA, MONOID_SIG)


def test_criterion_1_evaluation_identities():
    with criterion(1, 10, "evaluation identities hold exactly"):
        for sig in CORPUS_SIGS:
            for size in (1, 2):
                a = FinSet(tuple(range(size)))
                binding = {x: x for x in a}
                q_maps = [q_node(sig, a, n) for n in range(3)]
                iotas = [iota(stage(sig, a, n)) for n in range(4)]
                w_maps = [
                    (stage(sig, a, m_idx), w_embed(stage(sig, a, m_idx), n_idx))
                    for m_idx in range(4)
                    for n_idx in range(m_idx, 4)
                ]
                y_maps = [y_inject(sig, a, n) for n in range(1, 4)]
                for alg in enumerate_algebras(sig, a):
                    alpha = structure_map(alg)
                    for q in q_maps:
                        for (name, args), node in q.table.items():
                            folded = tuple(evaluate(alg, t, binding) for t in args)
                            assert evaluate(alg, node, binding) == alpha((name, folded))
                    for emb in iotas:
                        for x in a:
                            assert evaluate(alg, emb(x), binding) == x
                    for st, w in w_maps:
                        for t in st.terms:
                            assert evaluate(alg, w(t), binding) == evaluate(
                                alg, t, binding
                            )
                    for y in y_maps:
                        for (name, args), node in y.table.items():
                            assert evaluate(alg, node, binding) == alg.tables[name][args]


def test_criterion_2_chain_law():
    with criterion(2, 5, "chain law w∘q = q∘Fw elementwise"):
        two = FinSet(("x1", "x2"))
        for sig in CORPUS_SIGS:
            for x in (FinSet(("x1",)), two):
                for m_idx in range(3):
                    for n_idx in range(m_idx, 3):
                        st_m = stage(sig, x, m_idx)
                        left = then(
                            q_node(sig, x, m_idx), w_embed(stage(sig, x, m_idx + 1), n_idx + 1)
                        )
                        right = then(
                            apply_map(sig, w_embed(st_m, n_idx)), q_node(sig, x, n_idx)
                        )
                        assert left == right


def test_criterion_3_conversion_roundtrip(comm, assoc):
    with criterion(3, 60, "identity ↔ equation arrow round trip preserves classes"):
        for ident, x_size, counts in (
            (comm, 2, {1: 1, 2: 8, 3: 729}),
            (assoc, 3, {1: 1, 2: 8, 3: 113}),
        ):
            back = equation_to_identity(
                identity_to_equation(ident, FinSet(tuple(f"x{i+1}" for i in range(x_size))))
            )
            for size, expected in counts.items():
                carrier = FinSet(tuple(range(size)))
                direct = [satisfies(a, ident) for a in enumerate_algebras(MAGMA, carrier)]
                converted = [satisfies(a, back) for a in enumerate_algebras(MAGMA, carrier)]
                assert direct == converted
                assert sum(direct) == expected


def subset_eval(t):
    match t:
        case Var(name):
            return frozenset({name})
        case Node("e", ()):
            return frozenset()
        case Node("m", (a, b)):
            return subset_eval(a) | subset_eval(b)
    raise AssertionError(t)


def test_criterion_4_free_semilattices(semilattice_unit_ids):
    with criterion(4, 30, "free semilattices-with-unit are the powersets"):
        for n, expected in ((0, 1), (1, 2), (2, 4), (3, 8)):
            x = FinSet(tuple(f"x{i+1}" for i in range(n)))
            res = saturate(MONOID_SIG, semilattice_unit_ids, x, 6)
            assert isinstance(res, Stabilized)
            assert len(res.algebra.carrier) == expected
            to_subset = {t: subset_eval(t) for t in res.algebra.carrier}
            assert set(to_subset.values()) == {
                frozenset(c)
                for r in range(n + 1)
                for c in itertools.combinations(x.elements, r)
            }
            tables = res.algebra.tables
            for a in res.algebra.carrier:
                for b in res.algebra.carrier:
                    assert to_subset[tables["m"][(a, b)]] == to_subset[a] | to_subset[b]
            assert to_subset[tables["e"][()]] == frozenset()
            for gen in x:
                assert to_subset[res.unit.table[gen]] == frozenset({gen})


def test_criterion_5_universal_property(semilattice_unit_ids):
    with criterion(5, 60, "unique morphism extension into every bounded member"):
        frees = [
            saturate(
                MONOID_SIG,
                semilattice_unit_ids,
                FinSet(tuple(f"x{i+1}" for i in range(n))),
                6,
            )
            for n in (1, 2)
        ]
        members = [
            alg
            for size in (1, 2, 3)
            for alg in enumerate_algebras(MONOID_SIG, FinSet(tuple(range(size))))
            if all(satisfies(alg, i) for i in semilattice_unit_ids)
        ]
        assert len(members) == 9
        for res in frees:
            assert isinstance(res, Stabilized)
            for member in members:
                assert check_universal_property(res, semilattice_unit_ids, member)


def test_criterion_6_nonstabilization_honesty(monoid_ids):
    with criterion(6, 10, "monoid on one generator honestly fails to stabilize"):
        res = saturate(MONOID_SIG, monoid_ids, FinSet(("x1",)), 6)
        assert isinstance(res, Unstabilized)
        counts = res.state.class_counts
        assert len(counts) == 6
        assert all(a < b for a, b in zip(counts, counts[1:]))


def test_criterion_7_eilenberg_moore_example(semilattice_unit_ids):
    with criterion(7, 5, "exactly two E-M structures on P({0,1}), the two joins"):
        inst = powerset_instance(FinSet((0, 1)))
        structs = em_structures(inst)
        assert len(structs) == 2
        free_one = saturate(MONOID_SIG, semilattice_unit_ids, FinSet(("x1",)), 6)
        assert isinstance(free_one, Stabilized)
        for alpha in structs:
            alg = em_to_algebra(inst, alpha)
            assert all(satisfies(alg, i) for i in semilattice_unit_ids)
            isos = [
                h
                for h in enumerate_maps(free_one.algebra.carrier, alg.carrier)
                if is_injective(h) and is_morphism(free_one.algebra, alg, h)
            ]
            assert len(isos) == 1
        units = {alpha.table[()] for alpha in structs}
        assert units == {0, 1}


def test_criterion_8_level_equivalence(comm, assoc):
    with criterion(8, 30, "level-k derived identities induce the same classes"):
        for ident in (comm, assoc):
            for k in (1, 2, 3):
                cmp = equi_check(ident, k, 2)
                assert cmp.equal
                assert cmp.checked == 17


def test_criterion_9_dalg_reduction(comm, assoc):
    with criterion(9, 30, "direct satisfaction equals diagram-algebra compatibility"):
        for ident in (comm, assoc):
            cmp = variety_vs_dalg(ident, 2, 2)
            assert cmp.equal
            assert cmp.checked == 17


GOLDEN_INVOCATIONS = [
    ["chain", "--signature", "Magma", "--generators", "1", "--upto", "3"],
    ["free", "--presentation", "SemilatticeUnit", "--generators", "2", "--max-depth", "5"],
    ["convert", "to-equation", "--identity", "comm", "--generators", "2"],
    ["check", "--algebra", "LeftProj", "--identity", "comm"],
    ["em-check", "--size", "2"],
]


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, 5, "CLI reports are byte-identical across runs"):
        spec_path = tmp_path / "corpus.alg"
        spec_path.write_text(CORPUS_TEXT, encoding="utf-8")
        reports = {}
        for argv in GOLDEN_INVOCATIONS:
            full = list(argv)
            if argv[0] != "em-check":
                full = [argv[0], "--spec", str(spec_path)] + argv[1:]
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = cli_run(full, out, err)
                outputs.append((code, out.getvalue(), err.getvalue()))
            assert outputs[0] == outputs[1]
            reports[argv[0]] = outputs[0]
        assert reports["chain"][1] == "sizes: 1 2 5 26\n"
        assert "valid: 2" in reports["em-check"][1]
        assert "carrier: 4" in reports["free"][1]
