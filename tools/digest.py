"""Id-free digests of saturation results, standard library only.

Usage, from the repository root::

    python tools/digest.py                  # corpus cases and 300 random ones
    python tools/digest.py --random 50 --seed 7 > digests.txt

It imports finalg from ``src`` and reads the presentations of
``perfbench/corpus/corpus.alg`` and ``workbench.alg``; it imports nothing
from ``perfbench``.  The cases are every presentation of both files on
0-3 generators at depths 3 and 6, then ``--random`` seeded random
presentations (operations of arity 0-3, one to three identities over x
and y with sides of height at most 2, 0-2 generators, depth 1-4, a
universe bound of 2,000).  Each case prints one line: its name and a
digest of a rendering that names no id, so two engines that number
their ids differently but decide the same things print the same lines.
The rendering holds the registered terms in canonical order, each with
its class's least term; the identity instances that merged classes, in
log order, with their component, images and steps as terms; the
operation tables read off the certificate (each node's operation over
its children's least terms, to its own least term); the class counts,
the status and depth, and for a stabilized result its carrier, unit and
algebra tables; ``word_equal`` on the pairs of the first registered
terms; and the audit's verdict.  A refused case renders as its refusal.
A last section prints one line per stage of each signature of both files
on 0-3 generators, each stage up to 50,000 terms until one equals the
last: the stage's name and a digest of its formatted terms in order.
Run it at two commits and compare the outputs with ``diff``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from finalg import FinSet, Node, Signature, Stabilized, Var, format_term, saturate  # noqa: E402
from finalg.dsl import parse_spec  # noqa: E402
from finalg.errors import FinalgError  # noqa: E402
from finalg.identities import from_sigma  # noqa: E402
from finalg.terms import MAX_TERM_DEPTH, generators, iter_stage_sizes, stage  # noqa: E402
from finalg.variety import CONGRUENCE, audit_derivations, word_equal  # noqa: E402

SPECS = (ROOT / "perfbench" / "corpus" / "corpus.alg", ROOT / "workbench.alg")
RANDOM_OPS = (("e", 0), ("u", 1), ("m", 2), ("t", 3))
STAGE_TERMS = 50_000
X, Y = Var("x"), Var("y")


def rendering(res):
    """The lines of the id-free rendering of one saturation result."""
    state = res.state
    ops, kids, least, term = state.ops, state.node_args, state.least, state.term
    rendered = [format_term(t) for t in state.terms]
    at = {t: i for i, t in enumerate(state.terms)}
    for t in state.universe:
        yield f"term {format_term(t)} ~ {rendered[least[at[t]]]}"
    for a, b, reason in state.union_log:
        if reason != CONGRUENCE:
            component, images, left, right = reason
            yield (f"instance {component} {rendered[a]} = {rendered[b]}"
                   f" [{' '.join(rendered[i] for i in images)}]"
                   f" [{' '.join(rendered[i] for i in left)}]"
                   f" [{' '.join(rendered[i] for i in right)}]")
    yield from sorted({
        f"cell {ops[i]}({','.join(rendered[least[c]] for c in kids[i])}) = {rendered[least[i]]}"
        for i in range(len(state.x), len(ops))
    })
    yield "counts " + " ".join(map(str, state.class_counts))
    stabilized = isinstance(res, Stabilized)
    yield f"{'stabilized' if stabilized else 'unstabilized'} at depth {state.depth}"
    if stabilized:
        alg = res.algebra
        yield "carrier " + " ".join(map(format_term, alg.carrier))
        yield from (f"unit {a} -> {format_term(res.unit.table[a])}" for a in res.unit.dom)
        for op, arity in alg.sig:
            for args in itertools.product(alg.carrier.elements, repeat=arity):
                image = alg.tables[op][args]
                yield f"table {op}({','.join(map(format_term, args))}) = {format_term(image)}"
    first = [term(i) for i in range(min(6, len(ops)))]
    yield "word_equal " + "".join(
        "1" if word_equal(res, s, t) else "0" for s, t in itertools.combinations(first, 2))
    yield f"audit {audit_derivations(res)}"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def outcome(sig, ids, x, depth, **bounds) -> str:
    try:
        res = saturate(sig, ids, x, depth, **bounds)
    except FinalgError as exc:
        return digest([f"refused {type(exc).__name__}: {exc}"])
    return digest(rendering(res))


def random_term(rng: random.Random, sig: Signature, height: int):
    leaves = [X, Y] + [Node(op, ()) for op, k in sig if k == 0]
    branches = [(op, k) for op, k in sig if k]
    if height == 0 or not branches or rng.random() < 0.3:
        return rng.choice(leaves)
    op, k = rng.choice(branches)
    return Node(op, tuple(random_term(rng, sig, height - 1) for _ in range(k)))


def random_case(rng: random.Random):
    """A small random presentation, its generator count and depth, as the
    name of the case and the arguments of ``saturate``."""
    sig = Signature(tuple(rng.sample(RANDOM_OPS, rng.randint(1, 4))))
    sides = [(random_term(rng, sig, 2), random_term(rng, sig, 2))
             for _ in range(rng.randint(1, 3))]
    n, depth = rng.randint(0, 2), rng.randint(1, 4)
    names = FinSet(("x", "y"))
    ids = [from_sigma(sig, left, right, names) for left, right in sides]
    name = " ".join(f"{format_term(left)}={format_term(right)}" for left, right in sides)
    return f"{' '.join(op for op, _ in sig)} | {name} | {n} {depth}", (sig, ids, generators(n), depth)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random", type=int, default=300, help="random presentations")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for path in SPECS:
        model = parse_spec(path.read_text())
        for name, decl in model.presentations.items():
            sig, ids = model.signatures[decl.sig_name], model.presentation_identities(name)
            for n, depth in itertools.product(range(4), (3, 6)):
                print(f"{path.name} {name}/{n}/{depth} {outcome(sig, ids, generators(n), depth)}")
    rng = random.Random(args.seed)
    for k in range(args.random):
        name, (sig, ids, x, depth) = random_case(rng)
        print(f"random {k} [{name}] {outcome(sig, ids, x, depth, max_universe=2_000)}")
    for path in SPECS:
        for name, sig in parse_spec(path.read_text()).signatures.items():
            for n in range(4):
                x = generators(n)
                last = None
                for k, size in zip(range(MAX_TERM_DEPTH + 1), iter_stage_sizes(sig, x)):
                    # A stage no larger than the last equals it, and so do all later ones.
                    if size > STAGE_TERMS or size == last:
                        break
                    last = size
                    terms = map(format_term, stage(sig, x, k, STAGE_TERMS))
                    print(f"{path.name} stage {name}/{n}/{k} {digest(terms)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
