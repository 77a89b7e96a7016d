"""Per-query cost and rank of one benchmark round, in-process, standard library only.

Usage, from the repository root::

    python tools/ranks.py                       # free_variety, seed 1, best of 3
    python tools/ranks.py --workload class_oracle --seed 2 --repeat 5

It imports finalg from ``src`` and the benchmark's ``workloads`` and
``spans`` modules from ``perfbench``, and binds the seed's round and
warm-up as the benchmark's set-up does; it changes nothing in
``perfbench``.  After the warm-up it runs each query of the round
``--repeat`` times, untraced, keeps its fastest time, and checks the
last answer; then it runs the query once more inside a ``spans.Tracer``,
as ``--trace 1`` does, for the self time of each span it opens.  It
prints one line per query, cheapest first: the rank, the percentile
whose nearest rank in one round it is (``p50``, ``p90``, as the
benchmark computes them), the time in ms, the query id and the query as
JSON, then what is wrong with the answer, if anything; under it, one
indented line with each span's self time in ms in the traced run, such
as ``variety.saturate``, ``variety.audit_derivations`` and
``variety.check_universal_property`` for a ``free`` query.  Times are
raw wall-clock times of this process, not scaled to the benchmark's
reference speed, so compare ranks and ratios, not milliseconds across
machines.  The exit code is 1 when
an answer is wrong or a query raises.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# The modules the benchmark's set-up imports, which also binds ``finalg``.
import finalg.cli  # noqa: E402
import finalg.dsl  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PERCENTILES = (50, 90)


def nearest_rank(n: int, p: int) -> int:
    """The 1-based rank of the nearest-rank p-th percentile of n samples."""
    return max(1, -(-p * n // 100))


def timed(query, repeat: int) -> tuple[float, str]:
    """The fastest of ``repeat`` untraced runs of ``query``, in seconds,
    and what is wrong with its last answer ("" when it is right)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        try:
            raw = query.run(None)
        except Exception as exc:  # one failing query does not end the ranking
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        best = min(best, time.perf_counter() - start)
    return best, query.check(raw)


def span_times(query) -> str:
    """Each span's self time, in ms, in one traced run of ``query``, in the
    order the spans first opened."""
    tracer = spans.Tracer()
    try:
        query.run(tracer)
    except Exception:  # the untraced runs already report it
        pass
    self_s, _ = spans.layer_totals(tracer)
    return "  ".join(f"{name} {seconds * 1e3:.3f}" for name, seconds in self_s.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="free_variety")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3, help="runs per query, the best kept")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    round_, warm, digest = workloads.setup(args.workload, args.seed, finalg)
    for query in warm:
        timed(query, 1)
    ranked = sorted(((*timed(q, args.repeat), q) for q in round_), key=lambda entry: entry[0])
    marks = {nearest_rank(len(ranked), p): f"p{p}" for p in PERCENTILES}
    print(f"{args.workload} seed {args.seed} round {digest}: "
          f"{len(ranked)} queries, best of {args.repeat}")
    for rank, (seconds, problem, query) in enumerate(ranked, 1):
        wrong = f"  WRONG: {problem}" if problem else ""
        print(f"{rank:3d} {marks.get(rank, ''):3s} {seconds * 1e3:10.3f} ms  "
              f"q{query.qid:<3d} {json.dumps(query.spec, sort_keys=True)}{wrong}")
        print(f"{'':21s}{span_times(query)}")
    return 1 if any(problem for _, problem, _ in ranked) else 0


if __name__ == "__main__":
    raise SystemExit(main())
