"""finalg benchmark: one closed-loop client driving finalg in one thread.

Run from the repository root::

    python3 perfbench/run.py --workload free_variety --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (``corpus/workloads.json`` holds their queries):

* ``free_variety``: ``variety.saturate`` on a presentation, a generator
  count and a depth bound, then ``audit_derivations`` and, for a
  stabilized result, ``check_universal_property`` into a small member
  algebra.  Wide shallow presentations that stabilize and deep,
  merge-heavy ones stopped by the depth bound share the mix, so a change
  that favours one shape shows its cost on the other.
* ``class_oracle``: bounded-carrier class questions: algebra counts
  driven through ``enumerate_algebras`` and ``satisfies`` (19,683 magmas
  on 3 points), ``equivalent_upto``, the identity/equation round trip,
  ``equi_check``, ``variety_vs_dalg`` and ``em_structures``.  It builds
  tens of thousands of short-lived algebras; the other workloads only
  read a few fixed ones.
* ``cli_session``: many small in-process ``cli.run`` calls against one
  declaration file, the only workload where ``cli`` and ``dsl`` matter.

Each workload runs in a fresh process (one invocation runs one workload,
and ``--workload all`` starts one process per workload), so finalg's
process-global stage cache and the peak RSS start from the same state on
every commit.

``--trace 0`` prints the end-to-end metrics.  Set-up (importing finalg,
parsing the corpus, binding the queries, warm-up) is timed in this
process and in four set-up-only child processes; ``setup_s`` is the
median of the five.  Then whole rounds of the seed's query list run until at
least ``--seconds`` have passed and at least 100 queries are done, so the
90th percentile has ten samples beyond it.

``--trace 1`` prints the per-layer metrics.  Whole rounds run untraced for
half of ``--seconds``, then the same rounds run again with a span around
each call the benchmark makes into a finalg module; self times and counts
are reported per round, and ``trace.overhead_ratio`` is traced time over
untraced time.  Every per-layer metric is printed for every workload; a
layer the workload does not call reads 0.  Spans are written to
``.bench_trace/<workload>.tsv``.

Times are reported at a reference machine speed (see ``speed.py``): the
shared machines this runs on drift by tens of percent within minutes,
and a calibration task timed between queries takes that drift out.  The
raw end-to-end times are printed alongside.

Every answer is checked against ``corpus/answers.json`` and the
benchmark's own references.  A query that raises, exits with a wrong code
or answers wrongly counts as failed (its latency still counts as a
sample); a wrong answer counts also in ``wrong_answers``.  No failure
stops the run, but the exit code is 1 when any answer was wrong.  A run
still going after 170 seconds gives up with exit code 3 and no result.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

TAIL = 90  # the tail percentile reported
MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
MAX_STRETCH = 4  # stop after this many times --seconds even short of MIN_SAMPLES
DEADLINE_S = 170  # a run that is still going after this long gives up
SETUP_RUNS = 5
PROBE_CALLS = 25

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> unit.  "<span>.self_s" and "<span>.calls" come from the spans;
# the other counts are recorded by the queries.  Per-round values divide by
# the number of rounds traced.
PER_LAYER = {
    "variety.saturate.self_s": "s/round",
    "variety.saturate.calls": "count/round",
    "variety.universe_terms": "count/round",
    "variety.instance_merges": "count/round",
    "variety.class_ratio": "ratio",
    "variety.audit_derivations.self_s": "s/round",
    "variety.check_universal_property.self_s": "s/round",
    "algebras.enumerate_algebras.self_s": "s/round",
    "algebras.enumerated": "count/round",
    "identities.satisfies.self_s": "s/round",
    "identities.satisfies.calls": "count/round",
    "identities.equivalent_upto.self_s": "s/round",
    "identities.algebras_checked": "count/round",
    "equations.roundtrip_class_equal.self_s": "s/round",
    "equations.stage_terms": "count/round",
    "monadic.equi_check.self_s": "s/round",
    "monadic.variety_vs_dalg.self_s": "s/round",
    "monadic.em_structures.self_s": "s/round",
    "monadic.checked": "count/round",
    "cli.run.self_s": "s/round",
    "cli.run.calls": "count/round",
    "cli.fixed_overhead_ms": "ms",
    "dsl.parse_spec.ms_per_call": "ms",
    "terms.stage_cache_hit_ratio": "ratio",
    "terms.stage_cache_entries": "count",
    "trace.overhead_ratio": "ratio",
}

# A CLI call that does no work beyond argument parsing and loading the file.
NO_WORK_ARGV = ["chain", "--spec", str(workloads.CORPUS_SPEC), "--signature", "Magma",
                "--generators", "1", "--upto", "0"]


def percentile(samples: list[float], p: int) -> float:
    """Nearest-rank percentile: the sample at rank ceil(p/100 * n)."""
    ordered = sorted(samples)
    return ordered[max(1, -(-p * len(ordered) // 100)) - 1]


def samples_beyond(n: int, p: int) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, -(-p * n // 100))


class Tally:
    """Failure accounting; nothing here stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reported = 0

    def fail(self, query, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if self.reported < 5:
            self.reported += 1
            kind = "wrong answer" if wrong else "failed"
            print(f"{kind} (query {query.qid}, {json.dumps(query.spec)}): {message}",
                  file=sys.stderr)


def execute(query, tracer, tally: Tally, workload: str) -> float:
    """Run one query, check it, and return its latency in seconds."""
    tally.attempted += 1
    root = None
    if tracer is not None:
        tracer.query_id = query.qid
        root = tracer.begin(f"query.{workload}")
    start = time.perf_counter()
    try:
        raw = query.run(tracer)
    except Exception as exc:  # a failing query is counted, never fatal
        elapsed = time.perf_counter() - start
        tally.fail(query, f"{type(exc).__name__}: {exc}", wrong=False)
        if tally.reported <= 1:
            traceback.print_exc(file=sys.stderr)
        return elapsed
    finally:
        if root is not None:
            tracer.finish(root)
    elapsed = time.perf_counter() - start
    try:
        problem = query.check(raw)
    except Exception as exc:  # an unreadable answer is a wrong answer
        problem = f"answer could not be checked: {type(exc).__name__}: {exc}"
    if problem:
        tally.fail(query, problem, wrong=True)
    return elapsed


def measure(round_, workload, tally, seconds, min_samples, tracer=None, rounds=None):
    """Run whole rounds; return the latencies at reference speed, the raw
    latencies, and the number of rounds."""
    raw: list[float] = []
    marks: list[int] = []
    log = speed.SpeedLog()
    done = 0
    start = time.perf_counter()
    while True:
        for query in round_:
            marks.append(log.tick())
            raw.append(execute(query, tracer, tally, workload))
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
            continue
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(raw) >= min_samples:
            break
        if elapsed >= MAX_STRETCH * seconds:
            break
    log.close()
    return [t * log.factor(i) for t, i in zip(raw, marks)], raw, done


def set_up(workload: str, seed: int, tally: Tally):
    """Import finalg, parse the corpus, bind the queries, warm up.

    Returns the set-up time at reference speed and the bound workload."""
    before = speed.calibrate()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import finalg
    import finalg.cli
    import finalg.dsl

    round_, warm, digest = workloads.setup(workload, seed, finalg)
    for query in warm:
        execute(query, None, tally, workload)
    elapsed = time.perf_counter() - start
    return elapsed * speed.scale(before, speed.calibrate()), finalg, round_, digest


def probe_setups(args) -> list[float]:
    """Set-up times of fresh set-up-only processes."""
    times = []
    for _ in range(SETUP_RUNS - 1):
        try:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S / 4,
            )
        except subprocess.TimeoutExpired:
            print("set-up probe timed out", file=sys.stderr)
            continue
        if done.returncode != 0:
            print(f"set-up probe failed: {done.stderr.strip()[-400:]}", file=sys.stderr)
            continue
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def stage_cache(finalg):
    """cache_info() of finalg's process-global stage cache, if it has one."""
    cached = getattr(finalg.terms, "_stage_terms", None)
    info = getattr(cached, "cache_info", None)
    return info() if info else None


def median_ms(fn, calls: int = PROBE_CALLS) -> float:
    """Median time of ``fn()`` in ms, at reference speed."""
    before = speed.calibrate()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3 * speed.scale(before, speed.calibrate())


def end_to_end(args, tally: Tally) -> dict:
    setup_times = probe_setups(args)
    setup_s, finalg, round_, digest = set_up(args.workload, args.seed, tally)
    setup_times.append(setup_s)
    print(f"queries: {len(round_)} per round, digest {digest}")
    gc.collect()
    failed_before = tally.failed
    latencies, raw, rounds = measure(round_, args.workload, tally, args.seconds, MIN_SAMPLES)
    failed = tally.failed - failed_before
    n = len(latencies)
    print(f"rounds: {rounds}, samples: {n}, samples beyond p{TAIL}: {samples_beyond(n, TAIL)}")
    if samples_beyond(n, TAIL) < 10:
        print(f"warning: fewer than ten samples beyond p{TAIL}", file=sys.stderr)
    print("setup runs at reference speed (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"raw latency_p50_ms: {percentile(raw, 50) * 1e3:.6g} ms, "
          f"raw latency_p90_ms: {percentile(raw, TAIL) * 1e3:.6g} ms, "
          f"raw throughput_qps: {(n - failed) / sum(raw):.6g} 1/s")
    print(f"failed_ratio: {failed / n:.6f} ratio")
    print(f"wrong_answers: {tally.wrong} count")
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, TAIL) * 1e3,
        "throughput_qps": (n - failed) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(args, tally: Tally) -> dict:
    _, finalg, round_, digest = set_up(args.workload, args.seed, tally)
    print(f"queries: {len(round_)} per round, digest {digest}")
    gc.collect()
    untraced, _, rounds = measure(round_, args.workload, tally, args.seconds / 2, 0)
    cache_before = stage_cache(finalg)
    tracer = spans.Tracer()
    traced, traced_raw, _ = measure(round_, args.workload, tally, 0, 0, tracer=tracer,
                                    rounds=rounds)
    cache_after = stage_cache(finalg)
    print(f"rounds: {rounds} untraced then traced, spans: {len(tracer)}")

    self_s, calls = spans.layer_totals(tracer)
    pace = sum(traced) / sum(traced_raw)  # the traced pass's mean speed factor
    counts = tracer.counts
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = self_s[name[: -len(".self_s")]] * pace / rounds
        elif name.endswith(".calls"):
            metrics[name] = calls[name[: -len(".calls")]] / rounds
        elif PER_LAYER[name] == "count/round":
            metrics[name] = counts[name] / rounds
    universe = counts["variety.universe_terms"]
    metrics["variety.class_ratio"] = counts["variety.classes"] / universe if universe else 0.0

    metrics["cli.fixed_overhead_ms"] = median_ms(
        lambda: finalg.cli.run(NO_WORK_ARGV, io.StringIO(), io.StringIO()))
    text = workloads.CORPUS_SPEC.read_text(encoding="utf-8")
    metrics["dsl.parse_spec.ms_per_call"] = median_ms(lambda: finalg.dsl.parse_spec(text))
    hits = misses = 0
    entries = 0
    if cache_before and cache_after:
        hits = cache_after.hits - cache_before.hits
        misses = cache_after.misses - cache_before.misses
        entries = cache_after.currsize
    metrics["terms.stage_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["terms.stage_cache_entries"] = entries
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}.tsv"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return {name: metrics[name] for name in PER_LAYER}


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so that no query handler keeps it."""


def _deadline(signum, frame):
    raise Deadline


def run_all(args) -> int:
    """Every workload, each in a fresh process; metrics keyed workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result", file=sys.stderr)
            return done.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "finalg" / "__init__.py").is_file():
        print(f"finalg sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        return run_one(args)
    except Deadline:
        print(f"gave up after {DEADLINE_S} s", file=sys.stderr)
        return 3


def run_one(args) -> int:
    tally = Tally()
    if args.setup_only:
        setup_s = set_up(args.workload, args.seed, tally)[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"workload: {args.workload}, seed: {args.seed}, trace: {args.trace}")
    values = per_layer(args, tally) if args.trace else end_to_end(args, tally)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
