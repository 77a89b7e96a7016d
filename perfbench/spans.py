"""In-memory span recording for the traced run.

A span is one call from the benchmark into a finalg module's public
function: its name ``<module>.<function>``, start, end, the span that
was open when it began (its parent) and the query it served.  Spans are
kept in flat arrays while the run is timed and written out once at the
end.  A span's self time is its duration minus the part of its interval
that its child spans cover.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter

NO_PARENT = -1


class Tracer:
    """Records spans and per-layer counts for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.query = array("q")
        self.counts: Counter = Counter()
        self.query_id = NO_PARENT
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else NO_PARENT)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, amount) -> None:
        self.counts[name] += amount

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """One tab-separated line per span; times in seconds of perf_counter."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart\tend\tparent\tquery\n")
            names = self.names
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.query[i]}\n"
                )


def call(tracer: Tracer | None, name: str, fn, *args):
    """Call ``fn(*args)``, inside a span when tracing."""
    if tracer is None:
        return fn(*args)
    index = tracer.begin(name)
    try:
        return fn(*args)
    finally:
        tracer.finish(index)


def iterate(tracer: Tracer | None, name: str, iterator):
    """Iterate a generator from finalg, one span per item it produces."""
    if tracer is None:
        return iterator
    return _traced_items(tracer, name, iterator)


def _traced_items(tracer: Tracer, name: str, iterator):
    while True:
        index = tracer.begin(name)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            tracer.finish(index)
        yield item


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(start, end, parent) -> list[float]:
    """Per-span self time: duration minus the coverage of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            children.setdefault(p, []).append((start[i], end[i]))
    return [
        (end[i] - start[i]) - covered(children.get(i, []), start[i], end[i])
        for i in range(len(start))
    ]


def layer_totals(tracer: Tracer) -> tuple[Counter, Counter]:
    """Self seconds and call counts summed per span name."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for i, value in enumerate(selfs):
        name = tracer.names[tracer.name[i]]
        self_s[name] += value
        calls[name] += 1
    return self_s, calls
