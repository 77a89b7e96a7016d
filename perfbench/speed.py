"""Machine-speed calibration for timed values.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent within minutes, so two runs of the same code can differ
by more than any regression worth catching.  Every timed value is
therefore also reported at a fixed reference speed: a calibration task
that does not touch finalg (dictionary, tuple and string work and a sort,
the operations finalg's interpreter-bound code is made of) runs between
queries whenever ``INTERVAL_S`` seconds have passed since the last
calibration, and a time is multiplied by ``REFERENCE_S`` over the mean of
the calibration times taken just before and just after it.
"""
from __future__ import annotations

import time

REFERENCE_S = 0.001  # calibration time at the reference speed
INTERVAL_S = 0.05
REPEATS = 5  # a calibration keeps the fastest of this many runs


def _task() -> int:
    table = {}
    for i in range(2000):
        key = (i % 17, str(i))
        table[key] = [i, key, (i, i + 1)]
    ordered = sorted(table, key=lambda k: (k[1], k[0]))
    return len(ordered) + sum(len(v) for v in table.values())


def calibrate() -> float:
    """Seconds the calibration task takes now (fastest of REPEATS)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _task()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into a
    time at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)


class SpeedLog:
    """Calibrations taken between queries, at least INTERVAL_S apart."""

    def __init__(self):
        self.samples = [calibrate()]
        self._last = time.perf_counter()

    def tick(self) -> int:
        """Calibrate if due; return the index of the latest calibration."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(calibrate())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def close(self) -> None:
        self.samples.append(calibrate())

    def factor(self, index: int) -> float:
        """Scale for a time measured after calibration ``index`` and before
        the next one."""
        return scale(self.samples[index], self.samples[index + 1])
