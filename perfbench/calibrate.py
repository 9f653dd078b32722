"""A fixed reference load that measures how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts, by up to 2x
from one minute to the next, for reasons outside the program.  ``probe()``
times a fixed piece of pure-Python work of the kind persax does (exact
elimination over a prime field through method calls, tuple-keyed tables
of simplices, rational parsing), entirely in the benchmark's own code, so
its time moves with the machine and never with a change to persax.  The
benchmark takes one probe just before and one just after each operation.
It multiplies the operation's time by ``REFERENCE_S`` over the median of
the probes taken near it (``SpeedLog.factor``), which gives the operation's
time at a fixed reference speed.
"""

from __future__ import annotations

import itertools
import statistics
import time
from fractions import Fraction

# the probe's time on the machine the reference figures in README.md come
# from, at its usual speed; a constant, so that normalised times keep the
# scale of seconds
REFERENCE_S = 0.050
_ROUNDS = 20  # copies of the work in one probe: about 45 ms in all


class _Field:
    def __init__(self, p: int):
        self.p = p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


def _rank(rows: list[list[int]], field: _Field) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _work() -> int:
    field = _Field(3)
    total = 0
    for s in range(_ROUNDS):
        rows = [[(i * 7 + j * j * 5 + i * j * s) % 3 for j in range(24)] for i in range(24)]
        total += _rank(rows, field)
        names = [f"p{i:02d}" for i in range(12 + s % 4)]
        table = {}
        for k in (1, 2, 3):
            for combo in itertools.combinations(names, k):
                table[combo] = Fraction(f"{(len(table) + s) % 97}/{k + 2}")
        total += sum(1 for face in table if face[:-1] in table)
    return total


_CHECK = _work()


class SpeedLog:
    """The probes of one run, each with the time it was taken at."""

    def __init__(self, window_s: float):
        self.window_s = window_s
        self.probes: list[tuple[float, float]] = []  # (midpoint, seconds)

    def probe(self) -> None:
        start = time.perf_counter()
        if _work() != _CHECK:
            raise AssertionError("calibration work gave a different result")
        end = time.perf_counter()
        self.probes.append(((start + end) / 2, end - start))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe taken from ``window_s`` before
        ``start`` to ``window_s`` after ``end``."""
        near = [s for t, s in self.probes
                if start - self.window_s <= t <= end + self.window_s]
        return REFERENCE_S / statistics.median(near)
