"""Ticks: wall time measured against a fixed reference loop.

The machines this benchmark was built on share cores with other tenants.
The same Python loop alternates between speeds up to 1.4x apart within a
second and drifts 2x over minutes, so seconds alone moved 20-40% between
runs of unchanged code. A tick is one run of the reference loop below,
timed next to the work it measures; time in ticks cancels most of that
drift. This module imports nothing from ``repro``, so it can time the
import itself.
"""

from __future__ import annotations

import statistics
import time

#: iterations of the reference loop; one run of it is a tick (6-11 ms)
REFERENCE_ITERATIONS = 30_000

#: the length of a tick when a time in ticks is reported in seconds
NOMINAL_TICK_S = 0.008


class _Cell:
    __slots__ = ("items",)

    def __init__(self):
        self.items: list[int] = []


def reference_loop() -> float:
    """Seconds taken by a fixed mix of integer, list, dict and attribute
    work, the kind of work Kremlin's own Python code does."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    cell = _Cell()
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        cell.items.append(key)
    cell.items.sort()
    return time.perf_counter() - start


def in_ticks(seconds: float, references: list[float]) -> float:
    """``seconds`` over the mean of the reference runs made next to it."""
    return seconds / statistics.mean(references)
