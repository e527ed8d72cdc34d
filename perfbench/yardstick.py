"""The host-speed yardstick that the end-to-end times are scaled by.

The shared machines this benchmark runs on change speed by a factor of
two or more over seconds to minutes, and most code on them slows by
about the same factor. Timed right before and right after each timed step of a unit,
a fixed pure-Python loop tracks that drift. On a 2-vCPU VM, over ten
minutes of back-to-back units, medians of ten-unit windows of raw
`sweep_s` had quartile spreads of 0.31-0.41 of their median; scaled by
the yardstick, 0.04-0.07.

The loop is shaped like the simulators' inner loop (nested list
indexing, float compares and adds) and never calls into the package,
so a change to the program cannot move it. It runs in the
unit's own process (perfbench/child.py), between the timed steps.
A larger loop over 4 MB of tables, closer to the simulators' memory
use, tracked the drift worse than this one on the same units.
"""
from __future__ import annotations

import time

# Nominal seconds of one yardstick_s() call. A scaled time T * REFERENCE_S / y
# reads in seconds on a host where the loop takes exactly this long; the
# value is the median the loop took on the 2-vCPU VM the benchmark was built on.
REFERENCE_S = 0.200

_SLOTS = 150_000


def _loop(slots: int) -> float:
    table = [[float((i * 7 + j * 3) % 11) for j in range(100)] for i in range(101)]
    key = [1, 5, 9, 3]
    idx = [2, 7, 1, 4]
    age = [1, 2, 3, 4]
    acc = 0.0
    for _ in range(slots):
        best_v = table[key[0]][idx[0]]
        for s in range(1, 4):
            v = table[key[s]][idx[s]]
            if v < best_v:
                best_v = v
        acc += best_v
        for s in range(4):
            a = age[s] + 1
            age[s] = a if a < 99 else 1
            key[s] = age[s]
            idx[s] = (idx[s] + s + 1) % 100
    return acc


def yardstick_s() -> float:
    """Wall seconds of one pass of the fixed loop."""
    t0 = time.perf_counter()
    _loop(_SLOTS)
    return time.perf_counter() - t0
