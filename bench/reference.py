"""The reference loop: a fixed piece of work, none of it from groversim, that
the benchmark times before every operation and once after the last.

The shared host the benchmark was defined on runs its guest up to twice
slower for seconds to minutes at a time. A wall time alone then spreads by a
fifth to a third from one run to the next. An operation's time divided by
the reference loop's time next to it (its time in "refs") cancels most of
that drift, provided the loop slows as the workload does: interpreted work
and vector arithmetic slow by different amounts. So the loop has two parts,
and each workload runs them in the mix that matches its own work
(workloads.REFERENCE_MIX). On that host the batch time in refs spread by 1
to 7 % between stretches of a run where the same batch in seconds spread by
15 to 30 %.

The inputs are constants, so the loop does the same work in every run and on
every commit; a change to the library cannot change it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_FLOATS = [((i * 7919) % 1000003) / 1000003.0 - 0.5 for i in range(300)]
_VECTOR = np.exp(1j * np.arange(1 << 15) * 0.001)

# An operation's reference time is the median of the loop's times over this
# many probes before it and after it.
WINDOW = 2


def interpreted() -> float:
    """Formats and parses floats and runs an integer bit loop, as the trace
    documents and the reversible layer do; about half a millisecond."""
    text = ",".join(repr(x) for x in _FLOATS)
    total = sum(float(t) for t in text.split(","))
    acc = 0
    for i in range(1500):
        acc ^= (i >> 3) & 5 | (i << 1) & 10
    return total + acc


def vector() -> float:
    """Multiplies 512 KiB complex vectors, as the dense transform does; about
    half a millisecond."""
    total = 0.0
    for _ in range(12):
        total += float((_VECTOR * _VECTOR[::-1]).real.sum())
    return total


class Reference:
    def __init__(self, mix: tuple[int, int]) -> None:
        self.interpreted, self.vector = mix

    def probe(self) -> float:
        """Seconds the reference loop takes now."""
        start = perf_counter()
        for _ in range(self.interpreted):
            interpreted()
        for _ in range(self.vector):
            vector()
        return perf_counter() - start


def around(probes: list[float], index: int) -> float:
    """Reference time of the operation run between probes[index] and
    probes[index + 1]."""
    return statistics.median(probes[max(0, index - WINDOW + 1):index + WINDOW + 1])
