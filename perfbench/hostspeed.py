"""How fast the host runs Python during a run, from a fixed probe.

The benchmark's hosts are shared: the same pipeline, on the same input,
runs up to 1.7x slower for minutes at a time when neighbours are busy,
and the processes of a run slow together (set-up time and pipeline
time of one run rise and fall as one).  A run's raw medians therefore
measure the host as much as the program.

:func:`probe` times a fixed piece of pure-Python work -- code of the
benchmark's own, which no change to ``repro`` can alter -- in the
process whose speed it stands for, right before and after the work it
corrects.  :func:`factor` is the mean probe time over
:data:`REFERENCE_S`: 1.0 on an unloaded host, larger on a loaded one.
The mean, not the median: the host flips between a fast and a slow
state every few seconds, a pipeline's time integrates over both, and
the median of a two-state mix jumps from one state to the other.
Dividing a run's times by the factor (multiplying its rates) states them
at the reference speed.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence

#: Time of one probe round on an unloaded host (2-vCPU Intel
#: Xeon VM at 2.1 GHz, CPython 3.11).  Only ratios of factors matter.
REFERENCE_S = 0.0034


def _probe_round() -> int:
    """Dictionary, tuple, string and sort work, as in the interpreted
    parts of ``repro``."""
    table = {}
    for i in range(6000):
        key = ("k", i % 1009, str(i % 97))
        table[key] = table.get(key, 0) + i
    return len(sorted(table.items(), key=lambda item: (item[1], item[0])))


def probe(rounds: int = 10) -> List[float]:
    """The times of ``rounds`` probe rounds.

    The cyclic collector is off meanwhile: in a process holding a large
    heap, a collection the probe's allocations set off would time that
    heap, not the host.
    """
    clock = time.perf_counter
    samples = []
    gc.disable()
    try:
        for _ in range(rounds):
            start = clock()
            _probe_round()
            samples.append(clock() - start)
    finally:
        gc.enable()
    return samples


def factor(samples: Sequence[float]) -> float:
    """Mean probe round over :data:`REFERENCE_S`."""
    return statistics.fmean(samples) / REFERENCE_S
