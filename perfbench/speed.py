"""Machine-speed probe: a fixed kernel that never touches ztransport, timed
between operations, so that timings can be read at one reference speed.

On a small shared VM the speed of a vCPU drifts by 10-50 % over minutes
(steal time stays near zero and CPU time drifts with wall time: the core
itself runs slower).  One 30 s run sits inside one such period, so runs of
the same code made minutes apart disagree by more than any useful bound.
The probe runs at fixed intervals during the timed loop, outside each
operation's interval.  A run's timings are multiplied by

    REFERENCE_S / (mean probe time of the run)

so they read as on a machine where one probe takes ``REFERENCE_S``.  The
probe is the same for every version of the program, so a slower program
still reads slower; only the machine's drift divides out.

The kernel mixes the two kinds of work the program does: small numpy
arrays built, broadcast, transposed and summed (the oracle), and sets,
dicts and tuples walked from Python (graph and identification).  The
garbage collector is off while it runs, so the program's heap size cannot
change what the probe costs.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# median probe time on the machine of the first baseline (perfbench/README.md)
REFERENCE_S = 0.010
PROBE_EVERY_S = 0.2  # probe spacing in the timed loop, in seconds of wall time

_GRID = np.arange(24.0).reshape(2, 3, 4)
_GRAPH = {i: frozenset({(7 * i + 3) % 64, (13 * i + 5) % 64, (i + 1) % 64}) for i in range(64)}


def _numpy_part(rounds: int = 700) -> float:
    total = 0.0
    for _ in range(rounds):
        x = np.ones((2, 3, 4)) * _GRID
        y = np.transpose(x, (2, 0, 1)).sum(axis=0)
        total += float(y[0, 0])
    return total


def _python_part(rounds: int = 150) -> int:
    total = 0
    for r in range(rounds):
        start = r % 64
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in _GRAPH[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        counts: dict[int, int] = {}
        for v in seen:
            counts[v & 7] = counts.get(v & 7, 0) + 1
        total += len(frozenset(seen) & _GRAPH[start]) + len(counts)
    return total


def probe() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _numpy_part()
        _python_part()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(probes: list[float]) -> float:
    """The multiplier that brings timings measured alongside ``probes`` to
    the reference speed.  The mean, not the median: a run's mean operation
    time weighs slow periods by their length, and so does the mean probe."""
    return REFERENCE_S / statistics.fmean(probes)
