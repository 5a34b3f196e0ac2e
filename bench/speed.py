"""Machine-speed reference for steady timings on a shared machine.

On a small shared VM the speed of the same code drifts by 20-30% over tens
of seconds, as other tenants come and go, which is longer than one run.
Raw medians of two runs a minute apart then differ by more than any useful
regression bound. So the benchmark runs a fixed reference computation
(interpreted Python and numpy calls, like the package) right before and
right after each operation, and reports

    time of the operation * REFERENCE_S / mean time of the two references

that is, the operation's time at the speed the machine had when the
reference took REFERENCE_S. The raw medians are printed beside it.
"""

from __future__ import annotations

import time

import numpy as np

# Median of reference_seconds() on the 2-core 2.0 GHz x86 VM the benchmark
# was tuned on (Python 3.11, numpy 2.4).
REFERENCE_S = 0.008

_DATA = np.random.default_rng(0).integers(0, 1 << 20, 100_000)
_ROWS = np.random.default_rng(1).uniform(-1.0, 1.0, (8_192, 16))
_PICKS = np.random.default_rng(2).integers(0, len(_ROWS), 1_500).tolist()


def reference_seconds() -> float:
    """Wall time of the fixed reference computation, about 8 ms.

    Its parts follow the package's own work: interpreted arithmetic, numpy
    rows picked at random from a 1 MB array and counted in a dict by their
    bytes (as finite-width aggregation does), and a bulk numpy sort. The
    middle part dominates, because the interpreted, allocation-heavy code
    is what slows most when the machine is busy.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    counts: dict[bytes, int] = {}
    for i in _PICKS:
        row = _ROWS[i]
        key = row.tobytes()
        counts[key] = counts.get(key, 0) + 1
        row = row * 2.0 + row
    np.sort(_DATA)
    return time.perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    """seconds at the machine speed under which the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference
