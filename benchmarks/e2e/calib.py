"""Speed calibration: one fixed kernel, timed beside every measured op.

Host speed on a shared guest wanders by tens of percent over seconds
(steal, frequency, noisy neighbours).  The benchmark therefore reports
timings in *reference milliseconds*: each wall-clock reading is divided
by how slow the kernel below ran right around it and multiplied by
``CAL_REF_MS``, the kernel's time on the host the baseline was taken on.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: Lower-decile kernel time on the reference host (2-vCPU guest, CPython
#: 3.11), measured once with ``python3 benchmarks/e2e/calib.py`` and
#: frozen.  Changing it rescales every timing metric; do not re-measure
#: it per run.
CAL_REF_MS = 0.55

#: Readings on each side of an op that vote on its local speed.
WINDOW = 4

_DATA = [(i * 2654435761) & 0xFFFFFFFF for i in range(3000)]
_SLOTS = {i: 0 for i in range(1024)}


def kernel() -> int:
    """Integer hash-mix over a fixed list into a fixed dict.

    Allocation-free apart from short-lived ints: no GC-tracked object is
    created, so the kernel neither triggers nor absorbs a collection.
    """
    slots = _SLOTS
    acc = 0
    for x in _DATA:
        acc = ((acc ^ x) * 2246822519) & 0xFFFFFFFF
        slots[acc & 1023] = acc
    return acc


def kernel_ms(runs: int = 1) -> float:
    """Median wall-clock milliseconds of ``runs`` kernel executions."""
    readings = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        readings.append((time.perf_counter() - start) * 1e3)
    return statistics.median(readings)


def local_speed(readings: Sequence[float], j: int, window: int = WINDOW) -> float:
    """Median kernel reading over ``readings[j-window .. j+window]``."""
    lo = max(0, j - window)
    return statistics.median(readings[lo : j + window + 1])


def normalize(
    walls_ms: Sequence[float], readings: Sequence[float], window: int = WINDOW
) -> List[float]:
    """Wall-clock op timings as milliseconds at reference speed.

    ``readings[j]`` is the kernel time taken right after op ``j``;
    ``window=0`` trusts each op's own reading alone.
    """
    if len(walls_ms) != len(readings):
        raise ValueError("one kernel reading per timed op is required")
    return [
        wall / local_speed(readings, j, window) * CAL_REF_MS
        for j, wall in enumerate(walls_ms)
    ]


if __name__ == "__main__":
    samples = sorted(kernel_ms() for _ in range(5000))
    print(f"lower decile {samples[len(samples) // 10]:.4f} ms, "
          f"median {samples[len(samples) // 2]:.4f} ms, "
          f"p90 {samples[len(samples) * 9 // 10]:.4f} ms")
