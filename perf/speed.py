"""Reference-speed probe: host time that is comparable between runs.

On the shared two-core box this benchmark was built on, the speed of the
*host itself* wanders in phases that last one to ten seconds: the same
pure-Python loop takes 11 ms in one second and 18 ms in the next, CPU time
moves with wall time (so it is not preemption), and over 15-second windows
of one process the median round of raw wall-clock times ranged over 40 %.
A run can sit entirely inside a slow phase, so neither the median nor the
quietest round of raw times repeats from run to run.

The probe is fixed code that touches nothing of the program under test.
The workloads run it between *segments* of a few tens of milliseconds; a
segment's host time is divided by how slow the probes on either side of
it ran relative to their nominal durations.  Two probes are averaged
because the host slows down in two ways that hit code differently: a
plain arithmetic loop follows the core's clock, a loop that copies 4 KiB
slices of a 1 MiB buffer through a dict follows cache and memory
contention from the neighbours.  Measured over twelve 15-second windows
(15-second-window medians, range over median): raw 42-57 %, arithmetic
loop alone 17 %, copying loop alone 6-10 %, their mean 4.5-5.8 %.

Every host-time metric is therefore "seconds at the host speed at which
both probes take their nominal time" — plain wall-clock on a host that
runs at that speed, and a like-for-like number on one that does not.  Raw
intervals travel in the result JSON beside the normalised ones.
"""

from __future__ import annotations

import time
from typing import List, Tuple

#: iterations and quiet-phase duration (5th percentile on the reference
#: box) of the arithmetic loop and of the copying loop; ~1 ms each keeps a
#: probe (the quicker of two passes of each) well under a segment
LOOP_ITERATIONS = 30_000
LOOP_NOMINAL_S = 1.0e-3
CHURN_ITERATIONS = 4_000
CHURN_NOMINAL_S = 1.0e-3

_BUFFER = bytes(range(256)) * 4096      # 1 MiB


def _loop() -> float:
    began = time.perf_counter()
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value * value
    return time.perf_counter() - began


def _churn() -> float:
    began = time.perf_counter()
    table = {}
    buffer = _BUFFER
    for value in range(CHURN_ITERATIONS):
        offset = (value * 7919 * 4096) & 0xFF000
        table[value & 127] = buffer[offset:offset + 4096]
    total = 0
    for piece in table.values():
        total += len(piece)
    return time.perf_counter() - began


def _probe() -> Tuple[float, float]:
    """Slowness of each probe against its nominal time.

    Each is the quicker of two passes, so that a hiccup inside the probe
    (but not inside the segment) does not read as a slow host.
    """
    return (min(_loop(), _loop()) / LOOP_NOMINAL_S,
            min(_churn(), _churn()) / CHURN_NOMINAL_S)


class HostSpeed:
    """Tracks how slow the host currently is relative to the reference."""

    def __init__(self) -> None:
        self.factors: List[float] = []  # every factor handed out, for the record
        self.reset()

    def reset(self) -> None:
        """Probe now; call right before a timed interval starts."""
        self._last = _probe()

    def factor(self) -> float:
        """Probe now; slowness of the interval since the previous probe.

        1.0 means the reference speed, 1.3 means intervals take 30 % longer
        than they would there; divide a raw interval by it.
        """
        previous, self._last = self._last, _probe()
        factor = sum(previous + self._last) / 4.0
        self.factors.append(factor)
        return factor
