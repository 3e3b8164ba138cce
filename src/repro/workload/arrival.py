"""Open-loop arrival processes: when does each operation *issue*?

A closed-loop stream (fio-style, the default) keeps ``queue_depth``
operations in flight and issues the next one on a completion — offered
load adapts to the system, so overload shows up as lower throughput, not
as queueing collapse.  Fleet traffic is not closed-loop: a thousand
tenants issue IO on their own schedules, indifferent to each other's
completions.  An :class:`ArrivalProcess` models that: it assigns each
client a sorted timestamp array saying when its operations issue, and
the event replay (:func:`repro.sim.fleet.simulate_fleet`) starts
op ``j`` of client ``i`` at ``timestamps[i][j]`` regardless of what is
still in flight.  Under overload the queues grow without bound and the
tail percentiles say so — which is the regime the paper's multi-client
figures care about.

Every process is deterministic: timestamps depend only on the seed and
the client index, never on wall clock or issue order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import WorkloadError


class ArrivalProcess:
    """Deterministic per-client issue-timestamp generator (base class)."""

    def timestamps_us(self, client: int, count: int) -> np.ndarray:
        """Sorted microsecond issue times for ``count`` ops of ``client``."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_per_client`` operations per second.

    The canonical open-loop load model: exponential inter-arrival gaps,
    independent across clients (each client draws from its own seeded
    generator, so fleet membership never changes a client's schedule).
    """

    rate_per_client: float
    seed: int = 42

    def __post_init__(self) -> None:
        if self.rate_per_client <= 0:
            raise WorkloadError("arrival rate must be positive (ops/s)")

    def timestamps_us(self, client: int, count: int) -> np.ndarray:
        rng = np.random.default_rng((0x0A1B, self.seed, client))
        gaps = rng.exponential(1e6 / self.rate_per_client, size=count)
        return np.cumsum(gaps)


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay recorded issue timestamps (one shared template schedule).

    Every client issues on the same captured schedule — the trace-driven
    counterpart of Poisson load.  The template must be sorted and at
    least as long as any client's op count.
    """

    template_us: Sequence[float]

    def __post_init__(self) -> None:
        values = list(self.template_us)
        if not values:
            raise WorkloadError("arrival trace must not be empty")
        if any(b < a for a, b in zip(values, values[1:])):
            raise WorkloadError("arrival trace timestamps must be sorted")

    def timestamps_us(self, client: int, count: int) -> np.ndarray:
        if count > len(self.template_us):
            raise WorkloadError(
                f"arrival trace has {len(self.template_us)} timestamps "
                f"but client {client} issues {count} operations")
        return np.asarray(self.template_us[:count], dtype=np.float64)


def arrival_schedule(process: ArrivalProcess,
                     op_counts: Sequence[int]) -> List[np.ndarray]:
    """One timestamp array per client, sized to its sealed op count."""
    return [process.timestamps_us(client, count)
            for client, count in enumerate(op_counts)]


def arrival_process_for(spec) -> ArrivalProcess:
    """The arrival process a :class:`~repro.workload.spec.WorkloadSpec`
    asks for (its ``arrival_rate``, seeded by its ``seed``)."""
    if spec.arrival_rate is None:
        raise WorkloadError("spec is not open-loop (set its arrival_rate)")
    return PoissonArrivals(rate_per_client=spec.arrival_rate, seed=spec.seed)


__all__ = ["ArrivalProcess", "PoissonArrivals", "TraceArrivals",
           "arrival_schedule", "arrival_process_for"]
