"""O(1)-memory latency statistics: reservoir-sampled percentiles.

The event replay used to keep one Python float per simulated request in
``op_latencies_us`` / ``request_latencies_us``; at fleet scale (1,000
clients, millions of requests) those lists dominate memory and garbage-
collection time.  :class:`LatencyReservoir` replaces them: exact count,
mean, min and max over *every* recorded value, plus a fixed-capacity
uniform sample (Vitter's Algorithm R) from which percentiles are read.

Two properties the rest of the stack relies on:

* **Exactness below capacity** — a run recording no more values than the
  reservoir's capacity keeps all of them in insertion order, so small
  runs report bit-identical percentiles to the old list-based path (this
  is what keeps the committed ``BENCH_*.json`` baselines stable).
* **Determinism** — the acceptance RNG is seeded per reservoir, and the
  bulk numpy path consumes the same generator, so identical runs produce
  identical samples regardless of wall clock, platform or process count.
  Shard merges are quantile-stratified (no RNG at all).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..util import percentile

#: default sample capacity of the run-wide reservoirs; large enough that
#: every pre-fleet benchmark keeps its full latency sample (exact
#: percentiles), small enough that a million-op replay stays at a few
#: hundred KiB of samples.
DEFAULT_RESERVOIR_CAPACITY = 8192

#: default capacity of the per-client reservoirs (a 1,000-client run
#: keeps 1,000 of these alive at once).
CLIENT_RESERVOIR_CAPACITY = 1024


class LatencyReservoir:
    """Fixed-memory summary of a latency population.

    ``record`` keeps exact count/sum/min/max and maintains a uniform
    sample of at most ``capacity`` values; ``percentile`` reads
    nearest-rank percentiles from the sample (exact while the population
    fits in it).
    """

    __slots__ = ("capacity", "count", "sum_us", "max_us", "min_us",
                 "_sample", "_rng", "_seed")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY,
                 seed: int = 0x5EED) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self.count = 0
        self.sum_us = 0.0
        self.max_us = 0.0
        self.min_us = float("inf")
        self._sample: List[float] = []
        self._seed = seed
        #: acceptance RNG, built on the first draw: a population that fits
        #: the sample never draws, and a fleet keeps 1,000 of these
        self._rng: Optional[random.Random] = None

    def _acceptance_rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

    # -- recording -------------------------------------------------------------

    def record(self, value_us: float, weight: int = 1) -> None:
        """Record ``weight`` occurrences of one latency value.

        ``weight`` covers the batched-engine case where one window
        completes ``requests`` identical per-request latencies: the old
        code materialized ``[latency] * requests``; here only the
        aggregate moments grow and the sample sees at most ``weight``
        acceptance draws (bounded by the queue depth in practice).
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.sum_us += value_us * weight
        if value_us > self.max_us:
            self.max_us = value_us
        if value_us < self.min_us:
            self.min_us = value_us
        for _ in range(weight):
            self.count += 1
            if len(self._sample) < self.capacity:
                self._sample.append(value_us)
            else:
                slot = self._acceptance_rng().randrange(self.count)
                if slot < self.capacity:
                    self._sample[slot] = value_us

    def extend(self, values_us, weights=None) -> None:
        """Bulk-record an array of latencies (numpy fast path).

        The vectorized replay produces whole latency columns at once;
        feeding them through :meth:`record` one by one would cost a
        Python-level loop per simulated request.  This path fills the
        sample, then draws every acceptance decision with one vectorized
        RNG call.  Determinism holds (the RNG is the reservoir's own,
        consumed in a fixed order) although the accepted subset differs
        from what element-wise :meth:`record` calls would pick — both are
        uniform samples.

        ``weights`` marks each value as ``weights[i]`` identical
        occurrences (batch windows completing several requests at once).
        Exact moments honour the weights exactly; past capacity the
        sample acceptance uses the first-order Algorithm R probability
        ``capacity * weight / population`` per value, which converges to
        the exact scheme for populations well past capacity.
        """
        import numpy as np

        values = np.asarray(values_us, dtype=np.float64).ravel()
        if values.size == 0:
            return
        if weights is None:
            self.sum_us += float(values.sum())
            counts_end = None
            added = int(values.size)
        else:
            weights = np.asarray(weights, dtype=np.int64).ravel()
            if weights.shape != values.shape:
                raise ValueError("weights must match values in shape")
            if weights.size and int(weights.min()) <= 0:
                raise ValueError("weights must be positive")
            self.sum_us += float(np.dot(values, weights))
            counts_end = np.cumsum(weights)
            added = int(counts_end[-1])
        self.max_us = max(self.max_us, float(values.max()))
        self.min_us = min(self.min_us, float(values.min()))
        start = self.count
        self.count += added
        room = self.capacity - len(self._sample)
        fill = 0
        if room > 0:
            if weights is None:
                fill = min(room, values.size)
                self._sample.extend(values[:fill].tolist())
            else:
                fill = int(np.searchsorted(counts_end, room, side="left")) + 1
                fill = min(fill, values.size)
                expanded = np.repeat(values[:fill], weights[:fill])[:room]
                self._sample.extend(expanded.tolist())
        rest = values[fill:]
        if rest.size == 0:
            return
        # Item with 0-based global index n replaces a random slot with
        # probability capacity / (n + 1) — Algorithm R, vectorized.
        rng = np.random.default_rng(self._acceptance_rng().randrange(2 ** 63))
        if weights is None:
            population = np.arange(start + fill + 1, self.count + 1)
            accept_p = self.capacity / population
        else:
            accept_p = np.minimum(
                1.0, self.capacity * weights[fill:] /
                (start + counts_end[fill:]))
        accept = rng.random(rest.size) < accept_p
        accepted = rest[accept]
        if accepted.size:
            slots = rng.integers(0, self.capacity, size=accepted.size)
            for slot, value in zip(slots.tolist(), accepted.tolist()):
                self._sample[slot] = value

    @classmethod
    def from_segments(cls, values_us, weights, offsets,
                      capacity: int = CLIENT_RESERVOIR_CAPACITY,
                      ) -> List["LatencyReservoir"]:
        """One reservoir per segment of a weighted latency column.

        Segment ``i`` is ``[offsets[i], offsets[i + 1])``; its reservoir
        equals, field for field and in every later RNG draw, what
        ``cls(capacity).extend(values_us[lo:hi], weights=weights[lo:hi])``
        builds (an empty segment stays a fresh reservoir).  This is how
        the vectorized replay fills its per-client reservoirs: counts,
        extremes and samples of all segments come from a fixed number of
        whole-column numpy calls.  What stays per segment is ``sum_us``
        — ``extend`` computes it with a BLAS dot product, whose rounding
        no batched reduction reproduces — and any segment whose
        population exceeds ``capacity``, which goes through ``extend``
        itself so the acceptance draws are the same.
        """
        import numpy as np

        values = np.asarray(values_us, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if values.ndim != 1 or weights.shape != values.shape:
            raise ValueError("weights must match values in shape")
        if weights.size and int(weights.min()) <= 0:
            raise ValueError("weights must be positive")
        out = [cls(capacity=capacity) for _ in range(len(offsets) - 1)]
        sizes = np.diff(offsets)
        filled = np.flatnonzero(sizes)
        if filled.size == 0:
            return out
        before = np.zeros(values.size + 1, dtype=np.int64)
        np.cumsum(weights, out=before[1:])
        population = before[offsets[1:]] - before[offsets[:-1]]
        fits = population <= capacity
        # Empty segments hold no values, so the filled ones tile the column.
        low = np.minimum.reduceat(values, offsets[filled])
        high = np.maximum.reduceat(values, offsets[filled])
        # min(inf, x) and max(0.0, x) as Python evaluates them in extend
        low = np.where(low < np.inf, low, np.inf).tolist()
        high = np.where(high > 0.0, high, 0.0).tolist()
        # Below capacity the sample is the whole population in order.
        keep = np.repeat(fits, sizes)
        kept = np.repeat(values[keep], weights[keep]).tolist()
        kept_end = np.cumsum(np.where(fits, population, 0)).tolist()
        weights_f = weights.astype(np.float64)
        bounds = offsets.tolist()
        population = population.tolist()
        for rank, i in enumerate(filled.tolist()):
            stats, lo, hi = out[i], bounds[i], bounds[i + 1]
            if population[i] > capacity:
                stats.extend(values[lo:hi], weights=weights[lo:hi])
                continue
            stats.count = population[i]
            stats.sum_us += float(np.dot(values[lo:hi], weights_f[lo:hi]))
            stats.min_us, stats.max_us = low[rank], high[rank]
            stats._sample = kept[kept_end[i] - population[i]:kept_end[i]]
        return out

    # -- reading ---------------------------------------------------------------

    @property
    def sample(self) -> List[float]:
        """The retained sample, in insertion order while below capacity."""
        return list(self._sample)

    @property
    def sampled(self) -> bool:
        """True when the population exceeded capacity (percentiles are
        estimates rather than exact)."""
        return self.count > self.capacity

    @property
    def mean_us(self) -> float:
        """Exact mean over the full population (not just the sample)."""
        if not self.count:
            return 0.0
        return self.sum_us / self.count

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile read from the sample."""
        return percentile(self._sample, pct)

    def percentiles(self, pcts: Sequence[float] = (50.0, 95.0, 99.0)
                    ) -> Dict[str, float]:
        """p50/p95/p99-style summary keyed like the performance model."""
        ordered = sorted(self._sample)
        return {f"p{pct:g}": percentile(ordered, pct) for pct in pcts}

    def summary(self) -> Dict[str, float]:
        """Exact moments plus sampled percentiles in one dict."""
        out = {"count": float(self.count), "mean": self.mean_us,
               "max": self.max_us,
               "min": self.min_us if self.count else 0.0}
        out.update(self.percentiles())
        return out

    # -- merging ---------------------------------------------------------------

    def merge(self, others: Iterable["LatencyReservoir"],
              ) -> "LatencyReservoir":
        """Deterministically merge shard reservoirs into a new one.

        Exact moments add up; the merged sample is built without any RNG:
        if everything fits it is the concatenation (still exact),
        otherwise each shard contributes a quantile-stratified draw (its
        sorted sample read at evenly spaced ranks) proportional to its
        population, which preserves percentile fidelity and is identical
        for every merge of the same shard results in the same order.
        """
        parts = [self] + list(others)
        merged = LatencyReservoir(capacity=self.capacity, seed=self._seed)
        merged.count = sum(p.count for p in parts)
        merged.sum_us = sum(p.sum_us for p in parts)
        merged.max_us = max((p.max_us for p in parts if p.count), default=0.0)
        merged.min_us = min((p.min_us for p in parts if p.count),
                            default=float("inf"))
        total_kept = sum(len(p._sample) for p in parts)
        if total_kept <= merged.capacity:
            for part in parts:
                merged._sample.extend(part._sample)
            return merged
        total = sum(p.count for p in parts)
        for part in parts:
            if not part._sample:
                continue
            want = max(1, round(merged.capacity * part.count / total))
            want = min(want, len(part._sample))
            ordered = sorted(part._sample)
            if want == len(ordered):
                merged._sample.extend(ordered)
                continue
            step = len(ordered) / want
            merged._sample.extend(ordered[int((i + 0.5) * step)]
                                  for i in range(want))
        del merged._sample[merged.capacity:]
        return merged


def merge_reservoirs(parts: Sequence[LatencyReservoir],
                     capacity: Optional[int] = None) -> LatencyReservoir:
    """Merge a list of reservoirs (empty list -> empty reservoir)."""
    if not parts:
        return LatencyReservoir(capacity=capacity or
                                DEFAULT_RESERVOIR_CAPACITY)
    head = parts[0]
    return head.merge(parts[1:])
