"""Property tests (Hypothesis) for the O(1)-memory latency statistics.

Satellite S3 of the fleet-scale PR: the reservoir must (a) be *exact*
while the population fits its capacity, (b) keep exact moments under any
mix of scalar and bulk (weighted) recording, and (c) estimate percentiles
within tolerance past capacity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.reservoir import LatencyReservoir
from repro.util import percentile

latencies = st.lists(
    st.floats(min_value=0.01, max_value=1e7, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=200)


class TestExactBelowCapacity:
    @given(values=latencies)
    def test_percentiles_match_list_path_exactly(self, values):
        reservoir = LatencyReservoir(capacity=256)
        for value in values:
            reservoir.record(value)
        assert not reservoir.sampled
        assert reservoir.sample == values
        for pct in (1.0, 50.0, 95.0, 99.0, 100.0):
            assert reservoir.percentile(pct) == percentile(values, pct)

    @given(values=latencies)
    def test_extend_matches_record_moments(self, values):
        looped = LatencyReservoir(capacity=64)
        bulk = LatencyReservoir(capacity=64)
        for value in values:
            looped.record(value)
        bulk.extend(np.asarray(values))
        assert bulk.count == looped.count == len(values)
        assert bulk.sum_us == pytest.approx(looped.sum_us)
        assert bulk.min_us == looped.min_us
        assert bulk.max_us == looped.max_us


class TestWeightedExtend:
    @given(values=st.lists(st.floats(min_value=0.5, max_value=1e6,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=60),
           weights=st.data())
    def test_weighted_moments_match_expanded_population(self, values, weights):
        counts = weights.draw(st.lists(st.integers(min_value=1, max_value=9),
                                       min_size=len(values),
                                       max_size=len(values)))
        weighted = LatencyReservoir(capacity=32)
        weighted.extend(np.asarray(values), weights=np.asarray(counts))
        expanded = LatencyReservoir(capacity=32)
        expanded.extend(np.repeat(values, counts))
        assert weighted.count == expanded.count == sum(counts)
        assert weighted.sum_us == pytest.approx(expanded.sum_us)
        assert weighted.min_us == expanded.min_us
        assert weighted.max_us == expanded.max_us
        assert len(weighted.sample) <= 32

    def test_weight_validation(self):
        reservoir = LatencyReservoir(capacity=8)
        with pytest.raises(ConfigurationError, match="positive"):
            reservoir.extend(np.array([1.0]), weights=np.array([0]))
        with pytest.raises(ConfigurationError, match="shape"):
            reservoir.extend(np.array([1.0, 2.0]), weights=np.array([1]))
        # 2.0 escaped as a bare TypeError from range()
        for weight in (0, -1, 2.0, "2", True):
            with pytest.raises(ConfigurationError, match="positive integer"):
                reservoir.record(1.0, weight=weight)
        assert reservoir.count == 0
        reservoir.record(1.0, weight=np.int64(2))
        assert (reservoir.count, reservoir.sample) == (2, [1.0, 1.0])

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            LatencyReservoir(capacity=0)


class TestSampledPercentileTolerance:
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_percentiles_within_rank_tolerance(self, seed):
        """Past capacity, each reported percentile must land within a few
        rank points of the true one (capacity 8192 puts the sampling
        noise of the p50 rank at ~0.55 points, so +/-3 is > 5 sigma)."""
        rng = np.random.default_rng(seed)
        population = rng.lognormal(mean=5.0, sigma=1.0, size=20_000)
        reservoir = LatencyReservoir()
        reservoir.extend(population)
        assert reservoir.sampled
        ordered = sorted(population.tolist())
        for pct in (50.0, 95.0, 99.0):
            low = percentile(ordered, max(0.5, pct - 3.0))
            high = percentile(ordered, min(100.0, pct + 3.0))
            estimate = reservoir.percentile(pct)
            assert low <= estimate <= high, (
                f"p{pct:g} estimate {estimate:.1f} outside "
                f"[{low:.1f}, {high:.1f}] for seed {seed}")

    def test_extend_is_deterministic(self):
        population = np.random.default_rng(7).exponential(100.0, size=30_000)
        first = LatencyReservoir()
        second = LatencyReservoir()
        first.extend(population)
        second.extend(population)
        assert first.sample == second.sample
        assert first.summary() == second.summary()
