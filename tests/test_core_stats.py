"""Cross-module consistency for the canonical percentile.

``repro.core.stats.percentile`` is the single repo-wide percentile
definition (numpy linear interpolation between closest ranks).  Both
exact-sample callers — ``repro.cdn.metrics`` and
``repro.analysis.drift`` — must route through it, and the
bounded-memory sketch estimate must stay within its documented error
of the same definition.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sizes import SizeDistribution
from repro.cdn import metrics as cdn_metrics
from repro.core import stats
from repro.obs.sketch import QuantileSketch

# Magnitudes bounded so that ``b - a`` cannot overflow to inf (where
# both sides give nan, which never compares equal).
_ints = st.integers(min_value=-(10**12), max_value=10**12)
_floats = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)
_qs = st.one_of(
    st.sampled_from([0, 0.0, 5, 25, 50, 75, 95, 99, 100, 100.0]),
    st.floats(min_value=0.0, max_value=100.0),
)


class TestCanonicalPercentile:
    def test_linear_interpolation_definition(self):
        assert stats.percentile([1, 2, 3, 4], 50) == 2.5
        assert stats.percentile([10], 0) == 10
        assert stats.percentile([10], 100) == 10
        assert stats.percentile([0, 10], 25) == 2.5

    def test_validates_range_and_empty(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], -1)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)

    def test_order_invariant(self):
        data = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert stats.percentile(data, 40) == stats.percentile(
            sorted(data), 40
        )


class TestMatchesNumpy:
    """The pure-Python percentile is numpy's default, bit for bit."""

    @given(st.lists(_ints, min_size=1, max_size=80), _qs)
    @settings(max_examples=400, deadline=None)
    def test_int_lists(self, values, q):
        assert stats.percentile(values, q) == np.percentile(
            np.asarray(values, dtype=float), q
        )

    @given(st.lists(_floats, min_size=1, max_size=80), _qs)
    @settings(max_examples=400, deadline=None)
    def test_float_lists(self, values, q):
        assert stats.percentile(values, q) == np.percentile(values, q)

    @given(_floats, _qs)
    @settings(max_examples=100, deadline=None)
    def test_single_value(self, value, q):
        assert stats.percentile([value], q) == np.percentile([value], q)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                 max_size=200),
        _qs,
    )
    @settings(max_examples=200, deadline=None)
    def test_size_distribution_routes_through_it(self, sizes, q):
        dist = SizeDistribution("application/json", list(sizes))
        assert dist.percentile(q) == np.percentile(sizes, q)
        assert dist.percentile(q) == stats.percentile(sizes, q)
        assert dist.mean == np.mean(sizes)


class TestCrossModuleConsistency:
    def test_cdn_metrics_is_the_same_function(self):
        data = [random.Random(3).uniform(0, 100) for _ in range(500)]
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert cdn_metrics.percentile(data, q) == stats.percentile(
                data, q
            )

    def test_session_gap_and_wait_percentiles_are_canonical(self):
        from repro.analysis.sessionize import SessionStats
        from repro.cdn.scheduler import ClassMetrics
        from repro.ngram.timing import GapStats

        rng = random.Random(5)
        data = [rng.uniform(0, 50) for _ in range(101)]
        lengths = [rng.randint(1, 40) for _ in range(101)]
        for q in (0, 25, 50, 95, 100):
            expected = stats.percentile(data, q)
            assert GapStats(list(data)).percentile_s(q) == expected
            assert ClassMetrics(list(data)).percentile_wait_s(q) == expected
            assert SessionStats(lengths=list(lengths)).length_percentile(
                q
            ) == stats.percentile(lengths, q)

    def test_drift_p50_matches_canonical(self):
        # traffic_metrics computes p50_json_bytes via the canonical
        # helper — spot-check against a hand-built collection.
        from repro.analysis.drift import traffic_metrics
        from tests.conftest import make_log

        logs = [
            make_log(timestamp=float(i), response_bytes=size)
            for i, size in enumerate([100, 200, 300, 400])
        ]
        metrics = traffic_metrics(logs)
        assert metrics["p50_json_bytes"] == stats.percentile(
            [100, 200, 300, 400], 50
        )

    def test_sketch_estimate_within_documented_error(self):
        rng = random.Random(11)
        data = [rng.lognormvariate(0.0, 1.5) for _ in range(20_000)]
        sketch = QuantileSketch().update(data)
        for q in (50, 90, 99):
            exact = stats.percentile(data, q)
            estimate = sketch.quantile(q / 100.0)
            assert stats.relative_error(estimate, exact) <= (
                sketch.growth - 1.0 + 1e-9
            )
