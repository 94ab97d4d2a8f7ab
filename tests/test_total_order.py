"""A report depends only on its records, not on their order or split.

Every ranked output has a total order, so shuffling the records and
re-splitting them into memory shards must leave the rendered §4 and
§5 reports byte-identical.  (The stream's order-invariance is checked
by the shuffled replays in ``tests/test_stream_differential.py``.)
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import run_characterization, run_pattern_analysis
from repro.engine import EngineOptions
from repro.periodicity.detector import DetectorConfig
from repro.synth.workload import (
    WorkloadBuilder,
    long_term_config,
    short_term_config,
)

shuffles = st.integers(min_value=0, max_value=2**32 - 1)
shard_counts = st.sampled_from([1, 3, 7])


def _shuffled(records, seed):
    records = list(records)
    random.Random(seed).shuffle(records)
    return records


def _characterize(records, num_shards):
    return run_characterization(
        records, engine=EngineOptions(num_shards=num_shards)
    ).render()


def _patterns(records, num_shards):
    return run_pattern_analysis(
        records,
        detector_config=DetectorConfig(permutations=5),
        engine=EngineOptions(num_shards=num_shards),
    ).render()


@pytest.fixture(scope="module")
def short_records():
    return WorkloadBuilder(short_term_config(1_200, seed=4)).build().logs


@pytest.fixture(scope="module")
def long_records():
    return WorkloadBuilder(long_term_config(1_200, seed=4)).build().logs


@pytest.fixture(scope="module")
def characterization(short_records):
    return _characterize(short_records, 1)


@pytest.fixture(scope="module")
def patterns(long_records):
    return _patterns(long_records, 1)


@settings(max_examples=6, deadline=None)
@given(seed=shuffles, num_shards=shard_counts)
def test_characterization_ignores_order_and_split(
    short_records, characterization, seed, num_shards
):
    shuffled = _shuffled(short_records, seed)
    assert _characterize(shuffled, num_shards) == characterization


@settings(max_examples=3, deadline=None)
@given(seed=shuffles, num_shards=shard_counts)
def test_patterns_ignore_order_and_split(
    long_records, patterns, seed, num_shards
):
    shuffled = _shuffled(long_records, seed)
    assert _patterns(shuffled, num_shards) == patterns
