"""Differential stream-vs-batch harness: the subsystem's exactness bar.

The stream service's headline guarantee mirrors the engine's: replay
a dataset through event-time windows — even shuffled within a bounded
disorder budget, even from a partitioned directory read as one source
per edge through the k-way merge — and merging every sealed window's accumulator reproduces the batch
pipelines *identically*, not approximately.  These tests replay one
seeded workload at two window sizes and compare characterization,
periodicity and ngram outputs field by field against the serial batch
references.

Window size must not matter because window accumulators are the
engine's mergeable states and merge is associative; disorder must not
matter because window assignment is a pure function of the event
timestamp; the per-edge sources must not matter because per-source
watermark frontiers keep their interleaving from dropping records.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pipeline import run_stream
from repro.logs.partition import write_partitioned
from repro.periodicity.detector import DetectorConfig
from repro.stream import merge_accumulators, merged_pattern_report
from repro.stream.accumulators import merged_characterization
from repro.synth.workload import WorkloadBuilder, long_term_config
from tests.reference import characterization_reference, patterns_reference
from tests.test_engine_differential import assert_periodicity_identical

DETECTOR = DetectorConfig(permutations=10)

#: Bounded disorder: each record arrives up to this much late, so a
#: watermark lag of the same size must make nothing late.
DISORDER_S = 30.0
WINDOW_SIZES = [300.0, 1_800.0]


@pytest.fixture(scope="module")
def logs():
    return WorkloadBuilder(long_term_config(8_000, seed=11)).build().logs


@pytest.fixture(scope="module")
def shuffled(logs):
    """The same records, arrival-ordered with bounded disorder."""
    rng = random.Random(2019)
    return sorted(
        logs, key=lambda record: record.timestamp + rng.uniform(0, DISORDER_S)
    )


@pytest.fixture(scope="module")
def serial_characterization(logs):
    return characterization_reference(logs)


@pytest.fixture(scope="module")
def serial_patterns(logs):
    return patterns_reference(logs, detector_config=DETECTOR)


def stream_merge(records, window_s, **kwargs):
    """Replay through the stream service, merge all sealed windows."""
    result = run_stream(
        records,
        window_s=window_s,
        watermark_lag_s=DISORDER_S,
        detect_periods=False,  # per-window analysis is not under test
        predict_urls=False,
        keep_accumulators=True,
        **kwargs,
    )
    assert result.late_dropped == 0, "disorder stayed within the lag"
    return result, merge_accumulators(result.accumulators)


class TestStreamEqualsBatch:
    @pytest.mark.parametrize("window_s", WINDOW_SIZES)
    def test_characterization(
        self, shuffled, serial_characterization, window_s
    ):
        result, merged = stream_merge(shuffled, window_s)
        assert result.records_windowed == len(shuffled)
        report = merged_characterization(merged)
        serial = serial_characterization
        assert report.summary == serial.summary
        assert report.traffic_source == serial.traffic_source
        assert report.request_type == serial.request_type
        assert report.cacheability == serial.cacheability

    @pytest.mark.parametrize("window_s", WINDOW_SIZES)
    def test_patterns(self, shuffled, serial_patterns, window_s):
        _, merged = stream_merge(shuffled, window_s)
        report = merged_pattern_report(merged, detector_config=DETECTOR)
        assert_periodicity_identical(
            serial_patterns.periodicity, report.periodicity
        )
        # Frozen-dataclass equality per (n, k, clustered) cell.
        assert report.ngram == serial_patterns.ngram

    def test_window_count_scales_with_size(self, shuffled):
        small, _ = stream_merge(shuffled, WINDOW_SIZES[0])
        large, _ = stream_merge(shuffled, WINDOW_SIZES[1])
        assert small.sealed_windows > large.sealed_windows >= 1

    def test_workload_is_not_vacuous(self, serial_patterns):
        assert len(serial_patterns.periodicity.object_periods()) >= 3
        assert any(r.correct > 0 for r in serial_patterns.ngram.values())


class TestThreadedIngestEqualsBatch:
    """The same exactness from a partitioned directory, one source
    per edge."""

    def test_partitioned_directory_any_worker_count(
        self, logs, serial_characterization, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("stream-diff") / "parts"
        write_partitioned(logs, root)
        result = run_stream(
            logs_dir=str(root),
            window_s=WINDOW_SIZES[0],
            watermark_lag_s=DISORDER_S,
            detect_periods=False,
            predict_urls=False,
            keep_accumulators=True,
        )
        assert result.late_dropped == 0
        assert result.records_windowed == len(logs)
        merged = merge_accumulators(result.accumulators)
        report = merged_characterization(merged)
        assert report.summary == serial_characterization.summary
        assert report.cacheability == serial_characterization.cacheability
