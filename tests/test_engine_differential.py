"""Differential harness: every engine pipeline against its reference.

The engine's headline guarantee is *exactness*: for any worker count,
backend, or shard split, every analysis entry point produces results
identical — not approximately equal — to the analysis-layer
references (:mod:`tests.reference`).  These tests run both over one
seeded synthetic workload and compare outputs field by field, and
the rendered §4 report byte for byte.

The workload is the long-term shape (24 h, narrow client set): it is
the one with enough per-flow history for the periodicity detector
and the ngram split to produce non-trivial output, so equality here
is meaningful (several periodic objects, hundreds of evaluation
positions) rather than vacuous.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import (
    run_characterization,
    run_ngram,
    run_pattern_analysis,
    run_periodicity,
)
from repro.engine import EngineOptions
from repro.engine.flowstate import FlowCollectionState
from repro.ngram.evaluate import run_table3
from repro.periodicity.detector import DetectorConfig
from repro.periodicity.flows import extract_flows
from repro.periodicity.results import analyze_logs
from repro.synth.workload import WorkloadBuilder, long_term_config
from tests.conftest import make_log
from tests.reference import characterization_reference, patterns_reference

#: Permutations are the detector's dominant cost; 10 keeps the suite
#: fast while remaining well above the workload's noise floor (the
#: seeded dataset's verdicts are stable from ~5 up).
DETECTOR = DetectorConfig(permutations=10)

GRID = [
    pytest.param(1, "thread", id="w1-thread"),
    pytest.param(2, "thread", id="w2-thread"),
    pytest.param(4, "thread", id="w4-thread"),
    pytest.param(1, "process", id="w1-process"),
    pytest.param(2, "process", id="w2-process"),
    pytest.param(4, "process", id="w4-process"),
]

#: GRID plus the serial backend: every way a run can be executed.
EVERY_BACKEND = [pytest.param(1, "serial", id="w1-serial"), *GRID]


@pytest.fixture(scope="module")
def logs():
    return WorkloadBuilder(long_term_config(8_000, seed=11)).build().logs


@pytest.fixture(scope="module")
def serial_characterization(logs):
    return characterization_reference(logs)


def _app_log(app: str, second: int):
    return make_log(
        timestamp=1_559_347_200.0 + second,
        client_ip_hash="0000000000000001",
        user_agent=f"{app}/1.0 (iPhone; iOS 13.1; Scale/3.00) CFNetwork/1107.1",
    )


@pytest.fixture(scope="module")
def tied_logs():
    """Two apps tied at 5 requests, ``Zulu`` seen first.

    A serial fold meets ``Zulu`` first; a sharded one merges
    ``Alpha``'s shard first (its client hashes to shard 0 of 4, 4 of 8
    and 4 of 16, ``Zulu``'s to 2, 6 and 6).  Only a total order on
    (−count, name) ranks them the same both ways.
    """
    return [_app_log("Zulu", second) for second in range(5)] + [
        _app_log("Alpha", second) for second in range(5, 10)
    ]


@pytest.fixture(scope="module")
def serial_periodicity(logs):
    return analyze_logs(logs, detector_config=DETECTOR)


@pytest.fixture(scope="module")
def serial_ngram(logs):
    return run_table3(logs)


def assert_periodicity_identical(serial, parallel):
    """Field-by-field equality of two PeriodicityReports."""
    assert parallel.total_json_requests == serial.total_json_requests
    assert sorted(parallel.objects) == sorted(serial.objects)
    # Dataclass equality covers the detected period (all five floats),
    # its provenance, per-client verdicts, the periodic client list,
    # and every request/upload/uncacheable tally.
    for object_id, expected in serial.objects.items():
        assert parallel.objects[object_id] == expected, object_id
    assert parallel.period_histogram() == serial.period_histogram()
    assert parallel.share_cdf() == serial.share_cdf()
    assert parallel.periodic_request_count == serial.periodic_request_count


class TestCharacterizationDifferential:
    @pytest.mark.parametrize("workers,backend", GRID)
    def test_matches_serial(self, logs, serial_characterization, workers, backend):
        parallel = run_characterization(
            logs, engine=EngineOptions(workers=workers, backend=backend)
        )
        serial = serial_characterization
        assert parallel.traffic_source == serial.traffic_source
        assert parallel.request_type == serial.request_type
        assert parallel.cacheability == serial.cacheability
        assert parallel.summary == serial.summary
        assert parallel.apps == serial.apps
        assert parallel.render() == serial.render()

    @pytest.mark.parametrize("workers,backend", EVERY_BACKEND)
    def test_tied_apps_render_identically(self, tied_logs, workers, backend):
        expected = characterization_reference(tied_logs)
        assert expected.apps.top_apps() == [("Alpha", 5), ("Zulu", 5)]
        report = run_characterization(
            tied_logs, engine=EngineOptions(workers=workers, backend=backend)
        )
        assert report.render() == expected.render()


class TestPeriodicityDifferential:
    @pytest.mark.parametrize("workers,backend", GRID)
    def test_matches_serial(self, logs, serial_periodicity, workers, backend):
        parallel = run_periodicity(
            logs,
            detector_config=DETECTOR,
            engine=EngineOptions(workers=workers, backend=backend),
        )
        assert_periodicity_identical(serial_periodicity, parallel)

    def test_workload_is_not_vacuous(self, serial_periodicity):
        assert len(serial_periodicity.object_periods()) >= 3
        assert serial_periodicity.periodic_request_count > 0

    def test_shard_count_does_not_matter(self, logs, serial_periodicity):
        for num_shards in (3, 13):
            parallel = run_periodicity(
                logs,
                detector_config=DETECTOR,
                engine=EngineOptions(
                    workers=2, backend="thread", num_shards=num_shards
                ),
            )
            assert_periodicity_identical(serial_periodicity, parallel)

    def test_flow_state_matches_extract_flows(self, logs):
        """The map-stage state finalizes to the serial flow map exactly."""
        serial_flows = extract_flows(logs)
        # Fold in three interleaved chunks to exercise merge.
        chunks = [logs[0::3], logs[1::3], logs[2::3]]
        merged = FlowCollectionState().update(chunks[0])
        for chunk in chunks[1:]:
            merged = merged.merge(FlowCollectionState().update(chunk))
        parallel_flows = merged.finalize()
        assert sorted(parallel_flows) == sorted(serial_flows)
        for object_id, expected in serial_flows.items():
            flow = parallel_flows[object_id]
            assert sorted(flow.client_flows) == sorted(expected.client_flows)
            for client_id, expected_flow in expected.client_flows.items():
                actual = flow.client_flows[client_id]
                assert actual.timestamps.tolist() == expected_flow.timestamps.tolist()
                assert actual.upload_count == expected_flow.upload_count
                assert actual.uncacheable_count == expected_flow.uncacheable_count


class TestNgramDifferential:
    @pytest.mark.parametrize("workers,backend", GRID)
    def test_matches_serial(self, logs, serial_ngram, workers, backend):
        parallel = run_ngram(
            logs, engine=EngineOptions(workers=workers, backend=backend)
        )
        # AccuracyResult is a frozen dataclass: this compares correct
        # and total hit counts per (n, k, clustered) cell, not just
        # the derived accuracies.
        assert parallel == serial_ngram

    def test_workload_is_not_vacuous(self, serial_ngram):
        assert all(result.total > 100 for result in serial_ngram.values())
        assert any(result.correct > 0 for result in serial_ngram.values())

    def test_shard_count_does_not_matter(self, logs, serial_ngram):
        for num_shards in (2, 9):
            parallel = run_ngram(
                logs,
                engine=EngineOptions(
                    workers=2, backend="thread", num_shards=num_shards
                ),
            )
            assert parallel == serial_ngram


class TestPatternDifferential:
    def test_report_renders_identically(self, logs):
        serial = patterns_reference(logs, detector_config=DETECTOR)
        parallel = run_pattern_analysis(
            logs,
            detector_config=DETECTOR,
            engine=EngineOptions(workers=2, backend="process"),
        )
        assert parallel.render() == serial.render()
        assert parallel.ngram == serial.ngram
        assert_periodicity_identical(serial.periodicity, parallel.periodicity)
