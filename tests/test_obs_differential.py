"""Differential tests: metrics snapshots are backend-invariant.

The acceptance bar for the observability layer is the engine's own:
a parallel run (thread *and* process backends) must produce a
deterministic metrics snapshot equal, field by field, to the serial
run over the same shard plan.  Gauges and ``*_seconds`` timings are
the documented nondeterministic surface and are excluded by
:meth:`MetricsRegistry.deterministic_snapshot`; everything else —
shard counts, retry counts, record histograms, span counts — must be
bit-identical no matter how the scheduler interleaved the shards.

Every run pins ``num_shards`` explicitly: the engine's default shard
count scales with the worker count, and a differential test is only
meaningful over one shard plan.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.pipeline import (
    run_characterization,
    run_ngram,
    run_periodicity,
    run_stream,
)
from repro.engine import EngineOptions
from repro.obs import runtime
from repro.obs.registry import MetricsRegistry
from repro.periodicity.detector import DetectorConfig
from repro.synth.workload import WorkloadBuilder, short_term_config

NUM_SHARDS = 8


@pytest.fixture(autouse=True)
def _no_ambient_registry():
    runtime.install(None)
    yield
    runtime.install(None)


@pytest.fixture(scope="module")
def records():
    return WorkloadBuilder(short_term_config(3_000, seed=7)).build().logs


def snapshot_of(run, records, *, workers, backend):
    registry = MetricsRegistry()
    with obs.installed(registry):
        run(records, workers=workers, backend=backend)
    return registry.deterministic_snapshot()


class TestEngineBackendInvariance:
    def _assert_backend_invariant(self, run, records):
        serial = snapshot_of(run, records, workers=1, backend="serial")
        thread = snapshot_of(run, records, workers=4, backend="thread")
        process = snapshot_of(run, records, workers=4, backend="process")
        assert serial["counters"], "instrumentation recorded nothing"
        assert thread == serial
        assert process == serial

    def test_characterization_metrics_backend_invariant(self, records):
        def run(records, *, workers, backend):
            run_characterization(records, engine=EngineOptions(
                workers=workers, backend=backend, num_shards=NUM_SHARDS,
            ))

        self._assert_backend_invariant(run, records)

    def test_periodicity_metrics_backend_invariant(self, records):
        def run(records, *, workers, backend):
            run_periodicity(
                records,
                detector_config=DetectorConfig(permutations=5),
                engine=EngineOptions(
                    workers=workers, backend=backend, num_shards=NUM_SHARDS,
                ),
            )

        self._assert_backend_invariant(run, records)

    def test_ngram_metrics_backend_invariant(self, records):
        def run(records, *, workers, backend):
            run_ngram(records, engine=EngineOptions(
                workers=workers, backend=backend, num_shards=NUM_SHARDS,
            ))

        self._assert_backend_invariant(run, records)

    def test_expected_engine_counters_present(self, records):
        registry = MetricsRegistry()
        with obs.installed(registry):
            run_characterization(records, engine=EngineOptions(
                workers=2, backend="thread", num_shards=NUM_SHARDS
            ))
        counters = registry.snapshot()["counters"]
        assert counters["engine.runs"] == 1
        assert counters["engine.shards_planned"] == NUM_SHARDS
        assert counters["engine.shards_mapped"] == NUM_SHARDS
        assert counters["engine.shards_completed"] == NUM_SHARDS
        assert counters["engine.shards_failed"] == 0
        histograms = registry.snapshot()["histograms"]
        assert histograms["engine.shard_records"]["count"] == NUM_SHARDS
        # Per-shard wall time is recorded, one sample per shard.
        assert histograms["engine.shard_seconds"]["count"] == NUM_SHARDS

    def test_no_registry_installed_records_nothing(self, records):
        # The ambient-install contract: without a registry the run is
        # untouched and leaves no telemetry anywhere.
        run_characterization(records, engine=EngineOptions(
            workers=2, backend="thread", num_shards=NUM_SHARDS
        ))
        assert runtime.active() is None

    def test_checkpoint_resume_shifts_counters(self, records, tmp_path):
        resumable = EngineOptions(
            workers=2, backend="thread", num_shards=NUM_SHARDS,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        first = MetricsRegistry()
        with obs.installed(first):
            run_characterization(records, engine=resumable)
        second = MetricsRegistry()
        with obs.installed(second):
            run_characterization(records, engine=resumable)
        c1 = first.snapshot()["counters"]
        c2 = second.snapshot()["counters"]
        assert c1["engine.shards_completed"] == NUM_SHARDS
        assert c1["checkpoint.saves"] == NUM_SHARDS
        assert c2["engine.shards_from_checkpoint"] == NUM_SHARDS
        assert c2.get("engine.shards_mapped", 0) == 0
        assert c2["checkpoint.loads"] == NUM_SHARDS


class TestStreamConservation:
    def test_obs_counters_mirror_stream_accounting(self, records):
        registry = MetricsRegistry()
        with obs.installed(registry):
            result = run_stream(
                records,
                window_s=120.0,
                detect_periods=False,
                predict_urls=False,
            )
        counters = registry.snapshot()["counters"]
        assert counters["windows.records_in"] == len(records)
        assert (
            counters["windows.records_windowed"]
            + counters["windows.late_dropped"]
            + counters.get("windows.resumed_skips", 0)
            == counters["windows.records_in"]
        )
        assert counters["windows.sealed"] == result.sealed_windows
        assert counters["stream.windows_sealed"] == result.sealed_windows

    def test_queued_ingest_delivery_matches_windowing(self, records):
        registry = MetricsRegistry()
        with obs.installed(registry):
            run_stream(
                records,
                window_s=120.0,
                detect_periods=False,
                predict_urls=False,
                queue_policy="drop",
            )
        counters = registry.snapshot()["counters"]
        assert counters["ingest.records_delivered"] == len(records)
        assert (
            counters["ingest.records_delivered"]
            == counters["windows.records_in"]
        )
        assert counters["ingest.records_dropped"] == 0


class TestCliMetricsFlag:
    def test_characterize_writes_snapshot_and_trace(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "spans.jsonl"
        code = main(
            ["characterize", "--requests", "2000", "--workers", "2",
             "--metrics", str(metrics), "--trace", str(trace)]
        )
        assert code == 0
        capsys.readouterr()
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["engine.runs"] == 1
        assert snap["counters"]["engine.shards_completed"] >= 1
        spans = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert any(s["name"] == "pipeline.characterization" for s in spans)
        assert all(s["status"] == "ok" for s in spans)

    def test_prometheus_output_for_non_json_suffix(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.prom"
        code = main(
            ["characterize", "--requests", "2000", "--workers", "2",
             "--metrics", str(metrics)]
        )
        assert code == 0
        capsys.readouterr()
        text = metrics.read_text()
        assert "# TYPE engine_runs counter" in text
        assert "engine_runs 1" in text

    def test_stream_metrics_flag(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        code = main(
            ["stream", "--requests", "1500", "--window", "300",
             "--no-periods", "--no-predictions", "--metrics", str(metrics)]
        )
        assert code == 0
        capsys.readouterr()
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["stream.windows_sealed"] >= 1
        assert "windows.records_in" in snap["counters"]

    def test_without_flags_no_registry_is_installed(self, capsys):
        from repro.cli import main

        code = main(["characterize", "--requests", "1500"])
        assert code == 0
        capsys.readouterr()
        assert runtime.active() is None
