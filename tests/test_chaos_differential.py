"""Chaos differential: faulted runs equal fault-free runs, exactly.

The robustness capstone.  For *transient* fault plans — every rule's
``times`` is within the run's retry budget, hangs are bounded by the
shard timeout, torn checkpoints hit only the next run's resume — the
characterization, periodicity, ngram and stream pipelines must
produce results identical (field by field, not approximately) to a
fault-free run.  If retries re-executed work, dropped records, or
double-merged a shard, these comparisons break.

Three plan families, per the robustness spec:

* **compute** — injected map exceptions plus shard hangs abandoned by
  the per-shard timeout, healed by bounded retries;
* **torn checkpoints** — damaged at save time, detected at load time,
  recomputed on resume (batch engine and stream windows);
* **truncated gzip** — partition files that end mid-stream on the
  first read attempt and come back clean on the retry.

Knobs (for the CI matrix):

* ``REPRO_CHAOS_SEEDS`` — comma-separated fault-plan seeds
  (default ``0``; CI runs several).
* ``REPRO_CHAOS_REPORT`` — if set, a JSON artifact of per-run fault
  and retry counters is written there, proving the plans actually
  exercised the machinery.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.pipeline import (
    run_characterization,
    run_ngram,
    run_periodicity,
    run_stream,
)
from repro.engine import EngineOptions
from repro.faults import FaultPlan, FaultRule
from repro.logs.partition import write_partitioned
from repro.ngram.evaluate import run_table3
from repro.periodicity.detector import DetectorConfig
from repro.periodicity.results import analyze_logs
from repro.stream import StreamService
from repro.stream.accumulators import merged_characterization
from repro.stream.service import StreamConfig
from repro.stream import merge_accumulators
from repro.synth.workload import WorkloadBuilder, long_term_config
from tests.reference import characterization_reference, counted
from tests.test_engine_differential import assert_periodicity_identical

DETECTOR = DetectorConfig(permutations=10)

SEEDS = [
    int(seed)
    for seed in os.environ.get("REPRO_CHAOS_SEEDS", "0").split(",")
    if seed.strip()
]

BACKENDS = [
    pytest.param("thread", 4, id="thread"),
    pytest.param("process", 2, id="process"),
]

#: Per-run fault/retry counters, dumped to REPRO_CHAOS_REPORT.
_COUNTERS = []


def _record(test, seed, backend, plan, retries):
    _COUNTERS.append(
        {
            "test": test,
            "seed": seed,
            "backend": backend,
            # Parent-side firings only: process-pool workers consult
            # their own pickled plan copy, so `retries` is the
            # cross-backend proof that faults fired.
            "fired": plan.fired(),
            "retries": retries,
        }
    )


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    yield
    path = os.environ.get("REPRO_CHAOS_REPORT")
    if path:
        Path(path).write_text(json.dumps(_COUNTERS, indent=2) + "\n")


@pytest.fixture(scope="module")
def logs():
    return WorkloadBuilder(long_term_config(8_000, seed=11)).build().logs


@pytest.fixture(scope="module")
def baseline_characterization(logs):
    return characterization_reference(logs)


@pytest.fixture(scope="module")
def baseline_periodicity(logs):
    return analyze_logs(logs, detector_config=DETECTOR)


@pytest.fixture(scope="module")
def baseline_ngram(logs):
    return run_table3(logs)


def compute_fault_plan(seed):
    """Plan (a): transient map exceptions plus bounded hangs.

    Every rule clears within the retry budget below (``times=1``,
    retries well above), and the hang is abandoned by the shard
    timeout long before its sleep ends — so the run must converge to
    the fault-free result.
    """
    return FaultPlan(
        seed,
        [
            FaultRule("map.exception", rate=0.35, times=1),
            FaultRule("map.hang", rate=0.12, times=1, param=4.0),
        ],
    )


#: Timeout well above any legitimate shard's compute time but far
#: below the injected hang; retries above every rule's ``times``.
HARDENING = dict(shard_timeout_s=2.0, retries=4)


def hardened(backend, workers, plan):
    return EngineOptions(
        workers=workers, backend=backend, faults=plan, **HARDENING
    )


def assert_characterization_identical(baseline, report):
    assert report.summary == baseline.summary
    assert report.traffic_source == baseline.traffic_source
    assert report.request_type == baseline.request_type
    assert report.cacheability == baseline.cacheability
    assert report.heatmap == baseline.heatmap
    assert report.apps == baseline.apps


class TestComputeFaultChaos:
    """Injected exceptions + hangs, healed by timeout/retry."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_characterization(
        self, logs, baseline_characterization, seed, backend, workers
    ):
        plan = compute_fault_plan(seed)
        report, stats = counted(
            run_characterization,
            logs,
            engine=hardened(backend, workers, plan),
        )
        assert_characterization_identical(baseline_characterization, report)
        assert not stats["engine.shards_failed"]
        retries = stats["engine.shard_retries"]
        assert retries > 0, "plan never exercised the retry path"
        _record("characterization", seed, backend, plan, retries)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_periodicity(
        self, logs, baseline_periodicity, seed, backend, workers
    ):
        plan = compute_fault_plan(seed)
        report, stats = counted(
            run_periodicity,
            logs,
            detector_config=DETECTOR,
            engine=hardened(backend, workers, plan),
        )
        assert_periodicity_identical(baseline_periodicity, report)
        retries = stats["engine.shard_retries"]  # summed over both stages
        assert retries > 0, "plan never exercised the retry path"
        _record("periodicity", seed, backend, plan, retries)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_ngram(self, logs, baseline_ngram, seed, backend, workers):
        plan = compute_fault_plan(seed)
        results, stats = counted(
            run_ngram, logs, engine=hardened(backend, workers, plan)
        )
        assert results == baseline_ngram
        retries = stats["engine.shard_retries"]  # summed over all stages
        assert retries > 0, "plan never exercised the retry path"
        _record("ngram", seed, backend, plan, retries)


class TestTornCheckpointChaos:
    """Checkpoints damaged at save time never poison a resume."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_resume_recomputes_torn_shards(
        self, logs, baseline_characterization, tmp_path, seed
    ):
        plan = FaultPlan(seed, [FaultRule("checkpoint.torn", rate=0.5)])
        ckpt = str(tmp_path / "ckpt")
        resumable = EngineOptions(checkpoint_dir=ckpt)
        # Run 1 writes some torn checkpoints; its own (in-memory)
        # result must already be correct — the tear is write-side.
        first = run_characterization(
            logs, engine=EngineOptions(checkpoint_dir=ckpt, faults=plan)
        )
        assert_characterization_identical(baseline_characterization, first)
        torn = plan.fired().get("checkpoint.torn", 0)
        assert torn > 0, "plan never tore a checkpoint"
        # Run 2 (fault-free) must detect every torn file, recompute
        # those shards, and still match the baseline exactly.
        second, stats2 = counted(run_characterization, logs, engine=resumable)
        assert_characterization_identical(baseline_characterization, second)
        assert stats2["engine.recomputed_checkpoints"] == torn
        assert (
            stats2["engine.shards_from_checkpoint"]
            == stats2["engine.shards_planned"] - torn
        )
        # Run 3: the recompute re-saved healthy files.
        _, stats3 = counted(run_characterization, logs, engine=resumable)
        assert (
            stats3["engine.shards_from_checkpoint"]
            == stats3["engine.shards_planned"]
        )
        _record(
            "batch-torn-checkpoint", seed, "process", plan,
            stats2["engine.recomputed_checkpoints"],
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_resume_reseals_torn_windows(
        self, logs, baseline_characterization, tmp_path, seed
    ):
        plan = FaultPlan(
            seed,
            [
                FaultRule("checkpoint.torn", rate=0.5),
                FaultRule("ingest.stall", rate=1.0, times=1, param=0.1),
            ],
        )
        ckpt = str(tmp_path / "stream-ckpt")
        ordered = sorted(logs, key=lambda record: record.timestamp)
        kwargs = dict(
            window_s=1_800.0,
            detect_periods=False,
            predict_urls=False,
            keep_accumulators=True,
        )
        baseline = run_stream(ordered, **kwargs)
        # Run 1: the source stalls at its first pull, and some window
        # checkpoints tear as they seal.
        first = run_stream(
            ordered,
            checkpoint_dir=ckpt,
            faults=plan,
            **kwargs,
        )
        assert first.sealed_windows == baseline.sealed_windows
        assert first.records_windowed == len(ordered)
        assert plan.fired()["ingest.stall"] == 1
        report = merged_characterization(
            merge_accumulators(first.accumulators)
        )
        assert_characterization_identical(baseline_characterization, report)
        torn = plan.fired().get("checkpoint.torn", 0)
        assert torn > 0, "plan never tore a window checkpoint"
        # Run 2 (fault-free): torn windows read as never-sealed and
        # are recomputed; readable ones are resumed, not re-counted.
        second = run_stream(ordered, checkpoint_dir=ckpt, **kwargs)
        assert second.resumed_windows == baseline.sealed_windows - torn
        assert second.sealed_windows == torn
        assert (
            second.records_windowed + second.resumed_skips == len(ordered)
        )
        # After the re-seal the store holds every window; merging the
        # full set reproduces the batch result exactly.
        service = StreamService(
            StreamConfig(window_s=1_800.0, checkpoint_dir=ckpt)
        )
        accumulators = service.load_sealed_accumulators()
        assert len(accumulators) == baseline.sealed_windows
        report = merged_characterization(merge_accumulators(accumulators))
        assert_characterization_identical(baseline_characterization, report)
        _record(
            "stream-torn-checkpoint", seed, "replay", plan,
            second.sealed_windows,
        )


class TestTruncatedGzipChaos:
    """Partition files that truncate on first read, clean on retry."""

    @pytest.fixture(scope="class")
    def partition_root(self, logs, tmp_path_factory):
        root = tmp_path_factory.mktemp("chaos-parts") / "parts"
        write_partitioned(logs, root)
        return root

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_characterization(
        self, partition_root, seed, backend, workers
    ):
        baseline = run_characterization(
            logs_dir=str(partition_root),
            engine=EngineOptions(workers=workers, backend=backend),
        )
        plan = FaultPlan(
            seed, [FaultRule("io.truncated_gzip", rate=0.5, times=1, param=3)]
        )
        report, stats = counted(
            run_characterization,
            logs_dir=str(partition_root),
            engine=EngineOptions(
                workers=workers, backend=backend, faults=plan, retries=1
            ),
        )
        assert_characterization_identical(baseline, report)
        assert not stats["engine.shards_failed"]
        retries = stats["engine.shard_retries"]
        assert retries > 0, "plan never truncated a partition file"
        _record("truncated-gzip", seed, backend, plan, retries)
