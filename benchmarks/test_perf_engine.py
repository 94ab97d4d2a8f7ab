"""Performance benchmark for the sharded analysis engine.

Measures serial analysis-layer runs of all three engine pipelines —
§4 characterization, §5.1 periodicity, §5.2 ngram — against their
4-worker parallel engine runs (``REPRO_ENGINE_BENCH_REQUESTS`` and
``REPRO_ENGINE_BENCH_PATTERN_REQUESTS`` shrink the datasets for CI),
records wall time for each, and checks the invariants the engine
guarantees regardless of machine speed:

- every parallel result is identical to the serial one — counter
  metrics for characterization, the full per-object outcome map for
  periodicity, and every (N, K, clustered) hit count for ngram.

The serial side never runs the engine (every analysis entry point
does, even at one worker): §4 is ``characterization_reference`` from
``tests/reference.py``, built from the analysis-layer functions, and
§5 is ``analyze_logs`` and ``run_table3``.

Speedup is asserted (> 1.5x at 4 process workers) only on hosts with
at least 4 CPUs and a serial run long enough to amortize the pool
start-up; elsewhere the timings are informational.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs
from repro.core.pipeline import run_characterization, run_ngram, run_periodicity
from repro.engine import EngineOptions
from repro.ngram.evaluate import run_table3
from repro.obs.registry import MetricsRegistry
from repro.periodicity.detector import DetectorConfig
from repro.periodicity.results import analyze_logs
from repro.synth.workload import (
    WorkloadBuilder,
    long_term_config,
    short_term_config,
)
from tests.reference import characterization_reference

ENGINE_BENCH_SEED = 2019
ENGINE_WORKERS = 4

#: The pattern pipelines bench on the long-term (24 h) shape — it is
#: the one with enough per-flow history for detection and prediction
#: to do real work — at a request count whose serial run is seconds,
#: not minutes (the detector dominates).
PATTERN_BENCH_SEED = 11
PATTERN_DETECTOR = DetectorConfig(permutations=25)

#: Assert parallel speedup only where it is physically possible and
#: the serial run is long enough that pool start-up noise cannot
#: drown the signal.
SPEEDUP_FLOOR = 1.5
MIN_CPUS_FOR_SPEEDUP = 4
MIN_SERIAL_SECONDS_FOR_SPEEDUP = 1.0


def _engine_requests() -> int:
    return int(os.environ.get("REPRO_ENGINE_BENCH_REQUESTS", "200000"))


def _pattern_requests() -> int:
    return int(os.environ.get("REPRO_ENGINE_BENCH_PATTERN_REQUESTS", "8000"))


def _timed_parallel(run, *args, **kwargs):
    """``(result, seconds, snapshot)`` of one run at ``ENGINE_WORKERS``
    process workers; the engine's run statistics are the snapshot's
    ``engine.*`` metrics."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    with obs.installed(registry):
        result = run(
            *args,
            engine=EngineOptions(workers=ENGINE_WORKERS, backend="process"),
            **kwargs,
        )
    return result, time.perf_counter() - start, registry.snapshot()


def _assert_or_report_speedup(name, serial_seconds, parallel_seconds):
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    gated = (
        (os.cpu_count() or 1) >= MIN_CPUS_FOR_SPEEDUP
        and serial_seconds >= MIN_SERIAL_SECONDS_FOR_SPEEDUP
    )
    print(
        f"speedup:  {speedup:8.2f}x"
        f"  ({'asserted > %.1fx' % SPEEDUP_FLOOR if gated else 'informational'})"
    )
    if gated:
        assert speedup > SPEEDUP_FLOOR, (
            f"{name}: expected > {SPEEDUP_FLOOR}x speedup at "
            f"{ENGINE_WORKERS} process workers, got {speedup:.2f}x "
            f"(serial {serial_seconds:.2f}s, parallel {parallel_seconds:.2f}s)"
        )


@pytest.fixture(scope="module")
def engine_dataset():
    config = short_term_config(_engine_requests(), seed=ENGINE_BENCH_SEED)
    return WorkloadBuilder(config).build()


@pytest.fixture(scope="module")
def domain_categories(engine_dataset):
    return {d.name: d.category.value for d in engine_dataset.domains}


@pytest.fixture(scope="module")
def pattern_dataset():
    config = long_term_config(_pattern_requests(), seed=PATTERN_BENCH_SEED)
    return WorkloadBuilder(config).build()


def test_perf_engine_serial_vs_parallel(engine_dataset, domain_categories):
    """Serial analysis-layer pass vs 4-worker engine run: wall time,
    identical counter metrics."""
    logs = engine_dataset.logs

    start = time.perf_counter()
    serial = characterization_reference(logs, domain_categories)
    serial_seconds = time.perf_counter() - start

    parallel, parallel_seconds, stats = _timed_parallel(
        run_characterization, logs, domain_categories
    )

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    print(f"\n=== engine benchmark ({len(logs):,} requests) ===")
    print(f"serial:   {serial_seconds:8.3f} s")
    print(
        f"parallel: {parallel_seconds:8.3f} s"
        f"  ({ENGINE_WORKERS} workers,"
        f" {stats['counters']['engine.shards_planned']} shards,"
        f" backend=process)"
    )
    print(f"speedup:  {speedup:8.2f}x  (informational; host-dependent)")

    # The acceptance invariant: counters merge losslessly, so the
    # parallel report is byte-identical to serial on every counter
    # metric no matter how shards were scheduled.
    assert parallel.traffic_source == serial.traffic_source
    assert parallel.request_type == serial.request_type
    assert parallel.cacheability == serial.cacheability
    assert parallel.summary == serial.summary
    assert parallel.heatmap == serial.heatmap
    assert stats["histograms"]["engine.shard_records"]["total"] == len(logs)
    assert not stats["counters"]["engine.shards_failed"]


def test_perf_engine_periodicity_serial_vs_parallel(pattern_dataset):
    """§5.1 serial vs 4-worker process run, identical outcomes."""
    logs = pattern_dataset.logs

    start = time.perf_counter()
    serial = analyze_logs(logs, detector_config=PATTERN_DETECTOR)
    serial_seconds = time.perf_counter() - start

    parallel, parallel_seconds, stats = _timed_parallel(
        run_periodicity, logs, detector_config=PATTERN_DETECTOR
    )

    shards = stats["counters"]["engine.shards_planned"]
    print(f"\n=== periodicity benchmark ({len(logs):,} requests) ===")
    print(f"serial:   {serial_seconds:8.3f} s")
    print(
        f"parallel: {parallel_seconds:8.3f} s"
        f"  ({ENGINE_WORKERS} workers, {shards} shards, backend=process)"
    )

    # Exactness first: the whole per-object outcome map (periods,
    # provenance, per-client verdicts, tallies) must be identical.
    assert parallel.total_json_requests == serial.total_json_requests
    assert sorted(parallel.objects) == sorted(serial.objects)
    for object_id, expected in serial.objects.items():
        assert parallel.objects[object_id] == expected, object_id
    assert len(serial.object_periods()) >= 3, "bench workload too sparse"

    _assert_or_report_speedup("periodicity", serial_seconds, parallel_seconds)


def test_perf_engine_ngram_serial_vs_parallel(pattern_dataset):
    """§5.2 serial vs 4-worker process run, identical hit counts."""
    logs = pattern_dataset.logs

    start = time.perf_counter()
    serial = run_table3(logs)
    serial_seconds = time.perf_counter() - start

    parallel, parallel_seconds, stats = _timed_parallel(run_ngram, logs)

    shards = stats["counters"]["engine.shards_planned"]
    print(f"\n=== ngram benchmark ({len(logs):,} requests) ===")
    print(f"serial:   {serial_seconds:8.3f} s")
    print(
        f"parallel: {parallel_seconds:8.3f} s"
        f"  ({ENGINE_WORKERS} workers, {shards} shards, backend=process)"
    )

    assert parallel == serial
    assert all(result.total > 100 for result in serial.values()), (
        "bench workload too sparse"
    )

    _assert_or_report_speedup("ngram", serial_seconds, parallel_seconds)

