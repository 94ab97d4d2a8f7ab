"""Throughput benchmark for the online stream subsystem.

Replays one seeded workload from a partitioned log directory through
the full service — event-time windows, per-window snapshots — at 1
ingest worker (the merged directory replayed on the consuming thread,
no queue) and at N (one source per edge through the bounded ingest
queue), reporting records/sec for each path plus the in-memory replay
as the upper bound.  ``REPRO_STREAM_BENCH_REQUESTS`` shrinks the dataset
for CI.

Machine-independent invariants are asserted; throughput numbers are
informational (they land in the CI artifact):

- every path windows every record — no drops, nothing late — because
  per-source watermark frontiers absorb ingest interleaving;
- all paths seal the same number of windows;
- the merged per-window states are identical across paths (counter
  equality on the characterization summary).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.pipeline import run_stream
from repro.logs.partition import write_partitioned
from repro.stream import merge_accumulators, merged_characterization
from repro.synth.workload import WorkloadBuilder, short_term_config

STREAM_BENCH_SEED = 2019
WINDOW_S = 300.0
WATERMARK_LAG_S = 30.0
PARALLEL_WORKERS = 4


def _stream_requests() -> int:
    return int(os.environ.get("REPRO_STREAM_BENCH_REQUESTS", "150000"))


@pytest.fixture(scope="module")
def dataset():
    config = short_term_config(_stream_requests(), seed=STREAM_BENCH_SEED)
    return WorkloadBuilder(config).build()


@pytest.fixture(scope="module")
def partitioned_dir(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("stream-bench") / "parts"
    write_partitioned(dataset.logs, root, fmt="jsonl")
    return str(root)


def _timed_run(**kwargs):
    start = time.perf_counter()
    result = run_stream(
        window_s=WINDOW_S,
        watermark_lag_s=WATERMARK_LAG_S,
        detect_periods=False,  # measure the pipeline, not the detector
        predict_urls=False,
        keep_accumulators=True,
        **kwargs,
    )
    return result, time.perf_counter() - start


def test_perf_stream_ingest_throughput(dataset, partitioned_dir):
    """Records/sec: in-process replay vs 1 vs N ingest workers."""
    logs = dataset.logs
    total = len(logs)

    replay_result, replay_seconds = _timed_run(logs=logs)
    serial_result, serial_seconds = _timed_run(
        logs_dir=partitioned_dir, ingest_workers=1
    )
    parallel_result, parallel_seconds = _timed_run(
        logs_dir=partitioned_dir, ingest_workers=PARALLEL_WORKERS
    )

    print(f"\n=== stream benchmark ({total:,} requests, "
          f"{serial_result.sealed_windows} windows of {WINDOW_S:.0f}s) ===")
    for name, result, seconds in (
        ("replay (no queue)", replay_result, replay_seconds),
        ("merged replay x1", serial_result, serial_seconds),
        (f"ingest x{PARALLEL_WORKERS}", parallel_result, parallel_seconds),
    ):
        rate = total / seconds if seconds else 0.0
        queue_note = ""
        if result.ingest is not None:
            stats = result.ingest.snapshot()
            queue_note = (
                f"  (sources={stats['sources']}, "
                f"queue peak {stats['queue_peak']}, "
                f"stalls {stats['blocked_puts']})"
            )
        print(
            f"{name:<18} {seconds:8.3f} s  {rate:10,.0f} rec/s{queue_note}"
        )

    for result in (replay_result, serial_result, parallel_result):
        assert result.records_windowed == total
        assert result.late_dropped == 0
        assert result.ingest is None or result.ingest.dropped == 0
    assert (
        replay_result.sealed_windows
        == serial_result.sealed_windows
        == parallel_result.sealed_windows
    )

    reference = merged_characterization(
        merge_accumulators(replay_result.accumulators)
    )
    for result in (serial_result, parallel_result):
        merged = merged_characterization(
            merge_accumulators(result.accumulators)
        )
        assert merged.summary == reference.summary
        assert merged.cacheability == reference.cacheability


def test_perf_stream_backpressure_is_bounded(dataset):
    """A tiny queue throttles ingest without losing a record."""
    from repro.stream import StreamConfig, StreamService

    logs = dataset.logs
    config = StreamConfig(
        window_s=WINDOW_S,
        watermark_lag_s=WATERMARK_LAG_S,
        detect_periods=False,
        predict_urls=False,
        queue_capacity=128,
    )
    start = time.perf_counter()
    queued = StreamService(config).run([iter(logs)])
    queued_seconds = time.perf_counter() - start
    rate = len(logs) / queued_seconds if queued_seconds else 0.0
    stats = queued.ingest.snapshot()
    print(
        f"\nbounded queue (cap 128): {queued_seconds:.3f} s "
        f"{rate:10,.0f} rec/s, peak {stats['queue_peak']}, "
        f"stalls {stats['blocked_puts']}"
    )
    assert stats["queue_peak"] <= 128
    assert stats["dropped"] == 0
    assert queued.records_windowed == len(logs)
