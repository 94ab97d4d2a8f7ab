"""Throughput benchmark for the online stream subsystem.

Replays one seeded workload through the full service — event-time
windows, per-window snapshots — from memory (the upper bound) and
from a partitioned log directory (one source per edge, merged on the
consuming thread), reporting records/sec for each.
``REPRO_STREAM_BENCH_REQUESTS`` shrinks the dataset for CI.

Machine-independent invariants are asserted; throughput numbers are
informational (they land in the CI artifact):

- both runs window every record — nothing late — because per-source
  watermark frontiers absorb the edges' interleaving;
- both seal the same number of windows;
- the merged per-window states are identical (counter equality on
  the characterization summary).
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
    """Records/sec: in-memory replay vs the per-edge directory run."""
    logs = dataset.logs
    total = len(logs)

    replay_result, replay_seconds = _timed_run(logs=logs)
    edges_result, edges_seconds = _timed_run(logs_dir=partitioned_dir)

    print(f"\n=== stream benchmark ({total:,} requests, "
          f"{edges_result.sealed_windows} windows of {WINDOW_S:.0f}s) ===")
    for name, seconds in (
        ("in-memory replay", replay_seconds),
        ("per-edge logs-dir", edges_seconds),
    ):
        rate = total / seconds if seconds else 0.0
        print(f"{name:<18} {seconds:8.3f} s  {rate:10,.0f} rec/s")

    for result in (replay_result, edges_result):
        assert result.records_windowed == total
        assert result.late_dropped == 0
        assert result.ingest is None
    assert replay_result.sealed_windows == edges_result.sealed_windows

    reference = merged_characterization(
        merge_accumulators(replay_result.accumulators)
    )
    merged = merged_characterization(
        merge_accumulators(edges_result.accumulators)
    )
    assert merged.summary == reference.summary
    assert merged.cacheability == reference.cacheability
