"""Overhead benchmark for the repro.obs observability layer.

The instrumentation rides hot paths — the executor's shard loop, the
stream's per-record windowing, the checkpoint store — so it must be
near-free when no registry is installed (a single nil check) and
cheap when one is.  This benchmark runs the sharded characterization
pipeline with and without an installed registry, best-of-three each,
and gates the enabled-vs-disabled overhead at
``REPRO_OBS_OVERHEAD_LIMIT`` (default 5%, the acceptance bar) plus a
small absolute floor so sub-second runs on noisy CI hosts don't flake
on scheduler jitter.

``REPRO_OBS_BENCH_REQUESTS`` (default 60,000) scales the dataset.
"""

from __future__ import annotations

import os
import time

from repro import obs
from repro.core.pipeline import run_characterization, run_stream
from repro.engine import EngineOptions
from repro.obs import runtime
from repro.obs.registry import MetricsRegistry
from repro.synth.workload import WorkloadBuilder, short_term_config

OBS_BENCH_SEED = 2019
WORKERS = 4
NUM_SHARDS = 16
REPEATS = 3
#: Absolute slack (seconds) added to the relative gate: on short runs
#: scheduler noise alone exceeds any realistic relative bound.
ABSOLUTE_SLACK_S = 0.25


def _requests() -> int:
    return int(os.environ.get("REPRO_OBS_BENCH_REQUESTS", "60000"))


def _overhead_limit() -> float:
    return float(os.environ.get("REPRO_OBS_OVERHEAD_LIMIT", "0.05"))


def _best_of_interleaved(repeats, disabled_fn, enabled_fn):
    """Best-of-N for both variants, rounds interleaved.

    Alternating the variants inside each round means slow drift on a
    shared CI host (thermal, noisy neighbors) hits both measurements
    alike instead of biasing whichever block ran second.
    """
    best_disabled = best_enabled = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        disabled_fn()
        best_disabled = min(best_disabled, time.perf_counter() - start)
        start = time.perf_counter()
        enabled_fn()
        best_enabled = min(best_enabled, time.perf_counter() - start)
    return best_disabled, best_enabled


def _gate(name, disabled_s, enabled_s):
    limit = _overhead_limit()
    overhead = (enabled_s - disabled_s) / disabled_s if disabled_s else 0.0
    budget_s = disabled_s * limit + ABSOLUTE_SLACK_S
    print(f"\n=== obs overhead: {name} ===")
    print(f"disabled: {disabled_s:8.3f} s (best of {REPEATS})")
    print(f"enabled:  {enabled_s:8.3f} s (best of {REPEATS})")
    print(
        f"overhead: {overhead * 100:+8.2f}%"
        f"  (gate: {limit * 100:.0f}% + {ABSOLUTE_SLACK_S:.2f}s slack)"
    )
    assert enabled_s - disabled_s <= budget_s, (
        f"{name}: observability overhead {overhead * 100:.1f}% "
        f"({enabled_s - disabled_s:.3f}s) exceeds the "
        f"{limit * 100:.0f}% + {ABSOLUTE_SLACK_S:.2f}s budget"
    )


def test_perf_obs_engine_overhead():
    logs = WorkloadBuilder(
        short_term_config(_requests(), seed=OBS_BENCH_SEED)
    ).build().logs

    def run():
        run_characterization(logs, engine=EngineOptions(
            workers=WORKERS, backend="thread", num_shards=NUM_SHARDS
        ))

    def run_instrumented():
        with obs.installed(MetricsRegistry()):
            run()

    run()  # warm caches outside the timed region
    disabled_s, enabled_s = _best_of_interleaved(
        REPEATS, run, run_instrumented
    )
    assert runtime.active() is None
    _gate("engine characterization", disabled_s, enabled_s)


def test_perf_obs_stream_overhead():
    # The stream path instruments per-record loops (window routing,
    # ingest delivery) — the place a careless hook would hurt most.
    logs = WorkloadBuilder(
        short_term_config(_requests() // 2, seed=OBS_BENCH_SEED)
    ).build().logs

    def run():
        run_stream(
            logs, window_s=120.0, detect_periods=False, predict_urls=False
        )

    def run_instrumented():
        with obs.installed(MetricsRegistry()):
            run()

    run()
    disabled_s, enabled_s = _best_of_interleaved(
        REPEATS, run, run_instrumented
    )
    assert runtime.active() is None
    _gate("stream windowing", disabled_s, enabled_s)
