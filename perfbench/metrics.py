"""Metric names and units, and the small statistics the benchmark uses.

``END_TO_END`` and ``PER_LAYER`` list every metric a run reports (with
``--trace 0`` and ``--trace 1`` respectively), in output order;
``BENCHMARK.json`` names the same metrics with the same units.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: Seconds one ``reference.py`` run takes at the speed end-to-end
#: timings are stated in (about its time on a 2-vCPU Xeon host); every
#: end-to-end timing is its median ratio to the reference run beside
#: it, times this.
REF_NOMINAL_S = 0.5

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_serial_s", "s"),
    ("throughput_rec_s", "rec/s"),
    ("peak_rss_mb", "MB"),
]

#: ``pipeline.*`` stages whose self time the traced batch run reports
#: (the ``engine.map_shard`` spans inside them are ``engine.map_busy_s``).
STAGES = ("characterization", "periodicity-flows", "periodicity-detect",
          "ngram-sequences", "ngram-train", "ngram-eval")

PER_LAYER: List[Tuple[str, str]] = [
    ("synth.events_s", "s"),
    ("synth.replay_s", "s"),
    ("synth.records", "count"),
    ("logs.write_s", "s"),
    ("logs.write_mb", "MB"),
    ("logs.parse_s", "s"),
    ("logs.parse_rec_s", "rec/s"),
    ("useragent.classify_s", "s"),
    ("useragent.distinct_uas", "count"),
    ("useragent.memo_hit_ratio", "ratio"),
    ("analysis.characterize_s", "s"),
    ("engine.fold_s", "s"),
    ("engine.fold_rec_s", "rec/s"),
    ("engine.fold_ratio", "ratio"),
    ("engine.merge_s", "s"),
    ("engine.finalize_s", "s"),
    ("engine.shards", "count"),
    ("engine.map_busy_s", "s"),
    ("engine.queue_wait_s", "s"),
    ("engine.run_elapsed_s", "s"),
    ("engine.dispatch_s", "s"),
    ("engine.shard_skew", "ratio"),
    ("engine.memshard_pickle_mb", "MB"),
    ("engine.state_pickle_mb", "MB"),
    ("engine.retries", "count"),
    ("checkpoint.saves", "count"),
    ("checkpoint.save_ms_p50", "ms"),
    ("checkpoint.save_kb_p50", "KB"),
    ("periodicity.collect_s", "s"),
    ("periodicity.flows", "count"),
    ("periodicity.detect_s", "s"),
    ("periodicity.detect_ms_p50", "ms"),
    ("periodicity.detect_ms_p95", "ms"),
    ("periodicity.periodic_ratio", "ratio"),
    ("ngram.sequences_s", "s"),
    ("ngram.train_s", "s"),
    ("ngram.eval_s", "s"),
    ("ngram.queries", "count"),
    ("ngram.query_us", "us"),
    ("ngram.vocab", "count"),
    ("ngram.top1_hit_ratio", "ratio"),
    ("stream.replay_bare_s", "s"),
    ("stream.snapshot_ms_p50", "ms"),
    ("stream.snapshot_ms_p95", "ms"),
    ("stream.seal_ms_p50", "ms"),
    ("stream.seal_ms_p95", "ms"),
    ("stream.queue_peak", "count"),
    ("stream.blocked_puts", "count"),
    ("stream.windows_sealed", "count"),
    *((f"stage.{stage}_s", "s") for stage in STAGES),
    ("obs.trace_overhead_frac", "ratio"),
    # The live pass: on a shared 2-CPU host its latencies swing between
    # runs by about the largest end-to-end bound allowed (p95 by several
    # times), so they are reported here, unbounded.
    ("live.emit_p50_ms", "ms"),
    ("live.emit_p95_ms", "ms"),
    ("live.gen_late_p95_ms", "ms"),
]

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0–100) with linear interpolation, as
    numpy's default; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
