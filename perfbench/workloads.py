"""The benchmark's workloads: one seeded dataset each, and the jobs run on it.

Every workload runs three kinds of job against its own generated
partitioned directory, each through the ``repro-json-cdn`` CLI in a
fresh process:

* the **batch job** at 2 workers (``job_s``) and at 1 worker
  (``job_serial_s``) — ``characterize`` for ``char_wide``, a
  closed-loop ``stream --logs-dir`` backfill for ``stream_day``
  (``--ingest-workers`` 2 and 1);
* the **live pass**: one generator process writes the same records as
  JSONL to ``stream --stdin --emit -`` at a fixed mean rate
  (open loop), and the benchmark times each window's snapshot line.

This module is stdlib-only: the benchmark's own process must stay
small, because a child's peak RSS as ``wait4`` reports it includes the
parent's resident set at fork time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Mean send rate of the live generator, records per second: about a
#: third of what the service drains on this host class, so a slow
#: phase of a shared host raises latency without building a backlog
#: (at 3,000 rec/s a 1.6x slow-down left passes seconds behind).
LIVE_RATE_REC_S = 1500.0
#: Period-detector permutations of every ``patterns`` and ``stream`` run.
PERMUTATIONS = 20
#: Worker count of the parallel runs (the host class has 2 CPUs).
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: Dataset shape: ``short`` (10 min, wide) or ``long`` (24 h, narrow).
    shape: str
    #: ``total_requests`` passed to the shape's config builder.
    requests: int
    #: Added to ``--seed`` to get the dataset seed.
    seed_offset: int
    #: Batch job: ``characterize`` or ``stream``.
    job: str
    #: Window width and watermark lag of every ``stream`` run.
    window_s: float
    watermark_s: float

    def dataset_seed(self, seed: int) -> int:
        return seed + self.seed_offset

    def batch_argv(self, logs_dir: str, workers: int,
                   emit: str) -> List[str]:
        """CLI arguments of the batch job at ``workers``.

        The timed backfill runs without ``--checkpoint-dir``: a
        checkpoint write fsyncs, and on a shared host's disk the 288
        fsyncs of a backfill took from 0.2 s to over 2 s between runs
        minutes apart, a swing no CPU-bound reference can cancel.  The
        traced run and the live pass keep checkpoints on, so the
        checkpoint layer is still measured (``checkpoint.*``).
        """
        if self.job == "characterize":
            return ["characterize", "--logs-dir", logs_dir,
                    "--workers", str(workers)]
        return ["stream", "--logs-dir", logs_dir,
                "--ingest-workers", str(workers),
                *self.stream_args(), "--emit", emit]

    def stream_args(self) -> List[str]:
        return ["--window", repr(self.window_s),
                "--watermark", repr(self.watermark_s),
                "--permutations", str(PERMUTATIONS)]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Wide short-term traffic, many distinct keys: parse, UA
        # classification, the §4 state fold and shard transfer do the
        # work; no period detection or ngram in the batch job.
        # 2.5 s live windows give the 10-minute span 240 windows.
        Workload(
            name="char_wide",
            shape="short", requests=6_000, seed_offset=0,
            job="characterize", window_s=2.5, watermark_s=0.25,
        ),
        # 24 h diurnal traffic through the online service: 288 windows,
        # each sealed with periods and next-URL predictions, the ingest
        # queue and per-source watermarks.
        Workload(
            name="stream_day",
            shape="long", requests=4_000, seed_offset=1,
            job="stream", window_s=300.0, watermark_s=30.0,
        ),
    )
}
