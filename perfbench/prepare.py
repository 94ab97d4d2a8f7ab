"""Set-up step: synthesize one workload's dataset and its live schedule.

Run as its own process (``setup_s`` times it end to end)::

    PYTHONPATH=src python3 perfbench/prepare.py --workload char_wide \\
        --seed 1 --out DIR

Writes, under ``DIR``:

* ``logs/`` — the partitioned directory (``repro.logs.partition``
  layout), the only input the batch jobs see;
* ``live.jsonl`` — the same records as one time-ordered JSONL stream,
  read back from ``logs/``, for the live generator;
* ``schedule.json`` — each live record's event time and due send
  offset; send offsets scale event time so the mean rate is
  ``LIVE_RATE_REC_S`` and the diurnal curve and bursts survive;
* ``meta.json`` — record and partition-file counts, the records each
  live window must hold, and a digest of the input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy

from repro.logs.io import write_logs
from repro.logs.partition import (
    iter_partition_files,
    read_partitioned,
    write_partitioned,
)
from repro.stream.windows import WindowSpec
from repro.synth.workload import (
    WorkloadBuilder,
    long_term_config,
    short_term_config,
)

from workloads import LIVE_RATE_REC_S, WORKLOADS


def prepare(workload_name: str, seed: int, out: Path) -> dict:
    workload = WORKLOADS[workload_name]
    make_config = (
        short_term_config if workload.shape == "short" else long_term_config
    )
    config = make_config(workload.requests, seed=workload.dataset_seed(seed))
    dataset = WorkloadBuilder(config).build()
    logs_dir = out / "logs"
    write_partitioned(dataset.logs, logs_dir)

    records = list(read_partitioned(logs_dir))
    live_path = out / "live.jsonl"
    write_logs(records, live_path)
    timestamps = [record.timestamp for record in records]
    span = timestamps[-1] - timestamps[0]
    scale = len(records) / (LIVE_RATE_REC_S * span) if span > 0 else 0.0
    due = [(ts - timestamps[0]) * scale for ts in timestamps]
    (out / "schedule.json").write_text(
        json.dumps({"timestamps": timestamps, "due": due})
    )

    spec = WindowSpec(workload.window_s)
    per_window = Counter(spec.assign(ts)[0][1] for ts in timestamps)
    meta = {
        "records": len(records),
        "partition_files": len(iter_partition_files(logs_dir)),
        "window_records": {repr(end): count
                           for end, count in sorted(per_window.items())},
        "input_digest": hashlib.sha256(live_path.read_bytes()).hexdigest(),
        "config": {"shape": workload.shape, "requests": workload.requests,
                   "seed": config.seed},
        "numpy": numpy.__version__,
    }
    (out / "meta.json").write_text(json.dumps(meta))
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=False)
    prepare(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
