"""Per-layer timings for the traced run, in a fresh process.

    PYTHONPATH=src:perfbench python3 perfbench/layers.py --workload W \\
        --seed S --data DIR --scratch DIR --characterize-obs DIR \\
        --patterns-obs DIR --stream-obs DIR --workers 2

Times each layer's public calls on the workload's own data and reads
the counters, histograms and spans ``repro.obs`` recorded in the
traced CLI runs on that data: ``characterize`` and ``patterns`` at
``--workers`` and a ``stream`` backfill (each ``--*-obs`` directory
holds that run's ``metrics.json`` and ``trace.jsonl``).  Prints one JSON object mapping
every ``metrics.PER_LAYER`` name except ``obs.trace_overhead_frac``
(the caller measures that) to its value.

The user-agent memo of ``repro.useragent.classify`` is warmed before
``analysis.characterize_s`` and ``engine.fold_s`` are timed, so their
ratio compares the two folds and not who ran cold first;
``useragent.classify_s`` times a fresh classifier on its own.
"""

from __future__ import annotations

import argparse
import json
import pickle
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.pipeline import run_characterization
from repro.engine.flowstate import FlowCollectionState
from repro.engine.ngramstate import NgramSequenceState
from repro.engine.shard import plan_memory_shards
from repro.engine.state import CharacterizationState
from repro.logs.partition import read_partitioned, write_partitioned
from repro.ngram.evaluate import evaluate_topk, split_clients
from repro.ngram.model import BackoffNgramModel
from repro.obs.sketch import QuantileSketch
from repro.periodicity.detector import DetectorConfig, PeriodDetector
from repro.periodicity.results import analyze_object_flow
from repro.stream.service import StreamConfig, StreamService
from repro.stream.snapshots import SnapshotBuilder
from repro.synth.workload import (
    WorkloadBuilder,
    long_term_config,
    short_term_config,
)
from repro.useragent.classify import UserAgentClassifier, classify_user_agent

from metrics import STAGES, median, percentile
from workloads import PERMUTATIONS, WORKLOADS


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


class ObsRun:
    """The metrics snapshot and spans one traced CLI run wrote."""

    def __init__(self, directory: Path) -> None:
        self.snapshot = json.loads((directory / "metrics.json").read_text())
        self.spans = [json.loads(line) for line in
                      (directory / "trace.jsonl").read_text().splitlines()]

    def counter(self, name: str) -> float:
        return float(self.snapshot.get("counters", {}).get(name, 0))

    def gauge(self, name: str) -> float:
        return float(self.snapshot.get("gauges", {}).get(name) or 0.0)

    def sketch(self, name: str) -> Optional[QuantileSketch]:
        data = self.snapshot.get("histograms", {}).get(name)
        if not data or not data.get("count"):
            return None
        return QuantileSketch.from_dict(data)

    def quantile(self, name: str, q: float) -> float:
        sketch = self.sketch(name)
        return sketch.quantile(q) if sketch is not None else 0.0

    def total(self, name: str) -> float:
        sketch = self.sketch(name)
        return sketch.total if sketch is not None else 0.0


def stage_self_times(spans: List[dict], workers: int) -> Dict[str, float]:
    """Self time per stage (seconds, keyed by stage) from a traced
    batch run's spans.

    A stage's ``engine.map_shard`` spans are merged into the buffer
    before the stage's own ``pipeline.*`` span closes, so each
    ``pipeline.*`` span owns the map spans recorded since the previous
    one.  Spans carry durations only, so the part of a stage the map
    work covers is estimated as their total spread over ``workers``
    (exact for one worker), capped at the stage's duration.
    """
    totals = {stage: 0.0 for stage in STAGES}
    pending_map = 0.0
    for span in spans:
        name, seconds = span["name"], float(span["seconds"])
        if name == "engine.map_shard":
            pending_map += seconds
        elif name.startswith("pipeline."):
            stage = name[len("pipeline."):]
            covered = min(seconds, pending_map / max(1, workers))
            if stage in totals:
                totals[stage] += seconds - covered
            pending_map = 0.0
    return totals


def measure(args) -> Dict[str, float]:
    workload = WORKLOADS[args.workload]
    out: Dict[str, float] = {}

    # synth + logs write: the set-up layers, rebuilt here to time them.
    make_config = (
        short_term_config if workload.shape == "short" else long_term_config
    )
    builder = WorkloadBuilder(
        make_config(workload.requests, seed=workload.dataset_seed(args.seed))
    )
    (events, _), out["synth.events_s"] = timed(builder.build_events)
    served, out["synth.replay_s"] = timed(lambda: builder.replay(events))
    built = [request.log for request in served]
    out["synth.records"] = len(built)
    _, out["logs.write_s"] = timed(
        lambda: write_partitioned(built, args.scratch / "logs")
    )
    out["logs.write_mb"] = sum(
        path.stat().st_size for path in (args.scratch / "logs").rglob("*")
        if path.is_file()
    ) / 1e6
    del events, served, built

    # logs parse: drain the partitioned directory the jobs read.
    records, out["logs.parse_s"] = timed(
        lambda: list(read_partitioned(args.data / "logs"))
    )
    out["logs.parse_rec_s"] = len(records) / out["logs.parse_s"]

    # useragent: a fresh (cold) classifier over the UA column.
    agents = [record.user_agent for record in records]
    classifier = UserAgentClassifier()
    _, out["useragent.classify_s"] = timed(
        lambda: [classifier.classify(agent) for agent in agents]
    )
    present = [agent for agent in agents if agent]
    distinct = len(set(present))
    out["useragent.distinct_uas"] = distinct
    out["useragent.memo_hit_ratio"] = (
        1.0 - distinct / len(present) if present else 0.0
    )
    for agent in agents:  # warm the shared memo both folds use
        classify_user_agent(agent)

    # analysis vs engine.state: the serial §4 path and the state fold.
    _, out["analysis.characterize_s"] = timed(
        lambda: run_characterization(records)
    )
    _, out["engine.fold_s"] = timed(
        lambda: CharacterizationState().update(records)
    )
    out["engine.fold_rec_s"] = len(records) / out["engine.fold_s"]
    out["engine.fold_ratio"] = out["engine.fold_s"] / out["analysis.characterize_s"]

    # engine shard transfer: what an in-memory engine run pickles.
    shards = plan_memory_shards(records, args.workers * 4)
    out["engine.memshard_pickle_mb"] = len(pickle.dumps(shards)) / 1e6
    partial_bytes = [
        pickle.dumps(CharacterizationState().update(shard.iter_logs()))
        for shard in shards
    ]
    out["engine.state_pickle_mb"] = sum(map(len, partial_bytes)) / 1e6
    partials = [pickle.loads(data) for data in partial_bytes]

    def merge_all():
        merged = partials[0]
        for partial in partials[1:]:
            merged = merged.merge(partial)
        return merged

    merged, out["engine.merge_s"] = timed(merge_all)
    _, out["engine.finalize_s"] = timed(merged.to_report)
    del shards, partial_bytes, partials, merged

    # engine executor: the traced characterize run's shard accounting.
    # Busy time is the workers' own map_shard spans; a pooled shard's
    # ShardResult.seconds runs from submit to result, so the rest of
    # it is queue wait plus transfer.
    batch = ObsRun(args.characterize_obs)
    busy = [span["seconds"] for span in batch.spans
            if span["name"] == "engine.map_shard"]
    out["engine.shards"] = batch.counter("engine.shards_completed")
    out["engine.map_busy_s"] = sum(busy)
    out["engine.queue_wait_s"] = (
        batch.total("engine.shard_seconds") - out["engine.map_busy_s"]
    )
    out["engine.run_elapsed_s"] = batch.total("engine.run_seconds")
    out["engine.dispatch_s"] = (
        out["engine.run_elapsed_s"] - out["engine.map_busy_s"] / args.workers
    )
    busy_p50 = median(busy)
    out["engine.shard_skew"] = max(busy) / busy_p50 if busy_p50 else 0.0
    out["engine.retries"] = batch.counter("engine.shard_retries")

    # core.pipeline: §4 stage self time from the characterize run, the
    # §5 stages' from the patterns run.
    stages = stage_self_times(
        ObsRun(args.patterns_obs).spans, args.workers
    )
    stages["characterization"] = stage_self_times(
        batch.spans, args.workers
    )["characterization"]
    out.update({f"stage.{stage}_s": value for stage, value in stages.items()})

    # checkpoint + stream service: the traced stream backfill.
    stream = ObsRun(args.stream_obs)
    out["checkpoint.saves"] = stream.counter("checkpoint.saves")
    out["checkpoint.save_ms_p50"] = (
        stream.quantile("checkpoint.save_seconds", 0.5) * 1e3
    )
    out["checkpoint.save_kb_p50"] = (
        stream.quantile("checkpoint.save_bytes", 0.5) / 1024
    )
    seals = [span["seconds"] for span in stream.spans
             if span["name"] == "stream.seal_window"]
    out["stream.seal_ms_p50"] = percentile(seals, 50) * 1e3
    out["stream.seal_ms_p95"] = percentile(seals, 95) * 1e3
    out["stream.queue_peak"] = stream.gauge("ingest.queue_peak")
    out["stream.blocked_puts"] = stream.counter("ingest.blocked_puts")
    out["stream.windows_sealed"] = stream.counter("stream.windows_sealed")

    # flowstate + periodicity: collect, then detect flow by flow.
    def collect():
        return FlowCollectionState().update(records).finalize()

    flows, out["periodicity.collect_s"] = timed(collect)
    out["periodicity.flows"] = len(flows)
    detector = PeriodDetector(DetectorConfig(permutations=PERMUTATIONS))
    detect_s = []
    periodic = 0
    for object_id in sorted(flows):
        outcome, seconds = timed(
            lambda: analyze_object_flow(flows[object_id], detector=detector)
        )
        detect_s.append(seconds)
        periodic += outcome.is_periodic
    out["periodicity.detect_s"] = sum(detect_s)
    out["periodicity.detect_ms_p50"] = percentile(detect_s, 50) * 1e3
    out["periodicity.detect_ms_p95"] = percentile(detect_s, 95) * 1e3
    out["periodicity.periodic_ratio"] = periodic / len(flows) if flows else 0.0

    # ngramstate + ngram: the raw-URL Table 3 cell (N=1, K=1/5/10).
    sequences, out["ngram.sequences_s"] = timed(
        lambda: NgramSequenceState().update(records).sequences(False)
    )
    train_ids, test_ids = split_clients(sequences)
    model = BackoffNgramModel(order=1)
    _, out["ngram.train_s"] = timed(
        lambda: model.fit(sequences[client] for client in train_ids)
    )
    results, out["ngram.eval_s"] = timed(lambda: evaluate_topk(
        model, [sequences[client] for client in test_ids], 1, (1, 5, 10)
    ))
    top1 = next(result for result in results if result.k == 1)
    out["ngram.queries"] = top1.total
    out["ngram.query_us"] = (
        out["ngram.eval_s"] / top1.total * 1e6 if top1.total else 0.0
    )
    out["ngram.vocab"] = model.vocabulary_size
    out["ngram.top1_hit_ratio"] = top1.accuracy

    # stream: windowing alone, then snapshots of the kept windows.
    config = StreamConfig(window_s=workload.window_s,
                          watermark_lag_s=workload.watermark_s,
                          detect_periods=False, predict_urls=False)
    service = StreamService(config, keep_accumulators=True)
    result, out["stream.replay_bare_s"] = timed(lambda: service.replay(records))
    snapshot_builder = SnapshotBuilder(
        detector_config=DetectorConfig(permutations=PERMUTATIONS)
    )
    snapshot_s = [timed(lambda: snapshot_builder.build(accumulator))[1]
                  for accumulator in result.accumulators]
    out["stream.snapshot_ms_p50"] = median(snapshot_s) * 1e3
    out["stream.snapshot_ms_p95"] = percentile(snapshot_s, 95) * 1e3
    return {name: float(value) for name, value in out.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--characterize-obs", type=Path, required=True)
    parser.add_argument("--patterns-obs", type=Path, required=True)
    parser.add_argument("--stream-obs", type=Path, required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(measure(args), sort_keys=True))


if __name__ == "__main__":
    main()
