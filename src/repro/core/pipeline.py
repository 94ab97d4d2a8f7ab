"""End-to-end analysis pipeline: logs in, paper artifacts out.

:func:`run_characterization` reproduces §4 (traffic source, request
type, response type) and :func:`run_pattern_analysis` reproduces §5
(periodicity + prediction) over any iterable of
:class:`repro.logs.record.RequestLog` — synthetic or real.
:meth:`CharacterizationReport.render` prints the §4 findings as text.

:func:`run_characterization_parallel` produces the same §4 report
through the sharded engine (:mod:`repro.engine`): the dataset splits
into shards, each shard folds into a mergeable
:class:`~repro.engine.state.CharacterizationState`, and the merged
state finalizes into a report whose counter metrics are identical to
the serial ones.

:func:`run_stream` is the online entry point: it feeds a log source
through the event-time windowed service (:mod:`repro.stream`), whose
per-window accumulators are the same mergeable engine states — so
merging all sealed windows of a replay reproduces the batch results
exactly (see :mod:`repro.stream.accumulators`).

:func:`run_periodicity_parallel` and :func:`run_ngram_parallel`
extend the same contract to the paper's two most expensive analyses.
Both run in engine stages: a record map stage folds shards into
mergeable state (flow timestamp-unions for §5.1, per-client token
buffers for §5.2), the merged state finalizes, and the heavy
computation — period detection over object flows, ngram training and
top-K evaluation over client sequences — fans back out as item-shard
map stages over the merged state.  Results are identical to
:func:`run_pattern_analysis`'s serial path for any worker count,
backend, or shard split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.cacheability import (
    CacheabilityHeatmap,
    CacheabilityStats,
    analyze_cacheability,
)
from ..analysis.characterize import (
    RequestTypeBreakdown,
    TrafficSourceBreakdown,
    characterize,
)
from ..analysis.sizes import SizeComparison, SizeDistribution, analyze_sizes
from ..logs.record import RequestLog
from ..logs.summary import DatasetSummary
from ..obs.spans import span
from ..useragent.appid import AppUsageReport, aggregate_apps
from .report import format_pct, render_bar_chart, render_heatmap, render_table

if TYPE_CHECKING:
    # §5 types; the §5 functions import the modules when they run, so
    # the §4 path loads neither the detector nor the ngram model.
    from ..ngram.evaluate import AccuracyResult
    from ..periodicity.detector import DetectorConfig
    from ..periodicity.flows import FlowFilter
    from ..periodicity.results import PeriodicityReport

__all__ = [
    "CharacterizationReport",
    "PatternReport",
    "render_periodicity",
    "render_ngram",
    "run_characterization",
    "run_characterization_parallel",
    "run_pattern_analysis",
    "run_pattern_analysis_parallel",
    "run_periodicity_parallel",
    "run_ngram_parallel",
    "run_stream",
]

_HEATMAP_COLUMNS = ("never", "low", "mid", "high", "always")


@dataclass
class CharacterizationReport:
    """Bundle of every §4 artifact for one dataset."""

    summary: DatasetSummary
    traffic_source: TrafficSourceBreakdown
    request_type: RequestTypeBreakdown
    cacheability: CacheabilityStats
    heatmap: CacheabilityHeatmap
    sizes: Dict[str, SizeDistribution]
    apps: Optional[AppUsageReport] = None

    @property
    def size_comparison(self) -> Optional[SizeComparison]:
        json_dist = self.sizes.get("application/json")
        html_dist = self.sizes.get("text/html")
        if not json_dist or not html_dist or not json_dist.count or not html_dist.count:
            return None
        return SizeComparison.between(json_dist, html_dist)

    def render(self, name: str = "dataset") -> str:
        """Human-readable §4 report."""
        parts: List[str] = []
        parts.append(
            render_table(
                ["dataset", "logs", "duration_s", "domains", "clients", "objects"],
                [
                    [
                        name,
                        self.summary.total_logs,
                        f"{self.summary.duration_seconds:.0f}",
                        self.summary.num_domains,
                        self.summary.num_clients,
                        self.summary.num_objects,
                    ]
                ],
                title="Table 2 — dataset summary",
            )
        )
        device_shares = self.traffic_source.device_shares()
        parts.append(
            render_bar_chart(
                [(device, share * 100) for device, share in device_shares.items()],
                title="Figure 3 — JSON requests by device type (%)",
                value_format="{:.1f}%",
            )
        )
        parts.append(
            render_table(
                ["metric", "value"],
                [
                    ["non-browser traffic", format_pct(self.traffic_source.non_browser_fraction)],
                    ["mobile browser traffic", format_pct(self.traffic_source.mobile_browser_fraction)],
                    ["mobile native-app traffic", format_pct(self.traffic_source.mobile_app_fraction)],
                    ["GET requests", format_pct(self.request_type.get_fraction)],
                    ["POST share of non-GET", format_pct(self.request_type.post_share_of_non_get)],
                    ["uncacheable JSON traffic", format_pct(self.cacheability.uncacheable_fraction)],
                ],
                title="§4 — headline shares",
            )
        )
        comparison = self.size_comparison
        if comparison is not None:
            parts.append(
                render_table(
                    ["comparison", "p50", "p75"],
                    [
                        [
                            "JSON smaller than HTML by",
                            format_pct(comparison.smaller_at_p50),
                            format_pct(comparison.smaller_at_p75),
                        ]
                    ],
                    title="§4 — response sizes",
                )
            )
        parts.append(
            render_heatmap(
                self.heatmap.rows(),
                _HEATMAP_COLUMNS,
                title="Figure 4 — domain cacheability by category",
            )
        )
        if self.apps is not None and self.apps.total_requests:
            rows = [
                [
                    name,
                    requests,
                    format_pct(requests / self.apps.total_requests),
                    self.apps.version_spread(name),
                ]
                for name, requests in self.apps.top_apps(8)
            ]
            rows.append(
                [
                    "(identified total)",
                    "-",
                    format_pct(self.apps.identified_fraction),
                    "-",
                ]
            )
            parts.append(
                render_table(
                    ["application", "requests", "share", "versions"],
                    rows,
                    title="§4 — top applications consuming JSON",
                )
            )
        return "\n\n".join(parts)


def render_periodicity(periodicity: PeriodicityReport) -> str:
    """Human-readable §5.1 summary + Figure 5 histogram."""
    parts: List[str] = []
    parts.append(
        render_table(
            ["metric", "value"],
            [
                ["periodic JSON requests", format_pct(periodicity.periodic_request_fraction)],
                ["periodic traffic upload share", format_pct(periodicity.periodic_upload_fraction)],
                ["periodic traffic uncacheable", format_pct(periodicity.periodic_uncacheable_fraction)],
                ["objects with periodic majority", format_pct(periodicity.majority_periodic_fraction())],
            ],
            title="§5.1 — periodicity",
        )
    )
    histogram = periodicity.period_histogram(10.0)
    if histogram:
        parts.append(
            render_bar_chart(
                [(f"{int(start)}s", count) for start, count in histogram],
                title="Figure 5 — object periods (10s bins)",
            )
        )
    return "\n\n".join(parts)


def render_ngram(ngram: Mapping[Tuple[int, int, bool], AccuracyResult]) -> str:
    """Human-readable Table 3 (empty string when no cells)."""
    if not ngram:
        return ""
    ks = sorted({k for _, k, _ in ngram})
    ns = sorted({n for n, _, _ in ngram})
    rows = []
    for n in ns:
        for k in ks:
            clustered = ngram.get((n, k, True))
            actual = ngram.get((n, k, False))
            rows.append(
                [
                    n,
                    k,
                    f"{clustered.accuracy:.2f}" if clustered else "-",
                    f"{actual.accuracy:.2f}" if actual else "-",
                ]
            )
    return render_table(
        ["N", "K", "clustered", "actual"],
        rows,
        title="Table 3 — ngram top-K accuracy",
    )


@dataclass
class PatternReport:
    """Bundle of the §5 artifacts for one dataset."""

    periodicity: PeriodicityReport
    ngram: Dict[Tuple[int, int, bool], AccuracyResult]

    def render(self) -> str:
        parts = [render_periodicity(self.periodicity)]
        ngram_text = render_ngram(self.ngram)
        if ngram_text:
            parts.append(ngram_text)
        return "\n\n".join(parts)


def run_characterization(
    logs: Iterable[RequestLog],
    domain_categories: Optional[Mapping[str, str]] = None,
) -> CharacterizationReport:
    """Run every §4 analysis over a log collection."""
    materialized = list(logs)
    summary = DatasetSummary().update(materialized)
    json_logs = [record for record in materialized if record.is_json]
    traffic_source, request_type = characterize(json_logs, json_only=False)
    cache_stats, heatmap = analyze_cacheability(
        json_logs, domain_categories, json_only=False
    )
    sizes = analyze_sizes(materialized)
    apps = aggregate_apps(json_logs, json_only=False)
    return CharacterizationReport(
        summary=summary,
        traffic_source=traffic_source,
        request_type=request_type,
        cacheability=cache_stats,
        heatmap=heatmap,
        sizes=sizes,
        apps=apps,
    )


def _characterize_shard(shard):
    """Engine map function: fold one shard into a partial §4 state.

    Top-level (not a closure) so the process backend can pickle it.
    All engine map functions in this module follow that rule;
    per-call parameters bind via :func:`functools.partial`, which
    pickles as long as its arguments do.
    """
    from ..engine.state import CharacterizationState

    return CharacterizationState().update(shard.iter_logs())


def _plan_record_shards(logs, logs_dir, workers, num_shards, lenient=False):
    """Shared record-stage planning for every parallel pipeline.

    Exactly one of ``logs`` / ``logs_dir`` must be given: an
    in-memory iterable shards by stable client hash (a client's
    records never straddle shards), a partitioned directory shards
    per edge × hour file (so the dataset never materializes).
    ``lenient`` makes directory shards skip (and count) malformed log
    lines instead of failing the shard.
    """
    from ..engine.shard import plan_directory_shards, plan_memory_shards

    if (logs is None) == (logs_dir is None):
        raise ValueError("provide exactly one of logs= or logs_dir=")
    if num_shards is None:
        num_shards = max(1, workers) * 4
    if logs_dir is not None:
        on_error = "skip" if lenient else "raise"
        return plan_directory_shards(logs_dir, on_error=on_error), num_shards
    return plan_memory_shards(list(logs), num_shards), num_shards


def _stage_executor(
    workers, backend, checkpoint, progress,
    shard_timeout_s=None, retries=0, faults=None,
):
    """Shared executor construction so every pipeline stage exposes
    the same hardening knobs (per-shard timeout, bounded retries,
    fault plan)."""
    from ..engine.executor import ShardExecutor

    return ShardExecutor(
        workers=workers,
        backend=backend,
        checkpoint=checkpoint,
        progress=progress,
        timeout_s=shard_timeout_s,
        retries=retries,
        faults=faults,
    )


def _stage_checkpoint(checkpoint_dir, stage: str):
    """Per-stage checkpoint store, or None.

    Stages get their own subdirectories because shard ids are the
    only checkpoint key: a §4 ``mem-0001…`` partial must never be
    mistaken for a §5.1 flow partial when pipelines share one
    checkpoint directory.
    """
    from ..engine.checkpoint import CheckpointStore

    if checkpoint_dir is None:
        return None
    return CheckpointStore(Path(checkpoint_dir) / stage)


def _flow_collect_shard(shard, flow_filter=None):
    """Engine map function: fold one shard into a §5.1 flow state."""
    from ..engine.flowstate import FlowCollectionState

    return FlowCollectionState(flow_filter).update(shard.iter_logs())


def _detect_periods_shard(shard, detector_config=None, match_tolerance=0.10):
    """Engine map function: detect periods for one object-flow shard."""
    from ..engine.flowstate import PeriodicityDetectionState
    from ..periodicity.detector import PeriodDetector
    from ..periodicity.results import analyze_object_flow

    detector = PeriodDetector(detector_config) if detector_config else PeriodDetector()
    return PeriodicityDetectionState(
        {
            object_id: analyze_object_flow(
                flow, detector=detector, match_tolerance=match_tolerance
            )
            for object_id, flow in shard.items
        }
    )


def _ngram_sequences_shard(shard):
    """Engine map function: buffer one shard's client token sequences."""
    from ..engine.ngramstate import NgramSequenceState

    return NgramSequenceState().update(shard.iter_logs())


def _ngram_client_id(item):
    """Sharding key for (client_id, sequence) items; top-level to pickle."""
    return item[0]


def _ngram_train_shard(shard, order=1):
    """Engine map function: train a partial model on one client shard.

    Items are ``(client_id, sequence)`` pairs sharded by client hash.
    """
    from ..ngram.model import BackoffNgramModel

    return BackoffNgramModel(order=order).fit(
        sequence for _, sequence in shard.items
    )


def _ngram_eval_shard(shard, model=None, ns=(1,), ks=(1, 5, 10)):
    """Engine map function: score one test-client shard against a model."""
    from ..engine.ngramstate import NgramEvalState
    from ..ngram.evaluate import evaluate_topk

    flows = [sequence for _, sequence in shard.items]
    state = NgramEvalState()
    for n in ns:
        for result in evaluate_topk(model, flows, n, ks):
            state.record(n, result.k, result.correct, result.total)
    return state


def run_characterization_parallel(
    logs: Optional[Iterable[RequestLog]] = None,
    domain_categories: Optional[Mapping[str, str]] = None,
    *,
    logs_dir: Optional[str] = None,
    workers: int = 1,
    backend: str = "auto",
    num_shards: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    progress=None,
    with_stats: bool = False,
    shard_timeout_s: Optional[float] = None,
    retries: int = 0,
    faults=None,
    lenient: bool = False,
):
    """§4 characterization through the sharded engine.

    Exactly one input source must be given: ``logs`` (an in-memory
    iterable, sharded by client hash) or ``logs_dir`` (a partitioned
    log directory written by :func:`repro.logs.partition.write_partitioned`,
    sharded per edge × hour file so the dataset never materializes).

    The counter metrics of the returned report — traffic source,
    request type, cacheability, summary counters — are identical to
    :func:`run_characterization` on the same records, for any
    ``workers``/``backend``/``num_shards``: the per-shard states
    merge losslessly and always in plan order.

    ``checkpoint_dir`` enables resume: completed shards persist there
    and a re-run loads them instead of recomputing.  ``progress`` is
    called with ``(ShardResult, done, total)`` per finished shard.
    ``shard_timeout_s``/``retries`` bound hung or flaky shards (see
    ``docs/robustness.md``); ``lenient`` skips malformed log lines
    with a counter instead of failing the shard; ``faults`` installs
    a :class:`~repro.faults.FaultPlan` for the run.
    With ``with_stats=True`` returns ``(report, RunReport)`` — the
    run report carries retry/quarantine counters.
    """
    from ..engine.state import CharacterizationState

    shards, _ = _plan_record_shards(
        logs, logs_dir, workers, num_shards, lenient=lenient
    )
    executor = _stage_executor(
        workers, backend,
        _stage_checkpoint(checkpoint_dir, "characterization"), progress,
        shard_timeout_s=shard_timeout_s, retries=retries, faults=faults,
    )
    with span("pipeline.characterization", shards=len(shards)):
        state, run_report = executor.run(shards, _characterize_shard)
    if state is None:
        state = CharacterizationState()
    report = state.to_report(domain_categories)
    if with_stats:
        return report, run_report
    return report


def run_periodicity_parallel(
    logs: Optional[Iterable[RequestLog]] = None,
    *,
    logs_dir: Optional[str] = None,
    flow_filter: Optional[FlowFilter] = None,
    detector_config: Optional[DetectorConfig] = None,
    match_tolerance: float = 0.10,
    workers: int = 1,
    backend: str = "auto",
    num_shards: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    progress=None,
    with_stats: bool = False,
    shard_timeout_s: Optional[float] = None,
    retries: int = 0,
    faults=None,
    lenient: bool = False,
):
    """§5.1 periodicity analysis through the sharded engine.

    Two engine stages:

    1. **Flow collection** — record shards fold into mergeable
       :class:`~repro.engine.flowstate.FlowCollectionState` (raw
       per-(object, client) timestamp lists), merged by timestamp
       union.  Correct under any shard split because the paper's
       significance filters apply only after the merge.
    2. **Detection** — the merged, filtered object flows shard by
       ``stable_hash64(object_id)`` and each shard runs the same
       per-object detection as the serial pass
       (:func:`~repro.periodicity.results.analyze_object_flow`).

    The returned report's flows, detected periods, consensus
    verdicts, and every aggregate are identical to
    :func:`~repro.periodicity.results.analyze_logs` over the same
    records, for any ``workers``/``backend``/``num_shards``.
    With ``with_stats=True`` returns ``(report, [RunReport, RunReport])``
    (one per stage).
    """
    from ..engine.flowstate import FlowCollectionState
    from ..engine.shard import plan_item_shards
    from ..periodicity.results import PeriodicityReport

    shards, num_shards = _plan_record_shards(
        logs, logs_dir, workers, num_shards, lenient=lenient
    )
    collect = _stage_executor(
        workers, backend,
        _stage_checkpoint(checkpoint_dir, "periodicity-flows"), progress,
        shard_timeout_s=shard_timeout_s, retries=retries, faults=faults,
    )
    with span("pipeline.periodicity-flows", shards=len(shards)):
        flow_state, collect_report = collect.run(
            shards, partial(_flow_collect_shard, flow_filter=flow_filter)
        )
    if flow_state is None:
        flow_state = FlowCollectionState(flow_filter)
    flows = flow_state.finalize()

    detect_shards = plan_item_shards(
        sorted(flows.items()),
        num_shards,
        key=lambda item: item[0],
        prefix="periodicity-detect",
    )
    detect = _stage_executor(
        workers, backend,
        _stage_checkpoint(checkpoint_dir, "periodicity-detect"), progress,
        shard_timeout_s=shard_timeout_s, retries=retries, faults=faults,
    )
    with span("pipeline.periodicity-detect", shards=len(detect_shards)):
        detect_state, detect_report = detect.run(
            detect_shards,
            partial(
                _detect_periods_shard,
                detector_config=detector_config,
                match_tolerance=match_tolerance,
            ),
        )
    objects = detect_state.objects if detect_state is not None else {}
    report = PeriodicityReport(
        objects={object_id: objects[object_id] for object_id in sorted(objects)},
        total_json_requests=flow_state.total_json_requests,
    )
    if with_stats:
        return report, [collect_report, detect_report]
    return report


def run_ngram_parallel(
    logs: Optional[Iterable[RequestLog]] = None,
    *,
    logs_dir: Optional[str] = None,
    ns: Sequence[int] = (1,),
    ks: Sequence[int] = (1, 5, 10),
    test_fraction: float = 0.25,
    seed: int = 0,
    model_order: Optional[int] = None,
    workers: int = 1,
    backend: str = "auto",
    num_shards: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    progress=None,
    with_stats: bool = False,
    shard_timeout_s: Optional[float] = None,
    retries: int = 0,
    faults=None,
    lenient: bool = False,
):
    """The Table 3 sweep through the sharded engine.

    Three engine stages per URL variant (raw, clustered):

    1. **Sequences** — record shards fold into mergeable
       :class:`~repro.engine.ngramstate.NgramSequenceState`
       per-client token buffers (both variants in one pass over the
       records); buffers merge by concatenation and sort once.
    2. **Training** — the training clients' sequences (hash-split
       exactly like :func:`~repro.ngram.evaluate.split_clients`)
       shard by client id; each shard trains a shard-local
       :class:`~repro.ngram.model.BackoffNgramModel` and the models
       merge count tables and vocabularies losslessly.
    3. **Evaluation** — test sequences shard by client id; each
       shard scores top-K hits against the merged model and the hit
       counters sum.

    Accuracies are identical to
    :func:`~repro.ngram.evaluate.run_table3` for any
    ``workers``/``backend``/``num_shards``: training counts and
    evaluation tallies are order-independent sums, and the model
    ranks equal-count successors by token, never by insertion order.
    With ``with_stats=True`` returns ``(results, [RunReport, …])``.
    """
    from ..engine.ngramstate import NgramSequenceState
    from ..engine.shard import plan_item_shards
    from ..ngram.evaluate import AccuracyResult, split_clients
    from ..ngram.model import BackoffNgramModel

    shards, num_shards = _plan_record_shards(
        logs, logs_dir, workers, num_shards, lenient=lenient
    )
    sequence_stage = _stage_executor(
        workers, backend,
        _stage_checkpoint(checkpoint_dir, "ngram-sequences"), progress,
        shard_timeout_s=shard_timeout_s, retries=retries, faults=faults,
    )
    with span("pipeline.ngram-sequences", shards=len(shards)):
        sequence_state, sequence_report = sequence_stage.run(
            shards, _ngram_sequences_shard
        )
    if sequence_state is None:
        sequence_state = NgramSequenceState()

    order = model_order if model_order is not None else max(ns)
    results: Dict[Tuple[int, int, bool], AccuracyResult] = {}
    stage_reports = [sequence_report]
    for clustered in (False, True):
        variant = "clustered" if clustered else "raw"
        sequences = sequence_state.sequences(clustered)
        train_ids, test_ids = split_clients(
            sequences, test_fraction=test_fraction, seed=seed
        )

        train_shards = plan_item_shards(
            [(client_id, sequences[client_id]) for client_id in sorted(train_ids)],
            num_shards,
            key=_ngram_client_id,
            prefix=f"ngram-train-{variant}",
        )
        train = _stage_executor(
            workers, backend,
            _stage_checkpoint(checkpoint_dir, f"ngram-train-{variant}"),
            progress,
            shard_timeout_s=shard_timeout_s, retries=retries, faults=faults,
        )
        with span("pipeline.ngram-train", variant=variant):
            model, train_report = train.run(
                train_shards, partial(_ngram_train_shard, order=order)
            )
        if model is None:
            model = BackoffNgramModel(order=order)

        eval_shards = plan_item_shards(
            [(client_id, sequences[client_id]) for client_id in sorted(test_ids)],
            num_shards,
            key=_ngram_client_id,
            prefix=f"ngram-eval-{variant}",
        )
        evaluate = _stage_executor(
            workers, backend,
            _stage_checkpoint(checkpoint_dir, f"ngram-eval-{variant}"),
            progress,
            shard_timeout_s=shard_timeout_s, retries=retries, faults=faults,
        )
        with span("pipeline.ngram-eval", variant=variant):
            eval_state, eval_report = evaluate.run(
                eval_shards, partial(_ngram_eval_shard, model=model, ns=ns, ks=ks)
            )
        stage_reports.extend([train_report, eval_report])
        for n in ns:
            for k in sorted(ks):
                cell = (n, k)
                correct = eval_state.correct.get(cell, 0) if eval_state else 0
                total = eval_state.total.get(cell, 0) if eval_state else 0
                results[(n, k, clustered)] = AccuracyResult(
                    n=n, k=k, clustered=clustered, correct=correct, total=total
                )
    if with_stats:
        return results, stage_reports
    return results


def run_stream(
    logs: Optional[Iterable[RequestLog]] = None,
    *,
    logs_dir: Optional[str] = None,
    window_s: float = 300.0,
    slide_s: Optional[float] = None,
    watermark_lag_s: float = 0.0,
    flow_filter: Optional[FlowFilter] = None,
    detector_config: Optional[DetectorConfig] = None,
    detect_periods: bool = True,
    predict_urls: bool = True,
    top_k: int = 5,
    drift_threshold: float = 0.10,
    tracks: Optional[Sequence[str]] = None,
    queue_capacity: int = 65_536,
    queue_policy: str = "block",
    ingest_workers: int = 1,
    checkpoint_dir: Optional[str] = None,
    emit=None,
    on_snapshot=None,
    keep_accumulators: bool = False,
    faults=None,
):
    """Online windowed analysis over a log source (:mod:`repro.stream`).

    Exactly one input source must be given: ``logs`` (any iterable —
    replayed in-process) or ``logs_dir`` (a partitioned directory;
    with ``ingest_workers > 1`` each edge streams as its own source
    through the bounded ingest queue and keeps its own watermark
    frontier, so inter-edge skew never makes records late —
    ``watermark_lag_s`` only needs to cover disorder *within* an
    edge's own stream).

    Returns the :class:`~repro.stream.service.StreamResult` with one
    :class:`~repro.stream.snapshots.WindowSnapshot` per sealed
    window.  ``emit`` (a path or text handle) appends each snapshot
    as a JSONL line as it seals; ``checkpoint_dir`` persists sealed
    windows so a killed stream resumes without double-counting
    (see ``docs/streaming.md``).  ``faults`` installs a
    :class:`~repro.faults.FaultPlan` for the run (ingest stalls, torn
    window checkpoints, damaged source lines — see
    ``docs/robustness.md``).
    """
    from ..faults import runtime as fault_runtime
    from ..stream import (
        ALL_TRACKS,
        JsonlEmitter,
        StreamConfig,
        StreamService,
        directory_sources,
        iterable_source,
        merged_directory_source,
    )

    if (logs is None) == (logs_dir is None):
        raise ValueError("provide exactly one of logs= or logs_dir=")
    config = StreamConfig(
        window_s=window_s,
        slide_s=slide_s,
        watermark_lag_s=watermark_lag_s,
        tracks=tuple(tracks) if tracks is not None else ALL_TRACKS,
        flow_filter=flow_filter,
        detector_config=detector_config,
        match_tolerance=0.10,
        detect_periods=detect_periods,
        predict_urls=predict_urls,
        top_k=top_k,
        drift_threshold=drift_threshold,
        queue_capacity=queue_capacity,
        queue_policy=queue_policy,
        ingest_workers=ingest_workers,
        checkpoint_dir=checkpoint_dir,
    )
    emitter = None
    if emit is not None:
        emitter = emit if isinstance(emit, JsonlEmitter) else JsonlEmitter(emit)
    service = StreamService(
        config,
        emitter=emitter,
        on_snapshot=on_snapshot,
        keep_accumulators=keep_accumulators,
    )
    try:
        with fault_runtime.installed(faults):
            if logs is not None:
                if ingest_workers > 1 or queue_policy == "drop":
                    return service.run([iterable_source(logs)])
                return service.replay(logs)
            if ingest_workers > 1:
                return service.run(directory_sources(logs_dir))
            return service.run([merged_directory_source(logs_dir)])
    finally:
        if emitter is not None and not isinstance(emit, JsonlEmitter):
            emitter.close()


def run_pattern_analysis(
    logs: Iterable[RequestLog],
    flow_filter: Optional[FlowFilter] = None,
    detector_config: Optional[DetectorConfig] = None,
    ngram_ns: Sequence[int] = (1,),
    ngram_ks: Sequence[int] = (1, 5, 10),
) -> PatternReport:
    """Run every §5 analysis over a log collection."""
    from ..ngram.evaluate import run_table3
    from ..periodicity.results import analyze_logs

    materialized = list(logs)
    periodicity = analyze_logs(
        materialized, flow_filter=flow_filter, detector_config=detector_config
    )
    ngram = run_table3(materialized, ns=ngram_ns, ks=ngram_ks)
    return PatternReport(periodicity=periodicity, ngram=ngram)


def run_pattern_analysis_parallel(
    logs: Optional[Iterable[RequestLog]] = None,
    *,
    logs_dir: Optional[str] = None,
    flow_filter: Optional[FlowFilter] = None,
    detector_config: Optional[DetectorConfig] = None,
    ngram_ns: Sequence[int] = (1,),
    ngram_ks: Sequence[int] = (1, 5, 10),
    workers: int = 1,
    backend: str = "auto",
    num_shards: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    progress=None,
    shard_timeout_s: Optional[float] = None,
    retries: int = 0,
    faults=None,
    lenient: bool = False,
) -> PatternReport:
    """Every §5 analysis through the sharded engine.

    Composes :func:`run_periodicity_parallel` and
    :func:`run_ngram_parallel` into the same :class:`PatternReport`
    that :func:`run_pattern_analysis` builds serially — and with
    identical contents, for any ``workers``/``backend``/shard split.
    An in-memory ``logs`` iterable is materialized once and shared by
    both pipelines; with ``logs_dir`` each pipeline streams the
    partition files itself.
    """
    if (logs is None) == (logs_dir is None):
        raise ValueError("provide exactly one of logs= or logs_dir=")
    if logs is not None:
        logs = list(logs)
    periodicity = run_periodicity_parallel(
        logs,
        logs_dir=logs_dir,
        flow_filter=flow_filter,
        detector_config=detector_config,
        workers=workers,
        backend=backend,
        num_shards=num_shards,
        checkpoint_dir=checkpoint_dir,
        progress=progress,
        shard_timeout_s=shard_timeout_s,
        retries=retries,
        faults=faults,
        lenient=lenient,
    )
    ngram = run_ngram_parallel(
        logs,
        logs_dir=logs_dir,
        ns=ngram_ns,
        ks=ngram_ks,
        workers=workers,
        backend=backend,
        num_shards=num_shards,
        checkpoint_dir=checkpoint_dir,
        progress=progress,
        shard_timeout_s=shard_timeout_s,
        retries=retries,
        faults=faults,
        lenient=lenient,
    )
    return PatternReport(periodicity=periodicity, ngram=ngram)
