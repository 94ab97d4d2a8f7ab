"""End-to-end analysis pipeline: logs in, paper artifacts out.

One entry point per analysis, each over exactly one input — an
iterable of :class:`repro.logs.record.RequestLog` (synthetic or real)
or a partitioned log directory:

* :func:`run_characterization` — §4 (traffic source, request type,
  cacheability, sizes, applications);
* :func:`run_periodicity` — §5.1, Figure 5;
* :func:`run_ngram` — §5.2, Table 3;
* :func:`run_pattern_analysis` — all of §5 in one record pass.

Every entry point always runs the sharded engine (:mod:`repro.engine`)
under one :class:`~repro.engine.options.EngineOptions`: records fold
into a mergeable :class:`~repro.engine.tracks.TrackState` per shard,
the states merge in plan order, and the merged state finalizes, fanning
§5's heavy work (period detection, ngram training and evaluation) back
out as item stages.  A serial run is the engine at one worker on the
``serial`` backend, so results are identical for any worker count,
backend or shard split.

:func:`run_stream` is the online entry point: it feeds a log source
through the event-time windowed service (:mod:`repro.stream`), whose
per-window accumulators are the same track states — so merging all
sealed windows of a replay reproduces the batch results exactly (see
:mod:`repro.stream.accumulators`).
"""

from __future__ import annotations

from dataclasses import dataclass
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

from ..engine.options import EngineOptions
from ..engine.tracks import detect_periods, evaluate_ngram, fold_records
from .report import format_pct, render_bar_chart, render_heatmap, render_table

if TYPE_CHECKING:
    # Report field types.  The §5 modules load only when a §5 stage
    # runs, so the §4 path loads neither the detector nor the ngram
    # model (nor numpy).
    from ..analysis.cacheability import CacheabilityHeatmap, CacheabilityStats
    from ..analysis.characterize import (
        RequestTypeBreakdown,
        TrafficSourceBreakdown,
    )
    from ..analysis.sizes import SizeComparison, SizeDistribution
    from ..logs.record import RequestLog
    from ..logs.summary import DatasetSummary
    from ..ngram.evaluate import AccuracyResult
    from ..periodicity.config import DetectorConfig
    from ..periodicity.flows import FlowFilter
    from ..periodicity.results import PeriodicityReport
    from ..useragent.appid import AppUsageReport

__all__ = [
    "CharacterizationReport",
    "PatternReport",
    "render_periodicity",
    "render_ngram",
    "run_characterization",
    "run_ngram",
    "run_pattern_analysis",
    "run_periodicity",
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
        from ..analysis.sizes import SizeComparison

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
    logs: Optional[Iterable[RequestLog]] = None,
    domain_categories: Optional[Mapping[str, str]] = None,
    *,
    logs_dir: Optional[str] = None,
    engine: EngineOptions = EngineOptions(),
) -> CharacterizationReport:
    """Every §4 analysis over exactly one input.

    ``logs`` is any iterable of records (sharded by client hash) and
    ``logs_dir`` a partitioned log directory written by
    :func:`repro.logs.partition.write_partitioned` (sharded per
    edge × hour file, so the dataset never materializes).  The
    record stage ``characterization`` folds
    :class:`~repro.engine.state.CharacterizationState` per shard; the
    report is the same for any ``engine`` options.
    """
    state = fold_records(
        "characterization", ("characterization",), logs, logs_dir, engine
    )
    return state.characterization.to_report(domain_categories)


def run_periodicity(
    logs: Optional[Iterable[RequestLog]] = None,
    *,
    logs_dir: Optional[str] = None,
    flow_filter: Optional[FlowFilter] = None,
    detector_config: Optional[DetectorConfig] = None,
    match_tolerance: float = 0.10,
    engine: EngineOptions = EngineOptions(),
) -> PeriodicityReport:
    """The §5.1 periodicity analysis over exactly one input.

    Record stage ``periodicity-flows`` (raw per-(object, client)
    timestamps, merged by union; the paper's significance filters
    apply only after the merge), then the ``periodicity-detect``
    item stage (:func:`~repro.engine.tracks.detect_periods`).  Equal
    to :func:`~repro.periodicity.results.analyze_logs` for any
    ``engine`` options.
    """
    state = fold_records(
        "periodicity-flows", ("periodicity",), logs, logs_dir, engine,
        flow_filter,
    )
    return detect_periods(state.flows, detector_config, match_tolerance, engine)


def run_ngram(
    logs: Optional[Iterable[RequestLog]] = None,
    *,
    logs_dir: Optional[str] = None,
    ns: Sequence[int] = (1,),
    ks: Sequence[int] = (1, 5, 10),
    test_fraction: float = 0.25,
    seed: int = 0,
    model_order: Optional[int] = None,
    engine: EngineOptions = EngineOptions(),
) -> Dict[Tuple[int, int, bool], AccuracyResult]:
    """The Table 3 ngram sweep over exactly one input.

    Record stage ``ngram-sequences`` (per-client token buffers for
    both URL variants in one pass), then the train and eval item
    stages (:func:`~repro.engine.tracks.evaluate_ngram`).  Equal to
    :func:`~repro.ngram.evaluate.run_table3` for any ``engine``
    options.
    """
    state = fold_records("ngram-sequences", ("ngram",), logs, logs_dir, engine)
    return evaluate_ngram(
        state.ngrams, ns, ks, test_fraction, seed, model_order, engine
    )


def run_pattern_analysis(
    logs: Optional[Iterable[RequestLog]] = None,
    *,
    logs_dir: Optional[str] = None,
    flow_filter: Optional[FlowFilter] = None,
    detector_config: Optional[DetectorConfig] = None,
    ngram_ns: Sequence[int] = (1,),
    ngram_ks: Sequence[int] = (1, 5, 10),
    engine: EngineOptions = EngineOptions(),
) -> PatternReport:
    """Every §5 analysis over exactly one input.

    One record stage, ``patterns``, folds both §5 tracks, so each
    partition file is read once; the periodicity and ngram item
    stages then finalize it exactly as :func:`run_periodicity` and
    :func:`run_ngram` do.
    """
    state = fold_records(
        "patterns", ("periodicity", "ngram"), logs, logs_dir, engine,
        flow_filter,
    )
    return PatternReport(
        periodicity=detect_periods(
            state.flows, detector_config, engine=engine
        ),
        ngram=evaluate_ngram(state.ngrams, ngram_ns, ngram_ks, engine=engine),
    )


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
    checkpoint_dir: Optional[str] = None,
    emit=None,
    on_snapshot=None,
    keep_accumulators: bool = False,
    faults=None,
):
    """Online windowed analysis over a log source (:mod:`repro.stream`).

    Exactly one input source must be given: ``logs`` (any iterable)
    or ``logs_dir`` (a partitioned directory, read leniently as one
    source per edge).  Each source keeps its own watermark frontier,
    so inter-edge skew never makes records late — ``watermark_lag_s``
    only needs to cover disorder *within* an edge's own stream.

    The sources are read on the calling thread through one k-way
    merge; only ``queue_policy="drop"`` puts the shedding
    :class:`~repro.stream.ingest.IngestStage` (one reader thread, a
    queue of ``queue_capacity`` records) in between, and only then is
    ``StreamResult.ingest`` set.  A source that fails ends the run
    with a :class:`~repro.stream.ingest.IngestError`.

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
    from ..logs.partition import edge_streams
    from ..stream import ALL_TRACKS, JsonlEmitter, StreamConfig, StreamService

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
                return service.run([logs])
            # A torn line in a directory is skipped and counted.
            return service.run(edge_streams(logs_dir, on_error="skip"))
    finally:
        if emitter is not None and not isinstance(emit, JsonlEmitter):
            emitter.close()
