"""The engine's one record-stage state and the finalizers of its tracks.

Every analysis folds records into a :class:`TrackState`: one
mergeable state per requested *track* —

* ``characterization`` → :class:`~repro.engine.state.CharacterizationState` (§4);
* ``periodicity`` → :class:`~repro.engine.flowstate.FlowCollectionState` (§5.1);
* ``ngram`` → :class:`~repro.engine.ngramstate.NgramSequenceState` (§5.2).

A batch run folds record shards into one such state per shard and
merges them (:func:`fold_records`); the stream keeps one per
event-time window (:class:`repro.stream.accumulators.WindowAccumulator`).
Either way the merged state finalizes the same way:

* §4 finalizes in-process (``state.characterization.to_report()``);
* §5.1 fans the filtered object flows back out as the
  ``periodicity-detect`` item stage (:func:`detect_periods`);
* §5.2 trains and evaluates per URL variant in the ``ngram-train-*``
  and ``ngram-eval-*`` item stages (:func:`evaluate_ngram`).

Finalizers take :class:`~repro.engine.options.EngineOptions` like the
record stage; at the default options they run serially in-process.
Only the requested tracks' modules load, so a §4-only fold imports
no numpy.
"""

from __future__ import annotations

from functools import partial
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from ..logs.record import record_chunks
from .options import EngineOptions

if TYPE_CHECKING:
    from ..logs.record import RequestLog
    from ..ngram.evaluate import AccuracyResult
    from ..periodicity.config import DetectorConfig
    from ..periodicity.flows import FlowFilter
    from ..periodicity.results import PeriodicityReport
    from .flowstate import FlowCollectionState
    from .ngramstate import NgramSequenceState

__all__ = [
    "ALL_TRACKS",
    "TrackState",
    "detect_periods",
    "evaluate_ngram",
    "fold_records",
]

ALL_TRACKS: Tuple[str, ...] = ("characterization", "periodicity", "ngram")


class TrackState:
    """Mergeable record-stage state: one state per requested track.

    Tracks not requested stay ``None`` and cost nothing per record.
    """

    def __init__(
        self,
        tracks: Sequence[str] = ALL_TRACKS,
        flow_filter: Optional["FlowFilter"] = None,
    ) -> None:
        unknown = set(tracks) - set(ALL_TRACKS)
        if unknown:
            raise ValueError(f"unknown analysis tracks: {sorted(unknown)}")
        self.tracks = tuple(tracks)
        self.record_count = 0
        self.characterization = None
        self.flows = None
        self.ngrams = None
        if "characterization" in tracks:
            from .state import CharacterizationState

            self.characterization = CharacterizationState()
        if "periodicity" in tracks:
            from .flowstate import FlowCollectionState

            self.flows = FlowCollectionState(flow_filter)
        if "ngram" in tracks:
            from .ngramstate import NgramSequenceState

            self.ngrams = NgramSequenceState()

    def _states(self):
        return [
            state
            for state in (self.characterization, self.flows, self.ngrams)
            if state is not None
        ]

    def update(self, records: Iterable["RequestLog"]) -> "TrackState":
        """Fold records a chunk at a time: each chunk's derived columns
        are worked out once and every track folds the same chunk."""
        folds = [state.fold for state in self._states()]
        for chunk in record_chunks(records):
            self.record_count += len(chunk.records)
            for fold in folds:
                fold(chunk)
        return self

    def merge(self, other: "TrackState") -> "TrackState":
        """Fold another state in; exact for every track (the engine
        merge contract), so merging disjoint parts equals folding
        their records into one state."""
        if other.tracks != self.tracks:
            raise ValueError(
                f"cannot merge states with different tracks: "
                f"{self.tracks} != {other.tracks}"
            )
        self.record_count += other.record_count
        for mine, theirs in zip(self._states(), other._states()):
            mine.merge(theirs)
        return self


def _fold_shard(shard, tracks=ALL_TRACKS, flow_filter=None) -> TrackState:
    """Record-stage map function: fold one shard's records.

    Top-level (not a closure) so the process backend can pickle it.
    All engine map functions in this module follow that rule;
    per-call parameters bind via :func:`functools.partial`, which
    pickles as long as its arguments do.
    """
    return TrackState(tracks, flow_filter).update(shard.iter_logs())


def fold_records(
    stage: str,
    tracks: Sequence[str],
    logs: Optional[Iterable["RequestLog"]] = None,
    logs_dir: Optional[str] = None,
    engine: EngineOptions = EngineOptions(),
    flow_filter: Optional["FlowFilter"] = None,
) -> TrackState:
    """The record stage: fold exactly one input into a merged state.

    Exactly one of ``logs`` / ``logs_dir`` must be given (see
    :meth:`EngineOptions.plan_records`).  States merge in plan order,
    so the result is the same for any worker count or backend.
    """
    shards = engine.plan_records(logs, logs_dir)
    # Built first: it loads the tracks' modules here, before a process
    # pool forks, so no worker imports them again.
    empty = TrackState(tracks, flow_filter)
    state = engine.run_stage(
        stage,
        shards,
        partial(_fold_shard, tracks=tuple(tracks), flow_filter=flow_filter),
        state_type=TrackState,
    )
    return state if state is not None else empty


def _item_key(item) -> str:
    """Sharding key of ``(id, payload)`` items; top-level to pickle."""
    return item[0]


def _detect_periods_shard(shard, detector_config=None, match_tolerance=0.10):
    """Item-stage map function: detect periods for one object-flow shard."""
    from ..periodicity.detector import PeriodDetector
    from ..periodicity.results import analyze_object_flow
    from .flowstate import PeriodicityDetectionState

    detector = PeriodDetector(detector_config) if detector_config else PeriodDetector()
    return PeriodicityDetectionState(
        {
            object_id: analyze_object_flow(
                flow, detector=detector, match_tolerance=match_tolerance
            )
            for object_id, flow in shard.items
        }
    )


def _ngram_train_shard(shard, order=1):
    """Item-stage map function: train a partial model on one client shard."""
    from ..ngram.model import BackoffNgramModel

    return BackoffNgramModel(order=order).fit(
        sequence for _, sequence in shard.items
    )


def _ngram_eval_shard(shard, model=None, ns=(1,), ks=(1, 5, 10)):
    """Item-stage map function: score one test-client shard against a model."""
    from ..ngram.evaluate import evaluate_topk
    from .ngramstate import NgramEvalState

    flows = [sequence for _, sequence in shard.items]
    state = NgramEvalState()
    for n in ns:
        for result in evaluate_topk(model, flows, n, ks):
            state.record(n, result.k, result.correct, result.total)
    return state


def detect_periods(
    flows: "FlowCollectionState",
    detector_config: Optional["DetectorConfig"] = None,
    match_tolerance: float = 0.10,
    engine: EngineOptions = EngineOptions(),
) -> "PeriodicityReport":
    """Finalize the periodicity track: the ``periodicity-detect`` stage.

    The merged flow state applies the paper's significance filters,
    then the object flows shard by ``stable_hash64(object_id)`` and
    each shard runs the per-object detection of
    :func:`~repro.periodicity.results.analyze_object_flow`.  Equal to
    :func:`~repro.periodicity.results.analyze_logs` over the same
    records for any options.
    """
    from ..periodicity.results import PeriodicityReport
    from .shard import plan_item_shards

    object_flows = flows.finalize()
    shards = plan_item_shards(
        sorted(object_flows.items()),
        engine.shard_count,
        key=_item_key,
        prefix="periodicity-detect",
    )
    state = engine.run_stage(
        "periodicity-detect",
        shards,
        partial(
            _detect_periods_shard,
            detector_config=detector_config,
            match_tolerance=match_tolerance,
        ),
    )
    objects = state.objects if state is not None else {}
    return PeriodicityReport(
        objects={object_id: objects[object_id] for object_id in sorted(objects)},
        total_json_requests=flows.total_json_requests,
    )


def evaluate_ngram(
    ngrams: "NgramSequenceState",
    ns: Sequence[int] = (1,),
    ks: Sequence[int] = (1, 5, 10),
    test_fraction: float = 0.25,
    seed: int = 0,
    model_order: Optional[int] = None,
    engine: EngineOptions = EngineOptions(),
) -> Dict[Tuple[int, int, bool], "AccuracyResult"]:
    """Finalize the ngram track: the Table 3 sweep in item stages.

    Per URL variant (raw, clustered): the training clients (hash-split
    exactly like :func:`~repro.ngram.evaluate.split_clients`) shard by
    client id and train shard-local models whose count tables merge
    losslessly (``ngram-train-*``); the test clients shard the same
    way and score top-K hits against the merged model, and the hit
    counters sum (``ngram-eval-*``).  Equal to
    :func:`~repro.ngram.evaluate.run_table3` for any options: the
    model ranks equal-count successors by token, never by insertion
    order.
    """
    from ..ngram.evaluate import AccuracyResult, split_clients
    from ..ngram.model import BackoffNgramModel
    from .shard import plan_item_shards

    order = model_order if model_order is not None else max(ns)
    results: Dict[Tuple[int, int, bool], AccuracyResult] = {}
    for clustered in (False, True):
        variant = "clustered" if clustered else "raw"
        sequences = ngrams.sequences(clustered)
        train_ids, test_ids = split_clients(
            sequences, test_fraction=test_fraction, seed=seed
        )

        def item_shards(client_ids, stage):
            return plan_item_shards(
                [(client_id, sequences[client_id]) for client_id in sorted(client_ids)],
                engine.shard_count,
                key=_item_key,
                prefix=f"{stage}-{variant}",
            )

        model = engine.run_stage(
            "ngram-train",
            item_shards(train_ids, "ngram-train"),
            partial(_ngram_train_shard, order=order),
            variant=variant,
        )
        if model is None:
            model = BackoffNgramModel(order=order)
        tallies = engine.run_stage(
            "ngram-eval",
            item_shards(test_ids, "ngram-eval"),
            partial(_ngram_eval_shard, model=model, ns=ns, ks=ks),
            variant=variant,
        )
        for n in ns:
            for k in sorted(ks):
                cell = (n, k)
                results[(n, k, clustered)] = AccuracyResult(
                    n=n,
                    k=k,
                    clustered=clustered,
                    correct=tallies.correct.get(cell, 0) if tallies else 0,
                    total=tallies.total.get(cell, 0) if tallies else 0,
                )
    return results
