"""The online analysis service: ingest → windows → snapshots → store.

:class:`StreamService` assembles the subsystem end to end:

1. records arrive from the configured sources through one k-way
   merge (:func:`~repro.logs.merge.merge_events`) read on the calling
   thread — or, under ``queue_policy="drop"``, through an
   :class:`~repro.stream.ingest.IngestStage`'s reader thread and
   bounded queue, which sheds what a full queue cannot take,
2. a :class:`~repro.stream.windows.WindowManager` routes each record
   into event-time windows whose accumulators are the engine's
   mergeable states, sealing windows as the watermark advances,
3. each sealed window is checkpointed
   (:class:`repro.engine.checkpoint.CheckpointStore` — the same
   atomic-write store the batch engine uses), snapshotted
   (:class:`~repro.stream.snapshots.SnapshotBuilder`) and emitted.

**Crash safety.**  The seal path is checkpoint-then-emit: a window is
persisted before its snapshot leaves the process.  On restart with
the same ``checkpoint_dir``, the service loads the sealed windows'
bounds, replays the source from the beginning, silently skips records
belonging to already-sealed windows (``resumed_skips`` — counted, not
re-accumulated) and continues sealing from the first incomplete
window, so no window is ever double-counted or double-emitted.

**Exactness.**  For a lossless run (``queue_policy="block"``, watermark
lag at least the stream's disorder bound), merging every sealed
window's accumulator reproduces the batch pipelines' states exactly —
:mod:`repro.stream.accumulators` holds that contract and
``tests/test_stream_differential.py`` enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple,
)

from ..logs.merge import merge_events
from ..logs.record import RequestLog
from ..obs import runtime as obs_runtime
from ..obs.spans import span
from ..periodicity.config import DetectorConfig
from ..periodicity.flows import FlowFilter
from .accumulators import ALL_TRACKS, WindowAccumulator
from .ingest import IngestStage, IngestStats, source_failed, stall_hooks
from .snapshots import JsonlEmitter, SnapshotBuilder, WindowSnapshot
from .windows import WindowBounds, WindowManager, WindowSpec

if TYPE_CHECKING:
    from ..engine.checkpoint import CheckpointStore

__all__ = ["StreamConfig", "StreamResult", "StreamService", "window_id"]

_CHECKPOINT_SUBDIR = "stream-windows"


def window_id(bounds: WindowBounds) -> str:
    """Stable checkpoint key for a window: ``window-<start>-<end>``."""
    return f"window-{bounds[0]!r}-{bounds[1]!r}"


@dataclass
class StreamConfig:
    """Everything a stream deployment tunes, in one picklable bundle."""

    window_s: float = 300.0
    slide_s: Optional[float] = None
    watermark_lag_s: float = 0.0
    tracks: Sequence[str] = ALL_TRACKS
    flow_filter: Optional[FlowFilter] = None
    #: Snapshot-time period detection (None → detector defaults).
    detector_config: Optional[DetectorConfig] = None
    match_tolerance: float = 0.10
    detect_periods: bool = True
    predict_urls: bool = True
    top_k: int = 5
    drift_threshold: float = 0.10
    #: ``"block"`` reads every source on the consuming thread;
    #: ``"drop"`` feeds a bounded queue of ``queue_capacity`` records
    #: and sheds (and counts) what a full queue cannot take.
    queue_capacity: int = 65_536
    queue_policy: str = "block"
    checkpoint_dir: Optional[str] = None

    def spec(self) -> WindowSpec:
        return WindowSpec(self.window_s, self.slide_s)


@dataclass
class StreamResult:
    """What one service run produced and counted."""

    snapshots: List[WindowSnapshot] = dataclass_field(default_factory=list)
    #: Sealed accumulators, only when the run kept them
    #: (``keep_accumulators=True`` — replays and differential tests).
    accumulators: List[WindowAccumulator] = dataclass_field(
        default_factory=list
    )
    sealed_windows: int = 0
    resumed_windows: int = 0
    #: Per-record outcomes; exactly one bucket per record, so
    #: ``records_windowed + late_dropped + resumed_skips`` equals the
    #: record count fed in (the conservation law).
    records_windowed: int = 0
    late_dropped: int = 0
    resumed_skips: int = 0
    #: Per-assignment (pane-level) outcomes for sliding windows; a
    #: record accepted in one pane but late for another shows up here
    #: without double-counting above.
    accepted_assignments: int = 0
    late_assignments: int = 0
    resumed_assignments: int = 0
    #: The shedding queue's counters; ``None`` unless the run used
    #: ``queue_policy="drop"``.
    ingest: Optional[IngestStats] = None

    @property
    def total_windows(self) -> int:
        return self.sealed_windows + self.resumed_windows


class StreamService:
    """Continuously windowed analysis over one or more record sources."""

    def __init__(
        self,
        config: Optional[StreamConfig] = None,
        emitter: Optional[JsonlEmitter] = None,
        on_snapshot: Optional[Callable[[WindowSnapshot], None]] = None,
        keep_accumulators: bool = False,
    ) -> None:
        self.config = config or StreamConfig()
        self.emitter = emitter
        self.on_snapshot = on_snapshot
        self.keep_accumulators = keep_accumulators
        self.store: Optional[CheckpointStore] = None
        self._presealed: List[WindowBounds] = []
        if self.config.checkpoint_dir is not None:
            # Only a checkpointed run loads the store.
            from ..engine.checkpoint import CheckpointStore

            self.store = CheckpointStore(
                Path(self.config.checkpoint_dir) / _CHECKPOINT_SUBDIR
            )
            self._presealed = self._load_sealed_bounds(self.store)
        self._builder = SnapshotBuilder(
            detector_config=self.config.detector_config,
            match_tolerance=self.config.match_tolerance,
            top_k=self.config.top_k,
            drift_threshold=self.config.drift_threshold,
            detect_periods=self.config.detect_periods,
            predict_urls=self.config.predict_urls,
        )
        self._result: Optional[StreamResult] = None
        self._manager: Optional[WindowManager] = None

    # -- public API ------------------------------------------------------

    @property
    def resumed_windows(self) -> List[WindowBounds]:
        """Windows sealed by a previous run on this checkpoint dir."""
        return sorted(self._presealed)

    def run(
        self, sources: Sequence[Iterable[RequestLog]]
    ) -> StreamResult:
        """Drain the sources through the full pipeline; returns totals.

        Each source keeps its own watermark frontier, so the watermark
        lag only has to cover disorder within a source.  The sources
        are read through one k-way merge on the calling thread, or
        under the ``"drop"`` policy through an
        :class:`~repro.stream.ingest.IngestStage`.  Blocks until every
        source is exhausted (use bounded tail sources, or run in a
        thread, for endless feeds).  A source that raises ends the
        run with :func:`~.ingest.source_failed`'s
        :class:`~.ingest.IngestError`; an error raised while sealing,
        checkpointing or emitting a window propagates as itself.
        """
        policy = self.config.queue_policy
        if policy not in ("block", "drop"):
            raise ValueError("queue_policy must be 'block' or 'drop'")
        sources = stall_hooks(sources)
        result = self._begin(sources=max(1, len(sources)))
        if policy == "drop":
            stage = IngestStage(sources, self.config.queue_capacity)
            result.ingest = stage.stats
            events = stage.events()
        else:
            events = merge_events(sources)
        manager = self._manager
        try:
            while True:
                try:
                    source, record = next(events)
                except StopIteration:
                    break
                except Exception as error:
                    raise source_failed(error) from error
                if record is None:
                    manager.finish_source(source)
                else:
                    manager.process(record, source)
        finally:
            events.close()  # stops a drop run's reader thread on error
        return self._finish()

    def replay(self, records: Iterable[RequestLog]) -> StreamResult:
        """:meth:`run` over one source."""
        return self.run([records])

    def load_sealed_accumulators(self) -> List[WindowAccumulator]:
        """Previous runs' sealed window accumulators, window order.

        Lets a resumed run (or an offline audit) rebuild the full
        stream-equals-batch merge across a kill: checkpointed windows
        plus the windows the resumed run sealed itself.
        """
        if self.store is None:
            return []
        from ..engine.checkpoint import CheckpointError

        accumulators: List[WindowAccumulator] = []
        for shard_id in self.store.completed_ids():
            try:
                payload = self.store.load(shard_id)
            except (CheckpointError, FileNotFoundError):
                continue
            accumulators.append(payload["accumulator"])
        accumulators.sort(key=lambda acc: (acc.window_end, acc.window_start))
        return accumulators

    # -- internals -------------------------------------------------------

    def _begin(self, sources: int) -> StreamResult:
        self._result = StreamResult(resumed_windows=len(self._presealed))
        self._manager = WindowManager(
            self.config.spec(),
            watermark_lag_s=self.config.watermark_lag_s,
            factory=self._make_accumulator,
            on_seal=self._seal,
            presealed=self._presealed,
            sources=sources,
        )
        return self._result

    def _finish(self) -> StreamResult:
        self._manager.flush()
        result = self._result
        result.sealed_windows = self._manager.sealed_windows
        result.records_windowed = self._manager.records_windowed
        result.late_dropped = self._manager.late_dropped
        result.resumed_skips = self._manager.resumed_skips
        result.accepted_assignments = self._manager.accepted_assignments
        result.late_assignments = self._manager.late_assignments
        result.resumed_assignments = self._manager.resumed_assignments
        return result

    def _make_accumulator(self, start: float, end: float) -> WindowAccumulator:
        return WindowAccumulator(
            start,
            end,
            flow_filter=self.config.flow_filter,
            tracks=self.config.tracks,
        )

    def _seal(
        self, bounds: WindowBounds, accumulator: WindowAccumulator
    ) -> None:
        # Checkpoint before emitting: a kill between the two re-seals
        # nothing (the resume skips this window) and at worst re-emits
        # nothing — the window is either durable or not yet announced.
        with span("stream.seal_window", window_end=bounds[1]):
            if self.store is not None:
                self.store.save(
                    window_id(bounds),
                    {"bounds": bounds, "accumulator": accumulator},
                )
            snapshot = self._builder.build(
                accumulator, late_dropped=self._manager.late_dropped
            )
        obs_runtime.inc("stream.windows_sealed")
        obs_runtime.inc("stream.snapshots_built")
        clock = self._manager.watermark
        if clock.max_event_time != float("-inf"):
            # Event-time distance between the newest record seen and
            # the watermark: the stream's current disorder exposure.
            obs_runtime.set_gauge(
                "stream.watermark_lag", clock.max_event_time - clock.value
            )
        result = self._result
        result.snapshots.append(snapshot)
        if self.keep_accumulators:
            result.accumulators.append(accumulator)
        if self.emitter is not None:
            self.emitter.emit(snapshot)
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot)

    @staticmethod
    def _load_sealed_bounds(store: CheckpointStore) -> List[WindowBounds]:
        from ..engine.checkpoint import CheckpointError

        bounds: List[WindowBounds] = []
        for shard_id in store.completed_ids():
            try:
                payload = store.load(shard_id)
            except (CheckpointError, FileNotFoundError):
                # Torn checkpoints read as "window never sealed"; the
                # resumed run recomputes and re-seals that window.
                continue
            if isinstance(payload, dict) and "bounds" in payload:
                bounds.append(tuple(payload["bounds"]))
        return bounds
