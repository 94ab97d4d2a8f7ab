"""Event-time windowing core: assignment, watermarks, sealing.

The stream subsystem orders work by *event time* (the ``timestamp``
field of each :class:`~repro.logs.record.RequestLog`), not by arrival
time — CDN edges flush log lines out of order, and a multi-source
ingest stage interleaves edges arbitrarily.  Three pieces make that
safe:

* :class:`WindowSpec` maps an event timestamp to the window bounds it
  belongs to — one window when tumbling, ``window/slide`` windows
  when sliding.  Assignment is a pure function of the timestamp, so
  the stream path and a batch replay agree on every record's window.
* :class:`WatermarkClock` tracks the stream's progress: each source
  keeps a *frontier* (its maximum event time observed) and the
  watermark is the minimum frontier minus a configured *lag* — a
  slow edge holds the watermark back instead of getting its records
  declared late, exactly the multi-source semantics of production
  stream processors.  A finished source's frontier goes to
  ``+inf`` so it stops holding the watermark.  The lag is the
  *within-source* disorder budget — a promise that no record older
  than ``watermark`` will be accepted any more.
* :class:`WindowManager` keeps the open windows, routes each record
  into its window(s), **seals** a window once the watermark passes
  its end (no future in-lag record can touch it), and routes records
  that arrive after their window sealed to a ``late_dropped``
  counter — counted, never silently lost.  An open window buffers
  its accepted records and folds them into its accumulator a chunk
  (:data:`~repro.logs.record.CHUNK_SIZE` records) at a time, and the
  rest when it seals, so a sealed accumulator is always fully folded.

Sealing happens in window-end order, so "sealed" is equivalent to
``window_end <= seal_horizon``; the manager stores one float, not an
ever-growing set.  Resuming from a checkpoint passes the previous
run's sealed bounds in as ``presealed``: records replayed into those
windows count as ``resumed_skips`` (they were already accumulated and
emitted before the kill), distinct from genuinely late data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..logs.record import CHUNK_SIZE, RequestLog
from ..obs import runtime as obs_runtime

__all__ = ["WindowBounds", "WindowSpec", "WatermarkClock", "WindowManager"]

#: (window_start, window_end) in event-time seconds.
WindowBounds = Tuple[float, float]


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry: tumbling (``slide_s is None``) or sliding.

    Sliding windows start at multiples of ``slide_s`` and span
    ``window_s`` seconds, so a record falls into
    ``ceil(window_s / slide_s)`` windows at most.
    """

    window_s: float
    slide_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.slide_s is not None:
            if self.slide_s <= 0:
                raise ValueError("slide_s must be positive")
            if self.slide_s > self.window_s:
                raise ValueError(
                    "slide_s must not exceed window_s (gaps would drop records)"
                )

    @property
    def tumbling(self) -> bool:
        return self.slide_s is None

    def assign(self, timestamp: float) -> List[WindowBounds]:
        """Every window containing ``timestamp``, earliest first."""
        if self.slide_s is None:
            start = math.floor(timestamp / self.window_s) * self.window_s
            return [(start, start + self.window_s)]
        bounds: List[WindowBounds] = []
        latest = math.floor(timestamp / self.slide_s) * self.slide_s
        start = latest
        while start + self.window_s > timestamp:
            bounds.append((start, start + self.window_s))
            start -= self.slide_s
        bounds.reverse()
        return bounds


class WatermarkClock:
    """Event-time progress tracker with a fixed disorder budget.

    Each source advances its own *frontier* (maximum event time it
    has produced); ``value`` = min over source frontiers − ``lag_s``.
    With one source that degenerates to the familiar
    ``max_event_time - lag``.  A record with timestamp below the
    watermark is *late*: the stream has promised downstream consumers
    that its window may be finalized.

    :meth:`finish` marks a source exhausted (frontier → ``+inf``) so
    an ended edge stops holding the watermark back; once every source
    is finished the watermark rests at the overall maximum event time
    minus the lag (flush seals the remainder).
    """

    def __init__(self, lag_s: float = 0.0, sources: int = 1) -> None:
        if lag_s < 0:
            raise ValueError("watermark lag must be >= 0")
        if sources < 1:
            raise ValueError("sources must be >= 1")
        self.lag_s = lag_s
        self._frontiers = [float("-inf")] * sources
        #: Maximum event time seen across all sources (introspection).
        self.max_event_time = float("-inf")

    @property
    def value(self) -> float:
        frontier = min(self._frontiers)
        if frontier == float("inf"):  # every source finished
            frontier = self.max_event_time
        if frontier == float("-inf"):
            return float("-inf")
        return frontier - self.lag_s

    def observe(self, timestamp: float, source: int = 0) -> float:
        """Advance one source's frontier; returns the watermark."""
        if timestamp > self._frontiers[source]:
            self._frontiers[source] = timestamp
        if timestamp > self.max_event_time:
            self.max_event_time = timestamp
        return self.value

    def finish(self, source: int = 0) -> float:
        """Mark a source exhausted; it no longer holds the watermark."""
        self._frontiers[source] = float("inf")
        return self.value


class WindowManager:
    """Routes records into per-window accumulators and seals them.

    Parameters
    ----------
    spec:
        Window geometry.
    watermark_lag_s:
        Disorder budget; windows seal when the watermark passes their
        end, so any record at most this much older than its source's
        frontier lands in the correct (still open) window.
    sources:
        Number of independent sources feeding :meth:`process`; each
        gets its own watermark frontier (see :class:`WatermarkClock`).
    factory:
        ``factory(start, end)`` → fresh accumulator with an
        ``update(records)`` method; called lazily per window.
    on_seal:
        ``on_seal(bounds, accumulator)`` called exactly once per
        window, in window-end order.
    presealed:
        Window bounds sealed by a previous run (checkpoint resume).
        Records falling into them are skipped and tallied in
        :attr:`resumed_skips` — they were counted before the kill.
    """

    def __init__(
        self,
        spec: WindowSpec,
        watermark_lag_s: float = 0.0,
        factory: Callable[[float, float], object] = None,
        on_seal: Optional[Callable[[WindowBounds, object], None]] = None,
        presealed: Iterable[WindowBounds] = (),
        sources: int = 1,
    ) -> None:
        if factory is None:
            raise ValueError("WindowManager requires an accumulator factory")
        self.spec = spec
        self.watermark = WatermarkClock(watermark_lag_s, sources=sources)
        self.factory = factory
        self.on_seal = on_seal
        self._open: Dict[WindowBounds, object] = {}
        #: Accepted records of each open window not yet folded into
        #: its accumulator: at most one chunk.
        self._pending: Dict[WindowBounds, List[RequestLog]] = {}
        #: Everything ending at or before this horizon sealed *this
        #: session*; sealing is monotone in window end.
        self.seal_horizon = float("-inf")
        #: Exact bounds sealed by a previous run.  A set, not a
        #: horizon: a torn checkpoint leaves a *hole* in the sealed
        #: range, and that window must re-accumulate on resume.
        self.presealed = frozenset(
            (bounds[0], bounds[1]) for bounds in presealed
        )
        self.records_in = 0
        #: Per-record outcomes.  Exactly one of these increments per
        #: processed record (accepted beats late beats resumed), so
        #: ``records_windowed + late_dropped + resumed_skips ==
        #: records_in`` holds for tumbling and sliding specs alike.
        self.records_windowed = 0
        self.late_dropped = 0
        self.resumed_skips = 0
        #: Per-assignment outcomes.  A sliding record lands in up to
        #: ``window/slide`` panes and may be accepted in some while
        #: late for others; these tally every pane-level outcome so
        #: partial lateness stays observable without breaking the
        #: per-record conservation law above.
        self.accepted_assignments = 0
        self.late_assignments = 0
        self.resumed_assignments = 0
        self.sealed_windows = 0
        self._obs_flushed = False

    # -- ingest ----------------------------------------------------------

    def process(self, record: RequestLog, source: int = 0) -> None:
        """Route one record, then seal any window the watermark passed.

        A sliding record's panes can disagree — accepted in one pane,
        late for another already-sealed pane — so the per-record
        counters classify by the *best* pane outcome (accepted > late
        > resumed) while the ``*_assignments`` counters record every
        pane-level verdict.  Counting the record in more than one
        per-record bucket would break the conservation law.
        """
        self.records_in += 1
        targets = self.spec.assign(record.timestamp)
        late = 0
        resumed = 0
        accepted = 0
        for bounds in targets:
            if bounds in self.presealed:
                resumed += 1
                continue
            if bounds[1] <= self.seal_horizon:
                late += 1
                continue
            pending = self._pending.get(bounds)
            if pending is None:
                self._open[bounds] = self.factory(bounds[0], bounds[1])
                pending = self._pending[bounds] = []
            pending.append(record)
            if len(pending) >= CHUNK_SIZE:
                self._open[bounds].update(pending)
                self._pending[bounds] = []
            accepted += 1
        self.accepted_assignments += accepted
        self.late_assignments += late
        self.resumed_assignments += resumed
        if accepted:
            self.records_windowed += 1
        elif late:
            self.late_dropped += 1
        elif resumed:
            self.resumed_skips += 1
        self._seal_up_to(self.watermark.observe(record.timestamp, source))

    def finish_source(self, source: int = 0) -> None:
        """An input source ended; seal what its frontier was holding."""
        self._seal_up_to(self.watermark.finish(source))

    def flush(self) -> None:
        """End of stream: seal every window still open."""
        self._seal_up_to(float("inf"))
        self._flush_obs()

    def _flush_obs(self) -> None:
        """Mirror the manager's settled counters into the ambient
        registry, once per manager (flush may be called repeatedly)."""
        if self._obs_flushed:
            return
        registry = obs_runtime.active()
        if registry is None:
            return
        self._obs_flushed = True
        registry.inc("windows.records_in", self.records_in)
        registry.inc("windows.records_windowed", self.records_windowed)
        registry.inc("windows.late_dropped", self.late_dropped)
        registry.inc("windows.resumed_skips", self.resumed_skips)
        registry.inc("windows.accepted_assignments", self.accepted_assignments)
        registry.inc("windows.late_assignments", self.late_assignments)
        registry.inc("windows.resumed_assignments", self.resumed_assignments)
        registry.inc("windows.sealed", self.sealed_windows)

    # -- internals -------------------------------------------------------

    def _seal_up_to(self, horizon: float) -> None:
        if horizon <= self.seal_horizon:
            return
        ready = sorted(
            (bounds for bounds in self._open if bounds[1] <= horizon),
            key=lambda bounds: (bounds[1], bounds[0]),
        )
        for bounds in ready:
            accumulator = self._open.pop(bounds)
            accumulator.update(self._pending.pop(bounds))
            self.sealed_windows += 1
            if self.on_seal is not None:
                self.on_seal(bounds, accumulator)
        if horizon != float("inf"):
            self.seal_horizon = horizon
        elif ready:
            self.seal_horizon = max(bounds[1] for bounds in ready)
