"""Bounded-queue ingest: sources in, one ordered record stream out.

The ingest stage decouples *reading* log records (file parsing, gzip
inflation, socket/stdin waits) from *analyzing* them (the window
manager), with an explicit, bounded hand-off queue in between:

* **Bounded** — the queue never holds more than ``capacity`` records,
  so a slow analysis stage cannot make the process balloon while
  sources race ahead.
* **Backpressure or shed** — when the queue is full, policy
  ``"block"`` stalls the producing worker (lossless; the right choice
  for replays and tailing a file), policy ``"drop"`` sheds the record
  and counts it in :attr:`IngestStats.dropped` (the right choice when
  the source is a live feed that must not be stalled).  Nothing is
  ever lost silently: every record is either delivered or counted.
* **Parallel sources** — N worker threads split the source list
  round-robin; each worker drains its sources in order, so a single
  time-ordered source stays ordered while separate sources (edges)
  interleave.  Every delivered record carries its source index
  (:meth:`IngestStage.events`), and a source's exhaustion is
  delivered in-band, so the window manager can keep one watermark
  frontier per source — cross-source skew (scheduler bursts, one
  edge hours behind another) holds the watermark back instead of
  mass-dropping the slow edge's records as late.

Worker exceptions propagate to the consumer, as an
:class:`IngestError` naming the source's own error (after the
location a source attached to it as a note, such as a partition
file's relative path), once the queued records drain — a crashed
source never turns into a silently truncated stream.

:func:`repro.core.pipeline.run_stream` builds a stage only at
``ingest_workers > 1`` or under the ``"drop"`` policy; otherwise it
replays its single source on the consuming thread, which reports a
failed source with the same :func:`source_failed` error.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

from ..faults import runtime as fault_runtime
from ..logs.io import describe_read_error
from ..logs.record import RequestLog
from ..obs import runtime as obs_runtime

__all__ = ["IngestError", "IngestStats", "IngestStage", "source_failed"]

#: Queue poll granularity; bounds shutdown latency, not throughput.
_POLL_S = 0.05

_DONE = object()  # per-worker end-of-stream sentinel


class _SourceDone:
    """In-band marker: the source with this index is exhausted."""

    __slots__ = ("source",)

    def __init__(self, source: int) -> None:
        self.source = source


class IngestError(RuntimeError):
    """A source failed; the cause is the source's own exception."""


def source_failed(error: BaseException) -> IngestError:
    """The :class:`IngestError` reporting that a source raised ``error``.

    ``ingest source failed: <notes>: <Type>: <message>``
    (:func:`~repro.logs.io.describe_read_error`).  Every path that
    drains a source — the queue's workers and the service's in-thread
    replay — reports a failure through this one message; raise it
    ``from error`` to keep the cause.
    """
    return IngestError(f"ingest source failed: {describe_read_error(error)}")


@dataclass
class IngestStats:
    """Counters the ingest stage maintains; all monotone."""

    ingested: int = 0  # records enqueued from sources
    delivered: int = 0  # records handed to the consumer
    dropped: int = 0  # records shed by the "drop" policy
    queue_peak: int = 0  # high-water mark of the bounded queue
    blocked_puts: int = 0  # producer stalls (backpressure events)
    stalls: int = 0  # injected source stalls (fault plans only)
    sources: int = 0
    workers: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def snapshot(self) -> dict:
        return {
            "ingested": self.ingested,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "queue_peak": self.queue_peak,
            "blocked_puts": self.blocked_puts,
            "stalls": self.stalls,
            "sources": self.sources,
            "workers": self.workers,
        }


class IngestStage:
    """Pulls records from sources through a bounded queue.

    Parameters
    ----------
    sources:
        Iterables of :class:`RequestLog` (files, tails, generators).
    capacity:
        Maximum records buffered between producers and the consumer.
    policy:
        ``"block"`` (backpressure, lossless) or ``"drop"``
        (load-shedding with a counter).
    workers:
        Producer threads; sources are split round-robin among them.
    """

    def __init__(
        self,
        sources: Sequence[Iterable[RequestLog]],
        capacity: int = 65_536,
        policy: str = "block",
        workers: int = 1,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if policy not in ("block", "drop"):
            raise ValueError("policy must be 'block' or 'drop'")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sources = list(sources)
        self.capacity = capacity
        self.policy = policy
        self.workers = min(workers, len(self.sources)) if self.sources else 1
        self.stats = IngestStats(
            sources=len(self.sources), workers=self.workers
        )
        self._queue: "queue.Queue" = queue.Queue(maxsize=capacity)
        self._threads: List[threading.Thread] = []
        self._errors: List[BaseException] = []
        self._stop = threading.Event()

    # -- producer side ---------------------------------------------------

    def _put(self, source: int, record: RequestLog) -> None:
        stats = self.stats
        if self.policy == "drop":
            try:
                self._queue.put_nowait((source, record))
            except queue.Full:
                with stats._lock:
                    stats.dropped += 1
                return
        else:
            blocked = False
            while not self._stop.is_set():
                try:
                    self._queue.put((source, record), timeout=_POLL_S)
                    break
                except queue.Full:
                    blocked = True
            else:
                return
            if blocked:
                with stats._lock:
                    stats.blocked_puts += 1
        size = self._queue.qsize()
        with stats._lock:
            stats.ingested += 1
            if size > stats.queue_peak:
                stats.queue_peak = size

    def _put_control(self, item: object) -> None:
        # Control markers bypass the drop policy (shedding an
        # end-of-source marker would hold the watermark forever) but
        # must not deadlock on a full queue after the consumer has
        # gone away.
        while True:
            try:
                self._queue.put(item, timeout=_POLL_S)
                break
            except queue.Full:
                if self._stop.is_set():
                    break

    def _worker(
        self, worker_sources: List[tuple]
    ) -> None:
        try:
            for index, source in worker_sources:
                self._fault_stall(index)
                for record in source:
                    if self._stop.is_set():
                        return
                    self._put(index, record)
                self._put_control(_SourceDone(index))
        except BaseException as exc:  # propagated via records()
            self._errors.append(exc)
        finally:
            self._put_control(_DONE)

    def _fault_stall(self, source: int) -> None:
        """``ingest.stall`` hook: delay one source's drain.

        Simulates a cold NFS mount or a slow edge feed.  A stall is a
        pure delay — no records are lost or reordered within the
        source — so per-source watermark frontiers must absorb it
        without declaring the stalled source's records late.  No-op
        unless a fault plan is installed.
        """
        rule = fault_runtime.should_fire("ingest.stall", f"source-{source}")
        if rule is None:
            return
        with self.stats._lock:
            self.stats.stalls += 1
        time.sleep(rule.param)

    # -- consumer side ---------------------------------------------------

    def events(self) -> Iterator[tuple]:
        """Start the workers and yield ``(source_index, record)`` events.

        A ``(source_index, None)`` event marks that source as
        exhausted — the window manager uses it to release the
        source's watermark frontier.  Re-raises the first worker
        exception after draining what was already queued; callers
        never see a short stream without also seeing the failure.
        """
        if self._threads:
            raise RuntimeError("IngestStage may only be consumed once")
        indexed = list(enumerate(self.sources))
        groups = [indexed[index :: self.workers] for index in range(self.workers)]
        for group in groups:
            thread = threading.Thread(
                target=self._worker, args=(group,), daemon=True
            )
            self._threads.append(thread)
            thread.start()
        try:
            done = 0
            while done < len(self._threads):
                item = self._queue.get()
                if item is _DONE:
                    done += 1
                    continue
                if isinstance(item, _SourceDone):
                    yield (item.source, None)
                    continue
                self.stats.delivered += 1
                if self.stats.delivered % 4096 == 0:
                    obs_runtime.set_gauge(
                        "ingest.queue_depth", self._queue.qsize()
                    )
                yield item
            if self._errors:
                error = self._errors[0]
                raise source_failed(error) from error
        finally:
            self._stop.set()
            for thread in self._threads:
                thread.join(timeout=5.0)
            self._flush_obs()

    def _flush_obs(self) -> None:
        """Mirror the stage's counters into the ambient registry.

        Flushed once, when consumption ends (including on error), so
        the obs counters are the settled totals.  The producer threads
        record nothing of the stage's own; the sources they drain add
        their ``io.lines_*`` read totals, which the registry's lock
        makes safe from any thread.
        """
        registry = obs_runtime.active()
        if registry is None:
            return
        snap = self.stats.snapshot()
        registry.inc("ingest.records_ingested", snap["ingested"])
        registry.inc("ingest.records_delivered", snap["delivered"])
        registry.inc("ingest.records_dropped", snap["dropped"])
        registry.inc("ingest.blocked_puts", snap["blocked_puts"])
        registry.inc("ingest.stalls", snap["stalls"])
        registry.inc("ingest.sources", snap["sources"])
        registry.max_gauge("ingest.queue_peak", snap["queue_peak"])

    def records(self) -> Iterator[RequestLog]:
        """The record stream alone, source tags stripped."""
        for _, record in self.events():
            if record is not None:
                yield record

    def __iter__(self) -> Iterator[RequestLog]:
        return self.records()
