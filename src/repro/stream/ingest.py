"""Ingest: failure reporting, the stall hook and load shedding.

A stream reads its sources on the consuming thread
(:meth:`repro.stream.service.StreamService.run`): the window manager
pulls the next event of the sources' k-way merge
(:func:`repro.logs.merge.merge_events`) only when it is ready for it,
so a slow analysis reads slower and nothing is lost.  A live feed
must not be stalled that way, so under ``queue_policy="drop"`` an
:class:`IngestStage` sits between the merge and the window manager:

* **One reader thread** drains the merged event stream into a
  bounded queue, which never holds more than ``capacity`` events.
* **Counted shedding** — when the queue is full the record is shed
  and counted in :attr:`IngestStats.dropped`: every record is either
  delivered or counted.  A source's end marker is never shed (a lost
  marker would hold that source's watermark frontier forever).

An error a source raises reaches the consumer once the events queued
before it drain, so a crashed source never turns into a silently
truncated stream; the service reports it as :func:`source_failed`'s
:class:`IngestError` on either path.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

from ..faults import runtime as fault_runtime
from ..logs.io import describe_read_error
from ..logs.merge import merge_events
from ..logs.record import RequestLog
from ..obs import runtime as obs_runtime

__all__ = [
    "IngestError",
    "IngestStats",
    "IngestStage",
    "source_failed",
    "stall_hooks",
]

#: Queue poll granularity; bounds shutdown latency, not throughput.
_POLL_S = 0.05


class IngestError(RuntimeError):
    """A source failed; the cause is the source's own exception."""


def source_failed(error: BaseException) -> IngestError:
    """The :class:`IngestError` reporting that a source raised ``error``.

    ``ingest source failed: <notes>: <Type>: <message>``
    (:func:`~repro.logs.io.describe_read_error`).  Raise it ``from
    error`` to keep the cause.
    """
    return IngestError(f"ingest source failed: {describe_read_error(error)}")


def stall_hooks(
    sources: Sequence[Iterable[RequestLog]],
) -> List[Iterable[RequestLog]]:
    """The sources, each behind the ``ingest.stall`` hook.

    The hook delays a source's first pull by the rule's ``param``
    seconds and counts ``ingest.stalls``: a cold NFS mount or a slow
    edge feed.  A stall is a pure delay — no records are lost or
    reordered within the source — so per-source watermark frontiers
    must absorb it without declaring the stalled source's records
    late.  With no fault plan installed the sources are returned
    as they are.
    """
    if fault_runtime.active() is None:
        return list(sources)
    return [_stalled(index, source) for index, source in enumerate(sources)]


def _stalled(index: int, source: Iterable[RequestLog]) -> Iterator[RequestLog]:
    rule = fault_runtime.should_fire("ingest.stall", f"source-{index}")
    if rule is not None:
        obs_runtime.inc("ingest.stalls")
        time.sleep(rule.param)
    yield from source


@dataclass
class IngestStats:
    """Counters of a shedding run; all monotone."""

    ingested: int = 0  # records enqueued from sources
    delivered: int = 0  # records handed to the consumer
    dropped: int = 0  # records shed by a full queue
    queue_peak: int = 0  # high-water mark of the bounded queue
    sources: int = 0

    def snapshot(self) -> dict:
        return {
            "ingested": self.ingested,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "queue_peak": self.queue_peak,
            "sources": self.sources,
        }


class IngestStage:
    """Merged source events through a bounded, shedding queue.

    Parameters
    ----------
    sources:
        Iterables of :class:`RequestLog` (files, tails, generators),
        each time ordered; one reader thread merges them.
    capacity:
        Maximum events buffered between the reader and the consumer.
    """

    def __init__(
        self,
        sources: Sequence[Iterable[RequestLog]],
        capacity: int = 65_536,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sources = list(sources)
        self.capacity = capacity
        self.stats = IngestStats(sources=len(self.sources))
        self._queue: "queue.Queue" = queue.Queue(maxsize=capacity)
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self._stop = threading.Event()

    # -- reader side -----------------------------------------------------

    def _read(self) -> None:
        stats = self.stats
        try:
            for event in merge_events(self.sources):
                if self._stop.is_set():
                    return
                if event[1] is None:
                    self._put_control(event)
                    continue
                try:
                    self._queue.put_nowait(event)
                except queue.Full:
                    stats.dropped += 1
                    continue
                stats.ingested += 1
                size = self._queue.qsize()
                if size > stats.queue_peak:
                    stats.queue_peak = size
        except BaseException as exc:  # re-raised by events()
            self._error = exc
        finally:
            self._put_control(None)

    def _put_control(self, item: object) -> None:
        # End markers wait for room instead of being shed, but must not
        # deadlock on a full queue after the consumer has gone away.
        while True:
            try:
                self._queue.put(item, timeout=_POLL_S)
                break
            except queue.Full:
                if self._stop.is_set():
                    break

    # -- consumer side ---------------------------------------------------

    def events(self) -> Iterator[tuple]:
        """Start the reader and yield its ``(source_index, record)`` events.

        A ``(source_index, None)`` event marks that source as
        exhausted — the window manager uses it to release the
        source's watermark frontier.  Re-raises the reader's error
        after draining what was already queued; callers never see a
        short stream without also seeing the failure.
        """
        if self._thread is not None:
            raise RuntimeError("IngestStage may only be consumed once")
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()
        stats = self.stats
        try:
            while True:
                event = self._queue.get()
                if event is None:
                    break
                if event[1] is not None:
                    stats.delivered += 1
                    if stats.delivered % 4096 == 0:
                        obs_runtime.set_gauge(
                            "ingest.queue_depth", self._queue.qsize()
                        )
                yield event
            if self._error is not None:
                raise self._error
        finally:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._flush_obs()

    def _flush_obs(self) -> None:
        """Mirror the stage's counters into the ambient registry.

        Flushed once, when consumption ends (including on error), so
        the obs counters are the settled totals.  The reader thread
        records nothing of the stage's own; the sources it drains add
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
        registry.inc("ingest.sources", snap["sources"])
        registry.max_gauge("ingest.queue_peak", snap["queue_peak"])

    def records(self) -> Iterator[RequestLog]:
        """The record stream alone, source tags and end markers stripped."""
        for _, record in self.events():
            if record is not None:
                yield record
