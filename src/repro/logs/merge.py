"""Log-stream merging and splitting utilities.

CDN datasets arrive as one file per edge machine (the paper collects
"from all machines in three CDN vantage points").  Analyses need one
time-ordered stream; collection needs the reverse.  Both directions
here are streaming: :func:`merge_events` is a k-way heap merge over
lazily-read inputs, so terabyte-scale collections would stream in
O(k) memory.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .io import PathLike, read_logs, write_logs
from .record import RequestLog

__all__ = [
    "merge_events",
    "merge_sorted",
    "merge_files",
    "split_by_edge",
    "is_time_ordered",
]


def merge_events(
    streams: Sequence[Iterable[RequestLog]],
) -> Iterator[Tuple[int, Optional[RequestLog]]]:
    """K-way merge of time-ordered log streams, tagged by stream.

    Yields ``(index, record)`` in time order and ``(index, None)``
    once, when stream ``index`` runs out, so a consumer can keep one
    watermark frontier per stream.  Ties break by (timestamp, stream
    index, position in the stream).  The merge holds one record per
    stream and pulls the next one only after handing the last one on,
    so a single stream's records leave as soon as they are read.
    """
    sources = [iter(stream) for stream in streams]
    heap = []
    for index, source in enumerate(sources):
        record = next(source, None)
        if record is None:
            yield index, None
        else:
            heap.append((record.timestamp, index, record))
    heapq.heapify(heap)
    while heap:
        _, index, record = heap[0]
        yield index, record
        record = next(sources[index], None)
        if record is None:
            heapq.heappop(heap)
            yield index, None
        else:
            heapq.heapreplace(heap, (record.timestamp, index, record))


def merge_sorted(
    streams: Sequence[Iterable[RequestLog]],
) -> Iterator[RequestLog]:
    """The records of :func:`merge_events`: one globally time-ordered
    stream out of time-ordered inputs (as per-edge logs are)."""
    for _, record in merge_events(streams):
        if record is not None:
            yield record


def merge_files(paths: Sequence[PathLike], out_path: PathLike) -> int:
    """Merge per-edge log files into one time-ordered file."""
    streams = [read_logs(path) for path in paths]
    return write_logs(merge_sorted(streams), out_path)


def split_by_edge(
    logs: Iterable[RequestLog],
) -> Dict[str, List[RequestLog]]:
    """Partition a stream by serving edge (the collection inverse)."""
    out: Dict[str, List[RequestLog]] = {}
    for record in logs:
        out.setdefault(record.edge_id, []).append(record)
    return out


def is_time_ordered(logs: Iterable[RequestLog]) -> bool:
    """Whether a stream is non-decreasing in timestamp."""
    previous = float("-inf")
    for record in logs:
        if record.timestamp < previous:
            return False
        previous = record.timestamp
    return True
