"""Time-partitioned log storage.

Production log pipelines store request logs as one file per time
bucket per edge (``edge-1/2019-06-01-14.jsonl.gz`` …), not as one
giant file.  This module writes a log stream into that layout and
reads it back as one time-ordered stream, so the analysis code can
work against a directory exactly as it works against a file.

Layout::

    <root>/<edge_id>/<bucket>.<ext>

where ``bucket`` is the UTC hour (``YYYY-mm-dd-HH``) of the records
inside.  :func:`partition_edges` is the one walk of that layout:
every reader — the merged stream, the engine's shard plan and the
stream's per-edge sources — takes each edge's files in bucket order
from it.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .io import PathLike, _detect_format, read_logs, write_logs
from .merge import merge_sorted
from .record import RequestLog

__all__ = [
    "bucket_name",
    "write_partitioned",
    "iter_partition_files",
    "partition_edges",
    "check_layout",
    "edge_streams",
    "read_partitioned",
]


def bucket_name(timestamp: float) -> str:
    """UTC-hour bucket for a timestamp: ``2019-06-01-14``."""
    moment = datetime.datetime.fromtimestamp(
        timestamp, tz=datetime.timezone.utc
    )
    return moment.strftime("%Y-%m-%d-%H")


#: Seconds into an hour from which :func:`bucket_name` may round a
#: time up into the next hour.
_LAST_MICROSECOND = 3600 - 1e-6


def write_partitioned(
    logs: Iterable[RequestLog],
    root: PathLike,
    fmt: str = "jsonl.gz",
) -> Dict[str, int]:
    """Write a log stream into the per-edge, per-hour layout.

    Records are grouped in memory per (edge, bucket) before writing —
    fine for dataset-scale logs; a production writer would append.
    Returns a mapping of relative file path → record count.
    """
    if fmt not in ("jsonl", "jsonl.gz", "tsv", "tsv.gz"):
        raise ValueError(f"unsupported partition format: {fmt!r}")
    root = Path(root)
    groups: Dict[Tuple[str, str], List[RequestLog]] = {}
    hour_buckets: Dict[float, str] = {}
    for record in logs:
        timestamp = record.timestamp
        hour, into_hour = divmod(timestamp, 3600)
        if into_hour < _LAST_MICROSECOND:
            bucket = hour_buckets.get(hour)
            if bucket is None:
                bucket = hour_buckets[hour] = bucket_name(hour * 3600)
        else:
            # ``bucket_name`` rounds to the microsecond, which can carry
            # a time just below the hour into the next one (and a NaN
            # lands here and fails there).
            bucket = bucket_name(timestamp)
        groups.setdefault((record.edge_id, bucket), []).append(record)

    written: Dict[str, int] = {}
    for (edge_id, bucket), records in sorted(groups.items()):
        directory = root / edge_id
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{bucket}.{fmt}"
        records.sort(key=lambda record: record.timestamp)
        written[str(path.relative_to(root))] = write_logs(records, path)
    return written


def iter_partition_files(
    root: PathLike, edge_id: Optional[str] = None
) -> List[Path]:
    """Partition files under ``root``, bucket-ordered per edge."""
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"no partition root at {root}")
    edges = (
        [root / edge_id]
        if edge_id is not None
        else sorted(p for p in root.iterdir() if p.is_dir())
    )
    files: List[Path] = []
    for directory in edges:
        if not directory.exists():
            raise FileNotFoundError(f"no such edge partition: {directory}")
        files.extend(sorted(directory.iterdir()))
    return files


def check_layout(root: PathLike) -> None:
    """Raise ``ValueError`` unless ``root`` holds the partition layout.

    An empty directory, or the parent of a partition root (whose
    "edges" hold directories rather than log files), is rejected with
    a message naming ``root``.
    """
    files = iter_partition_files(root)
    if not files:
        raise ValueError(
            f"{root} holds no partition files "
            f"(expected <root>/<edge>/<bucket>.jsonl.gz)"
        )
    for path in files:
        try:
            is_log = path.is_file() and bool(_detect_format(path))
        except ValueError:  # no .jsonl/.tsv suffix
            is_log = False
        if not is_log:
            raise ValueError(
                f"{root} is not a partitioned log directory: "
                f"{path.relative_to(root)} is not a log file"
            )


def partition_edges(
    root: PathLike, edge_id: Optional[str] = None
) -> Dict[str, List[Path]]:
    """Each edge's partition files in bucket order, edges in name order."""
    per_edge: Dict[str, List[Path]] = {}
    for path in iter_partition_files(root, edge_id):
        per_edge.setdefault(path.parent.name, []).append(path)
    return per_edge


def edge_streams(
    root: PathLike,
    edge_id: Optional[str] = None,
    on_error: str = "raise",
) -> List[Iterator[RequestLog]]:
    """One record stream per edge: its hour files read in bucket order.

    Hours are disjoint and internally sorted, so each stream is time
    ordered.  A file that fails to read re-raises its own error with
    the file's path relative to ``root`` attached as a note.
    """
    root = Path(root)
    return [
        _read_files(root, paths, on_error)
        for paths in partition_edges(root, edge_id).values()
    ]


def _read_files(
    root: Path, paths: List[Path], on_error: str
) -> Iterator[RequestLog]:
    for path in paths:
        try:
            yield from read_logs(path, on_error=on_error)
        except Exception as exc:
            exc.add_note(path.relative_to(root).as_posix())
            raise


def read_partitioned(
    root: PathLike,
    edge_id: Optional[str] = None,
    on_error: str = "raise",
) -> Iterator[RequestLog]:
    """Read a partitioned layout back as one time-ordered stream: the
    k-way merge of its :func:`edge_streams`."""
    return merge_sorted(edge_streams(root, edge_id, on_error))
