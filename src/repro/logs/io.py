"""Streaming log serialization.

Two on-disk formats are supported, both line-oriented so that datasets
can be processed without loading them in memory:

* **JSONL** — one JSON object per line; self-describing, the default.
* **TSV** — one tab-separated row per line with a fixed column order;
  ~2x smaller and closer to real CDN log formats.

Both transparently read/write gzip when the filename ends in ``.gz``.

Every reader — a file, a partition shard, a tailed file, stdin —
decodes through one line loop, :func:`decode_lines`, and one field
contract, :meth:`RequestLog.from_dict` (TSV rows convert their cells
the same way).  A malformed line is never silently lost: with
``on_error="raise"`` it fails the read with
``"<source>: malformed <FORMAT> record on line N: …"``; with
``on_error="skip"`` the line is dropped *and counted* — each read
adds its totals to the ambient obs counters ``io.lines_parsed`` and
``io.lines_skipped``.  The ``io.truncated_gzip`` and
``io.malformed_line`` fault hooks (see ``repro.faults``) damage the
line stream deterministically to test exactly these paths; both are
no-ops unless a plan is installed.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from ..faults import runtime as fault_runtime
from ..obs import runtime as obs_runtime
from .record import RequestLog

__all__ = [
    "decode_lines",
    "describe_read_error",
    "read_jsonl",
    "write_jsonl",
    "read_tsv",
    "write_tsv",
    "read_logs",
    "write_logs",
    "LogTailer",
    "tail_records",
    "TSV_COLUMNS",
]

PathLike = Union[str, Path]

TSV_COLUMNS: List[str] = [
    "timestamp",
    "client_ip_hash",
    "user_agent",
    "method",
    "domain",
    "url",
    "mime_type",
    "status",
    "response_bytes",
    "cache_status",
    "request_bytes",
    "ttl_seconds",
    "edge_id",
]

_TSV_NULL = "-"


def _open_text(path: PathLike) -> IO[str]:
    """A file to write, gzipped when its name ends in ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "wb"), encoding="utf-8")
    return open(path, "wt", encoding="utf-8")


def _open_bytes(path: PathLike) -> IO[bytes]:
    """A file to read, as bytes: each line decodes in :func:`decode_lines`,
    so a line holding an invalid UTF-8 byte is one malformed line."""
    path = Path(path)
    if path.suffix == ".gz":
        # GzipFile.readline is Python code run per line; the buffered
        # reader splits lines in C and calls the gzip file per chunk.
        return io.BufferedReader(gzip.open(path, "rb"))
    return open(path, "rb")


def _fault_lines(
    path: PathLike, handle: IO[bytes]
) -> Iterator[Tuple[int, bytes]]:
    """Numbered lines of ``handle``, damaged per the installed fault plan.

    With no plan installed (the production path) this is a bare
    ``enumerate``.  ``io.truncated_gzip`` raises ``EOFError`` after
    ``param`` lines of a ``.gz`` file — the error a reader hits when a
    gzip member lost its tail; ``io.malformed_line`` replaces selected
    lines with torn-write garbage before parsing.  Both decisions are
    attempt-aware, so a retried read (engine ``retries``) comes back
    clean once the rule's ``times`` is exhausted.
    """
    plan = fault_runtime.active()
    if plan is None:
        yield from enumerate(handle, start=1)
        return
    attempt = fault_runtime.current_attempt()
    truncate = None
    if str(path).endswith(".gz"):
        truncate = plan.should_fire("io.truncated_gzip", str(path), attempt)
    for line_number, line in enumerate(handle, start=1):
        if truncate is not None and line_number > truncate.param:
            raise EOFError(
                f"Compressed file ended before the end-of-stream marker "
                f"was reached (injected truncation of {path})"
            )
        yield line_number, plan.corrupt_line(
            f"{path}:{line_number}", line, attempt
        )


# -- JSONL ---------------------------------------------------------------


def write_jsonl(records: Iterable[RequestLog], path: PathLike) -> int:
    """Write records as JSON lines; returns the number written.

    Each line is :meth:`RequestLog.to_json_line`, exactly
    ``json.dumps(record.to_dict(), separators=(",", ":"))``.
    """
    count = 0
    with _open_text(path) as handle:
        for record in records:
            handle.write(record.to_json_line() + "\n")
            count += 1
    return count


_raw_decode = json.JSONDecoder().raw_decode
_skip_space = json.decoder.WHITESPACE.match


def _decode_json(line: str) -> RequestLog:
    # One scan of the line: ``json.loads`` would also re-match leading
    # and trailing whitespace, which ``str.strip`` already removed.
    try:
        data, end = _raw_decode(line)
    except json.JSONDecodeError:
        if line.startswith("\ufeff"):
            # Keep ``json.loads``'s hint for a line behind a byte-order mark.
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
            ) from None
        raise
    if end != len(line):
        # ``json.loads`` points past the whitespace after the object.
        raise json.JSONDecodeError("Extra data", line, _skip_space(line, end).end())
    return RequestLog.from_dict(data)


# -- TSV -----------------------------------------------------------------


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _unescape(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for char in it:
        if char != "\\":
            out.append(char)
            continue
        nxt = next(it, "")
        out.append({"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}.get(nxt, nxt))
    return "".join(out)


def _record_to_row(record: RequestLog) -> str:
    data = record.to_dict()
    cells: List[str] = []
    for column in TSV_COLUMNS:
        value = data[column]
        if value is None:
            cells.append(_TSV_NULL)
        elif isinstance(value, str):
            if not value:
                cells.append(_TSV_NULL)
            elif value == _TSV_NULL:
                # A literal "-" value must not collide with the null
                # marker; "\-" unescapes back to "-" on read.
                cells.append("\\" + _TSV_NULL)
            else:
                cells.append(_escape(value))
        else:
            cells.append(str(value))
    return "\t".join(cells)


def _or_null(cell: str, convert):
    return None if cell == _TSV_NULL else convert(cell)


def _row_to_record(row: str) -> RequestLog:
    cells = row.split("\t")
    if len(cells) != len(TSV_COLUMNS):
        raise ValueError(
            f"expected {len(TSV_COLUMNS)} columns, found {len(cells)}"
        )
    raw = dict(zip(TSV_COLUMNS, cells))
    # Cells convert to their JSON types; the record's one field
    # contract then checks them as it checks a JSONL object.
    return RequestLog.from_dict({
        **raw,
        "timestamp": float(raw["timestamp"]),
        "user_agent": _or_null(raw["user_agent"], _unescape),
        "url": _unescape(raw["url"]),
        "mime_type": _unescape(raw["mime_type"]),
        "status": int(raw["status"]),
        "response_bytes": int(raw["response_bytes"]),
        "request_bytes": int(raw["request_bytes"]),
        "ttl_seconds": _or_null(raw["ttl_seconds"], float),
    })


def write_tsv(records: Iterable[RequestLog], path: PathLike) -> int:
    """Write records as a headerless TSV file; returns the count."""
    count = 0
    with _open_text(path) as handle:
        for record in records:
            handle.write(_record_to_row(record))
            handle.write("\n")
            count += 1
    return count


# -- the line loop -------------------------------------------------------

#: Per format: the line normalisation and the decoder of one line.
_FORMATS = {
    "jsonl": (str.strip, _decode_json),
    "tsv": (lambda line: line.rstrip("\r\n"), _row_to_record),
}


def decode_lines(
    lines: Iterable[Tuple[int, Union[bytes, str]]],
    source: str,
    fmt: str = "jsonl",
    on_error: str = "raise",
) -> Iterator[RequestLog]:
    """Decode numbered log lines into records: every reader's one loop.

    A line is UTF-8 bytes (files, tails, stdin) or text (a stream a
    caller decoded already); bytes that are not UTF-8 make the line
    malformed.  Blank lines are ignored.  A line that fails to decode
    raises
    ``ValueError("<source>: malformed <FORMAT> record on line N: …")``
    with ``on_error="raise"``; with ``"skip"`` (the quarantine
    posture: torn writes and partial flushes are dropped, as log
    pipelines must tolerate) it is dropped and counted.  When the read
    ends, its totals go to the ambient obs counters
    ``io.lines_parsed`` and ``io.lines_skipped``.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    normalize, decode = _FORMATS[fmt]
    parsed = skipped = 0
    try:
        for line_number, line in lines:
            try:
                if type(line) is bytes:
                    line = line.decode("utf-8")
                line = normalize(line)
                if not line:
                    continue
                record = decode(line)
            except ValueError as exc:  # UnicodeDecodeError included
                if on_error == "raise":
                    raise ValueError(
                        f"{source}: malformed {fmt.upper()} record on line "
                        f"{line_number}: {exc}"
                    ) from exc
                skipped += 1
                continue
            parsed += 1
            yield record
    finally:
        obs_runtime.inc("io.lines_parsed", parsed)
        obs_runtime.inc("io.lines_skipped", skipped)


def describe_read_error(error: BaseException) -> str:
    """``<notes>: <Type>: <message>`` of an error a read raised.

    The notes are the locations a reader attached to the error (a
    partition file's path relative to its root), so the line names
    where the read failed as well as how.
    """
    where = "".join(f"{note}: " for note in getattr(error, "__notes__", ()))
    return f"{where}{type(error).__name__}: {error}"


def _read(path: PathLike, fmt: str, on_error: str) -> Iterator[RequestLog]:
    with _open_bytes(path) as handle:
        lines = _fault_lines(path, handle)
        yield from decode_lines(lines, str(path), fmt, on_error)


def read_jsonl(
    path: PathLike, on_error: str = "raise"
) -> Iterator[RequestLog]:
    """:func:`read_logs` of a JSONL file, whatever its name."""
    return _read(path, "jsonl", on_error)


def read_tsv(path: PathLike, on_error: str = "raise") -> Iterator[RequestLog]:
    """:func:`read_logs` of a TSV file, whatever its name."""
    return _read(path, "tsv", on_error)


# -- incremental tail ----------------------------------------------------


class LogTailer:
    """Incremental reader over a growing log file.

    Each :meth:`poll` yields only the records appended since the last
    poll — the already-consumed prefix is never re-read (the tailer
    seeks straight to its byte offset).  A trailing line without a
    newline is treated as an in-flight partial write and its bytes
    are buffered until a later poll completes it, so a record is never
    parsed from half a line (nor a character from half its UTF-8
    bytes).

    Only plain (non-gzip) JSONL/TSV files can be tailed: gzip members
    are not byte-addressable mid-stream.  A file that does not exist
    yet polls as empty until it appears.
    """

    def __init__(self, path: PathLike, on_error: str = "skip") -> None:
        self.path = Path(path)
        if self.path.suffix == ".gz":
            raise ValueError(f"cannot tail a gzip file: {self.path}")
        self.format = _detect_format(self.path)
        self.on_error = on_error
        self.offset = 0
        self._partial = b""
        self._lines = 0  # complete lines consumed so far

    def poll(self) -> List[RequestLog]:
        """Records appended since the previous poll (possibly empty)."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        self.offset += len(data)
        lines = (self._partial + data).split(b"\n")
        self._partial = lines.pop()  # b"" after a complete final line
        numbered = enumerate(lines, start=self._lines + 1)
        self._lines += len(lines)
        return list(
            decode_lines(numbered, str(self.path), self.format, self.on_error)
        )


def tail_records(
    path: PathLike,
    poll_interval: float = 0.1,
    idle_polls: Optional[int] = None,
    on_error: str = "skip",
) -> Iterator[RequestLog]:
    """Follow a growing log file, yielding newly appended records.

    Polls every ``poll_interval`` seconds.  With ``idle_polls=N`` the
    iterator ends after N consecutive empty polls (bounded tailing,
    for replays and tests); with the default ``None`` it follows
    forever, like ``tail -f``.
    """
    import time

    tailer = LogTailer(path, on_error=on_error)
    idle = 0
    while True:
        batch = tailer.poll()
        if batch:
            idle = 0
            for record in batch:
                yield record
            continue
        idle += 1
        if idle_polls is not None and idle >= idle_polls:
            return
        time.sleep(poll_interval)


# -- format dispatch -----------------------------------------------------


def _detect_format(path: PathLike) -> str:
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    if name.endswith(".jsonl"):
        return "jsonl"
    if name.endswith(".tsv"):
        return "tsv"
    raise ValueError(f"cannot infer log format from filename: {path!r}")


def write_logs(records: Iterable[RequestLog], path: PathLike) -> int:
    """Write records, picking the format from the file extension."""
    if _detect_format(path) == "jsonl":
        return write_jsonl(records, path)
    return write_tsv(records, path)


def read_logs(path: PathLike, on_error: str = "raise") -> Iterator[RequestLog]:
    """Lazily yield a log file's records (optionally gzipped), picking
    the format from the file extension; see :func:`decode_lines` for
    ``on_error``."""
    return _read(path, _detect_format(path), on_error)
