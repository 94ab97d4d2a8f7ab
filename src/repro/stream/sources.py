"""Record sources for the stream.

A *source* is just an iterable of :class:`~repro.logs.record.RequestLog`
— an in-memory list, :func:`repro.logs.io.read_logs` of a file,
:func:`repro.logs.partition.edge_streams` of a directory (one
source per edge), :func:`repro.logs.io.tail_records` following a
growing file, or :func:`stdin_source`.  All of them decode through
the one :func:`repro.logs.io.decode_lines` loop; the stream reads
each in the lenient posture (malformed lines are dropped and counted in
``io.lines_skipped``, as a live pipeline must tolerate torn writes).
"""

from __future__ import annotations

import sys
from typing import IO, Iterator, Optional, Union

from ..logs.io import decode_lines
from ..logs.record import RequestLog

__all__ = ["stdin_source"]


def stdin_source(
    stream: Optional[Union[IO[bytes], IO[str]]] = None, on_error: str = "skip"
) -> Iterator[RequestLog]:
    """Parse JSONL records from a stream (default: stdin's bytes).

    stdin is read as bytes, like a file, so a line holding a byte
    that is not UTF-8 is one malformed line rather than a record
    carrying a lone surrogate.  A text stream passed in is decoded
    by its own encoding.
    """
    handle = stream if stream is not None else sys.stdin.buffer
    return decode_lines(enumerate(handle, start=1), "stdin", "jsonl", on_error)
