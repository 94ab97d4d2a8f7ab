"""The one log decoder: every reader, every kind of bad line.

Each reader — a JSONL file, a TSV file, a tailed file and stdin —
decodes through the same line loop and field contract, so a bad line
fails the same way everywhere: strict reads raise a ``ValueError``
naming the source and the line, lenient reads drop the record and
count it in ``io.lines_skipped``.  A line holding a byte that is not
UTF-8 is one more bad line: every reader, stdin included, reads bytes
and decodes each line on its own.
"""

from __future__ import annotations

import io
import json
import re

import pytest

from repro import obs
from repro.logs.io import LogTailer, _record_to_row, read_logs
from repro.logs.record import RequestLog
from repro.obs.registry import MetricsRegistry
from repro.stream.sources import stdin_source
from tests.conftest import make_log

GOOD = [make_log(url="/api/a"), make_log(url="/api/b", status=404)]


def _json_line(**changes):
    data = GOOD[0].to_dict()
    data.update(changes)
    return json.dumps(data)


_TSV_ROW = _record_to_row(GOOD[0])

BAD_LINES = {
    "jsonl": {
        "torn": _json_line()[:40],
        "not-a-record": "[1, 2]",
        "wrong-type": _json_line(timestamp="1559347200"),
        "unknown-enum": _json_line(method="FETCH"),
        "invalid-utf8": _json_line().encode().replace(b"/api/a", b"/api/\xff"),
    },
    "tsv": {
        "torn": _TSV_ROW[: len(_TSV_ROW) // 2],
        "not-a-record": "just\tthree\tcolumns",
        "wrong-type": _TSV_ROW.replace("\t200\t", "\tOK\t", 1),
        "unknown-enum": _TSV_ROW.replace("\tGET\t", "\tFETCH\t", 1),
        "invalid-utf8": _TSV_ROW.encode().replace(b"/api/a", b"/api/\xff"),
    },
}


def _lines(fmt, bad):
    good = (
        [json.dumps(record.to_dict()) for record in GOOD]
        if fmt == "jsonl"
        else [_record_to_row(record) for record in GOOD]
    )
    if isinstance(bad, str):
        bad = bad.encode()
    return b"%s\n%s\n%s\n" % (good[0].encode(), bad, good[1].encode())


def _read(reader, tmp_path, bad_kind, on_error):
    """``(records, source name, format)`` of one reader over one file
    whose second line is bad."""
    fmt = "tsv" if reader == "tsv-file" else "jsonl"
    data = _lines(fmt, BAD_LINES[fmt][bad_kind])
    if reader == "stdin":
        return list(stdin_source(io.BytesIO(data), on_error)), "stdin", fmt
    path = tmp_path / f"edge.{fmt}"
    path.write_bytes(data)
    if reader == "tail":
        return LogTailer(path, on_error).poll(), str(path), fmt
    return list(read_logs(path, on_error)), str(path), fmt


READERS = ["jsonl-file", "tsv-file", "tail", "stdin"]
BAD_KINDS = ["torn", "not-a-record", "wrong-type", "unknown-enum", "invalid-utf8"]
CELLS = [(reader, bad_kind) for reader in READERS for bad_kind in BAD_KINDS]


@pytest.mark.parametrize("reader,bad_kind", CELLS)
class TestOneDecoder:
    def test_strict_read_names_source_and_line(
        self, tmp_path, reader, bad_kind
    ):
        fmt = "tsv" if reader == "tsv-file" else "jsonl"
        source = "stdin" if reader == "stdin" else str(
            tmp_path / f"edge.{fmt}"
        )
        expected = (
            f"{re.escape(source)}: malformed {fmt.upper()} record on line 2: "
        )
        with pytest.raises(ValueError, match=expected):
            _read(reader, tmp_path, bad_kind, "raise")

    def test_lenient_read_drops_and_counts(self, tmp_path, reader, bad_kind):
        registry = MetricsRegistry()
        with obs.installed(registry):
            records, _, _ = _read(reader, tmp_path, bad_kind, "skip")
        assert records == GOOD
        counters = registry.snapshot()["counters"]
        assert counters["io.lines_skipped"] == 1
        assert counters["io.lines_parsed"] == 2


def test_each_read_counts_once(tmp_path):
    path = tmp_path / "edge.jsonl"
    path.write_bytes(_lines("jsonl", "{torn"))
    registry = MetricsRegistry()
    with obs.installed(registry):
        list(read_logs(path, "skip"))
        list(read_logs(path, "skip"))
    counters = registry.snapshot()["counters"]
    assert counters["io.lines_parsed"] == 4
    assert counters["io.lines_skipped"] == 2


def test_tailer_numbers_lines_across_polls(tmp_path):
    path = tmp_path / "growing.jsonl"
    path.write_text(_json_line() + "\n")
    tailer = LogTailer(path, on_error="raise")
    assert tailer.poll() == GOOD[:1]
    with open(path, "a") as handle:
        handle.write(_json_line() + "\n[1, 2]\n")
    with pytest.raises(ValueError, match="on line 3: expected a JSON object"):
        tailer.poll()


#: JSON lines ``json.loads`` rejects after ``str.strip``; the one-scan
#: decoder must reject them as well.
NOT_ONE_OBJECT = {
    "trailing-data": _json_line() + ' {"x": 1}',
    "trailing-garbage": _json_line() + "x",
    "two-objects": _json_line() + _json_line(),
    "bom": "\ufeff" + _json_line(),
    "bare-string": '"GET"',
    "bare-number": "1559347200",
    "bare-null": "null",
}


@pytest.mark.parametrize("reader", ["jsonl-file", "tail", "stdin"])
@pytest.mark.parametrize("kind", sorted(NOT_ONE_OBJECT))
class TestOneObjectPerLine:
    def _read(self, tmp_path, reader, kind, on_error):
        data = _lines("jsonl", NOT_ONE_OBJECT[kind])
        if reader == "stdin":
            return list(stdin_source(io.BytesIO(data), on_error)), "stdin"
        path = tmp_path / "edge.jsonl"
        path.write_bytes(data)
        if reader == "tail":
            return LogTailer(path, on_error).poll(), str(path)
        return list(read_logs(path, on_error)), str(path)

    def test_strict_read_names_the_line(self, tmp_path, reader, kind):
        source = "stdin" if reader == "stdin" else str(tmp_path / "edge.jsonl")
        # The reason is the one ``json.loads`` gives (a line behind a
        # byte-order mark keeps its ``utf-8-sig`` hint).
        with pytest.raises(ValueError) as reason:
            RequestLog.from_dict(json.loads(NOT_ONE_OBJECT[kind]))
        expected = (
            f"{re.escape(source)}: malformed JSONL record on line 2: "
            f"{re.escape(str(reason.value))}$"
        )
        with pytest.raises(ValueError, match=expected):
            self._read(tmp_path, reader, kind, "raise")

    def test_lenient_read_skips_one_line(self, tmp_path, reader, kind):
        registry = MetricsRegistry()
        with obs.installed(registry):
            records, _ = self._read(tmp_path, reader, kind, "skip")
        assert records == GOOD
        counters = registry.snapshot()["counters"]
        assert counters["io.lines_skipped"] == 1
        assert counters["io.lines_parsed"] == 2


def test_json_whitespace_around_a_line_is_stripped(tmp_path):
    path = tmp_path / "edge.jsonl"
    path.write_bytes(b" \t%s \r\n\x0c\n" % _json_line().encode())
    assert list(read_logs(path, "raise")) == GOOD[:1]
