"""Unit tests for repro.logs.io."""

import gzip
import json

import pytest

from repro.logs.io import (
    TSV_COLUMNS,
    LogTailer,
    read_jsonl,
    read_logs,
    read_tsv,
    tail_records,
    write_jsonl,
    write_logs,
    write_tsv,
)
from repro.logs.record import CacheStatus, HttpMethod
from tests.conftest import make_log


@pytest.fixture
def records():
    return [
        make_log(),
        make_log(
            method=HttpMethod.POST,
            request_bytes=512,
            cache_status=CacheStatus.NO_STORE,
            ttl_seconds=None,
            user_agent=None,
        ),
        make_log(url="/api/v1/item/99", status=404),
    ]


class TestJsonl:
    def test_round_trip(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        assert write_jsonl(records, path) == 3
        assert list(read_jsonl(path)) == records

    def test_gzip_round_trip(self, records, tmp_path):
        path = tmp_path / "logs.jsonl.gz"
        write_jsonl(records, path)
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # gzip magic
        assert list(read_jsonl(path)) == records

    def test_blank_lines_skipped(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(records[:1], path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(list(read_jsonl(path))) == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl([make_log()], path)
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError, match="line 2"):
            list(read_jsonl(path))


class TestTsv:
    def test_round_trip(self, records, tmp_path):
        path = tmp_path / "logs.tsv"
        assert write_tsv(records, path) == 3
        assert list(read_tsv(path)) == records

    def test_gzip_round_trip(self, records, tmp_path):
        path = tmp_path / "logs.tsv.gz"
        write_tsv(records, path)
        assert list(read_tsv(path)) == records

    def test_none_user_agent_round_trips(self, tmp_path):
        record = make_log(user_agent=None)
        path = tmp_path / "logs.tsv"
        write_tsv([record], path)
        assert next(read_tsv(path)).user_agent is None

    def test_tab_in_user_agent_escaped(self, tmp_path):
        record = make_log(user_agent="weird\tagent\nstring")
        path = tmp_path / "logs.tsv"
        write_tsv([record], path)
        assert next(read_tsv(path)).user_agent == "weird\tagent\nstring"

    def test_backslash_in_user_agent_escaped(self, tmp_path):
        record = make_log(user_agent="path\\to\\thing")
        path = tmp_path / "logs.tsv"
        write_tsv([record], path)
        assert next(read_tsv(path)).user_agent == "path\\to\\thing"

    def test_column_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "logs.tsv"
        path.write_text("just\tthree\tcolumns\n")
        with pytest.raises(ValueError, match="line 1"):
            list(read_tsv(path))

    def test_column_order_is_stable(self):
        assert TSV_COLUMNS[0] == "timestamp"
        assert len(TSV_COLUMNS) == 13


class TestFormatDispatch:
    def test_write_logs_jsonl(self, records, tmp_path):
        path = tmp_path / "x.jsonl"
        write_logs(records, path)
        assert list(read_logs(path)) == records

    def test_write_logs_tsv_gz(self, records, tmp_path):
        path = tmp_path / "x.tsv.gz"
        write_logs(records, path)
        assert list(read_logs(path)) == records

    def test_unknown_extension_rejected(self, records, tmp_path):
        with pytest.raises(ValueError, match="cannot infer"):
            write_logs(records, tmp_path / "x.csv")

    def test_reading_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot infer"):
            list(read_logs(tmp_path / "x.parquet"))

    def test_readers_are_lazy(self, records, tmp_path):
        path = tmp_path / "x.jsonl"
        write_logs(records, path)
        iterator = read_logs(path)
        assert next(iterator) == records[0]


class TestResilientReading:
    def test_skip_mode_drops_bad_jsonl_lines(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(records, path)
        with open(path, "a") as handle:
            handle.write("{truncated\n")
            handle.write('{"timestamp": "not-a-number"}\n')
        recovered = list(read_jsonl(path, on_error="skip"))
        assert recovered == records

    def test_skip_mode_drops_bad_tsv_lines(self, records, tmp_path):
        path = tmp_path / "logs.tsv"
        write_tsv(records, path)
        with open(path, "a") as handle:
            handle.write("only\tthree\tcolumns\n")
        recovered = list(read_tsv(path, on_error="skip"))
        assert recovered == records

    def test_raise_mode_is_default(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(records, path)
        with open(path, "a") as handle:
            handle.write("{bad\n")
        with pytest.raises(ValueError):
            list(read_jsonl(path))

    def test_invalid_on_error_value(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ValueError, match="on_error"):
            list(read_jsonl(path, on_error="ignore"))

    def test_read_logs_passes_through(self, records, tmp_path):
        path = tmp_path / "logs.tsv.gz"
        write_logs(records, path)
        assert list(read_logs(path, on_error="skip")) == records


class TestLogTailer:
    def test_file_written_in_two_stages(self, records, tmp_path):
        path = tmp_path / "growing.jsonl"
        write_jsonl(records[:2], path)
        tailer = LogTailer(path)
        assert tailer.poll() == records[:2]
        assert tailer.poll() == []  # nothing new, nothing re-read
        with open(path, "a") as handle:
            for record in records[2:]:
                handle.write(json.dumps(record.to_dict()) + "\n")
        assert tailer.poll() == records[2:]
        assert tailer.poll() == []

    def test_partial_line_buffers_until_completed(self, records, tmp_path):
        path = tmp_path / "growing.jsonl"
        line = json.dumps(records[0].to_dict())
        path.write_text(line[:20])  # torn mid-record, no newline
        tailer = LogTailer(path)
        assert tailer.poll() == []  # never parses half a line
        with open(path, "a") as handle:
            handle.write(line[20:] + "\n")
        assert tailer.poll() == records[:1]

    def test_write_torn_inside_a_character_buffers_its_bytes(
        self, records, tmp_path
    ):
        path = tmp_path / "growing.jsonl"
        record = records[0].with_fields(url="/api/café")
        data = (json.dumps(record.to_dict(), ensure_ascii=False) + "\n").encode()
        cut = data.index("é".encode()) + 1  # between the two bytes of é
        path.write_bytes(data[:cut])
        tailer = LogTailer(path)
        assert tailer.poll() == []
        with open(path, "ab") as handle:
            handle.write(data[cut:])
        assert tailer.poll() == [record]
        assert tailer.poll() == []

    def test_tsv_files_tail_too(self, records, tmp_path):
        path = tmp_path / "growing.tsv"
        write_tsv(records[:1], path)
        tailer = LogTailer(path)
        assert tailer.poll() == records[:1]

    def test_missing_file_polls_empty_until_it_appears(self, records, tmp_path):
        path = tmp_path / "later.jsonl"
        tailer = LogTailer(path)
        assert tailer.poll() == []
        write_jsonl(records, path)
        assert tailer.poll() == records

    def test_gzip_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="gzip"):
            LogTailer(tmp_path / "logs.jsonl.gz")

    def test_malformed_line_skipped_by_default(self, records, tmp_path):
        path = tmp_path / "growing.jsonl"
        write_jsonl(records[:1], path)
        with open(path, "a") as handle:
            handle.write("{torn write\n")
        tailer = LogTailer(path)
        assert tailer.poll() == records[:1]
        tailer_strict = LogTailer(path, on_error="raise")
        with pytest.raises(
            ValueError,
            match=r"growing\.jsonl: malformed JSONL record on line 2",
        ):
            tailer_strict.poll()

    def test_tail_records_generator_ends_after_idle_polls(
        self, records, tmp_path
    ):
        path = tmp_path / "growing.jsonl"
        write_jsonl(records, path)
        recovered = list(
            tail_records(path, poll_interval=0.001, idle_polls=2)
        )
        assert recovered == records
