"""Unit tests for repro.logs.io."""

import gzip
import json
import tracemalloc

import numpy
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


def _dumps_lines(records):
    """What ``write_jsonl`` must write: ``json.dumps`` of each record."""
    return b"".join(
        json.dumps(record.to_dict(), separators=(",", ":")).encode() + b"\n"
        for record in records
    )


#: Hand-made records for the line writer: text ``json.dumps`` escapes,
#: values of every type the fields take, and values of types it must
#: hand back to ``json.dumps``.
_AWKWARD_TEXT = 'naïve "quoted" back\\slash \t\n\x00\x1f\x7f \u2028 \U0001F600'
_ODD_RECORDS = {
    "escaped url": dict(url="/api/" + _AWKWARD_TEXT),
    "escaped user agent": dict(user_agent=_AWKWARD_TEXT),
    "no user agent": dict(user_agent=None),
    "int timestamp and ttl": dict(timestamp=1_559_347_200, ttl_seconds=300),
    "no ttl": dict(ttl_seconds=None, cache_status=CacheStatus.NO_STORE),
    "big and signed numbers": dict(
        timestamp=-0.0, ttl_seconds=1e16, response_bytes=2**70, status=-1
    ),
    "nan timestamp": dict(timestamp=float("nan")),
    "inf timestamp": dict(timestamp=float("inf")),
    "-inf ttl": dict(ttl_seconds=float("-inf")),
    "nan ttl": dict(ttl_seconds=float("nan")),
    "numpy timestamp": dict(timestamp=numpy.float64(1_559_347_200.25)),
    "numpy ttl": dict(ttl_seconds=numpy.float64(60.5)),
    "bool status": dict(status=True),
    "bool request bytes": dict(request_bytes=False),
    "bool timestamp": dict(timestamp=True),
    "int user agent": dict(user_agent=5),
    "str subclass domain": dict(domain=type("Host", (str,), {})("a.example")),
    "int in a str field": dict(edge_id=7),
}
#: Cases whose line the reader's field contract rejects.
_UNREADABLE = {"bool status", "bool request bytes", "bool timestamp",
               "int user agent", "int in a str field"}


class TestJsonlLineWriter:
    """``write_jsonl`` against its oracle, ``json.dumps`` per record."""

    def test_generated_dataset(self, short_dataset, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(short_dataset.logs, path)
        assert path.read_bytes() == _dumps_lines(short_dataset.logs)
        assert list(read_jsonl(path)) == short_dataset.logs

    @pytest.mark.parametrize("case", sorted(_ODD_RECORDS))
    def test_odd_record(self, case, tmp_path):
        record = make_log(**_ODD_RECORDS[case])
        plain, packed = tmp_path / "one.jsonl", tmp_path / "one.jsonl.gz"
        write_jsonl([record], plain)
        write_jsonl([record], packed)
        data = plain.read_bytes()
        assert data == _dumps_lines([record])
        assert gzip.decompress(packed.read_bytes()) == data
        if case in _UNREADABLE:
            with pytest.raises(ValueError, match="must be"):
                list(read_jsonl(plain))
            return
        (read,) = read_jsonl(plain)
        if "nan" not in case:  # NaN is unequal to itself
            assert read == record
        write_jsonl([read], plain)
        assert plain.read_bytes() == data

    def test_mixed_records_keep_their_order(self, tmp_path):
        records = [make_log(**fields) for _, fields in sorted(_ODD_RECORDS.items())]
        records = [record for pair in zip(records, [make_log()] * len(records))
                   for record in pair]
        path = tmp_path / "mixed.jsonl"
        assert write_jsonl(records, path) == len(records)
        assert path.read_bytes() == _dumps_lines(records)


    def test_lazy_stream_of_distinct_records_keeps_no_state(self, tmp_path):
        """The writer holds nothing per record: a stream of records
        with distinct ~2 KB URLs writes in memory that does not grow
        with its length."""
        def distinct_records(count):
            for index in range(count):
                yield make_log(
                    url=f"/api/{index:08d}?q=" + "x" * 2000,
                    client_ip_hash=f"{index:016x}",
                    user_agent=f"Agent/{index}",
                )

        peaks = []
        for count in (500, 5000):
            tracemalloc.start()
            try:
                write_jsonl(distinct_records(count), tmp_path / "lazy.jsonl")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Keeping the 4,500 further URLs (or their literals) would
        # add at least 9 MB.
        assert peaks[1] < peaks[0] + 1_000_000


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
