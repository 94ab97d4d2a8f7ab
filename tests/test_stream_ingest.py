"""Tests for the shedding ingest stage and the stream's sources."""

from __future__ import annotations

import io
import json
import sys
import time

import pytest

from repro.cli import main
from repro.logs.io import read_logs, write_logs
from repro.logs.partition import (
    edge_streams,
    read_partitioned,
    write_partitioned,
)
from repro.stream import StreamConfig, StreamService
from repro.stream.ingest import IngestStage
from repro.stream.sources import stdin_source
from tests.conftest import make_log

BASE_TS = 1_559_347_200.0


def logs(count, start=0.0, step=1.0, edge="edge-1"):
    return [
        make_log(timestamp=BASE_TS + start + index * step, edge_id=edge)
        for index in range(count)
    ]


class TestIngestStage:
    def test_single_source_preserves_order(self):
        records = logs(50)
        stage = IngestStage([iter(records)])
        assert list(stage.records()) == records
        stats = stage.stats.snapshot()
        assert stats["ingested"] == 50
        assert stats["delivered"] == 50
        assert stats["dropped"] == 0

    def test_multiple_sources_deliver_everything(self):
        first, second, third = logs(20), logs(30, start=100), logs(10, start=200)
        stage = IngestStage([iter(first), iter(second), iter(third)])
        delivered = list(stage.records())
        assert len(delivered) == 60
        assert sorted(r.timestamp for r in delivered) == sorted(
            r.timestamp for r in first + second + third
        )

    def test_events_tag_records_and_mark_source_ends(self):
        stage = IngestStage([iter(logs(3)), iter(logs(2))])
        by_source = {0: 0, 1: 0}
        ends = set()
        for source, record in stage.events():
            if record is None:
                ends.add(source)
            else:
                by_source[source] += 1
        assert by_source == {0: 3, 1: 2}
        assert ends == {0, 1}

    def test_drop_policy_sheds_and_counts(self):
        records = logs(2_000)
        stage = IngestStage([iter(records)], capacity=2)
        delivered = 0
        for _ in stage.records():
            time.sleep(0.001)  # slow consumer forces the queue full
            delivered += 1
        stats = stage.stats.snapshot()
        assert stats["dropped"] > 0
        assert delivered + stats["dropped"] == 2_000
        assert stats["ingested"] == delivered

    def test_shedding_is_bounded_and_keeps_every_source_end(self):
        sources = [logs(300, edge=f"edge-{index}") for index in range(3)]
        stage = IngestStage([iter(source) for source in sources], capacity=4)
        delivered, ends = 0, []
        for source, record in stage.events():
            if record is None:
                ends.append(source)
            else:
                time.sleep(0.0005)  # slow consumer forces the queue full
                delivered += 1
        stats = stage.stats.snapshot()
        assert stats["queue_peak"] <= 4
        assert stats["dropped"] > 0
        assert delivered + stats["dropped"] == 900
        assert sorted(ends) == [0, 1, 2]

    def test_worker_error_propagates_after_drain(self):
        def failing():
            yield from logs(5)
            raise OSError("socket reset")

        stage = IngestStage([failing()])
        consumed = []
        with pytest.raises(OSError, match="socket reset"):
            for record in stage.records():
                consumed.append(record)
        assert len(consumed) == 5  # queued records drain before the raise

    def test_consuming_twice_is_an_error(self):
        stage = IngestStage([iter(logs(1))])
        list(stage.records())
        with pytest.raises(RuntimeError, match="once"):
            next(stage.records())

    def test_validation(self):
        with pytest.raises(ValueError):
            IngestStage([], capacity=0)
        with pytest.raises(ValueError, match="queue_policy"):
            StreamService(StreamConfig(queue_policy="spill")).run([])


class TestSources:
    def test_file_source(self, tmp_path):
        records = logs(7)
        path = tmp_path / "edge.jsonl"
        write_logs(records, path)
        assert list(read_logs(path, on_error="skip")) == records

    def test_file_source_skips_torn_lines(self, tmp_path):
        path = tmp_path / "edge.jsonl"
        write_logs(logs(2), path)
        with open(path, "a") as handle:
            handle.write('{"half a rec')
        assert len(list(read_logs(path, on_error="skip"))) == 2

    def test_directory_sources_one_per_edge(self, tmp_path):
        records = logs(10, edge="edge-1") + logs(10, start=50, edge="edge-2")
        write_partitioned(records, tmp_path / "parts")
        sources = edge_streams(tmp_path / "parts")
        assert len(sources) == 2
        streams = [list(source) for source in sources]
        for stream in streams:
            assert len({r.edge_id for r in stream}) == 1
            timestamps = [r.timestamp for r in stream]
            assert timestamps == sorted(timestamps)
        assert sum(len(s) for s in streams) == 20

    def test_merged_directory_source_is_time_ordered(self, tmp_path):
        records = logs(15, edge="edge-1") + logs(15, start=0.5, edge="edge-2")
        write_partitioned(records, tmp_path / "parts")
        merged = list(read_partitioned(tmp_path / "parts", on_error="skip"))
        timestamps = [r.timestamp for r in merged]
        assert timestamps == sorted(timestamps)
        assert len(merged) == 30

    def test_stdin_source_parses_jsonl(self):
        records = logs(3)
        text = "\n".join(json.dumps(r.to_dict()) for r in records) + "\n"
        assert list(stdin_source(io.StringIO(text))) == records

    def test_stdin_source_skips_garbage_by_default(self):
        good = json.dumps(logs(1)[0].to_dict())
        stream = io.StringIO(f"not json\n{good}\n\n")
        assert len(list(stdin_source(stream))) == 1

    def test_stdin_source_raise_mode(self):
        stream = io.StringIO("not json\n")
        with pytest.raises(ValueError, match="line 1"):
            list(stdin_source(stream, on_error="raise"))

    def test_stdin_windows_what_the_file_reader_windows(
        self, tmp_path, monkeypatch, capsys
    ):
        # A line holding a byte that is not UTF-8 is skipped by both
        # readers; a stdin decoded as text would window it with a lone
        # surrogate in its url.
        lines = [json.dumps(r.to_dict()).encode() for r in logs(30, step=10.0)]
        lines[7] = lines[7].replace(b"/api/v1/home", b"/api/v1/\xffhome")
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        common = ["--window", "60", "--no-periods", "--no-predictions"]
        file_out, stdin_out = tmp_path / "file.jsonl", tmp_path / "stdin.jsonl"
        assert main(
            ["stream", "--logs", str(path), *common, "--emit", str(file_out)]
        ) == 0
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(path.read_bytes()), errors="surrogateescape"
        ))
        assert main(
            ["stream", "--stdin", *common, "--emit", str(stdin_out)]
        ) == 0
        assert stdin_out.read_bytes() == file_out.read_bytes()
        windows = [json.loads(line) for line in stdin_out.read_text().splitlines()]
        assert sum(window["records"] for window in windows) == 29
