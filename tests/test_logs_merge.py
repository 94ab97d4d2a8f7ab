"""Unit tests for repro.logs.merge."""

import pytest

from repro.logs.io import read_logs, write_logs
from repro.logs.merge import (
    is_time_ordered,
    merge_events,
    merge_files,
    merge_sorted,
    split_by_edge,
)
from tests.conftest import make_log


def edge_stream(edge_id, timestamps):
    return [make_log(timestamp=float(t), edge_id=edge_id) for t in timestamps]


class TestMergeSorted:
    def test_two_streams_interleave(self):
        a = edge_stream("edge-a", [1, 3, 5])
        b = edge_stream("edge-b", [2, 4, 6])
        merged = list(merge_sorted([a, b]))
        assert [record.timestamp for record in merged] == [1, 2, 3, 4, 5, 6]

    def test_ties_keep_stream_order(self):
        a = edge_stream("edge-a", [1.0])
        b = edge_stream("edge-b", [1.0])
        merged = list(merge_sorted([a, b]))
        assert [record.edge_id for record in merged] == ["edge-a", "edge-b"]

    def test_empty_streams(self):
        assert list(merge_sorted([])) == []
        assert list(merge_sorted([[], edge_stream("e", [1])])) != []

    def test_single_stream_passthrough(self):
        a = edge_stream("edge-a", [1, 2, 3])
        assert list(merge_sorted([a])) == a

    def test_many_streams(self):
        streams = [edge_stream(f"edge-{i}", range(i, 100, 7)) for i in range(7)]
        merged = list(merge_sorted(streams))
        assert is_time_ordered(merged)
        assert len(merged) == sum(len(s) for s in streams)

    def test_lazy(self):
        a = iter(edge_stream("edge-a", [1, 2]))
        merged = merge_sorted([a])
        assert next(merged).timestamp == 1


class TestMergeEvents:
    def test_each_end_is_reported_once_after_its_records(self):
        streams = [
            edge_stream("edge-a", [1, 4]),
            [],
            edge_stream("edge-c", [2, 3, 5, 6]),
        ]
        events = list(merge_events(streams))
        ends = [index for index, record in events if record is None]
        assert sorted(ends) == [0, 1, 2]
        for index, stream in enumerate(streams):
            tagged = [record for i, record in events if i == index]
            assert tagged == stream + [None]

    def test_records_match_merge_sorted_on_ties(self):
        streams = [
            edge_stream(f"edge-{i}", [1, 1, 2, 2, 3][i:]) for i in range(4)
        ]
        records = [
            record for _, record in merge_events(streams) if record is not None
        ]
        assert records == list(merge_sorted(streams))
        assert [(r.timestamp, r.edge_id) for r in records[:4]] == [
            (1.0, "edge-0"), (1.0, "edge-0"), (1.0, "edge-1"), (2.0, "edge-0"),
        ]

    def test_one_stream_reads_no_record_ahead(self):
        pulled = []

        def source():
            for record in edge_stream("edge-a", [1, 2, 3]):
                pulled.append(record.timestamp)
                yield record

        events = merge_events([source()])
        for expected in (1, 2, 3):
            index, record = next(events)
            assert (index, record.timestamp) == (0, expected)
            assert pulled[-1] == expected
        assert next(events) == (0, None)


class TestMergeFiles:
    def test_round_trip(self, tmp_path):
        paths = []
        for edge in range(3):
            path = tmp_path / f"edge-{edge}.jsonl"
            write_logs(edge_stream(f"edge-{edge}", range(edge, 30, 3)), path)
            paths.append(path)
        out = tmp_path / "merged.jsonl.gz"
        count = merge_files(paths, out)
        merged = list(read_logs(out))
        assert count == len(merged) == 30
        assert is_time_ordered(merged)


class TestSplitByEdge:
    def test_partition(self):
        logs = edge_stream("edge-a", [1, 2]) + edge_stream("edge-b", [3])
        parts = split_by_edge(logs)
        assert set(parts) == {"edge-a", "edge-b"}
        assert len(parts["edge-a"]) == 2

    def test_split_then_merge_identity(self, short_dataset):
        sample = short_dataset.logs[:2000]
        parts = split_by_edge(sample)
        merged = list(merge_sorted(list(parts.values())))
        assert sorted(r.timestamp for r in merged) == [
            r.timestamp for r in merged
        ]
        assert len(merged) == len(sample)


class TestIsTimeOrdered:
    def test_ordered(self):
        assert is_time_ordered(edge_stream("e", [1, 2, 2, 3]))

    def test_unordered(self):
        assert not is_time_ordered(edge_stream("e", [2, 1]))

    def test_empty(self):
        assert is_time_ordered([])
