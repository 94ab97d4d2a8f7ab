"""Tests for repro.logs.partition."""

import pytest

from repro.logs.merge import is_time_ordered
from repro.logs.partition import (
    bucket_name,
    iter_partition_files,
    read_partitioned,
    write_partitioned,
)
from tests.conftest import make_log


@pytest.fixture
def sample_logs():
    base = 1_559_347_200.0  # 2019-06-01 00:00 UTC
    logs = []
    for edge in ("edge-0", "edge-1"):
        for hour in (0, 1, 3):
            for minute in (5, 25, 45):
                logs.append(
                    make_log(
                        timestamp=base + hour * 3600 + minute * 60,
                        edge_id=edge,
                    )
                )
    return logs


class TestBucketName:
    def test_utc_hour(self):
        assert bucket_name(1_559_347_200.0) == "2019-06-01-00"
        assert bucket_name(1_559_347_200.0 + 3 * 3600) == "2019-06-01-03"

    def test_day_rollover(self):
        assert bucket_name(1_559_347_200.0 + 24 * 3600) == "2019-06-02-00"


class TestWritePartitioned:
    def test_layout(self, sample_logs, tmp_path):
        written = write_partitioned(sample_logs, tmp_path)
        assert len(written) == 6  # 2 edges × 3 hours
        assert "edge-0/2019-06-01-00.jsonl.gz" in written
        assert all(count == 3 for count in written.values())

    def test_format_option(self, sample_logs, tmp_path):
        written = write_partitioned(sample_logs, tmp_path, fmt="tsv")
        assert all(name.endswith(".tsv") for name in written)

    def test_bad_format_rejected(self, sample_logs, tmp_path):
        with pytest.raises(ValueError):
            write_partitioned(sample_logs, tmp_path, fmt="parquet")

    def test_files_listable(self, sample_logs, tmp_path):
        write_partitioned(sample_logs, tmp_path)
        files = iter_partition_files(tmp_path)
        assert len(files) == 6
        per_edge = iter_partition_files(tmp_path, edge_id="edge-0")
        assert len(per_edge) == 3

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_partition_files(tmp_path / "nope")

    @pytest.mark.parametrize("offset", [-4e-7, -1e-6, 0.0, 1e-7])
    def test_record_near_an_hour_boundary(self, offset, tmp_path):
        # bucket_name rounds to the microsecond, so a time less than
        # half a microsecond before 01:00 belongs to hour 01, not the
        # hour its seconds floor to.
        timestamp = 1_559_347_200.0 + 3600 + offset
        written = write_partitioned([make_log(timestamp=timestamp)], tmp_path)
        assert list(written) == [f"edge-1/{bucket_name(timestamp)}.jsonl.gz"]
        expected = "2019-06-01-00" if offset == -1e-6 else "2019-06-01-01"
        assert bucket_name(timestamp) == expected


class TestReadPartitioned:
    def test_round_trip_all_edges(self, sample_logs, tmp_path):
        import json

        write_partitioned(sample_logs, tmp_path)
        recovered = list(read_partitioned(tmp_path))
        assert len(recovered) == len(sample_logs)
        assert is_time_ordered(recovered)

        def multiset(records):
            return sorted(
                json.dumps(record.to_dict(), sort_keys=True)
                for record in records
            )

        assert multiset(recovered) == multiset(sample_logs)

    def test_single_edge_filter(self, sample_logs, tmp_path):
        write_partitioned(sample_logs, tmp_path)
        recovered = list(read_partitioned(tmp_path, edge_id="edge-1"))
        assert len(recovered) == 9
        assert all(record.edge_id == "edge-1" for record in recovered)

    def test_missing_edge_raises(self, sample_logs, tmp_path):
        write_partitioned(sample_logs, tmp_path)
        with pytest.raises(FileNotFoundError):
            list(read_partitioned(tmp_path, edge_id="edge-9"))

    def test_dataset_round_trip(self, short_dataset, tmp_path):
        sample = short_dataset.logs[:3000]
        write_partitioned(sample, tmp_path, fmt="tsv.gz")
        recovered = list(read_partitioned(tmp_path))
        assert len(recovered) == len(sample)
        assert is_time_ordered(recovered)


def _multiset(records):
    import json

    return sorted(
        json.dumps(record.to_dict(), sort_keys=True) for record in records
    )


class TestShardContract:
    """Round-trip guarantees the engine's directory shards rely on."""

    BASE = 1_559_347_200.0

    def _edge_logs(self, edge, hours, minute=10):
        return [
            make_log(
                timestamp=self.BASE + hour * 3600 + minute * 60,
                edge_id=edge,
                client_ip_hash=f"{edge}-h{hour}",
            )
            for hour in hours
        ]

    def test_many_edges_round_trip(self, tmp_path):
        logs = []
        for index in range(5):
            logs.extend(self._edge_logs(f"edge-{index}", (0, 1, 2)))
        write_partitioned(logs, tmp_path)
        recovered = list(read_partitioned(tmp_path))
        assert _multiset(recovered) == _multiset(logs)
        assert is_time_ordered(recovered)

    def test_mixed_gzip_and_plain_files(self, tmp_path):
        """One directory may mix compressed and plain partitions."""
        early = self._edge_logs("edge-0", (0, 1))
        late = self._edge_logs("edge-0", (2, 3))
        write_partitioned(early, tmp_path, fmt="jsonl.gz")
        write_partitioned(late, tmp_path, fmt="jsonl")
        names = [path.name for path in iter_partition_files(tmp_path)]
        assert any(name.endswith(".jsonl.gz") for name in names)
        assert any(not name.endswith(".gz") for name in names)
        recovered = list(read_partitioned(tmp_path))
        assert _multiset(recovered) == _multiset(early + late)
        assert is_time_ordered(recovered)

    def test_mixed_formats_across_edges(self, tmp_path):
        a = self._edge_logs("edge-a", (0, 1, 2))
        b = self._edge_logs("edge-b", (0, 1, 2), minute=40)
        write_partitioned(a, tmp_path, fmt="tsv.gz")
        write_partitioned(b, tmp_path, fmt="jsonl")
        recovered = list(read_partitioned(tmp_path))
        assert _multiset(recovered) == _multiset(a + b)
        assert is_time_ordered(recovered)

    def test_out_of_order_bucket_arrival(self, tmp_path):
        """Buckets written newest-first still read back time-ordered."""
        for hour in (3, 0, 2, 1):  # deliberately shuffled write order
            write_partitioned(
                self._edge_logs("edge-0", (hour,)), tmp_path
            )
        recovered = list(read_partitioned(tmp_path))
        assert is_time_ordered(recovered)
        assert len(recovered) == 4

    def test_disjoint_hours_across_edges_merge_ordered(self, tmp_path):
        """Edges with interleaved, non-overlapping hours k-way merge."""
        a = self._edge_logs("edge-a", (0, 2, 4))
        b = self._edge_logs("edge-b", (1, 3, 5))
        write_partitioned(a + b, tmp_path)
        recovered = list(read_partitioned(tmp_path))
        assert is_time_ordered(recovered)
        assert [record.edge_id for record in recovered] == [
            "edge-a", "edge-b", "edge-a", "edge-b", "edge-a", "edge-b"
        ]

    def test_day_rollover_bucket_sorts_after(self, tmp_path):
        logs = self._edge_logs("edge-0", (22, 23, 24, 25))  # crosses midnight
        write_partitioned(logs, tmp_path)
        names = [path.name for path in iter_partition_files(tmp_path)]
        assert names == sorted(names)
        recovered = list(read_partitioned(tmp_path))
        assert is_time_ordered(recovered)
        assert len(recovered) == 4
