"""Unit tests for repro.engine.shard — planning determinism."""

import pytest

from repro.engine.shard import (
    FileShard,
    MemoryShard,
    plan_directory_shards,
    plan_memory_shards,
    stable_hash64,
)
from repro.logs.partition import write_partitioned
from tests.conftest import make_log


@pytest.fixture
def partition_root(tmp_path):
    base = 1_559_347_200.0
    logs = [
        make_log(timestamp=base + hour * 3600 + minute * 60, edge_id=edge)
        for edge in ("edge-0", "edge-1")
        for hour in (0, 1, 2)
        for minute in (5, 35)
    ]
    write_partitioned(logs, tmp_path)
    return tmp_path


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("client-1") == stable_hash64("client-1")
        assert stable_hash64("client-1") != stable_hash64("client-2")

    def test_64_bit_range(self):
        value = stable_hash64("anything")
        assert 0 <= value < 2 ** 64

    def test_value_is_pinned(self):
        # Shard assignment and checkpoint resume depend on these exact
        # values; a change here silently reshuffles every memory plan.
        assert stable_hash64("client-1") == 17289443768467610846
        assert stable_hash64("") == 16476032584258269876


class TestDirectoryShards:
    def test_one_shard_per_bucket_file(self, partition_root):
        shards = plan_directory_shards(partition_root)
        assert len(shards) == 6  # 2 edges × 3 hours
        assert all(isinstance(shard, FileShard) for shard in shards)

    def test_ids_are_relative_paths(self, partition_root):
        shards = plan_directory_shards(partition_root)
        assert shards[0].shard_id == "edge-0/2019-06-01-00.jsonl.gz"

    def test_plan_is_deterministic(self, partition_root):
        first = plan_directory_shards(partition_root)
        second = plan_directory_shards(partition_root)
        assert [s.shard_id for s in first] == [s.shard_id for s in second]

    def test_edge_filter(self, partition_root):
        shards = plan_directory_shards(partition_root, edge_id="edge-1")
        assert len(shards) == 3
        assert all(shard.shard_id.startswith("edge-1/") for shard in shards)

    def test_grouping_buckets(self, partition_root):
        shards = plan_directory_shards(partition_root, files_per_shard=2)
        assert len(shards) == 4  # per edge: [2 buckets, 1 bucket]
        assert shards[0].shard_id.endswith("+1")
        assert len(shards[0].paths) == 2

    def test_invalid_group_size(self, partition_root):
        with pytest.raises(ValueError):
            plan_directory_shards(partition_root, files_per_shard=0)

    def test_shards_cover_all_records(self, partition_root):
        shards = plan_directory_shards(partition_root)
        total = sum(len(list(shard.iter_logs())) for shard in shards)
        assert total == 12

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            plan_directory_shards(tmp_path / "nope")


class TestMemoryShards:
    def _logs(self, count=200):
        return [
            make_log(client_ip_hash=f"client-{index % 23:04x}", url=f"/api/{index}")
            for index in range(count)
        ]

    def test_partition_is_complete(self):
        logs = self._logs()
        shards = plan_memory_shards(logs, 4)
        assert len(shards) == 4
        assert sum(len(shard.records) for shard in shards) == len(logs)

    def test_clients_stay_together(self):
        shards = plan_memory_shards(self._logs(), 4)
        owners = {}
        for index, shard in enumerate(shards):
            for record in shard.records:
                assert owners.setdefault(record.client_id, index) == index

    def test_assignment_matches_stable_hash(self):
        logs = self._logs(50)
        shards = plan_memory_shards(logs, 3)
        for index, shard in enumerate(shards):
            for record in shard.records:
                assert stable_hash64(record.client_id) % 3 == index

    def test_order_preserved_within_shard(self):
        logs = self._logs()
        shards = plan_memory_shards(logs, 2)
        for shard in shards:
            timestamps = [record.url for record in shard.records]
            expected = [
                record.url
                for record in logs
                if stable_hash64(record.client_id) % 2
                == int(shard.shard_id.split("-")[1])
            ]
            assert timestamps == expected

    def test_empty_shards_kept(self):
        logs = [make_log()]  # one client
        shards = plan_memory_shards(logs, 5)
        assert len(shards) == 5
        assert sum(len(shard.records) for shard in shards) == 1

    def test_single_shard(self):
        logs = self._logs(10)
        (shard,) = plan_memory_shards(logs, 1)
        assert isinstance(shard, MemoryShard)
        assert list(shard.iter_logs()) == logs

    def test_invalid_num_shards(self):
        with pytest.raises(ValueError):
            plan_memory_shards([], 0)
