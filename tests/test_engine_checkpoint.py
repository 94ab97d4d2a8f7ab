"""Tests for repro.engine.checkpoint — persistence and resume.

The acceptance scenario: kill a partitioned-directory run mid-way,
re-run with the same checkpoint dir, and verify completed shards are
NOT re-executed (counted via marker files that survive process
boundaries).
"""

from pathlib import Path

import pytest

from repro.core.pipeline import run_characterization
from repro.engine import EngineOptions
from repro.engine.checkpoint import CheckpointError, CheckpointStore
from repro.engine.executor import EngineError, run_shards
from repro.engine.shard import plan_directory_shards
from repro.engine.state import CharacterizationState
from repro.logs.partition import write_partitioned
from tests.conftest import make_log
from tests.reference import characterization_reference, counted


@pytest.fixture
def partition_root(tmp_path):
    base = 1_559_347_200.0
    logs = [
        make_log(
            timestamp=base + hour * 3600 + minute * 60,
            edge_id=edge,
            client_ip_hash=f"{edge}-{minute:02d}",
        )
        for edge in ("edge-0", "edge-1", "edge-2")
        for hour in (0, 1)
        for minute in (1, 31)
    ]
    root = tmp_path / "parts"
    write_partitioned(logs, root)
    return root


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        state = CharacterizationState().update([make_log()])
        store.save("edge-0/2019-06-01-00.jsonl.gz", state)
        assert store.has("edge-0/2019-06-01-00.jsonl.gz")
        loaded = store.load("edge-0/2019-06-01-00.jsonl.gz")
        assert loaded.record_count == 1

    def test_missing_shard(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert not store.has("nope")
        with pytest.raises(FileNotFoundError):
            store.load("nope")

    def test_slashes_sanitized_without_collisions(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path_a = store.path_for("edge-0/2019-06-01-00.jsonl.gz")
        path_b = store.path_for("edge-0_2019-06-01-00.jsonl.gz")
        assert path_a.parent == Path(tmp_path)
        assert path_a != path_b  # sanitizing must not alias distinct ids

    def test_corrupt_file_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path_for("shard-x").write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            store.load("shard-x")

    def test_wrong_shard_id_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("shard-a", CharacterizationState())
        # Simulate a renamed/copied checkpoint file.
        store.path_for("shard-a").rename(store.path_for("shard-b"))
        with pytest.raises(CheckpointError):
            store.load("shard-b")

    def test_completed_ids(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("b", CharacterizationState())
        store.save("a", CharacterizationState())
        assert store.completed_ids() == ["a", "b"]

    def test_load_returns_fresh_objects(self, tmp_path):
        """The documented contract: every load unpickles anew, so a
        caller may mutate what it gets back (the executor merges in
        place) without corrupting later loads."""
        store = CheckpointStore(tmp_path)
        store.save("shard-a", {"values": [1, 2]})
        first = store.load("shard-a")
        assert first is not store.load("shard-a")
        first["values"].append(99)
        assert store.load("shard-a") == {"values": [1, 2]}

    def test_checksum_mismatch_rejected(self, tmp_path):
        """Bit-rot that keeps the envelope unpicklable must still be
        caught — by the payload checksum, not by unpickle luck."""
        import pickle

        store = CheckpointStore(tmp_path)
        store.save("shard-a", CharacterizationState())
        path = store.path_for("shard-a")
        envelope = pickle.loads(path.read_bytes())
        payload = bytearray(envelope["payload"])
        payload[len(payload) // 2] ^= 0xFF  # one flipped bit pattern
        envelope["payload"] = bytes(payload)
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            store.load("shard-a")

    def test_legacy_v1_checkpoints_are_recomputed(self, tmp_path):
        """A pre-checksum (v1) envelope is unreadable like a torn file:
        its shard recomputes and is saved again as v2."""
        import pickle

        from repro.engine.shard import plan_memory_shards
        from tests.test_engine_executor import sum_shard

        logs = [make_log(response_bytes=index) for index in range(40)]
        shards = plan_memory_shards(logs, 2)
        store = CheckpointStore(tmp_path)
        stale = shards[0].shard_id
        envelope = {
            "format": "repro-engine-checkpoint",
            "version": 1,
            "shard_id": stale,
            "payload": sum_shard(shards[1]),  # v1: inline, no checksum
        }
        store.path_for(stale).write_bytes(pickle.dumps(envelope))
        with pytest.raises(CheckpointError, match="not a v2"):
            store.load(stale)

        (merged, report), counters = counted(
            run_shards, shards, sum_shard, checkpoint=store
        )
        assert counters["engine.recomputed_checkpoints"] == 1
        assert sorted(merged.values) == list(range(40))
        assert store.load(stale).trace == [stale]

    def test_saved_file_survives_a_round_trip_rename(self, tmp_path):
        """The atomic write leaves no .tmp residue behind."""
        store = CheckpointStore(tmp_path)
        store.save("shard-a", CharacterizationState())
        assert not list(Path(tmp_path).glob("*.tmp"))


class _CachingStore(CheckpointStore):
    """A store that (illegally, per the base contract) caches loaded
    objects — the sharpest possible probe for merge-base mutation."""

    def __init__(self, directory):
        super().__init__(directory)
        self.cache = {}

    def load(self, shard_id):
        if shard_id not in self.cache:
            self.cache[shard_id] = super().load(shard_id)
        return self.cache[shard_id]


class TestMergeBaseIsolation:
    def test_merge_never_mutates_checkpoint_loaded_state(self, tmp_path):
        """Regression: the merged result used to BE the first
        checkpoint-loaded state, so in-place merges leaked every other
        shard's data into whatever object the store handed out."""
        from repro.engine.shard import plan_memory_shards
        from tests.test_engine_executor import SumState, sum_shard

        logs = [make_log(response_bytes=index) for index in range(40)]
        shards = plan_memory_shards(logs, 2)
        store = _CachingStore(tmp_path / "ckpt")
        for shard in shards:
            store.save(shard.shard_id, sum_shard(shard))
        store.cache.clear()

        merged, report = run_shards(shards, sum_shard, checkpoint=store)
        assert report.skipped == 2
        assert sorted(merged.values) == list(range(40))
        # The cached first state must be untouched by the merge.
        first = store.cache[shards[0].shard_id]
        assert merged is not first
        assert sorted(first.values) == sorted(
            record.response_bytes for record in shards[0].records
        )
        assert first.trace == [shards[0].shard_id]

    def test_two_resumed_runs_agree(self, tmp_path):
        """A second resume over the same store sees pristine states."""
        from repro.engine.shard import plan_memory_shards
        from tests.test_engine_executor import sum_shard

        logs = [make_log(response_bytes=index) for index in range(40)]
        shards = plan_memory_shards(logs, 2)
        store = _CachingStore(tmp_path / "ckpt")
        for shard in shards:
            store.save(shard.shard_id, sum_shard(shard))

        first, _ = run_shards(shards, sum_shard, checkpoint=store)
        second, _ = run_shards(shards, sum_shard, checkpoint=store)
        assert sorted(first.values) == sorted(second.values) == list(range(40))
        assert first.trace == second.trace


def _marking_map_fn(marker_dir):
    """Map fn that leaves one marker file per executed shard."""

    def map_fn(shard):
        marker = Path(marker_dir) / shard.shard_id.replace("/", "__")
        marker.write_text("ran")
        return CharacterizationState().update(shard.iter_logs())

    return map_fn


def _killed_map_fn(marker_dir, die_after):
    def map_fn(shard):
        markers = list(Path(marker_dir).iterdir())
        if len(markers) >= die_after:
            raise KeyboardInterrupt("simulated mid-run kill")
        marker = Path(marker_dir) / shard.shard_id.replace("/", "__")
        marker.write_text("ran")
        return CharacterizationState().update(shard.iter_logs())

    return map_fn


class TestResume:
    def test_interrupted_run_resumes_without_recompute(
        self, partition_root, tmp_path
    ):
        """Kill mid-run, re-run same checkpoint dir, count executions."""
        checkpoint = CheckpointStore(tmp_path / "ckpt")
        shards = plan_directory_shards(partition_root)
        assert len(shards) == 6

        first_markers = tmp_path / "first"
        first_markers.mkdir()
        with pytest.raises(BaseException):
            run_shards(
                shards,
                _killed_map_fn(first_markers, die_after=3),
                backend="serial",
                checkpoint=checkpoint,
            )
        executed_first = len(list(first_markers.iterdir()))
        assert executed_first == 3
        assert len(checkpoint.completed_ids()) == 3

        second_markers = tmp_path / "second"
        second_markers.mkdir()
        state, report = run_shards(
            shards,
            _marking_map_fn(second_markers),
            backend="serial",
            checkpoint=checkpoint,
        )
        executed_second = len(list(second_markers.iterdir()))
        assert executed_second == len(shards) - executed_first
        assert report.skipped == executed_first
        assert report.executed == executed_second
        # The resumed result covers every record exactly once.
        assert state.record_count == 12

    def test_resumed_result_equals_fresh(self, partition_root, tmp_path):
        fresh = run_characterization(logs_dir=str(partition_root))
        resumable = EngineOptions(checkpoint_dir=str(tmp_path / "ckpt2"))
        # First pass populates every checkpoint...
        run_characterization(logs_dir=str(partition_root), engine=resumable)
        # ...second pass is served entirely from checkpoints.
        resumed, counters = counted(
            run_characterization,
            logs_dir=str(partition_root),
            engine=resumable,
        )
        assert (
            counters["engine.shards_from_checkpoint"]
            == counters["engine.shards_planned"]
        )
        assert resumed.summary == fresh.summary
        assert resumed.traffic_source == fresh.traffic_source
        assert resumed.cacheability == fresh.cacheability

    def test_checkpoints_of_another_state_type_are_recomputed(
        self, partition_root, tmp_path
    ):
        """A checkpoint directory written when the record stage saved a
        bare ``CharacterizationState`` (same stage name, same shard
        ids) resumes by recomputing every shard, not by merging it."""
        from repro.logs.partition import read_partitioned

        engine = EngineOptions(checkpoint_dir=str(tmp_path / "ckpt"))
        run_characterization(logs_dir=str(partition_root), engine=engine)
        store = CheckpointStore(tmp_path / "ckpt" / "characterization")
        shard_ids = store.completed_ids()
        assert len(shard_ids) == 6
        for shard_id in shard_ids:
            store.save(shard_id, store.load(shard_id).characterization)

        resumed, counters = counted(
            run_characterization, logs_dir=str(partition_root), engine=engine
        )
        assert counters["engine.recomputed_checkpoints"] == len(shard_ids)
        assert not counters.get("engine.shards_from_checkpoint")
        expected = characterization_reference(read_partitioned(partition_root))
        assert resumed.summary == expected.summary
        assert resumed.traffic_source == expected.traffic_source
        assert resumed.cacheability == expected.cacheability
        # The recomputed shards replaced the stale checkpoints.
        assert all(
            type(store.load(shard_id)).__name__ == "TrackState"
            for shard_id in shard_ids
        )

    def test_checkpointed_directory_run_matches_serial(
        self, partition_root, tmp_path
    ):
        from repro.logs.partition import read_partitioned

        records = list(read_partitioned(partition_root))
        serial = characterization_reference(records)
        parallel = run_characterization(
            logs_dir=str(partition_root),
            engine=EngineOptions(
                workers=2,
                backend="thread",
                checkpoint_dir=str(tmp_path / "ckpt3"),
            ),
        )
        assert parallel.summary == serial.summary
        assert parallel.traffic_source == serial.traffic_source
        assert parallel.request_type == serial.request_type
        assert parallel.cacheability == serial.cacheability
