"""Unit tests for the deterministic fault-injection layer.

Covers the plan's decision function (stable selection, transiency,
pickling), the runtime's install/attempt scoping, and each injection
site in isolation: map faults through the executor, torn/corrupt
checkpoints, truncated gzip and malformed lines through ``logs.io``,
and ingest stalls.  The end-to-end guarantee — faulted results equal
fault-free results — lives in ``tests/test_chaos_differential.py``.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro import obs
from repro.engine import executor
from repro.engine.checkpoint import CheckpointError, CheckpointStore
from repro.engine.executor import EngineError, ShardResult, run_shards
from repro.engine.shard import plan_memory_shards
from repro.faults import FAULT_SITES, FaultPlan, FaultRule, InjectedFault, runtime
from repro.logs.io import read_jsonl, write_jsonl
from repro.obs.registry import MetricsRegistry
from tests.conftest import make_log
from tests.test_engine_executor import sum_shard


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule("map.explode")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule("map.exception", rate=1.5)
        with pytest.raises(ValueError):
            FaultRule("map.exception", times=0)
        with pytest.raises(ValueError):
            FaultRule("map.hang", param=-1.0)

    def test_all_sites_constructible(self):
        for site in FAULT_SITES:
            FaultRule(site)


class TestFaultPlan:
    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule"):
            FaultPlan(0, [FaultRule("map.hang"), FaultRule("map.hang")])

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(7, [FaultRule("map.exception", rate=0.4, times=3)])
        keys = [f"shard-{i:04d}" for i in range(200)]
        first = [plan.selects("map.exception", key) for key in keys]
        second = [plan.selects("map.exception", key) for key in keys]
        assert first == second
        assert any(first) and not all(first)  # a 0.4 rate selects some

    def test_rate_bounds(self):
        always = FaultPlan(0, [FaultRule("map.exception", rate=1.0)])
        never = FaultPlan(0, [FaultRule("map.exception", rate=0.0)])
        for i in range(50):
            assert always.selects("map.exception", f"k{i}")
            assert not never.selects("map.exception", f"k{i}")

    def test_seed_changes_the_selection(self):
        keys = [f"shard-{i:04d}" for i in range(200)]
        picks = {
            seed: tuple(
                FaultPlan(seed, [FaultRule("map.exception", rate=0.3)]).selects(
                    "map.exception", key
                )
                for key in keys
            )
            for seed in (0, 1)
        }
        assert picks[0] != picks[1]

    def test_times_bounds_the_firing_attempts(self):
        plan = FaultPlan(0, [FaultRule("map.exception", times=2)])
        assert plan.should_fire("map.exception", "shard", attempt=0)
        assert plan.should_fire("map.exception", "shard", attempt=1)
        assert plan.should_fire("map.exception", "shard", attempt=2) is None

    def test_match_filters_keys(self):
        plan = FaultPlan(0, [FaultRule("map.exception", match="edge-2")])
        assert plan.should_fire("map.exception", "edge-2/h00") is not None
        assert plan.should_fire("map.exception", "edge-1/h00") is None

    def test_unruled_site_never_fires(self):
        plan = FaultPlan(0, [FaultRule("map.hang", param=0.01)])
        assert plan.should_fire("map.exception", "anything") is None

    def test_fired_counters(self):
        plan = FaultPlan(0, [FaultRule("map.exception")])
        assert plan.fired() == {}
        plan.should_fire("map.exception", "a")
        plan.should_fire("map.exception", "b")
        assert plan.fired() == {"map.exception": 2}

    def test_pickle_round_trip_preserves_decisions(self):
        plan = FaultPlan(11, [FaultRule("map.exception", rate=0.5, times=2)])
        clone = pickle.loads(pickle.dumps(plan))
        keys = [f"shard-{i}" for i in range(100)]
        assert [clone.selects("map.exception", k) for k in keys] == [
            plan.selects("map.exception", k) for k in keys
        ]

    def test_corrupt_line_breaks_json(self):
        import json

        plan = FaultPlan(0, [FaultRule("io.malformed_line")])
        line = b'{"timestamp": 1.0, "url": "/api/v1"}\n'
        damaged = plan.corrupt_line("file:1", line)
        assert damaged != line
        with pytest.raises(json.JSONDecodeError):
            json.loads(damaged)


class TestRuntime:
    def test_no_plan_installed_by_default(self):
        assert runtime.active() is None
        assert runtime.should_fire("map.exception", "k") is None
        assert runtime.current_attempt() == 0

    def test_installed_scopes_the_plan(self):
        plan = FaultPlan(0, [FaultRule("map.exception")])
        with runtime.installed(plan):
            assert runtime.active() is plan
            assert runtime.should_fire("map.exception", "k") is not None
        assert runtime.active() is None

    def test_installed_none_is_a_noop(self):
        with runtime.installed(None):
            assert runtime.active() is None

    def test_installed_is_reentrant(self):
        outer = FaultPlan(0, [FaultRule("map.exception")])
        inner = FaultPlan(1, [FaultRule("map.hang", param=0.0)])
        with runtime.installed(outer):
            with runtime.installed(inner):
                assert runtime.active() is inner
            assert runtime.active() is outer

    def test_attempt_context_is_consulted(self):
        plan = FaultPlan(0, [FaultRule("map.exception", times=1)])
        with runtime.installed(plan):
            assert runtime.should_fire("map.exception", "k") is not None
            with runtime.attempt(1):
                assert runtime.current_attempt() == 1
                assert runtime.should_fire("map.exception", "k") is None
            assert runtime.current_attempt() == 0

    def test_plan_restored_on_exception(self):
        plan = FaultPlan(0, [FaultRule("map.exception")])
        with pytest.raises(RuntimeError):
            with runtime.installed(plan):
                raise RuntimeError("boom")
        assert runtime.active() is None


class TestIoFaults:
    @pytest.fixture
    def jsonl_gz(self, tmp_path):
        path = tmp_path / "logs.jsonl.gz"
        records = [
            make_log(timestamp=1_559_347_200.0 + i, url=f"/api/{i}")
            for i in range(20)
        ]
        write_jsonl(records, path)
        return path

    def test_truncated_gzip_raises_eof(self, jsonl_gz):
        plan = FaultPlan(
            0, [FaultRule("io.truncated_gzip", times=1, param=5)]
        )
        with runtime.installed(plan):
            with pytest.raises(EOFError, match="injected truncation"):
                list(read_jsonl(jsonl_gz))

    def test_truncated_gzip_clears_on_retry_attempt(self, jsonl_gz):
        plan = FaultPlan(
            0, [FaultRule("io.truncated_gzip", times=1, param=5)]
        )
        with runtime.installed(plan), runtime.attempt(1):
            assert len(list(read_jsonl(jsonl_gz))) == 20

    def test_malformed_line_skipped_and_counted(self, jsonl_gz):
        # match=":7" selects exactly line 7, regardless of tmp_path.
        plan = FaultPlan(0, [FaultRule("io.malformed_line", match=":7")])
        registry = MetricsRegistry()
        with runtime.installed(plan), obs.installed(registry):
            records = list(read_jsonl(jsonl_gz, on_error="skip"))
        counters = registry.snapshot()["counters"]
        assert counters["io.lines_skipped"] == 1
        assert len(records) == 19
        assert counters["io.lines_parsed"] == 19

    def test_malformed_line_raises_when_strict(self, jsonl_gz):
        plan = FaultPlan(0, [FaultRule("io.malformed_line", match=":7")])
        with runtime.installed(plan):
            with pytest.raises(ValueError, match="malformed JSONL record"):
                list(read_jsonl(jsonl_gz))

    def test_no_plan_reads_are_clean(self, jsonl_gz):
        registry = MetricsRegistry()
        with obs.installed(registry):
            assert len(list(read_jsonl(jsonl_gz))) == 20
        counters = registry.snapshot()["counters"]
        assert counters["io.lines_parsed"] == 20
        assert counters["io.lines_skipped"] == 0


class TestExecutorFaults:
    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(executor, "BACKOFF_S", 0.0)

    @pytest.fixture
    def shards(self):
        logs = [
            make_log(client_ip_hash=f"cl-{index % 17:02x}", response_bytes=index)
            for index in range(200)
        ]
        return plan_memory_shards(logs, 4)

    @pytest.mark.parametrize(
        "backend,workers", [("serial", 1), ("thread", 3), ("process", 2)]
    )
    def test_transient_exception_is_retried(self, shards, backend, workers):
        plan = FaultPlan(
            0, [FaultRule("map.exception", times=1, match="0002-of-0004")]
        )
        state, report = run_shards(
            shards,
            sum_shard,
            workers=workers,
            backend=backend,
            retries=1,
            faults=plan,
        )
        assert sorted(state.values) == list(range(200))
        assert not report.failed
        assert report.retries == 1
        retried = {r.shard_id: r.attempts for r in report.results}
        assert max(retried.values()) == 2

    def test_exhausted_retries_fail_the_shard(self, shards):
        plan = FaultPlan(
            0, [FaultRule("map.exception", times=5, match="0002-of-0004")]
        )
        registry = obs.MetricsRegistry()
        with obs.installed(registry), pytest.raises(EngineError) as excinfo:
            run_shards(
                shards, sum_shard, backend="serial", retries=2, faults=plan
            )
        (failure,) = excinfo.value.failures
        assert failure.shard_id.endswith("0002-of-0004")
        assert failure.attempts == 3
        counters = registry.snapshot()["counters"]
        assert counters["engine.shard_retries"] == 2
        # The other three shards still ran before the raise.
        assert counters["engine.shards_completed"] == 3

    def test_strict_run_raises_the_injected_fault(self, shards):
        plan = FaultPlan(0, [FaultRule("map.exception", match="0002-of-0004")])
        with pytest.raises(EngineError) as excinfo:
            run_shards(shards, sum_shard, backend="serial", faults=plan)
        assert "InjectedFault" in str(excinfo.value)

    def test_hang_is_abandoned_by_the_timeout_and_retried(self, shards):
        plan = FaultPlan(
            0,
            [FaultRule("map.hang", times=1, param=5.0, match="0002-of-0004")],
        )
        started = time.perf_counter()
        state, report = run_shards(
            shards,
            sum_shard,
            workers=3,
            backend="thread",
            timeout_s=0.2,
            retries=1,
            faults=plan,
        )
        assert time.perf_counter() - started < 4.0  # never waited out the hang
        assert sorted(state.values) == list(range(200))
        assert not report.failed
        assert report.retries >= 1

    def test_worker_death_rebuilds_the_process_pool(self, shards):
        plan = FaultPlan(
            0,
            [FaultRule("map.worker_death", times=1, match="0002-of-0004")],
        )
        state, report = run_shards(
            shards,
            sum_shard,
            workers=2,
            backend="process",
            retries=1,
            faults=plan,
        )
        assert sorted(state.values) == list(range(200))
        assert not report.failed
        assert report.retries >= 1

    def test_worker_death_degrades_to_a_raise_off_process(self, shards):
        plan = FaultPlan(
            0,
            [FaultRule("map.worker_death", times=1, match="0002-of-0004")],
        )
        state, report = run_shards(
            shards,
            sum_shard,
            backend="serial",
            retries=1,
            faults=plan,
        )
        assert sorted(state.values) == list(range(200))
        assert report.retries == 1

    def test_fired_counters_observable_after_the_run(self, shards):
        plan = FaultPlan(
            0, [FaultRule("map.exception", times=1, match="0002-of-0004")]
        )
        run_shards(
            shards,
            sum_shard,
            backend="serial",
            retries=1,
            faults=plan,
        )
        assert plan.fired()["map.exception"] == 1


class TestEngineErrorRendering:
    @staticmethod
    def _failure(index, error):
        return ShardResult(shard_id=f"shard-{index:04d}", ok=False, error=error)

    def test_exception_line_rendered_whole(self):
        error = (
            "Traceback (most recent call last):\n"
            '  File "x.py", line 1, in map_fn\n'
            "RuntimeError: boom in shard 2\n"
        )
        message = str(EngineError([self._failure(2, error)]))
        # Regression: the old code indexed the line (first_line[-1])
        # and rendered a single character.
        assert "RuntimeError: boom in shard 2" in message
        assert "Traceback" not in message

    def test_listing_is_capped(self):
        failures = [
            self._failure(i, f"ValueError: bad {i}\n") for i in range(20)
        ]
        message = str(EngineError(failures))
        assert message.splitlines()[0] == "20 shard(s) failed:"
        assert "shard-0007" in message
        assert "shard-0008" not in message
        assert "... and 12 more (see EngineError.failures)" in message

    def test_synthetic_single_line_errors_render(self):
        error = EngineError(
            [self._failure(0, "TimeoutError: shard exceeded 5s deadline")]
        )
        assert "TimeoutError: shard exceeded 5s deadline" in str(error)
        assert len(error.failures) == 1


class TestCheckpointFaults:
    @pytest.fixture
    def shards(self):
        logs = [make_log(response_bytes=index) for index in range(40)]
        return plan_memory_shards(logs, 2)

    def test_torn_checkpoint_fails_to_load(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        plan = FaultPlan(0, [FaultRule("checkpoint.torn")])
        with runtime.installed(plan):
            store.save("shard-a", {"value": 1})
        assert store.has("shard-a")
        with pytest.raises(CheckpointError):
            store.load("shard-a")

    def test_corrupt_checkpoint_fails_the_checksum(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        plan = FaultPlan(0, [FaultRule("checkpoint.corrupt")])
        with runtime.installed(plan):
            store.save("shard-a", {"value": 1})
        with pytest.raises(CheckpointError, match="checksum"):
            store.load("shard-a")

    def test_executor_recomputes_unreadable_checkpoints(self, shards, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        plan = FaultPlan(0, [FaultRule("checkpoint.torn", match="0000")])
        # Run 1 writes one torn checkpoint; its in-memory state is fine.
        first, report1 = run_shards(
            shards, sum_shard, checkpoint=store, faults=plan
        )
        assert not report1.failed
        # Run 2 (no faults) must recompute the torn shard, not crash.
        second, report2 = run_shards(shards, sum_shard, checkpoint=store)
        assert sorted(second.values) == sorted(first.values)
        assert report2.recomputed_checkpoints == 1
        assert report2.skipped == 1  # the healthy checkpoint still served
        # The recompute re-saved a good checkpoint: run 3 skips both.
        _, report3 = run_shards(shards, sum_shard, checkpoint=store)
        assert report3.skipped == 2
        assert report3.recomputed_checkpoints == 0


class TestIngestStall:
    def test_stall_delays_but_loses_nothing(self):
        from repro.stream import StreamConfig, StreamService

        records = [
            make_log(timestamp=1_559_347_200.0 + i) for i in range(30)
        ]
        for policy in ("block", "drop"):
            plan = FaultPlan(
                0, [FaultRule("ingest.stall", rate=1.0, param=0.05)]
            )
            registry = MetricsRegistry()
            config = StreamConfig(
                window_s=10.0, detect_periods=False, predict_urls=False,
                queue_policy=policy,
            )
            with runtime.installed(plan), obs.installed(registry):
                result = StreamService(config).run([iter(records)])
            assert result.records_windowed == 30
            assert plan.fired()["ingest.stall"] == 1
            assert registry.snapshot()["counters"]["ingest.stalls"] == 1
