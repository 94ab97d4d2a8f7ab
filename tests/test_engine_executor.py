"""Tests for repro.engine.executor — backends, determinism, errors.

Map functions used with the process backend must be module-level so
they pickle.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.pipeline import run_characterization
from repro.engine import EngineOptions
from repro.engine.executor import EngineError, run_shards
from repro.engine.shard import MemoryShard, plan_memory_shards
from repro.engine.state import CharacterizationState
from repro.faults import FaultPlan, FaultRule
from repro.obs.registry import MetricsRegistry
from tests.conftest import make_log
from tests.reference import characterization_reference


class SumState:
    """Minimal mergeable state: records the merge order."""

    def __init__(self, values=(), trace=()):
        self.values = list(values)
        self.trace = list(trace)

    def merge(self, other):
        self.values.extend(other.values)
        self.trace.extend(other.trace)
        return self


def sum_shard(shard):
    records = list(shard.iter_logs())
    return SumState(
        [record.response_bytes for record in records], [shard.shard_id]
    )


def failing_shard(shard):
    if shard.shard_id.endswith("0002-of-0004"):
        raise RuntimeError("boom in shard 2")
    return sum_shard(shard)


def reverse_finishing_shard(shard):
    """Sleep longest on the first shard, so shards finish in reverse
    plan order on a pool with one worker per shard."""
    index, _, count = shard.shard_id.partition("-")[2].partition("-of-")
    time.sleep(0.05 * (int(count) - int(index)))
    return sum_shard(shard)


def slow_second_shard(shard):
    if shard.shard_id.endswith("0002-of-0004"):
        time.sleep(0.2)
    return sum_shard(shard)


def characterize_shard(shard):
    return CharacterizationState().update(shard.iter_logs())


@pytest.fixture
def shards():
    logs = [
        make_log(client_ip_hash=f"cl-{index % 17:02x}", response_bytes=index)
        for index in range(200)
    ]
    return plan_memory_shards(logs, 4)


class TestBackends:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1),
        ("thread", 3),
        ("process", 2),
    ])
    def test_all_backends_agree(self, shards, backend, workers):
        state, report = run_shards(
            shards, sum_shard, workers=workers, backend=backend
        )
        assert sorted(state.values) == list(range(200))
        assert report.backend == backend
        assert report.total_shards == 4
        assert not report.failed

    def test_merge_order_is_plan_order(self, shards):
        serial_state, _ = run_shards(shards, sum_shard, backend="serial")
        thread_state, _ = run_shards(
            shards, sum_shard, workers=4, backend="thread"
        )
        assert serial_state.trace == [shard.shard_id for shard in shards]
        assert thread_state.trace == serial_state.trace
        assert thread_state.values == serial_state.values

    def test_auto_backend_selection(self):
        assert run_shards([], sum_shard, workers=1)[1].backend == "serial"
        assert run_shards([], sum_shard, workers=4)[1].backend == "process"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            run_shards([], sum_shard, backend="gpu")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            run_shards([], sum_shard, workers=0)

    def test_empty_plan(self):
        state, report = run_shards([], sum_shard)
        assert state is None
        assert report.total_shards == 0

    def test_duplicate_shard_ids_rejected(self):
        twins = [MemoryShard(shard_id="dup"), MemoryShard(shard_id="dup")]
        with pytest.raises(ValueError, match="duplicate"):
            run_shards(twins, sum_shard)


class TestErrorCapture:
    def test_strict_raises_after_all_shards(self, shards):
        with pytest.raises(EngineError) as excinfo:
            run_shards(shards, failing_shard, backend="serial")
        assert "0002-of-0004" in str(excinfo.value)
        assert len(excinfo.value.failures) == 1

    def test_process_backend_captures_errors(self, shards):
        registry = MetricsRegistry()
        with obs.installed(registry), pytest.raises(EngineError) as excinfo:
            run_shards(shards, failing_shard, workers=2, backend="process")
        (failure,) = excinfo.value.failures
        assert "boom in shard 2" in failure.error
        # The healthy shards still ran to completion before the raise.
        counters = registry.snapshot()["counters"]
        assert counters["engine.shards_completed"] == 3
        assert counters["engine.shards_failed"] == 1


class TestUnpicklableMapFn:
    """The process backend must reject unpicklable map functions up
    front with one actionable error, not fail every shard with a
    cryptic ``PicklingError`` traceback."""

    def test_lambda_map_fn_fails_fast(self, shards):
        with pytest.raises(ValueError) as excinfo:
            run_shards(shards, lambda shard: None, workers=2, backend="process")
        message = str(excinfo.value)
        assert "picklable map function" in message
        assert "module top level" in message
        assert "thread/serial" in message

    def test_partial_with_unpicklable_binding_fails_fast(self, shards):
        from functools import partial

        def map_with_callback(shard, callback=None):
            return sum_shard(shard)

        bound = partial(map_with_callback, callback=lambda result: None)
        with pytest.raises(ValueError, match="picklable map function"):
            run_shards(shards, bound, workers=2, backend="process")

    def test_failure_precedes_any_shard_work(self, shards):
        """No shard runs — the preflight rejects the whole run."""
        registry = MetricsRegistry()
        with obs.installed(registry), pytest.raises(ValueError):
            run_shards(
                shards, lambda shard: None, workers=2, backend="process"
            )
        assert registry.snapshot()["counters"] == {}

    def test_lambda_map_fn_fine_on_thread_backend(self, shards):
        state, report = run_shards(
            shards,
            lambda shard: sum_shard(shard),
            workers=2,
            backend="thread",
        )
        assert sorted(state.values) == list(range(200))
        assert not report.failed


class TestProgress:
    """What a finished run reports for each shard."""

    def test_report_statistics(self, shards):
        _, report = run_shards(shards, sum_shard, backend="serial")
        assert report.elapsed_seconds > 0
        assert report.skipped == 0
        assert report.executed == 4
        assert all(result.seconds >= 0 for result in report.results)


class TestPoolShutdown:
    """A pooled run waits for its pool; a pool that holds an abandoned
    attempt is replaced and never waited for."""

    @pytest.fixture
    def shutdowns(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        calls = []
        original = ThreadPoolExecutor.shutdown

        def recording(pool, wait=True, *, cancel_futures=False):
            calls.append({"wait": wait, "cancel_futures": cancel_futures})
            return original(pool, wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", recording)
        return calls

    def test_completed_run_waits_for_the_pool(self, shards, shutdowns):
        run_shards(shards, sum_shard, workers=2, backend="thread")
        assert shutdowns == [{"wait": True, "cancel_futures": True}]

    def test_abandoned_attempt_does_not_block_the_run(self, shards, shutdowns):
        # Every shard's first attempt hangs on the first pool; the
        # retries run on its replacement while the hung threads sleep.
        plan = FaultPlan(0, [FaultRule("map.hang", rate=1.0, param=1.0)])
        started = time.perf_counter()
        _, report = run_shards(
            shards, sum_shard, workers=len(shards), backend="thread",
            timeout_s=0.1, retries=1, faults=plan,
        )
        assert time.perf_counter() - started < 0.8  # never waited a hang out
        assert report.retries == len(shards)
        assert shutdowns == [
            {"wait": False, "cancel_futures": False},
            {"wait": True, "cancel_futures": True},
        ]

    def test_replaced_pool_still_runs_its_pending_attempts(
        self, shards, monkeypatch
    ):
        # Shard 0003's attempt goes to the pool that shard 0001 hangs on and
        # is held unstarted until that pool is shut down: the window in
        # which an idle worker has not yet taken it.  Replacing the
        # pool must not cancel it: a cancelled future is never
        # returned by ``wait``, and the run would never end.
        import concurrent.futures
        import threading

        class HoldingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.held = []

            def submit(self, fn, shard, attempt):
                if not shard.shard_id.endswith("0003-of-0004") or attempt:
                    return super().submit(fn, shard, attempt)
                future = concurrent.futures.Future()
                self.held.append((future, fn, shard, attempt))
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                for future, fn, *args in self.held:
                    if cancel_futures:
                        future.cancel()
                    else:
                        threading.Thread(
                            target=self._start, args=(future, fn, args)
                        ).start()
                self.held = []
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

            @staticmethod
            def _start(future, fn, args):
                if future.set_running_or_notify_cancel():
                    future.set_result(fn(*args))

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", HoldingPool)
        plan = FaultPlan(
            0, [FaultRule("map.hang", match="0001-of-0004", param=1.0)]
        )
        outcome = {}

        def run():
            outcome["report"] = run_shards(
                shards, slow_second_shard, workers=2, backend="thread",
                timeout_s=0.5, retries=1, faults=plan,
            )[1]

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive(), "run never ended"
        report = outcome["report"]
        assert all(result.ok for result in report.results)
        assert report.results[1].attempts == 2

    def test_hung_process_attempt_does_not_outlive_the_run(self):
        # An abandoned attempt sleeps 10 s in a retired pool's worker;
        # the interpreter must not wait for it at exit.
        script = (
            "from repro.engine.executor import run_shards\n"
            "from repro.engine.shard import plan_memory_shards\n"
            "from repro.faults import FaultPlan, FaultRule\n"
            "from tests.conftest import make_log\n"
            "from tests.test_engine_executor import sum_shard\n"
            "logs = [make_log(client_ip_hash=f'c{i}') for i in range(20)]\n"
            "plan = FaultPlan(0, [FaultRule('map.hang', times=1, param=10)])\n"
            "_, report = run_shards(\n"
            "    plan_memory_shards(logs, 2), sum_shard, workers=2,\n"
            "    backend='process', timeout_s=0.3, retries=1, faults=plan)\n"
            "assert all(result.ok for result in report.results)\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 0, result.stderr
        assert time.perf_counter() - started < 5.0


class TestAttemptLoop:
    """One loop runs every backend's attempts: the deadline covers an
    attempt's own run, and states merge in plan order."""

    def test_queue_time_is_not_charged_to_the_deadline(self, shards):
        # Two workers, four shards whose first attempt hangs: the
        # second pair waits for a slot and the retries back off, and
        # neither wait counts against an attempt's 0.1 s deadline.
        plan = FaultPlan(0, [FaultRule("map.hang", rate=1.0, param=0.5)])
        _, report = run_shards(
            shards, sum_shard, workers=2, backend="thread",
            timeout_s=0.1, retries=1, faults=plan,
        )
        assert [(r.ok, r.attempts) for r in report.results] == [(True, 2)] * 4

    def test_backoff_is_not_charged_to_the_deadline(self, shards):
        # Attempt 3 backs off 0.2 s, twice the shard timeout.
        plan = FaultPlan(
            0, [FaultRule("map.exception", times=3, match="0001-of-0004")]
        )
        _, report = run_shards(
            shards, sum_shard, workers=2, backend="thread",
            timeout_s=0.1, retries=3, faults=plan,
        )
        assert [r.attempts for r in report.results] == [1, 4, 1, 1]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_merge_is_plan_order_whatever_finishes_first(self, shards, backend):
        plan = FaultPlan(
            0, [FaultRule("map.exception", times=1, match="0002-of-0004")]
        )
        state, report = run_shards(
            shards, reverse_finishing_shard, workers=len(shards),
            backend=backend, retries=1, faults=plan,
        )
        assert state.trace == [shard.shard_id for shard in shards]
        serial, _ = run_shards(shards, sum_shard, backend="serial")
        assert state.values == serial.values
        assert report.retries == 1


class TestParallelEqualsSerial:
    """The tentpole acceptance: engine result == serial pipeline."""

    def test_characterization_identical_across_backends(self, short_dataset):
        categories = {
            d.name: d.category.value for d in short_dataset.domains
        }
        serial = characterization_reference(short_dataset.logs, categories)
        parallel = run_characterization(
            short_dataset.logs,
            categories,
            engine=EngineOptions(workers=4, backend="process"),
        )
        assert parallel.traffic_source == serial.traffic_source
        assert parallel.request_type == serial.request_type
        assert parallel.cacheability == serial.cacheability
        assert parallel.summary == serial.summary
        assert parallel.heatmap == serial.heatmap
        assert parallel.apps == serial.apps
        for content_type, dist in serial.sizes.items():
            assert sorted(parallel.sizes[content_type].sizes) == sorted(dist.sizes)

    def test_shard_count_does_not_matter(self, short_dataset):
        sample = short_dataset.logs[:4000]
        reports = [
            run_characterization(sample, engine=EngineOptions(num_shards=n))
            for n in (1, 3, 16)
        ]
        for report in reports[1:]:
            assert report.traffic_source == reports[0].traffic_source
            assert report.summary == reports[0].summary

    def test_serial_plan_is_one_shard_unless_checkpointing(self, tmp_path):
        """One worker without checkpoints folds one shard; with a
        checkpoint directory the plan (and its shard ids) stays the
        ``4 × workers`` client-hash split."""
        assert EngineOptions().shard_count == 1
        assert EngineOptions(num_shards=3).shard_count == 3
        assert EngineOptions(workers=2).shard_count == 8
        logs = [make_log(client_ip_hash=f"c{i}") for i in range(10)]
        (shard,) = EngineOptions().plan_records(logs, None)
        assert shard.shard_id == "mem-0000-of-0001"
        assert list(shard.iter_logs()) == logs
        checkpointed = EngineOptions(checkpoint_dir=str(tmp_path))
        shards = checkpointed.plan_records(logs, None)
        assert [s.shard_id for s in shards] == [
            f"mem-{i:04d}-of-0004" for i in range(4)
        ]

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            run_characterization()
        with pytest.raises(ValueError):
            run_characterization([], logs_dir="/tmp/x")

    def test_with_stats(self, short_dataset):
        # Run statistics are the ambient registry's engine counters.
        sample = short_dataset.logs[:2000]
        registry = MetricsRegistry()
        with obs.installed(registry):
            report = run_characterization(
                sample, engine=EngineOptions(workers=2, backend="thread")
            )
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["engine.shard_records"]["total"] == len(sample)
        assert snapshot["counters"]["engine.shards_planned"] == 8  # workers * 4
        assert report.summary.total_logs == len(sample)
