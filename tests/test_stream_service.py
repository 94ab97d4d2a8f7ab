"""End-to-end tests for the stream service: emission, crash-resume,
drift, and the ``repro stream`` CLI wiring."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.core.pipeline import run_characterization, run_stream
from repro.stream import (
    JsonlEmitter,
    StreamConfig,
    StreamService,
    merge_accumulators,
    merged_characterization,
    window_id,
)
from tests.conftest import make_log

BASE_TS = 1_559_347_200.0


def minute_logs(count, start=0.0, step=2.0):
    """In-order records spanning count*step seconds from BASE_TS+start."""
    return [
        make_log(
            timestamp=BASE_TS + start + index * step,
            url=f"/api/v1/item/{index % 7}",
            client_ip_hash=f"client{index % 5:02d}00000000",
        )
        for index in range(count)
    ]


def fast_config(**overrides):
    """Window config with the per-window heavy analyses off."""
    settings = dict(
        window_s=60.0, detect_periods=False, predict_urls=False
    )
    settings.update(overrides)
    return StreamConfig(**settings)


class TestSnapshotsAndEmission:
    def test_jsonl_emission_matches_snapshots(self, tmp_path):
        out = tmp_path / "windows.jsonl"
        result = run_stream(
            minute_logs(240),
            window_s=60.0,
            detect_periods=False,
            predict_urls=False,
            emit=str(out),
        )
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == len(result.snapshots) == result.sealed_windows
        for line, snapshot in zip(lines, result.snapshots):
            assert line["window_start"] == snapshot.window_start
            assert line["records"] == snapshot.records
            assert 0.0 <= line["json_share"] <= 1.0
            assert set(line) >= {
                "window_end", "json_requests", "get_share",
                "uncacheable_share", "unique_clients", "drift",
                "late_dropped",
            }

    def test_drift_tracks_across_windows(self):
        # First window all JSON GETs, second window none: json_share
        # must show up as a drifted metric in window 2's snapshot.
        first = [
            make_log(timestamp=BASE_TS + index * 2.0)
            for index in range(30)
        ]
        second = [
            make_log(
                timestamp=BASE_TS + 60.0 + index * 2.0,
                mime_type="text/html",
                url="/page",
            )
            for index in range(30)
        ]
        result = StreamService(fast_config()).replay(first + second)
        assert result.sealed_windows == 2
        assert result.snapshots[0].drift == {}
        assert "json_share" in result.snapshots[1].drift

    def test_quiet_window_drift_covers_full_vector(self):
        # Regression: a window with no JSON traffic used to emit a
        # truncated metric vector, so quiet-window drift reports
        # silently dropped every metric except json_share.  Both
        # windows now report the same shape-stable vector and the
        # undefined size statistics surface explicitly.
        from repro.analysis.drift import METRIC_NAMES

        busy = [
            make_log(timestamp=BASE_TS + index * 2.0)
            for index in range(30)
        ]
        quiet = [
            make_log(
                timestamp=BASE_TS + 60.0 + index * 2.0,
                mime_type="text/html",
                url="/page",
            )
            for index in range(30)
        ]
        result = StreamService(fast_config()).replay(busy + quiet)
        assert result.sealed_windows == 2
        first, second = result.snapshots
        # Shape-stable vectors: every drift metric present either way.
        assert set(METRIC_NAMES) < set(first.metrics)
        assert set(first.metrics) == set(second.metrics)
        # Quiet window: shares collapse to zero, sizes are undefined.
        assert second.metrics["json_share"] == 0.0
        assert second.metrics["mean_json_bytes"] is None
        assert first.metrics["mean_json_bytes"] is not None
        # The busy→quiet transition is visible for the *full* vector:
        # shares that moved plus the disappeared size statistics.
        drift = second.drift
        assert "json_share" in drift
        assert "mean_json_bytes" in drift
        assert drift["mean_json_bytes"]["after"] is None
        # JSONL round-trip: None serializes as null, not 0.
        line = json.loads(json.dumps(second.to_dict()))
        assert line["mean_json_bytes"] is None
        assert line["p50_json_bytes"] is None

    def test_on_snapshot_callback_fires_in_order(self):
        seen = []
        service = StreamService(
            fast_config(), on_snapshot=lambda s: seen.append(s.window_start)
        )
        service.replay(minute_logs(180))
        assert seen == sorted(seen)
        assert len(seen) >= 2

    def test_window_id_is_stable_and_unique(self):
        assert window_id((0.0, 60.0)) == window_id((0.0, 60.0))
        assert window_id((0.0, 60.0)) != window_id((60.0, 120.0))


class FailAfter:
    """Source that dies mid-stream: simulates a killed process."""

    def __init__(self, records, after):
        self.records = records
        self.after = after

    def __iter__(self):
        for index, record in enumerate(self.records):
            if index >= self.after:
                raise OSError("killed")
            yield record


class TestCheckpointResume:
    def test_kill_and_resume_never_double_counts(self, tmp_path):
        records = minute_logs(300)  # ten 60s windows
        ckpt = str(tmp_path / "ckpt")

        crashed = StreamService(fast_config(checkpoint_dir=ckpt))
        with pytest.raises(RuntimeError, match="ingest source failed"):
            crashed.run([FailAfter(records, after=180)])

        resumed = StreamService(
            fast_config(checkpoint_dir=ckpt), keep_accumulators=True
        )
        assert len(resumed.resumed_windows) >= 1  # crash left durable work
        result = resumed.replay(records)

        # No window appears both as resumed and as newly sealed.
        new_bounds = {
            (s.window_start, s.window_end) for s in result.snapshots
        }
        assert new_bounds.isdisjoint(set(resumed.resumed_windows))
        assert result.resumed_skips > 0
        assert result.late_dropped == 0

        # Checkpointed windows (old + new) merge to the exact batch state.
        merged = merge_accumulators(resumed.load_sealed_accumulators())
        batch = run_characterization(records)
        report = merged_characterization(merged)
        assert report.summary == batch.summary
        assert report.cacheability == batch.cacheability

    def test_rerun_on_complete_checkpoint_seals_nothing(self, tmp_path):
        records = minute_logs(120)
        ckpt = str(tmp_path / "ckpt")
        first = StreamService(fast_config(checkpoint_dir=ckpt)).replay(records)
        assert first.sealed_windows >= 1

        second = StreamService(fast_config(checkpoint_dir=ckpt))
        result = second.replay(records)
        assert result.sealed_windows == 0
        assert result.resumed_windows == first.sealed_windows
        assert result.resumed_skips == len(records)
        assert result.snapshots == []

    def test_torn_checkpoint_recomputes_that_window(self, tmp_path):
        records = minute_logs(120)
        ckpt = str(tmp_path / "ckpt")
        StreamService(fast_config(checkpoint_dir=ckpt)).replay(records)

        store_dir = tmp_path / "ckpt" / "stream-windows"
        victim = sorted(store_dir.glob("*.ckpt"))[0]
        victim.write_bytes(b"\x00torn")

        resumed = StreamService(fast_config(checkpoint_dir=ckpt))
        result = resumed.replay(records)
        assert result.sealed_windows == 1  # exactly the torn window
        assert result.resumed_skips + result.records_windowed == len(records)

    def test_without_checkpoint_dir_nothing_persists(self):
        service = StreamService(fast_config())
        service.replay(minute_logs(120))
        assert service.store is None
        assert service.load_sealed_accumulators() == []


class TestCli:
    def test_stream_args_parse(self):
        args = build_parser().parse_args(
            ["stream", "--window", "120", "--watermark", "30",
             "--ingest-workers", "2", "--queue-policy", "drop"]
        )
        assert args.command == "stream"
        assert args.window == 120.0
        assert args.watermark == 30.0
        assert args.ingest_workers == 2
        assert args.queue_policy == "drop"

    def test_stream_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "win.jsonl"
        code = main(
            ["stream", "--requests", "800", "--window", "300",
             "--no-periods", "--no-predictions",
             "--emit", str(out), "--checkpoint-dir", str(tmp_path / "ck")]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Stream windows" in output
        assert "sealed" in output
        assert out.exists() and out.read_text().count("\n") >= 1
        assert (tmp_path / "ck" / "stream-windows").is_dir()

    def test_stream_rejects_bad_worker_count(self):
        with pytest.raises(SystemExit):
            main(["stream", "--requests", "100", "--ingest-workers", "0"])


class TestRunStreamValidation:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_stream()
        with pytest.raises(ValueError, match="exactly one"):
            run_stream(minute_logs(1), logs_dir="parts/")

    def test_iterable_goes_through_queue_when_requested(self):
        records = minute_logs(100)
        result = run_stream(
            iter(records),
            window_s=60.0,
            detect_periods=False,
            predict_urls=False,
            queue_policy="drop",
            queue_capacity=10_000,
        )
        assert result.ingest is not None  # queue path, not replay
        assert result.records_windowed == len(records)

    def test_emitter_instance_is_not_closed(self, tmp_path):
        out = tmp_path / "win.jsonl"
        emitter = JsonlEmitter(str(out))
        run_stream(
            minute_logs(100),
            window_s=60.0,
            detect_periods=False,
            predict_urls=False,
            emit=emitter,
        )
        # Caller-owned emitter stays open for the next run.
        run_stream(
            minute_logs(100),
            window_s=60.0,
            detect_periods=False,
            predict_urls=False,
            emit=emitter,
        )
        emitter.close()
        assert out.read_text().count("\n") >= 2


class TestIngestPath:
    """Every source is read on the consuming thread; only the drop
    policy puts the shedding queue and its one reader thread in
    between."""

    @pytest.fixture
    def logs_dir(self, tmp_path):
        from repro.logs.partition import write_partitioned

        records = [
            record.with_fields(edge_id=f"edge-{index % 3}")
            for index, record in enumerate(minute_logs(300))
        ]
        root = tmp_path / "parts"
        write_partitioned(records, root)
        return str(root), len(records)

    def test_one_worker_directory_replays_without_the_queue(
        self, logs_dir, monkeypatch
    ):
        import threading

        from repro.stream.ingest import IngestStage

        root, records = logs_dir
        kwargs = dict(window_s=60.0, detect_periods=False, predict_urls=False)
        stages, threads = [], []

        def recorded_stage(*args, **kwargs):
            stages.append(IngestStage(*args, **kwargs))
            return stages[-1]

        start = threading.Thread.start

        def recorded_start(thread):
            threads.append(thread)
            start(thread)

        monkeypatch.setattr("repro.stream.service.IngestStage", recorded_stage)
        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        blocked = run_stream(logs_dir=root, **kwargs)
        assert stages == [] and threads == []
        assert blocked.ingest is None
        assert blocked.records_windowed == records
        assert blocked.sealed_windows > 1

        dropped = run_stream(logs_dir=root, queue_policy="drop", **kwargs)
        assert len(stages) == len(threads) == 1
        assert dropped.ingest is stages[0].stats
        assert dropped.ingest.sources == 3
        assert dropped.ingest.dropped == 0
        assert dropped.snapshots == blocked.snapshots

    def test_block_runs_start_no_thread(self, logs_dir, tmp_path, monkeypatch):
        import threading

        root, records = logs_dir

        def no_thread(thread):
            raise AssertionError("a block-policy stream started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        result = run_stream(
            logs_dir=root, window_s=60.0, detect_periods=False,
            predict_urls=False,
        )
        assert result.records_windowed == records
        out = tmp_path / "emit.jsonl"
        assert main(
            ["stream", "--logs-dir", root, "--window", "60",
             "--no-periods", "--no-predictions", "--ingest-workers", "2",
             "--emit", str(out)]
        ) == 0
        assert out.read_text().count("\n") == result.sealed_windows

    def test_failed_source_ends_a_replay_as_on_the_queue(self):
        from repro.stream.ingest import IngestError

        records = minute_logs(120)
        errors = []
        for policy in ("block", "drop"):
            service = StreamService(fast_config(queue_policy=policy))
            with pytest.raises(IngestError) as caught:
                service.replay(FailAfter(records, after=60))
            assert isinstance(caught.value.__cause__, OSError)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "ingest source failed: OSError: killed"

    def test_emitter_failure_in_a_replay_is_not_an_ingest_failure(self):
        class FullDisk(JsonlEmitter):
            def emit(self, snapshot):
                raise OSError("no space left")

        with pytest.raises(OSError, match="no space left") as caught:
            run_stream(
                minute_logs(120),
                window_s=60.0,
                detect_periods=False,
                predict_urls=False,
                emit=FullDisk(io.StringIO()),
            )
        assert type(caught.value) is OSError

    def test_failure_while_sealing_stops_the_drop_reader(self, monkeypatch):
        import itertools
        import threading

        class FullDisk(JsonlEmitter):
            def emit(self, snapshot):
                raise OSError("no space left")

        def endless():
            for index in itertools.count():
                yield make_log(timestamp=BASE_TS + index)

        threads = []
        start = threading.Thread.start

        def recorded_start(thread):
            threads.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        # ``caught`` keeps the failed run's frames alive: the reader
        # must stop without waiting for them to be collected.
        with pytest.raises(OSError, match="no space left") as caught:
            run_stream(
                endless(),
                window_s=60.0,
                detect_periods=False,
                predict_urls=False,
                queue_policy="drop",
                queue_capacity=16,
                emit=FullDisk(io.StringIO()),
            )
        assert len(threads) == 1
        threads[0].join(timeout=5.0)
        assert not threads[0].is_alive()
        assert caught.value.__traceback__ is not None
