"""Fast checks of the benchmark's own logic (not part of tier-1).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compare import compare
from live import parse_summary, trigger_latencies
from metrics import END_TO_END, PER_LAYER, percentile
from procs import BENCH, ROOT
from workloads import WORKLOADS


def test_trigger_latency_toy_schedule():
    # One record per event second, sent 10 ms apart; 10 s windows,
    # 2 s watermark: window [0, 10) seals on the record at t=12.
    timestamps = [float(t) for t in range(25)]
    due = [100.0 + 0.01 * t for t in range(25)]
    arrivals = [(10.0, 100.125), (20.0, 100.222), (30.0, 100.5)]
    latencies = trigger_latencies(timestamps, due, arrivals, watermark_s=2.0)
    # Window 30 has no record at t >= 32: sealed by end of input, so
    # it is excluded.
    assert latencies == pytest.approx([0.005, 0.002])


def test_trigger_is_first_record_reaching_the_window_end():
    # The watermark reaches 10.0 exactly at t=12.0 (12 - 2 >= 10), and
    # a burst of equal timestamps triggers on its first record.
    timestamps = [11.5, 12.0, 12.0, 13.0]
    due = [1.0, 2.0, 3.0, 4.0]
    assert trigger_latencies(timestamps, due, [(10.0, 2.5)], 2.0) == [0.5]


def test_percentile_interpolates_like_numpy():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 95) == 5.0
    assert percentile(list(range(101)), 95) == 95.0
    assert percentile([], 50) == 0.0


def test_parse_summary_reads_the_stream_closing_line():
    text = ("table\n\nsealed 287 windows (+1 resumed from checkpoint); "
            "13,125 records windowed, 0 late-dropped, 46 resumed-skips\n")
    assert parse_summary(text) == {"sealed": 287, "windowed": 13125,
                                   "late": 0, "resumed": 46}
    assert parse_summary("no summary") is None


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _record(path: Path, metrics: dict) -> str:
    path.write_text(json.dumps({
        "context": {"workload": "char_wide", "seed": 1, "trace": 0,
                    "params": {}, "commit": None},
        "metrics": metrics, "correct": True, "failed": 0, "attempted": 1,
    }))
    return str(path)


def test_compare_flags_only_moves_past_the_bound(tmp_path, capsys):
    base = _record(tmp_path / "a.json", {"job_s": 1.0, "throughput_rec_s": 100.0})
    same = _record(tmp_path / "b.json", {"job_s": 1.01, "throughput_rec_s": 99.0})
    worse = _record(tmp_path / "c.json", {"job_s": 2.0, "throughput_rec_s": 50.0})
    assert compare(base, same) == 0
    assert compare(base, worse) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_livegen_sends_every_line_and_records_lateness(tmp_path):
    lines = [b'{"n": %d}\n' % i for i in range(5)]
    (tmp_path / "live.jsonl").write_bytes(b"".join(lines))
    (tmp_path / "schedule.json").write_text(json.dumps(
        {"timestamps": [0, 1, 2, 3, 4], "due": [0, 0.01, 0.02, 0.03, 0.04]}
    ))
    t0 = time.monotonic() + 0.05
    result = subprocess.run(
        [sys.executable, str(BENCH / "livegen.py"),
         str(tmp_path / "schedule.json"), str(tmp_path / "live.jsonl"),
         repr(t0), str(tmp_path / "late.json")],
        capture_output=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"".join(lines)
    lateness = json.loads((tmp_path / "late.json").read_text())
    assert len(lateness) == 5 and all(0 <= late < 1.0 for late in lateness)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "char_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_stage_self_time_attributes_map_spans_to_their_stage():
    sys.path.insert(0, str(ROOT / "src"))
    from layers import stage_self_times

    spans = [
        {"name": "engine.map_shard", "seconds": 0.4},
        {"name": "engine.map_shard", "seconds": 0.4},
        {"name": "pipeline.periodicity-flows", "seconds": 0.5},
        {"name": "engine.map_shard", "seconds": 0.2},
        {"name": "pipeline.periodicity-detect", "seconds": 0.3},
    ]
    stages = stage_self_times(spans, workers=2)
    assert stages["periodicity-flows"] == pytest.approx(0.1)
    assert stages["periodicity-detect"] == pytest.approx(0.2)
    assert stages["characterization"] == 0.0


def test_per_reference_cancels_a_uniform_slow_down():
    from procs import Timed
    from run import per_reference

    def timings(*seconds):
        return [Timed(value, 0.0, 0) for value in seconds]

    jobs, refs = timings(2.0, 2.2, 2.1), timings(0.5, 0.55, 0.5)
    slow_jobs, slow_refs = timings(3.0, 3.3, 3.15), timings(0.75, 0.825, 0.75)
    assert per_reference(jobs, refs) == pytest.approx(2.1)
    assert per_reference(slow_jobs, slow_refs) == pytest.approx(2.1)
