"""The live pass: open-loop JSONL into ``stream --stdin --emit -``.

Emit latency of a window is measured from when its *trigger record* —
the first record whose event time carries the watermark past the
window's end (``timestamp - watermark >= window_end``) — was due to be
sent, to when that window's snapshot line reached the benchmark.
Windows sealed only by end of input have no trigger and are excluded.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from procs import BENCH, Timed, cli_argv, reap, spawn, wait_until_reading
from workloads import Workload

#: Seconds between the service being ready and the first due time.
START_SLACK_S = 0.05
#: How long a service may take to start reading its stdin.
READY_TIMEOUT_S = 60.0

_SUMMARY = re.compile(
    r"sealed (\d+) windows.*?; ([\d,]+) records windowed, (\d+) "
    r"late-dropped, (\d+) resumed-skips"
)


def parse_summary(text: str) -> Optional[Dict[str, int]]:
    """The ``stream`` command's closing counts, or None if absent."""
    match = _SUMMARY.search(text)
    if match is None:
        return None
    sealed, windowed, late, resumed = match.groups()
    return {"sealed": int(sealed), "windowed": int(windowed.replace(",", "")),
            "late": int(late), "resumed": int(resumed)}


def trigger_latencies(
    timestamps: Sequence[float],
    due: Sequence[float],
    arrivals: Sequence[Tuple[float, float]],
    watermark_s: float,
) -> List[float]:
    """Seconds from each window's trigger-record due time to arrival.

    ``timestamps``/``due`` are the records' event times and absolute
    due times in send (event-time) order; ``arrivals`` holds
    ``(window_end, arrival_time)`` per snapshot line.  The watermark
    after record ``i`` is ``timestamps[i] - watermark_s`` — the same
    expression the service evaluates — so the trigger is the first
    record where that reaches ``window_end``.
    """
    keys = [ts - watermark_s for ts in timestamps]
    latencies = []
    for window_end, arrived in arrivals:
        index = bisect_left(keys, window_end)
        if index < len(keys):
            latencies.append(arrived - due[index])
    return latencies


@dataclass
class LivePass:
    service: Timed
    generator: Timed
    ready: bool
    latencies_s: List[float] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)
    window_records: Dict[str, int] = field(default_factory=dict)
    summary: Optional[Dict[str, int]] = None


def live_pass(workload: Workload, data: Path, run_dir: Path,
              schedule: Dict[str, List[float]]) -> LivePass:
    """Run one live pass over ``data``'s schedule; outputs go to the
    empty directory ``run_dir``."""
    argv = cli_argv(["stream", "--stdin", "--emit", "-",
                     *workload.stream_args(),
                     "--checkpoint-dir", str(run_dir / "checkpoints")])
    lateness_path = run_dir / "lateness.json"
    with open(run_dir / "service.err", "wb") as service_err, \
            open(run_dir / "generator.err", "wb") as generator_err:
        started = time.perf_counter()
        service = spawn(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        stderr=service_err)
        ready = wait_until_reading(service, READY_TIMEOUT_S)
        t0 = time.monotonic() + START_SLACK_S
        generator = spawn(
            [sys.executable, str(BENCH / "livegen.py"),
             str(data / "schedule.json"), str(data / "live.jsonl"),
             repr(t0), str(lateness_path)],
            stdin=subprocess.DEVNULL, stdout=service.proc.stdin,
            stderr=generator_err,
        )
        # The generator now holds the only writer: its exit is the EOF.
        service.proc.stdin.close()

        arrivals: List[Tuple[float, float]] = []
        window_records: Dict[str, int] = {}
        tail: List[bytes] = []
        for line in service.proc.stdout:
            arrived = time.monotonic()
            if line.startswith(b"{"):
                snapshot = json.loads(line)
                arrivals.append((snapshot["window_end"], arrived))
                window_records[repr(snapshot["window_end"])] = (
                    snapshot["records"]
                )
            else:
                tail.append(line)
        service.proc.stdout.close()
        service_timed = reap(service)
        service_timed.seconds = time.perf_counter() - started
        generator_timed = reap(generator)

    due = [t0 + offset for offset in schedule["due"]]
    result = LivePass(
        service=service_timed,
        generator=generator_timed,
        ready=ready,
        latencies_s=trigger_latencies(
            schedule["timestamps"], due, arrivals, workload.watermark_s
        ),
        window_records=window_records,
        summary=parse_summary(b"".join(tail).decode("utf-8", "replace")),
    )
    if lateness_path.exists():
        result.lateness_s = json.loads(lateness_path.read_text())
    return result
