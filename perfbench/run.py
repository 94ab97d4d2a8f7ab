"""The repository benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload char_wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload stream_day --seed 1 --seconds 40 \\
        --trace 1 --out result.json
    python3 perfbench/run.py --compare base.json new.json

A run builds the workload's dataset from ``--seed`` (several times:
``setup_s`` is their median), then measures for ``--seconds``:

* ``--trace 0``: pairs of the batch job at 2 and 1 workers, every
  command a fresh CLI process with fresh output paths, each after a
  run of the fixed ``reference.py``; reports the
  end-to-end metrics, medians over the pairs.  Timings are stated per
  reference run (``per_reference``), so a host's drifting speed
  cancels; the raw wall times are in the ``--out`` record.
* ``--trace 1``: ``stream``, ``characterize`` and ``patterns`` with
  ``--metrics``/``--trace`` on the workload's data, the per-layer
  timings of ``perfbench/layers.py`` on the same data, one live pass
  (``live.py``) and the batch job untraced and traced; reports the
  per-layer metrics.

Every run checks its outputs (see ``Gates``): a failed check fails all
of the run's operations and makes the exit status 1.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric with
its unit.  ``--out FILE`` also writes the full record: run context,
every metric, raw samples and gate outcomes.  Everything the run
writes lives under ``.perfbench_work/`` in the repository root and is
removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from live import LivePass, live_pass, parse_summary
from metrics import (
    END_TO_END,
    PER_LAYER,
    REF_NOMINAL_S,
    UNITS,
    median,
    percentile,
)
from procs import BENCH, ROOT, SRC, Timed, cli_argv, run_timed
from workloads import LIVE_RATE_REC_S, PERMUTATIONS, WORKERS, WORKLOADS, Workload

#: Set-up repetitions per run; ``setup_s`` is their median (per
#: reference run).
SETUP_REPEATS = 3
WORK_ROOT = ROOT / ".perfbench_work"


class Gates:
    """Correctness checks of one run; any failure fails the run."""

    def __init__(self) -> None:
        self.checks: List[Dict[str, object]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record a check; ``detail`` explains a failure and is kept
        only then."""
        self.checks.append({"check": name, "ok": bool(ok),
                            "detail": "" if ok else detail})
        return ok

    @property
    def ok(self) -> bool:
        return all(check["ok"] for check in self.checks)

    def failures(self) -> List[str]:
        return [f"{c['check']}: {c['detail']}" for c in self.checks if not c["ok"]]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_reference(run_dir: Path) -> Timed:
    """Time ``reference.py`` in a fresh process (see ``per_reference``)."""
    run_dir.mkdir()
    return run_timed([sys.executable, str(BENCH / "reference.py")],
                     run_dir / "stdout", run_dir / "stderr")


def per_reference(timed: List[Timed], refs: List[Timed]) -> float:
    """Median of ``timed`` ÷ median of the reference runs interleaved
    with them, in seconds at ``REF_NOMINAL_S`` per reference run.

    On a shared host the speed of the machine drifts by tens of percent
    over minutes; jobs and the reference runs between them drift alike,
    so the ratio holds still while a change to the program moves it.
    """
    return (median([t.seconds for t in timed])
            / median([r.seconds for r in refs]) * REF_NOMINAL_S)


def set_up(workload: Workload, seed: int, work: Path, gates: Gates):
    """Prepare the inputs ``SETUP_REPEATS`` times; keep the last copy.

    Each repeat is a fresh process, so ``setup_s`` includes interpreter
    start-up and imports, as a user's first command would; a reference
    run precedes each.
    """
    timings: List[Timed] = []
    refs: List[Timed] = []
    metas = []
    data = None
    for repeat in range(SETUP_REPEATS):
        refs.append(run_reference(work / f"reference-setup-{repeat}"))
        data = work / f"data-{repeat}"
        timed = run_timed(
            [sys.executable, str(BENCH / "prepare.py"), "--workload",
             workload.name, "--seed", str(seed), "--out", str(data)],
            work / f"prepare-{repeat}.out", work / f"prepare-{repeat}.err",
        )
        if timed.returncode != 0:
            err = (work / f"prepare-{repeat}.err").read_text()[-2000:]
            raise SystemExit(f"prepare failed:\n{err}")
        timings.append(timed)
        metas.append(json.loads((data / "meta.json").read_text()))
        if repeat < SETUP_REPEATS - 1:
            shutil.rmtree(data)
    gates.check("same seed, same inputs",
                all(meta == metas[0] for meta in metas),
                "prepare repeats produced different inputs")
    return timings, refs, metas[-1], data


def check_windows(gates: Gates, label: str, got: Dict[str, int],
                  expected: Dict[str, int]) -> None:
    if got == expected:
        gates.check(f"{label}: per-window records", True)
        return
    missing = sorted(set(expected) - set(got))[:3]
    wrong = sorted(k for k in got if expected.get(k) != got[k])[:3]
    gates.check(f"{label}: per-window records", False,
                f"{len(got)} windows vs {len(expected)} expected; "
                f"missing {missing}, differing {wrong}")


def check_conservation(gates: Gates, label: str,
                       summary: Optional[Dict[str, int]], fed: int) -> None:
    if summary is None:
        gates.check(f"{label}: stream summary", False, "no summary line")
        return
    total = summary["windowed"] + summary["late"] + summary["resumed"]
    gates.check(
        f"{label}: conservation",
        total == fed and summary["late"] == 0 and summary["resumed"] == 0,
        f"windowed {summary['windowed']} + late {summary['late']} + "
        f"resumed {summary['resumed']} vs {fed} fed",
    )


def window_records_of(emit: Path) -> Dict[str, int]:
    counts = {}
    for line in emit.read_text().splitlines():
        snapshot = json.loads(line)
        counts[repr(snapshot["window_end"])] = snapshot["records"]
    return counts


class Runner:
    """Runs a workload's commands inside one work directory."""

    def __init__(self, workload: Workload, data: Path, meta: dict,
                 work: Path, gates: Gates) -> None:
        self.workload = workload
        self.data = data
        self.meta = meta
        self.work = work
        self.gates = gates
        self.attempted = 0
        self._runs = 0
        self.output_digest: Optional[str] = None

    def fresh_dir(self, label: str) -> Path:
        self._runs += 1
        path = self.work / f"{self._runs:03d}-{label}"
        path.mkdir()
        return path

    def batch(self, workers: int, obs: bool = False) -> Timed:
        """One batch job in a fresh process; checks and digests its
        output.  With ``obs`` the run also writes ``metrics.json`` and
        ``trace.jsonl`` into its directory."""
        workload = self.workload
        run_dir = self.fresh_dir(f"batch-w{workers}" + ("-obs" if obs else ""))
        args = workload.batch_argv(
            str(self.data / "logs"), workers, str(run_dir / "emit.jsonl")
        )
        if obs:
            args += ["--metrics", str(run_dir / "metrics.json"),
                     "--trace", str(run_dir / "trace.jsonl")]
        timed = run_timed(cli_argv(args), run_dir / "stdout",
                          run_dir / "stderr")
        label = f"{workload.job} x{workers}"
        if workload.job == "stream":
            self.attempted += self.meta["records"]
        else:
            self.attempted += self.meta["partition_files"]
        if not self.gates.check(f"{label}: exit status", timed.returncode == 0,
                                (run_dir / "stderr").read_text()[-500:]):
            return timed
        if workload.job == "stream":
            emit = run_dir / "emit.jsonl"
            check_conservation(self.gates, label, parse_summary(
                (run_dir / "stdout").read_text()), self.meta["records"])
            check_windows(self.gates, label, window_records_of(emit),
                          self.meta["window_records"])
            output = emit
        else:
            output = run_dir / "stdout"
        out_digest = digest(output)
        if self.output_digest is None:
            self.output_digest = out_digest
        self.gates.check(
            f"{label}: output identical across worker counts and repeats",
            out_digest == self.output_digest,
            f"{out_digest[:12]} vs {self.output_digest[:12]}",
        )
        return timed

    def traced(self, label: str, argv_in: Callable[[Path], List[str]],
               operations: int) -> Path:
        """Run a CLI command with ``--metrics``/``--trace`` in a fresh
        directory, which it returns; ``argv_in`` gives the command's
        arguments for that directory.  Checks only the exit status."""
        run_dir = self.fresh_dir(f"{label}-obs")
        argv = [*argv_in(run_dir), "--metrics", str(run_dir / "metrics.json"),
                "--trace", str(run_dir / "trace.jsonl")]
        timed = run_timed(cli_argv(argv), run_dir / "stdout",
                          run_dir / "stderr")
        self.attempted += operations
        self.gates.check(f"traced {label}: exit status", timed.returncode == 0,
                         (run_dir / "stderr").read_text()[-500:])
        return run_dir

    def reference(self) -> Timed:
        self._runs += 1
        return run_reference(self.work / f"{self._runs:03d}-reference")

    def live(self, schedule) -> LivePass:
        result = live_pass(self.workload, self.data, self.fresh_dir("live"),
                           schedule)
        records = self.meta["records"]
        self.attempted += records
        self.gates.check("live: exit status",
                         result.service.returncode == 0
                         and result.generator.returncode == 0,
                         f"service {result.service.returncode}, generator "
                         f"{result.generator.returncode}")
        self.gates.check("live: every record sent",
                         len(result.lateness_s) == records,
                         f"{len(result.lateness_s)} of {records}")
        check_conservation(self.gates, "live", result.summary, records)
        check_windows(self.gates, "live", result.window_records,
                      self.meta["window_records"])
        return result


def measure(runner: Runner, seconds: float,
            refs: List[Timed]) -> Dict[str, object]:
    """``--trace 0``: pairs of batch x2 / batch x1 runs, alternating
    which goes first, each run after a reference run, while ``seconds``
    allow; timings are medians over the pairs, per reference run (the
    set-up's reference runs included)."""
    parallel: List[Timed] = []
    serial: List[Timed] = []
    refs = list(refs)
    pairs_s: List[float] = []
    started = time.perf_counter()
    while runner.gates.ok:
        pair_started = time.perf_counter()
        order = (WORKERS, 1) if len(parallel) % 2 == 0 else (1, WORKERS)
        for workers in order:
            refs.append(runner.reference())
            timed = runner.batch(workers)
            (parallel if workers == WORKERS else serial).append(timed)
        pairs_s.append(time.perf_counter() - pair_started)
        if time.perf_counter() - started + median(pairs_s) > seconds:
            break
    job_s = per_reference(parallel, refs)
    metrics = {
        "job_s": job_s,
        "job_serial_s": per_reference(serial, refs),
        "throughput_rec_s": runner.meta["records"] / job_s if job_s else 0.0,
        "peak_rss_mb": median([t.peak_rss_mb for t in parallel]),
    }
    samples = {
        "job_wall_s": [t.seconds for t in parallel],
        "job_serial_wall_s": [t.seconds for t in serial],
        "reference_wall_s": [t.seconds for t in refs],
        "job_cpu_s": [t.cpu_s for t in parallel],
        "job_serial_cpu_s": [t.cpu_s for t in serial],
        "peak_rss_mb": [t.peak_rss_mb for t in parallel],
        "peak_rss_serial_mb": [t.peak_rss_mb for t in serial],
    }
    return {"metrics": metrics, "samples": samples}


def measure_layers(runner: Runner, seed: int, seconds: float) -> Dict[str, object]:
    """``--trace 1``: traced ``stream`` backfill, ``characterize`` and
    ``patterns`` runs on the workload's data, the in-process layer
    timings of ``layers.py`` on the same data, one live pass, then
    untraced/traced batch x2 pairs while ``seconds`` allow (their
    medians give ``obs.trace_overhead_frac``)."""
    workload = runner.workload
    logs = str(runner.data / "logs")
    started = time.perf_counter()
    stream_dir = runner.traced("stream", lambda run_dir: [
        "stream", "--logs-dir", logs, "--ingest-workers", str(WORKERS),
        *workload.stream_args(), "--emit", str(run_dir / "emit.jsonl"),
        "--checkpoint-dir", str(run_dir / "checkpoints")],
        runner.meta["records"])
    if runner.gates.ok:
        check_conservation(runner.gates, "traced stream", parse_summary(
            (stream_dir / "stdout").read_text()), runner.meta["records"])
        check_windows(runner.gates, "traced stream",
                      window_records_of(stream_dir / "emit.jsonl"),
                      runner.meta["window_records"])
    files = runner.meta["partition_files"]
    characterize_dir = runner.traced("characterize", lambda run_dir: [
        "characterize", "--logs-dir", logs, "--workers", str(WORKERS)], files)
    patterns_dir = runner.traced("patterns", lambda run_dir: [
        "patterns", "--logs-dir", logs, "--workers", str(WORKERS),
        "--permutations", str(PERMUTATIONS)], files)
    if not runner.gates.ok:
        return {"metrics": {}, "samples": {}}

    layers_dir = runner.fresh_dir("layers")
    layer_run = run_timed(
        [sys.executable, str(BENCH / "layers.py"),
         "--workload", workload.name, "--seed", str(seed),
         "--data", str(runner.data), "--scratch", str(layers_dir / "scratch"),
         "--characterize-obs", str(characterize_dir),
         "--patterns-obs", str(patterns_dir),
         "--stream-obs", str(stream_dir), "--workers", str(WORKERS)],
        layers_dir / "stdout", layers_dir / "stderr",
    )
    metrics: Dict[str, float] = {}
    if runner.gates.check("layer timings: exit status",
                          layer_run.returncode == 0,
                          (layers_dir / "stderr").read_text()[-800:]):
        metrics = json.loads((layers_dir / "stdout").read_text())

    schedule = json.loads((runner.data / "schedule.json").read_text())
    live = runner.live(schedule)
    metrics["live.emit_p50_ms"] = percentile(live.latencies_s, 50) * 1e3
    metrics["live.emit_p95_ms"] = percentile(live.latencies_s, 95) * 1e3
    metrics["live.gen_late_p95_ms"] = percentile(live.lateness_s, 95) * 1e3

    untraced: List[Timed] = []
    traced: List[Timed] = []
    while runner.gates.ok:
        untraced.append(runner.batch(WORKERS))
        traced.append(runner.batch(WORKERS, obs=True))
        pair_s = traced[-1].seconds + untraced[-1].seconds
        if time.perf_counter() - started + pair_s > seconds:
            break
    traced_s = median([t.seconds for t in traced])
    untraced_s = median([t.seconds for t in untraced])
    if untraced_s:
        metrics["obs.trace_overhead_frac"] = traced_s / untraced_s - 1.0
    samples = {"traced_job_s": [t.seconds for t in traced],
               "untraced_job_s": [t.seconds for t in untraced],
               "layers_s": layer_run.seconds,
               "live_windows": len(live.latencies_s),
               "live_emit_max_ms": max(live.latencies_s, default=0.0) * 1e3,
               "live_service_s": live.service.seconds,
               # False when /proc never showed the service reading
               # stdin, so its start-up may have delayed early windows.
               "live_ready_probe": live.ready}
    return {"metrics": metrics, "samples": samples}


def context(workload: Workload, seed: int, args, meta: dict) -> Dict[str, object]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": meta.get("numpy"),
        "commit": commit,
        "params": {
            "shape": workload.shape, "requests": workload.requests,
            "dataset_seed": workload.dataset_seed(seed), "job": workload.job,
            "window_s": workload.window_s, "watermark_s": workload.watermark_s,
            "workers": WORKERS, "permutations": PERMUTATIONS,
            "live_rate_rec_s": LIVE_RATE_REC_S,
            "records": meta["records"],
            "partition_files": meta["partition_files"],
        },
    }


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    gates = Gates()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setups, setup_refs, meta, data = set_up(workload, args.seed, work,
                                                gates)
        runner = Runner(workload, data, meta, work, gates)
        if args.trace:
            measured = measure_layers(runner, args.seed, args.seconds)
            names = [name for name, _ in PER_LAYER]
        else:
            measured = measure(runner, args.seconds, setup_refs)
            measured["metrics"]["setup_s"] = per_reference(setups, setup_refs)
            names = [name for name, _ in END_TO_END]
        measured["samples"]["setup_wall_s"] = [t.seconds for t in setups]
        measured["samples"]["setup_reference_wall_s"] = [
            t.seconds for t in setup_refs]
        record = {
            "context": context(workload, args.seed, args, meta),
            "input_digest": meta["input_digest"],
            "output_digest": runner.output_digest,
            **measured,
            "gates": gates.checks,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    correct = gates.ok
    attempted = max(1, runner.attempted)
    failed = 0 if correct else attempted
    metrics = {name: {"value": float(measured["metrics"].get(name, 0.0)),
                      "unit": UNITS[name]} for name in names}
    record.update(correct=correct, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for failure in gates.failures():
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {workload.name} seed {args.seed}: {meta['records']} records, "
          f"output {runner.output_digest}")
    samples = measured["samples"]
    if "job_wall_s" in samples:
        print(f"# wall-time medians: job x{WORKERS} "
              f"{median(samples['job_wall_s']):.4g} s, x1 "
              f"{median(samples['job_serial_wall_s']):.4g} s, reference "
              f"{median(samples['reference_wall_s']):.4g} s "
              f"(timings below: per {REF_NOMINAL_S} s reference run)")
    for name in names:
        print(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          "operations)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload, or compare two result files."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print per-metric deltas between two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
