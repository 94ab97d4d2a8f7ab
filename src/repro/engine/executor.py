"""Map/combine/reduce over shards with pluggable backends.

The engine's control loop: a ``map_fn`` turns each :class:`Shard`
into a mergeable partial state, the executor runs shards on one of
three backends, and the partial states fold together **in plan
order** — never completion order — so the merged result is
bit-for-bit identical no matter which backend ran it or how the
scheduler interleaved the shards.

Backends:

* ``serial``  — in-process loop; the reference semantics.
* ``thread``  — :class:`~concurrent.futures.ThreadPoolExecutor`;
  wins when shards are I/O-bound (gzip partition files).
* ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`;
  wins when shards are CPU-bound.  ``map_fn`` and shards must
  pickle (top-level functions, dataclass shards).
* ``auto``    — serial for one worker, processes otherwise.

Per-shard failures are captured, not cascaded: every shard gets a
:class:`ShardResult` (ok/error/timing/attempts/provenance), and with
``strict=True`` (default) the run raises :class:`EngineError` *after*
all shards finish, listing the failures (capped — see
:data:`EngineError.MAX_LISTED`).

Partial-failure hardening (see ``docs/robustness.md``):

* ``timeout_s`` — a pooled shard attempt that exceeds the deadline is
  *abandoned* (its eventual result ignored; checkpoints save
  parent-side, so an abandoned attempt cannot persist anything) and
  the shard is resubmitted.  Serial runs cannot preempt, so the
  timeout applies to thread/process backends only.
* ``retries`` — each shard gets up to ``1 + retries`` attempts with
  exponential backoff (``backoff_s * 2**(attempt-1)``, slept on the
  worker so the control loop never blocks).  A worker-process death
  (``BrokenProcessPool``) breaks every outstanding future; the pool
  is rebuilt once and the victims resubmitted on their next attempt.
* **quarantine** — a shard that fails its final attempt is poison.
  With ``strict=False`` the run completes without it; the report
  lists it under :attr:`RunReport.quarantined`.
* **checkpoint recovery** — a checkpoint that fails to load (torn
  file, checksum mismatch) is treated as absent: the shard recomputes
  and the report counts it in
  :attr:`RunReport.recomputed_checkpoints`.  Corruption never
  crashes a run.

A :class:`CheckpointStore` plugs in to skip already-computed shards
and persist fresh ones; a ``progress`` callback observes each
completed shard for live reporting.  A
:class:`~repro.faults.FaultPlan` passed as ``faults`` is installed
for the duration of the run (and shipped to pool workers as a pickled
argument) to exercise all of the above deterministically.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set

from ..faults import FaultPlan, InjectedFault
from ..faults import runtime as fault_runtime
from ..obs import runtime as obs_runtime
from ..obs.registry import MetricsRegistry
from ..obs.spans import span
from .shard import Shard

if TYPE_CHECKING:
    from concurrent.futures import Future

    from .checkpoint import CheckpointStore

__all__ = [
    "ShardResult",
    "RunReport",
    "EngineError",
    "ShardExecutor",
    "run_shards",
]

BACKENDS = ("auto", "serial", "thread", "process")

MapFn = Callable[[Shard], Any]
ProgressFn = Callable[["ShardResult", int, int], None]


def _exception_line(error: Optional[str]) -> str:
    """The exception line of a captured traceback.

    ``traceback.format_exc()`` puts ``ExcType: message`` on the last
    non-empty line; synthetic errors (timeouts) are single lines and
    fall out the same way.
    """
    for line in reversed((error or "").strip().splitlines()):
        if line.strip():
            return line.strip()
    return "?"


class EngineError(RuntimeError):
    """One or more shards failed in a strict run.

    The message lists at most :data:`MAX_LISTED` failing shards with
    their exception lines; the full set is always available on
    :attr:`failures`, so a 500-shard outage stays a 10-line message.
    """

    MAX_LISTED = 8

    def __init__(self, failures: Sequence["ShardResult"]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} shard(s) failed:"]
        for result in self.failures[: self.MAX_LISTED]:
            lines.append(f"  {result.shard_id}: {_exception_line(result.error)}")
        hidden = len(self.failures) - self.MAX_LISTED
        if hidden > 0:
            lines.append(
                f"  ... and {hidden} more (see EngineError.failures)"
            )
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one shard: state provenance, timing, error capture.

    ``attempts`` counts map-function executions (0 for a shard served
    from a checkpoint); ``seconds`` spans from the first submission to
    the final outcome, retries and backoff included.
    """

    shard_id: str
    ok: bool
    seconds: float = 0.0
    records: Optional[int] = None
    error: Optional[str] = None
    from_checkpoint: bool = False
    attempts: int = 1
    recomputed_checkpoint: bool = False


@dataclass
class RunReport:
    """Aggregate statistics of one engine run."""

    results: List[ShardResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    backend: str = "serial"
    workers: int = 1

    @property
    def total_shards(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> List[ShardResult]:
        return [result for result in self.results if not result.ok]

    @property
    def skipped(self) -> int:
        """Shards satisfied from checkpoints without recomputation."""
        return sum(1 for result in self.results if result.from_checkpoint)

    @property
    def executed(self) -> int:
        return sum(
            1 for result in self.results if result.ok and not result.from_checkpoint
        )

    @property
    def retries(self) -> int:
        """Extra map-function attempts beyond the first, run-wide."""
        return sum(max(0, result.attempts - 1) for result in self.results)

    @property
    def quarantined(self) -> List[str]:
        """Poison shards: failed every attempt (run completes only
        when ``strict=False``)."""
        return [result.shard_id for result in self.results if not result.ok]

    @property
    def recomputed_checkpoints(self) -> int:
        """Shards whose checkpoint failed to load and were recomputed."""
        return sum(
            1 for result in self.results if result.recomputed_checkpoint
        )

    @property
    def total_records(self) -> Optional[int]:
        counts = [result.records for result in self.results if result.ok]
        if not counts or any(count is None for count in counts):
            return None
        return sum(counts)


def _format_exc() -> str:
    """The current exception's traceback; ``traceback`` loads only
    when a shard fails."""
    import traceback

    return traceback.format_exc()


def _fire_map_faults(shard_id: str) -> None:
    """Consult the installed fault plan at the map-function boundary."""
    rule = fault_runtime.should_fire("map.hang", shard_id)
    if rule is not None:
        time.sleep(rule.param)
    rule = fault_runtime.should_fire("map.worker_death", shard_id)
    if rule is not None:
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            # A real pool worker: die the way an OOM kill would, with
            # no exception propagation and no cleanup.
            os._exit(13)
        # Thread/serial backends have no process to kill; degrade to a
        # raised fault so the plan stays meaningful on every backend.
        raise InjectedFault(f"injected worker death on shard {shard_id!r}")
    if fault_runtime.should_fire("map.exception", shard_id) is not None:
        raise InjectedFault(f"injected map exception on shard {shard_id!r}")


class _MappedShard:
    """A mapped state paired with its worker-side metrics registry.

    An explicit wrapper, not a tuple — map functions are free to
    return tuples as their state, so the unwrap in ``record_outcome``
    must be unambiguous.  Both halves pickle, so the pair crosses the
    process-pool boundary intact.
    """

    __slots__ = ("state", "metrics")

    def __init__(self, state: Any, metrics: MetricsRegistry) -> None:
        self.state = state
        self.metrics = metrics


def _run_one(
    map_fn: MapFn,
    shard: Shard,
    plan: Optional[FaultPlan] = None,
    attempt: int = 0,
    delay_s: float = 0.0,
    collect_metrics: bool = False,
) -> Any:
    """Execute one shard attempt (runs on the pool worker).

    The fault plan arrives as a pickled argument — process-pool
    workers do not share the parent's module globals — and is
    installed around the map call so hooks deep inside ``map_fn``
    (gzip reads, line parsing) see it.  On the thread and serial
    backends the parent's own install is already visible, so the
    worker installs nothing: a hung, abandoned worker thread must
    never touch the global plan after its run has moved on.
    ``delay_s`` is the retry backoff, slept worker-side to keep the
    parent control loop free.

    With ``collect_metrics`` the attempt records into a **fresh
    per-shard registry** (thread-locally scoped, so thread-backend
    workers never race into the parent's ambient registry) and
    returns a :class:`_MappedShard`; the parent folds the registries
    back in plan order, which is what makes the merged metrics
    identical serial vs parallel.  Only the attempt that produces the
    returned state contributes metrics — failed or abandoned attempts
    surface through the parent-side retry/timeout counters instead.
    """
    if delay_s > 0:
        time.sleep(delay_s)
    if fault_runtime.active() is not None:
        plan = None  # parent-side install (thread/serial) already covers us
    with fault_runtime.installed(plan), fault_runtime.attempt(attempt):
        _fire_map_faults(shard.shard_id)
        if not collect_metrics:
            return map_fn(shard)
        registry = MetricsRegistry()
        with obs_runtime.shard_scope(registry):
            with span("engine.map_shard", shard=shard.shard_id):
                state = map_fn(shard)
            registry.inc("engine.shards_mapped")
            records = getattr(state, "record_count", None)
            if records is not None:
                registry.observe("engine.shard_records", records)
        return _MappedShard(state, registry)


@dataclass
class _Inflight:
    """Bookkeeping for one submitted shard attempt."""

    index: int
    attempt: int
    submitted: float


class ShardExecutor:
    """Runs a shard plan through map/combine/reduce."""

    def __init__(
        self,
        workers: int = 1,
        backend: str = "auto",
        checkpoint: Optional[CheckpointStore] = None,
        progress: Optional[ProgressFn] = None,
        strict: bool = True,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.05,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive when set")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        self.workers = workers
        self.backend = (
            ("serial" if workers == 1 else "process") if backend == "auto" else backend
        )
        self.checkpoint = checkpoint
        self.progress = progress
        self.strict = strict
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.faults = faults
        self._collect_metrics = False  # resolved per run from the ambient registry

    # -- public API --------------------------------------------------------

    def run(self, shards: Sequence[Shard], map_fn: MapFn):
        """Execute the plan; returns ``(merged_state, RunReport)``.

        ``map_fn(shard)`` must return a partial state exposing
        ``merge(other)``; states merge in plan order.  With an empty
        plan the merged state is ``None``.
        """
        with fault_runtime.installed(self.faults):
            return self._run(shards, map_fn)

    # -- internals ---------------------------------------------------------

    def _run(self, shards: Sequence[Shard], map_fn: MapFn):
        started = time.perf_counter()
        ids = [shard.shard_id for shard in shards]
        if len(set(ids)) != len(ids):
            raise ValueError("shard plan contains duplicate shard ids")
        if self.backend == "process":
            self._ensure_picklable_map_fn(map_fn)

        # Metrics are collected only when a registry is ambient; the
        # flag is resolved once so every shard attempt of the run
        # agrees, and per-shard worker registries are folded back in
        # plan order below (completion order must not matter).
        self._collect_metrics = obs_runtime.active() is not None
        shard_metrics: Dict[int, MetricsRegistry] = {}

        states: Dict[int, Any] = {}
        results: Dict[int, ShardResult] = {}
        pending: List[int] = []
        recompute: Set[int] = set()

        # Reduce phase 0: satisfy shards from the checkpoint store.  A
        # checkpoint that fails validation (torn file, checksum
        # mismatch) is not an error — the shard recomputes.
        if self.checkpoint is not None:
            # Loaded with the store; a run without one never imports it.
            from .checkpoint import CheckpointError
        for index, shard in enumerate(shards):
            if self.checkpoint is None or not self.checkpoint.has(shard.shard_id):
                pending.append(index)
                continue
            try:
                state = self.checkpoint.load(shard.shard_id)
            except CheckpointError:
                recompute.add(index)
                pending.append(index)
                continue
            states[index] = state
            results[index] = ShardResult(
                shard_id=shard.shard_id,
                ok=True,
                records=getattr(state, "record_count", None),
                from_checkpoint=True,
                attempts=0,
            )

        done_count = len(results)
        total = len(shards)
        for index in sorted(results):
            self._notify(results[index], done_count, total)

        def record_outcome(index: int, state: Any, seconds: float,
                           error: Optional[str], attempts: int) -> None:
            nonlocal done_count
            shard = shards[index]
            if isinstance(state, _MappedShard):
                shard_metrics[index] = state.metrics
                state = state.state
            if error is None:
                states[index] = state
                if self.checkpoint is not None:
                    self.checkpoint.save(shard.shard_id, state)
            result = ShardResult(
                shard_id=shard.shard_id,
                ok=error is None,
                seconds=seconds,
                records=getattr(state, "record_count", None) if error is None else None,
                error=error,
                attempts=attempts,
                recomputed_checkpoint=index in recompute and error is None,
            )
            results[index] = result
            done_count += 1
            self._notify(result, done_count, total)

        if self.backend == "serial":
            self._map_serial_all(map_fn, shards, pending, record_outcome)
        else:
            self._map_pooled(map_fn, shards, pending, record_outcome)

        # Reduce: merge partial states in plan order, deterministically.
        # ``merge`` may fold into the receiver in place, so a
        # checkpoint-loaded merge base is copied first — a store that
        # caches loaded objects must never see them mutated.
        merged: Any = None
        for index in range(total):
            state = states.get(index)
            if state is None:
                continue
            if merged is None:
                if results[index].from_checkpoint:
                    state = copy.deepcopy(state)
                merged = state
            else:
                merged = merged.merge(state)

        report = RunReport(
            results=[results[index] for index in sorted(results)],
            elapsed_seconds=time.perf_counter() - started,
            backend=self.backend,
            workers=self.workers,
        )
        self._record_run_metrics(report, shard_metrics, total)
        if self.strict and report.failed:
            raise EngineError(report.failed)
        return merged, report

    def _record_run_metrics(
        self,
        report: RunReport,
        shard_metrics: Dict[int, MetricsRegistry],
        total: int,
    ) -> None:
        """Fold worker registries and run-level counters into the
        ambient registry.

        Worker registries merge in plan (index) order — the same
        discipline as the state reduce — so histogram float sums
        accumulate identically on every backend.  Runs before the
        strict-mode raise so a failed run still exports its metrics.
        """
        ambient = obs_runtime.active()
        if ambient is None:
            return
        for index in sorted(shard_metrics):
            ambient.merge(shard_metrics[index])
        ambient.inc("engine.runs")
        ambient.inc("engine.shards_planned", total)
        ambient.inc("engine.shards_from_checkpoint", report.skipped)
        ambient.inc("engine.shards_completed", report.executed)
        ambient.inc("engine.shards_failed", len(report.failed))
        ambient.inc("engine.shard_retries", report.retries)
        ambient.inc(
            "engine.recomputed_checkpoints", report.recomputed_checkpoints
        )
        for result in report.results:
            if result.attempts > 0:
                ambient.observe("engine.shard_seconds", result.seconds)
        ambient.observe("engine.run_seconds", report.elapsed_seconds)

    def _notify(self, result: ShardResult, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(result, done, total)

    def _backoff(self, attempt: int) -> float:
        """Delay before ``attempt`` (attempt 0 never waits)."""
        if attempt <= 0 or self.backoff_s == 0:
            return 0.0
        return self.backoff_s * (2 ** (attempt - 1))

    @staticmethod
    def _ensure_picklable_map_fn(map_fn: MapFn) -> None:
        """Fail fast with a clear message instead of N pickle tracebacks.

        The process backend pickles the map function once per shard;
        a lambda, a closure, or a ``functools.partial`` carrying an
        unpicklable callback would otherwise fail every shard with
        the same cryptic ``PicklingError``.  (The ``progress``
        callback itself never crosses the process boundary — it runs
        in the parent — so it may be a lambda.)
        """
        import pickle

        try:
            pickle.dumps(map_fn)
        except Exception as exc:
            raise ValueError(
                f"process backend requires a picklable map function, got "
                f"{map_fn!r}: {exc}. Define the map function (and any "
                f"callback bound into it, e.g. via functools.partial) at "
                f"module top level, or use the thread/serial backend."
            ) from exc

    def _map_serial_all(
        self,
        map_fn: MapFn,
        shards: Sequence[Shard],
        pending: Sequence[int],
        record_outcome: Callable[[int, Any, float, Optional[str], int], None],
    ) -> None:
        """Serial backend: retry loop in place (no preemptive timeout)."""
        for index in pending:
            first_started = time.perf_counter()
            attempt = 0
            while True:
                delay = self._backoff(attempt)
                if delay > 0:
                    time.sleep(delay)
                try:
                    state = _run_one(
                        map_fn, shards[index], self.faults, attempt,
                        0.0, self._collect_metrics,
                    )
                    error = None
                except Exception:
                    state = None
                    error = _format_exc()
                if error is None or attempt >= self.retries:
                    record_outcome(
                        index,
                        state,
                        time.perf_counter() - first_started,
                        error,
                        attempt + 1,
                    )
                    break
                attempt += 1

    def _map_pooled(
        self,
        map_fn: MapFn,
        shards: Sequence[Shard],
        pending: Sequence[int],
        record_outcome: Callable[[int, Any, float, Optional[str], int], None],
    ) -> None:
        """Thread/process backends.

        The pool modules import here, not at module load, so a serial
        run never pays for ``multiprocessing``.
        """
        from concurrent.futures import (
            FIRST_COMPLETED,
            BrokenExecutor,
            ProcessPoolExecutor,
            ThreadPoolExecutor,
            wait,
        )

        pool_cls = (
            ThreadPoolExecutor if self.backend == "thread" else ProcessPoolExecutor
        )
        pool = pool_cls(max_workers=self.workers)
        inflight: Dict[Future, _Inflight] = {}
        first_started: Dict[int, float] = {}
        abandoned = False

        def submit(index: int, attempt: int) -> None:
            nonlocal pool
            first_started.setdefault(index, time.perf_counter())
            args = (map_fn, shards[index], self.faults, attempt,
                    self._backoff(attempt), self._collect_metrics)
            try:
                future = pool.submit(_run_one, *args)
            except (BrokenExecutor, RuntimeError):
                # A dead worker poisons the whole ProcessPoolExecutor;
                # replace it once and resubmit.  (RuntimeError covers
                # "cannot schedule new futures after shutdown" races.)
                pool = pool_cls(max_workers=self.workers)
                future = pool.submit(_run_one, *args)
            inflight[future] = _Inflight(index, attempt, time.perf_counter())

        def finish(info: _Inflight, state: Any, error: Optional[str],
                   retryable: bool) -> None:
            if error is not None and retryable and info.attempt < self.retries:
                submit(info.index, info.attempt + 1)
                return
            record_outcome(
                info.index,
                state,
                time.perf_counter() - first_started[info.index],
                error,
                info.attempt + 1,
            )

        try:
            for index in pending:
                submit(index, 0)
            while inflight:
                done, _ = wait(
                    set(inflight),
                    timeout=self._wait_timeout(inflight),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    info = inflight.pop(future)
                    try:
                        state = future.result()
                    except BrokenExecutor:
                        # Collateral of a worker death: the attempt
                        # never misbehaved, so retrying it is always
                        # sound.
                        finish(info, None, _format_exc(), True)
                    except Exception:
                        finish(info, None, _format_exc(), True)
                    else:
                        finish(info, state, None, False)
                if self._expire(inflight, finish, submit):
                    abandoned = True
        finally:
            # Wait for the workers so the pool tears down before the
            # run returns (an unwaited process pool can race
            # interpreter exit).  Only abandoned (timed-out) attempts
            # may still be running: don't block the run on them.
            # Their results are ignored and checkpoints save
            # parent-side, so they can't leak.
            pool.shutdown(wait=not abandoned, cancel_futures=True)

    def _wait_timeout(self, inflight: Dict[Future, _Inflight]) -> Optional[float]:
        """Time until the next in-flight attempt hits its deadline."""
        if self.timeout_s is None or not inflight:
            return None
        now = time.perf_counter()
        remaining = min(
            self.timeout_s - (now - info.submitted) for info in inflight.values()
        )
        return max(0.01, remaining)

    def _expire(
        self,
        inflight: Dict[Future, _Inflight],
        finish: Callable[[_Inflight, Any, Optional[str], bool], None],
        resubmit: Callable[[int, int], None],
    ) -> bool:
        """Abandon attempts past the per-shard deadline and retry them;
        returns whether any running attempt was abandoned.

        The deadline clock starts at submission, but only *running*
        attempts are charged: an expired future that never left the
        pool queue (it was waiting behind hung workers) is requeued at
        the same attempt number — queue pressure is the pool's fault,
        not the shard's, and must not burn its retry budget.
        """
        if self.timeout_s is None:
            return False
        abandoned = False
        now = time.perf_counter()
        expired = [
            future
            for future, info in inflight.items()
            if now - info.submitted >= self.timeout_s
        ]
        for future in expired:
            info = inflight.pop(future)
            if future.done():
                # Finished in the race window since wait() returned;
                # the next loop pass would have handled it — do so now.
                try:
                    state = future.result()
                except Exception:
                    finish(info, None, _format_exc(), True)
                else:
                    finish(info, state, None, False)
                continue
            if future.cancel():
                # Never started running; queue pressure, not a timeout.
                resubmit(info.index, info.attempt)
                continue
            obs_runtime.inc("engine.shard_timeouts")
            abandoned = True
            finish(
                info,
                None,
                f"TimeoutError: shard exceeded {self.timeout_s:g}s deadline "
                f"(attempt {info.attempt + 1}); attempt abandoned",
                True,
            )
        return abandoned


def run_shards(
    shards: Sequence[Shard],
    map_fn: MapFn,
    workers: int = 1,
    backend: str = "auto",
    checkpoint: Optional[CheckpointStore] = None,
    progress: Optional[ProgressFn] = None,
    strict: bool = True,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.05,
    faults: Optional[FaultPlan] = None,
):
    """One-shot convenience wrapper around :class:`ShardExecutor`."""
    executor = ShardExecutor(
        workers=workers,
        backend=backend,
        checkpoint=checkpoint,
        progress=progress,
        strict=strict,
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        faults=faults,
    )
    return executor.run(shards, map_fn)
