"""Map/combine/reduce over shards on one attempt loop.

The engine's control loop: a ``map_fn`` turns each :class:`Shard`
into a mergeable partial state, :func:`run_shards` runs the shard
attempts on one of three backends, and the partial states fold
together **in plan order** — never completion order — so the merged
result is bit-for-bit identical no matter which backend ran it or how
the scheduler interleaved the shards.

Backends:

* ``serial``  — each attempt runs inline, in the calling thread.
* ``thread``  — :class:`~concurrent.futures.ThreadPoolExecutor`;
  wins when shards are I/O-bound (gzip partition files).
* ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`;
  wins when shards are CPU-bound.  ``map_fn`` and shards must
  pickle (top-level functions, dataclass shards).
* ``auto``    — serial for one worker, processes otherwise.

Every backend runs the same loop.  The executor keeps its own queue
of attempts and hands at most ``workers`` of them to the backend at a
time, so nothing ever waits inside a pool.  Per-shard failures are
captured, not cascaded: every shard gets a :class:`ShardResult`
(ok/error/timing/attempts/provenance), and when any shard failed its
last attempt the run raises :class:`EngineError` *after* all shards
finish, listing the failures (capped — see
:data:`EngineError.MAX_LISTED`).

Partial-failure hardening (see ``docs/robustness.md``):

* ``timeout_s`` — a pooled attempt still running ``timeout_s`` after
  it started is *abandoned* (its eventual result ignored; checkpoints
  save parent-side, so it cannot persist anything), its pool is
  replaced so later attempts never queue behind it, and the shard is
  retried.  Serial attempts cannot be preempted, so the timeout
  applies to thread/process backends only.
* ``retries`` — each shard gets up to ``1 + retries`` attempts.  Before
  attempt ``n`` the shard waits ``BACKOFF_S * 2**(n-1)`` seconds in
  the executor's queue; the wait is not charged to the attempt's
  deadline.  A worker-process death breaks every outstanding future
  of its pool; the pool is replaced by the same step as after an
  abandoned attempt and the victims are retried.
* **checkpoint recovery** — a checkpoint that fails to load (torn
  file, checksum mismatch) is treated as absent: the shard recomputes
  and the report counts it in
  :attr:`RunReport.recomputed_checkpoints`.  Corruption never
  crashes a run.

A :class:`CheckpointStore` plugs in to skip already-computed shards
and persist fresh ones.  A :class:`~repro.faults.FaultPlan` passed as
``faults`` is installed for the duration of the run (and shipped to
pool workers as a pickled argument) to exercise all of the above
deterministically.
"""

from __future__ import annotations

import copy
import heapq
import os
import time
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

from ..faults import runtime as fault_runtime
from ..obs import runtime as obs_runtime
from ..obs.registry import MetricsRegistry
from ..obs.spans import span
from .shard import Shard

if TYPE_CHECKING:
    from ..faults import FaultPlan
    from .checkpoint import CheckpointStore

__all__ = [
    "ShardResult",
    "RunReport",
    "EngineError",
    "run_shards",
]

BACKENDS = ("auto", "serial", "thread", "process")

#: Retry backoff base: attempt ``n`` (``n >= 1``) waits
#: ``BACKOFF_S * 2**(n-1)`` seconds before it starts.
BACKOFF_S = 0.05

MapFn = Callable[[Shard], Any]


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
    """One or more shards failed every attempt.

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
    from a checkpoint); ``seconds`` spans from the first attempt's
    start to the final outcome, retries and backoff included.
    """

    shard_id: str
    ok: bool
    seconds: float = 0.0
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
    def recomputed_checkpoints(self) -> int:
        """Shards whose checkpoint failed to load and were recomputed."""
        return sum(
            1 for result in self.results if result.recomputed_checkpoint
        )


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
        from ..faults import InjectedFault

        raise InjectedFault(f"injected worker death on shard {shard_id!r}")
    if fault_runtime.should_fire("map.exception", shard_id) is not None:
        from ..faults import InjectedFault

        raise InjectedFault(f"injected map exception on shard {shard_id!r}")


class _MappedShard:
    """A mapped state paired with its worker-side metrics registry.

    An explicit wrapper, not a tuple — map functions are free to
    return tuples as their state, so the unwrap in ``run_shards``
    must be unambiguous.  Both halves pickle, so the pair crosses the
    process-pool boundary intact.
    """

    __slots__ = ("state", "metrics")

    def __init__(self, state: Any, metrics: MetricsRegistry) -> None:
        self.state = state
        self.metrics = metrics


def _run_one(
    map_fn: MapFn,
    plan: Optional[FaultPlan],
    collect_metrics: bool,
    shard: Shard,
    attempt: int,
) -> Any:
    """Execute one shard attempt (runs on the worker).

    The fault plan arrives as a pickled argument — process-pool
    workers do not share the parent's module globals — and is
    installed around the map call so hooks deep inside ``map_fn``
    (gzip reads, line parsing) see it.  On the thread and serial
    backends the parent's own install is already visible, so the
    worker installs nothing: a hung, abandoned worker thread must
    never touch the global plan after its run has moved on.

    With ``collect_metrics`` the attempt records into a **fresh
    per-shard registry** (thread-locally scoped, so thread-backend
    workers never race into the parent's ambient registry) and
    returns a :class:`_MappedShard`; the parent folds the registries
    back in plan order, which is what makes the merged metrics
    identical serial vs parallel.  Only the attempt that produces the
    returned state contributes metrics — failed or abandoned attempts
    surface through the parent-side retry/timeout counters instead.
    """
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


class _Call:
    """A serial attempt: it runs when the loop waits for it, and is
    read back like a ``Future``."""

    __slots__ = ("fn", "args", "value", "error")

    def __init__(self, fn: Callable[..., Any], args: tuple) -> None:
        self.fn, self.args = fn, args
        self.value = self.error = None

    def result(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.value


class _Inline:
    """The serial backend's pool: one slot, run in the calling thread,
    so a serial run needs no ``concurrent.futures``."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> _Call:
        return _Call(fn, args)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass

    @staticmethod
    def wait(calls: List[_Call], timeout: Optional[float]) -> List[_Call]:
        for call in calls:
            try:
                call.value = call.fn(*call.args)
            except Exception as exc:
                call.error = exc
        return calls


def _backend_pool(backend: str, workers: int):
    """``(open_pool, wait)`` for a backend.

    The pool modules import here, not at module load, so a serial run
    never pays for ``concurrent.futures`` or ``multiprocessing``.
    """
    if backend == "serial":
        return _Inline, _Inline.wait
    from concurrent.futures import (
        FIRST_COMPLETED,
        ProcessPoolExecutor,
        ThreadPoolExecutor,
        wait,
    )

    pool_cls = ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor

    def open_pool():
        return pool_cls(max_workers=workers)

    def wait_first(handles, timeout):
        return wait(handles, timeout, FIRST_COMPLETED)[0]

    return open_pool, wait_first


def _ensure_picklable_map_fn(map_fn: MapFn) -> None:
    """Fail fast with a clear message instead of N pickle tracebacks.

    The process backend pickles the map function once per attempt; a
    lambda, a closure, or a ``functools.partial`` carrying an
    unpicklable callback would otherwise fail every shard with the
    same cryptic ``PicklingError``.
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


@dataclass
class _Attempt:
    """Bookkeeping for one submitted shard attempt."""

    index: int
    attempt: int
    pool: Any
    deadline: Optional[float]


def run_shards(
    shards: Sequence[Shard],
    map_fn: MapFn,
    *,
    workers: int = 1,
    backend: str = "auto",
    checkpoint: Optional[CheckpointStore] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    faults: Optional[FaultPlan] = None,
):
    """Run a shard plan through map/combine/reduce; returns
    ``(merged_state, RunReport)``.

    ``map_fn(shard)`` must return a partial state exposing
    ``merge(other)``; states merge in plan order.  With an empty plan
    the merged state is ``None``.  Raises :class:`EngineError` after
    every shard finished when any shard failed its last attempt.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive when set")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if backend == "auto":
        backend = "serial" if workers == 1 else "process"
    ids = [shard.shard_id for shard in shards]
    if len(set(ids)) != len(ids):
        raise ValueError("shard plan contains duplicate shard ids")
    if backend == "process":
        _ensure_picklable_map_fn(map_fn)

    started = time.perf_counter()
    shard_metrics: Dict[int, MetricsRegistry] = {}
    states: Dict[int, Any] = {}
    results: Dict[int, ShardResult] = {}
    pending: List[int] = []
    recompute: Set[int] = set()

    # Reduce phase 0: satisfy shards from the checkpoint store.  A
    # checkpoint that fails validation (torn file, checksum mismatch)
    # is not an error — the shard recomputes.
    if checkpoint is not None:
        # Loaded with the store; a run without one never imports it.
        from .checkpoint import CheckpointError
    for index, shard in enumerate(shards):
        if checkpoint is None or not checkpoint.has(shard.shard_id):
            pending.append(index)
            continue
        try:
            states[index] = checkpoint.load(shard.shard_id)
        except CheckpointError:
            recompute.add(index)
            pending.append(index)
            continue
        results[index] = ShardResult(
            shard_id=shard.shard_id, ok=True, from_checkpoint=True, attempts=0
        )

    # Metrics are collected only when a registry is ambient; the flag
    # is resolved once so every attempt of the run agrees, and the
    # per-shard registries fold back in plan order below.
    attempt_fn = partial(
        _run_one, map_fn, faults, obs_runtime.active() is not None
    )
    with fault_runtime.installed(faults), closing(
        _attempts(shards, pending, attempt_fn, backend, workers,
                  timeout_s, retries)
    ) as outcomes:
        for index, attempts, seconds, state, error in outcomes:
            if isinstance(state, _MappedShard):
                shard_metrics[index] = state.metrics
                state = state.state
            if error is None:
                states[index] = state
                if checkpoint is not None:
                    checkpoint.save(shards[index].shard_id, state)
            results[index] = ShardResult(
                shard_id=shards[index].shard_id,
                ok=error is None,
                seconds=seconds,
                error=error,
                attempts=attempts,
                recomputed_checkpoint=index in recompute and error is None,
            )

    # Reduce: merge partial states in plan order, deterministically.
    # ``merge`` may fold into the receiver in place, so a
    # checkpoint-loaded merge base is copied first — a store that
    # caches loaded objects must never see them mutated.
    merged: Any = None
    for index in range(len(shards)):
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
        backend=backend,
    )
    _record_run_metrics(report, shard_metrics, len(shards))
    if report.failed:
        raise EngineError(report.failed)
    return merged, report


def _attempts(
    shards: Sequence[Shard],
    pending: Sequence[int],
    attempt_fn: Callable[[Shard, int], Any],
    backend: str,
    workers: int,
    timeout_s: Optional[float],
    retries: int,
) -> Iterator[Tuple[int, int, float, Any, Optional[str]]]:
    """The attempt loop every backend runs.

    Yields ``(plan index, attempts, seconds, state, error)`` once per
    pending shard, at its final outcome.  Each pass submits the ready
    attempts up to ``workers`` in flight, then yields what finished
    last pass (the caller saves checkpoints while the workers run),
    waits for a completion, a deadline or the end of a backoff,
    collects what finished and abandons what overran.
    """
    open_pool, wait = _backend_pool(backend, workers)
    if backend == "serial":
        workers = 1  # one slot, run in this thread
    pool: Any = None
    # Queued attempts as (ready at, plan index, attempt); a shard has
    # at most one attempt queued or in flight.
    queue = [(0.0, index, 0) for index in pending]
    inflight: Dict[Any, _Attempt] = {}
    first_started: Dict[int, float] = {}
    finished: List[Tuple[int, int, float, Any, Optional[str]]] = []
    retired: List[Any] = []  # worker processes of replaced pools

    def retire(old: Any) -> None:
        # The one step that replaces a pool: after an abandoned attempt
        # or a dead worker.  Its running attempts finish and are still
        # collected; nothing waits for an abandoned one.  Nothing is
        # cancelled: an attempt no worker has taken yet would then
        # never come back from ``wait``.  A process pool's workers are
        # kept so the run can end a hung one, which interpreter exit
        # would otherwise wait for; ``_processes`` is the only handle
        # on them before Python 3.14, and ``shutdown`` drops it.
        nonlocal pool
        if old is pool:
            retired.extend((getattr(old, "_processes", None) or {}).values())
            old.shutdown(wait=False)
            pool = None

    def submit(index: int, attempt: int) -> None:
        nonlocal pool
        now = time.perf_counter()
        first_started.setdefault(index, now)
        handle = None
        if pool is not None:
            try:
                handle = pool.submit(attempt_fn, shards[index], attempt)
            except RuntimeError:  # BrokenExecutor: a worker process died
                retire(pool)
        if handle is None:
            pool = open_pool()
            handle = pool.submit(attempt_fn, shards[index], attempt)
        deadline = None if timeout_s is None else now + timeout_s
        inflight[handle] = _Attempt(index, attempt, pool, deadline)

    def finish(info: _Attempt, state: Any, error: Optional[str]) -> None:
        now = time.perf_counter()
        if error is not None and info.attempt < retries:
            ready = now + BACKOFF_S * 2 ** info.attempt
            heapq.heappush(queue, (ready, info.index, info.attempt + 1))
            return
        seconds = now - first_started[info.index]
        finished.append((info.index, info.attempt + 1, seconds, state, error))

    try:
        while queue or inflight:
            now = time.perf_counter()
            while queue and queue[0][0] <= now and len(inflight) < workers:
                _, index, attempt = heapq.heappop(queue)
                submit(index, attempt)
            yield from finished
            finished.clear()
            wake = [info.deadline for info in inflight.values()
                    if info.deadline is not None]
            if queue and len(inflight) < workers:
                wake.append(queue[0][0])
            timeout = (
                max(0.0, min(wake) - time.perf_counter()) if wake else None
            )
            if not inflight:
                time.sleep(timeout)  # every queued attempt is backing off
                continue
            for handle in wait(list(inflight), timeout):
                info = inflight.pop(handle)
                try:
                    state = handle.result()
                except Exception:
                    finish(info, None, _format_exc())
                else:
                    finish(info, state, None)
            now = time.perf_counter()
            for handle, info in list(inflight.items()):
                # A done attempt is collected on the next pass.
                if info.deadline is None or now < info.deadline or handle.done():
                    continue
                del inflight[handle]
                obs_runtime.inc("engine.shard_timeouts")
                retire(info.pool)
                finish(
                    info,
                    None,
                    f"TimeoutError: shard exceeded {timeout_s:g}s deadline "
                    f"(attempt {info.attempt + 1}); attempt abandoned",
                )
        yield from finished
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        # Every attempt the run still waits for is on the live pool, so
        # a retired worker has nothing left to deliver.
        for process in retired:
            process.terminate()


def _record_run_metrics(
    report: RunReport,
    shard_metrics: Dict[int, MetricsRegistry],
    total: int,
) -> None:
    """Fold worker registries and run-level counters into the ambient
    registry.

    Worker registries merge in plan (index) order — the same
    discipline as the state reduce — so histogram float sums
    accumulate identically on every backend.  Runs before the
    failure raise so a failed run still exports its metrics.
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
