"""Ambient registry installation — the obs twin of ``repro.faults.runtime``.

Instrumented code never receives a registry argument; it asks this
module for the ambient one and does nothing when none is installed.
That keeps the disabled path to a single module-global ``None`` check
(the property the ``benchmarks/test_perf_obs.py`` gate enforces) and
means instrumentation can be sprinkled through the executor, stream,
and pipeline layers without threading a parameter through every
signature.

Two layers of ambience:

* :func:`installed` swaps the **process-global** registry in a
  compare-and-swap context manager — the same ``repro._ambient``
  helper as ``repro.faults.runtime.installed`` — the CLI and tests
  wrap whole runs in it.
* :func:`shard_scope` overrides the registry **thread-locally**.  The
  executor's thread backend runs shards on worker threads of the same
  process; each worker records into its own per-shard registry (so
  the run total can be folded in *plan* order, not completion order)
  and the override makes sure those recordings never race into the
  global registry.  Process-pool workers get a fresh interpreter where
  the global is ``None`` anyway; ``shard_scope`` behaves identically
  there, so ``_run_one`` is backend-agnostic.

The module-level helpers (:func:`inc`, :func:`observe`, ...) are the
only API instrumented code should touch: they resolve the ambient
registry once and no-op when it is absent.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, ContextManager, Dict, Iterator, Optional

from .._ambient import swapped
from .registry import MetricsRegistry

__all__ = [
    "active",
    "install",
    "installed",
    "shard_scope",
    "inc",
    "observe",
    "set_gauge",
    "max_gauge",
    "record_span",
]

_registry: Optional[MetricsRegistry] = None
_local = threading.local()


def active() -> Optional[MetricsRegistry]:
    """The registry instrumentation should record into, or ``None``.

    A thread-local override (see :func:`shard_scope`) wins over the
    process-global one so engine workers stay isolated per shard.
    """
    override = getattr(_local, "registry", None)
    if override is not None:
        return override
    return _registry


def install(registry: Optional[MetricsRegistry]) -> None:
    """Set (or clear, with ``None``) the process-global registry."""
    global _registry
    _registry = registry


def installed(registry: Optional[MetricsRegistry]) -> ContextManager[None]:
    """Install a process-global registry for the duration of a block.

    ``None`` is a no-op context so call sites can pass an optional
    registry straight through.  Restore is compare-and-swap: nested
    installs unwind in order, and an exit after someone else installed
    a newer registry leaves theirs in place.
    """
    return swapped(globals(), "_registry", registry)


@contextmanager
def shard_scope(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route this thread's recordings into ``registry`` for a block."""
    previous = getattr(_local, "registry", None)
    _local.registry = registry
    try:
        yield registry
    finally:
        _local.registry = previous


# -- nil-checking recording helpers (the instrumentation API) ------------


def inc(name: str, amount: int = 1, /, **labels) -> None:
    registry = active()
    if registry is not None:
        registry.inc(name, amount, **labels)


def observe(name: str, value: float, /, **labels) -> None:
    registry = active()
    if registry is not None:
        registry.observe(name, value, **labels)


def set_gauge(name: str, value: float, /, **labels) -> None:
    registry = active()
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def max_gauge(name: str, value: float, /, **labels) -> None:
    registry = active()
    if registry is not None:
        registry.max_gauge(name, value, **labels)


def record_span(span: Dict[str, Any]) -> None:
    registry = active()
    if registry is not None:
        registry.record_span(span)
