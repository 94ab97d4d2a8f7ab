"""Process-wide fault-plan installation and attempt context.

Injection sites are sprinkled through hot paths (``logs.io`` line
loops, the ingest worker, checkpoint saves), so the disabled path must
cost nothing beyond a module-global read: :func:`active` returns the
installed plan or ``None``, and every hook starts with that nil-check.

Two pieces of ambient state live here:

* the **installed plan** (module global) — set by
  :func:`installed` for the duration of a run.  In process-pool
  workers the executor re-installs the pickled plan around each shard
  attempt, so hooks behave identically on every backend.
* the **attempt number** (thread-local) — set by :func:`attempt`
  around each shard/read attempt so downstream hooks (gzip reads deep
  inside a map function, checkpoint saves) can make attempt-aware
  decisions without threading a parameter through every call.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, ContextManager, Iterator, Optional

from .._ambient import swapped

if TYPE_CHECKING:
    from .plan import FaultPlan, FaultRule

__all__ = [
    "active",
    "attempt",
    "current_attempt",
    "installed",
    "should_fire",
]

_plan: Optional[FaultPlan] = None
_local = threading.local()


def active() -> Optional[FaultPlan]:
    """The currently installed fault plan, or ``None`` (the hot path)."""
    return _plan


def current_attempt() -> int:
    """The attempt number for the current thread (0 outside retries)."""
    return getattr(_local, "attempt", 0)


def installed(plan: Optional[FaultPlan]) -> ContextManager[None]:
    """Install ``plan`` for the duration of the block.

    ``installed(None)`` is a no-op; nested installs restore in order.
    The restore is compare-and-swap (:mod:`repro._ambient`): an
    *abandoned* worker thread (a timed-out shard attempt still
    sleeping in an injected hang) that leaves this block after a newer
    plan was installed leaves that plan in place.
    """
    return swapped(globals(), "_plan", plan)


@contextmanager
def attempt(n: int) -> Iterator[None]:
    """Set the thread's attempt number for the duration of the block."""
    previous = current_attempt()
    _local.attempt = n
    try:
        yield
    finally:
        _local.attempt = previous


def should_fire(site: str, key: str) -> Optional[FaultRule]:
    """Convenience hook: consult the installed plan at the current attempt.

    Returns ``None`` immediately when no plan is installed — the only
    cost a production run ever pays.
    """
    plan = _plan
    if plan is None:
        return None
    return plan.should_fire(site, key, current_attempt())
