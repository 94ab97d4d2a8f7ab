"""Block-scoped install of a module-global ambient value.

``repro.obs.runtime`` (the metrics registry) and
``repro.faults.runtime`` (the fault plan) each keep one module global
that hot paths read directly.  Both install it the same way::

    def installed(plan):
        return swapped(globals(), "_plan", plan)

``None`` is a no-op, so call sites can wrap unconditionally.  The
restore is compare-and-swap: nested installs unwind in order, and an
exit after someone else installed a newer value (an abandoned worker
thread leaving its block late) leaves theirs in place.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator

__all__ = ["swapped"]


@contextmanager
def swapped(namespace: Dict[str, Any], name: str, value: Any) -> Iterator[None]:
    """Set ``namespace[name]`` to ``value`` for the duration of a block."""
    if value is None:
        yield
        return
    previous = namespace[name]
    namespace[name] = value
    try:
        yield
    finally:
        if namespace[name] is value:
            namespace[name] = previous
