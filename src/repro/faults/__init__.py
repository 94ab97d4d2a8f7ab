"""Deterministic, seeded fault injection for the engine/stream stack.

Production CDN log pipelines live with partial failure: a shard hangs
on a slow NFS mount, a worker process is OOM-killed, a checkpoint
file is torn by a crash mid-write, a gzip partition is truncated by a
lost flush, a log line is half a JSON object.  ``repro.faults`` makes
every one of those failure modes *reproducible*: a
:class:`~repro.faults.plan.FaultPlan` is a seeded schedule of faults
that fires the same way on every run, so the hardening that survives
it — per-shard timeouts and retries, checksum-validated
checkpoints, skip-with-counter record parsing — can be tested differentially (fault run == fault-free run, field by
field; see ``tests/test_chaos_differential.py``).

The injection sites live behind zero-overhead-when-disabled hooks:
each site asks :func:`repro.faults.runtime.active` for the installed
plan once (a module-global read) and does nothing further when no
plan is installed, so production runs pay a nil-check and nothing
else.  Plans are installed per run (``run_shards(..., faults=plan)``,
``run_stream(faults=plan)``) and travel to process-pool workers as a
pickled argument — never ambiently.
"""

from .._lazy import lazy_exports
from . import runtime

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "runtime",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".plan": ("FAULT_SITES", "FaultPlan", "FaultRule", "InjectedFault"),
})
