"""How an analysis runs on the engine: one options value, one stage runner.

Every analysis entry point (:mod:`repro.core.pipeline`) takes one
:class:`EngineOptions` and runs every stage through it.  A serial run
is the engine at one worker on the ``serial`` backend, so one code
path serves serial, sharded and resumable runs alike.

This module imports nothing heavy at load time: the pipeline uses
``EngineOptions()`` as a default argument, and the executor and
checkpoint store load only when a stage runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from ..obs.spans import span

if TYPE_CHECKING:
    from ..faults import FaultPlan
    from ..logs.record import RequestLog
    from .shard import Shard

__all__ = ["EngineOptions"]


@dataclass(frozen=True)
class EngineOptions:
    """Engine configuration shared by every stage of an analysis.

    * ``workers`` / ``backend`` — pool size and backend (``auto`` is
      serial at one worker, processes otherwise);
    * ``num_shards`` — shards per stage (default ``4 × workers``; one
      at one worker without ``checkpoint_dir``, where splitting gains
      nothing); directory input always plans one shard per partition
      file;
    * ``checkpoint_dir`` — persist each stage's shards under
      ``<dir>/<stage>`` so a re-run resumes;
    * ``shard_timeout_s`` / ``retries`` — abandon hung pooled shard
      attempts and retry failed ones (see ``docs/robustness.md``);
    * ``faults`` — a :class:`~repro.faults.FaultPlan` installed for
      each stage;
    * ``lenient`` — directory shards skip (and count) malformed lines.
    """

    workers: int = 1
    backend: str = "auto"
    num_shards: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    shard_timeout_s: Optional[float] = None
    retries: int = 0
    faults: Optional["FaultPlan"] = None
    lenient: bool = False

    @property
    def shard_count(self) -> int:
        """Shards of an in-memory record stage and of every item stage."""
        if self.num_shards is not None:
            return self.num_shards
        if self.workers <= 1 and self.checkpoint_dir is None:
            return 1
        return max(1, self.workers) * 4

    def plan_records(
        self,
        logs: Optional[Iterable["RequestLog"]],
        logs_dir: Optional[str],
    ) -> List["Shard"]:
        """Record shards of exactly one input.

        An in-memory iterable shards by stable client hash (a client's
        records never straddle shards); a partitioned directory shards
        per edge × hour file, so the dataset never materializes.
        """
        from .shard import plan_directory_shards, plan_memory_shards

        if (logs is None) == (logs_dir is None):
            raise ValueError("provide exactly one of logs= or logs_dir=")
        if logs_dir is not None:
            on_error = "skip" if self.lenient else "raise"
            return plan_directory_shards(logs_dir, on_error=on_error)
        return plan_memory_shards(list(logs), self.shard_count)

    def run_stage(
        self,
        name: str,
        shards: List["Shard"],
        map_fn: Callable[["Shard"], Any],
        variant: Optional[str] = None,
        state_type: Optional[type] = None,
    ) -> Any:
        """Run one stage; returns the merged state (``None`` when the
        plan is empty).

        The stage is traced as span ``pipeline.<name>``.  Its
        checkpoints live in ``<checkpoint_dir>/<name>[-<variant>]``:
        shard ids are the only checkpoint key, so two stages sharing a
        checkpoint directory must never share a subdirectory.  A
        checkpoint whose state is not a ``state_type`` (one written
        before the stage's state changed) is recomputed.
        """
        from .executor import run_shards

        checkpoint = None
        if self.checkpoint_dir is not None:
            from .checkpoint import CheckpointStore

            stage = f"{name}-{variant}" if variant else name
            checkpoint = CheckpointStore(
                Path(self.checkpoint_dir) / stage, state_type=state_type
            )
        tags = {"shards": len(shards)}
        if variant:
            tags["variant"] = variant
        with span(f"pipeline.{name}", **tags):
            state, _ = run_shards(
                shards,
                map_fn,
                workers=self.workers,
                backend=self.backend,
                checkpoint=checkpoint,
                timeout_s=self.shard_timeout_s,
                retries=self.retries,
                faults=self.faults,
            )
        return state
