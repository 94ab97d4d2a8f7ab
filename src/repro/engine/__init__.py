"""Sharded parallel analysis engine.

Splits a dataset into shards (:mod:`repro.engine.shard`), maps each
shard to a mergeable partial state (:mod:`repro.engine.state`,
:mod:`repro.engine.flowstate`, :mod:`repro.engine.ngramstate`),
runs the map phase on a serial/thread/process backend and folds the
states back together in deterministic plan order
(:mod:`repro.engine.executor`), checkpointing partials so interrupted
runs resume (:mod:`repro.engine.checkpoint`).

See ``docs/engine.md`` for the flow diagram.
"""

from .._lazy import lazy_exports

__all__ = [
    "BACKENDS",
    "CharacterizationState",
    "CheckpointError",
    "CheckpointStore",
    "EngineError",
    "FileShard",
    "FlowCollectionState",
    "ItemShard",
    "MemoryShard",
    "NgramEvalState",
    "NgramSequenceState",
    "PeriodicityDetectionState",
    "RunReport",
    "Shard",
    "ShardExecutor",
    "ShardResult",
    "plan_directory_shards",
    "plan_item_shards",
    "plan_memory_shards",
    "run_shards",
    "stable_hash64",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".checkpoint": ("CheckpointError", "CheckpointStore"),
    ".executor": (
        "BACKENDS", "EngineError", "RunReport", "ShardExecutor", "ShardResult",
        "run_shards",
    ),
    ".flowstate": ("FlowCollectionState", "PeriodicityDetectionState"),
    ".ngramstate": ("NgramEvalState", "NgramSequenceState"),
    ".shard": (
        "FileShard", "ItemShard", "MemoryShard", "Shard",
        "plan_directory_shards", "plan_item_shards", "plan_memory_shards",
        "stable_hash64",
    ),
    ".state": ("CharacterizationState",),
})
