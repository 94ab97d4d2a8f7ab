"""Sharded analysis engine: every analysis runs on it, serial included.

Splits a dataset into shards (:mod:`repro.engine.shard`), folds each
shard into one mergeable :class:`TrackState` holding the requested
tracks' states (:mod:`repro.engine.tracks`, composing
:mod:`repro.engine.state`, :mod:`repro.engine.flowstate` and
:mod:`repro.engine.ngramstate`), runs the map phase on a
serial/thread/process backend and folds the states back together in
deterministic plan order (:mod:`repro.engine.executor`),
checkpointing partials so interrupted runs resume
(:mod:`repro.engine.checkpoint`).  One :class:`EngineOptions`
(:mod:`repro.engine.options`) configures every stage of a run.

See ``docs/engine.md`` for the flow diagram.
"""

from .._lazy import lazy_exports

__all__ = [
    "BACKENDS",
    "CharacterizationState",
    "CheckpointError",
    "CheckpointStore",
    "EngineError",
    "EngineOptions",
    "FileShard",
    "FlowCollectionState",
    "ItemShard",
    "MemoryShard",
    "NgramEvalState",
    "NgramSequenceState",
    "PeriodicityDetectionState",
    "RunReport",
    "Shard",
    "ShardResult",
    "TrackState",
    "plan_directory_shards",
    "plan_item_shards",
    "plan_memory_shards",
    "run_shards",
    "stable_hash64",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".checkpoint": ("CheckpointError", "CheckpointStore"),
    ".executor": (
        "BACKENDS", "EngineError", "RunReport", "ShardResult", "run_shards",
    ),
    ".flowstate": ("FlowCollectionState", "PeriodicityDetectionState"),
    ".ngramstate": ("NgramEvalState", "NgramSequenceState"),
    ".options": ("EngineOptions",),
    ".shard": (
        "FileShard", "ItemShard", "MemoryShard", "Shard",
        "plan_directory_shards", "plan_item_shards", "plan_memory_shards",
        "stable_hash64",
    ),
    ".state": ("CharacterizationState",),
    ".tracks": ("TrackState",),
})
