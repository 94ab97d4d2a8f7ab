"""Shard planning: split a dataset into independent units of work.

Two sources, one contract.  A :class:`Shard` has a stable
``shard_id`` (the checkpoint key) and yields its records via
:meth:`Shard.iter_logs`; the executor never cares where the records
come from.

* :func:`plan_directory_shards` walks the partitioned log layout
  written by :mod:`repro.logs.partition` (``<root>/<edge>/<bucket>``)
  and makes one shard per edge × time-bucket group.  This is the
  production path — each shard reads only its own files, so a run
  never materializes the dataset.
* :func:`plan_memory_shards` splits an in-memory record list by a
  stable hash of the client id, so all of one client's traffic lands
  in one shard (per-client analyses stay shard-local) and the plan
  is identical across runs and processes.
* :func:`plan_item_shards` splits an arbitrary item list (object
  flows, client sequences, …) by a stable hash of a caller-supplied
  key, for second map stages that fan out over merged state rather
  than raw records.

Shard identity is deliberately content-addressed-ish: directory
shards are named by their relative file paths, memory shards by
``index-of-count``.  Re-planning the same inputs yields the same ids
in the same order — the engine's determinism and checkpoint-resume
both hang off that.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..logs.io import PathLike, read_logs
from ..logs.record import RequestLog

__all__ = [
    "Shard",
    "FileShard",
    "MemoryShard",
    "ItemShard",
    "plan_directory_shards",
    "plan_memory_shards",
    "plan_item_shards",
    "stable_hash64",
]


def stable_hash64(value: str) -> int:
    """Process-stable 64-bit hash of a string.

    The builtin ``hash`` is salted per interpreter (PYTHONHASHSEED),
    so shard assignments made in different worker processes would
    disagree; BLAKE2b is stable everywhere and fast enough.
    """
    return int.from_bytes(
        blake2b(value.encode("utf-8"), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class Shard:
    """One independent unit of work with a stable identity."""

    shard_id: str

    def iter_logs(self) -> Iterator[RequestLog]:
        raise NotImplementedError


@dataclass(frozen=True)
class FileShard(Shard):
    """A shard backed by partition files (one edge, ≥1 time buckets)."""

    paths: Tuple[str, ...] = ()
    on_error: str = "raise"

    def iter_logs(self) -> Iterator[RequestLog]:
        for path in self.paths:
            yield from read_logs(path, on_error=self.on_error)


@dataclass(frozen=True)
class MemoryShard(Shard):
    """A shard backed by an in-memory record tuple."""

    records: Tuple[RequestLog, ...] = ()

    def iter_logs(self) -> Iterator[RequestLog]:
        return iter(self.records)


@dataclass(frozen=True)
class ItemShard(Shard):
    """A shard of arbitrary picklable items (no log records).

    Used by second map stages that fan out over merged state — e.g.
    period detection over object flows, or ngram training/evaluation
    over client sequences — where the unit of work is not a
    :class:`~repro.logs.record.RequestLog`.
    """

    items: Tuple[Any, ...] = ()

    def iter_logs(self) -> Iterator[RequestLog]:
        raise TypeError("ItemShard carries items, not log records")


def plan_directory_shards(
    root: PathLike,
    edge_id: Optional[str] = None,
    files_per_shard: int = 1,
    on_error: str = "raise",
) -> List[FileShard]:
    """Plan shards over a partitioned log directory.

    Files are grouped per edge in bucket order, ``files_per_shard``
    consecutive buckets per shard (1 = one shard per hour file).  The
    shard id is the relative path of the group's first file plus the
    group size, so the same directory always plans the same ids.
    """
    # Imported here: in-memory and item plans never walk a directory.
    from ..logs.partition import partition_edges

    if files_per_shard <= 0:
        raise ValueError("files_per_shard must be positive")
    root = Path(root)
    shards: List[FileShard] = []
    for paths in partition_edges(root, edge_id).values():
        for start in range(0, len(paths), files_per_shard):
            group = paths[start:start + files_per_shard]
            first_rel = group[0].relative_to(root).as_posix()
            shard_id = (
                first_rel
                if len(group) == 1
                else f"{first_rel}+{len(group) - 1}"
            )
            shards.append(
                FileShard(
                    shard_id=shard_id,
                    paths=tuple(str(path) for path in group),
                    on_error=on_error,
                )
            )
    return shards


def plan_memory_shards(
    logs: Sequence[RequestLog],
    num_shards: int,
) -> List[MemoryShard]:
    """Split an in-memory dataset into ``num_shards`` by client hash.

    The split is a stable partition: records keep their stream order
    within a shard, and a client's records all land in the shard
    ``stable_hash64(client_id) % num_shards`` — identical in every
    process regardless of PYTHONHASHSEED.  Empty shards are kept so
    the plan shape depends only on ``num_shards``.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if num_shards == 1:
        return [MemoryShard(shard_id="mem-0000-of-0001", records=tuple(logs))]
    buckets: List[List[RequestLog]] = [[] for _ in range(num_shards)]
    for record in logs:
        buckets[stable_hash64(record.client_id) % num_shards].append(record)
    return [
        MemoryShard(
            shard_id=f"mem-{index:04d}-of-{num_shards:04d}",
            records=tuple(bucket),
        )
        for index, bucket in enumerate(buckets)
    ]


def plan_item_shards(
    items: Sequence[Any],
    num_shards: int,
    key: Callable[[Any], str],
    prefix: str = "items",
) -> List[ItemShard]:
    """Split arbitrary items into ``num_shards`` by a stable key hash.

    Same contract as :func:`plan_memory_shards`, generalized: items
    keep their order within a shard, an item lands in shard
    ``stable_hash64(key(item)) % num_shards`` in every process, and
    empty shards are kept so the plan shape depends only on
    ``num_shards``.  ``prefix`` namespaces the shard ids so two item
    stages of one run never collide in a checkpoint store.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    buckets: List[List[Any]] = [[] for _ in range(num_shards)]
    for item in items:
        buckets[stable_hash64(key(item)) % num_shards].append(item)
    return [
        ItemShard(
            shard_id=f"{prefix}-{index:04d}-of-{num_shards:04d}",
            items=tuple(bucket),
        )
        for index, bucket in enumerate(buckets)
    ]
