"""Mergeable §5.1 flow-collection state for the sharded engine.

:class:`FlowCollectionState` is the periodicity pipeline's unit of
map work: each shard folds its records into raw per-(object, client)
timestamp lists, states merge by **timestamp union** (list
concatenation; sorting happens at finalize), and the merged state
finalizes into exactly the filtered flow map that
:func:`repro.periodicity.flows.extract_flows` builds serially.

Two properties make it correct under *any* shard split, not just the
client-hash plan:

* the paper's significance filters (min requests per client flow,
  min clients per object flow) are applied only at :meth:`finalize`,
  never per shard — a client flow split across shards still counts
  its full request total;
* timestamps are kept as unsorted raw lists and sorted once at
  finalize, so the final per-flow array is a function of the
  timestamp *multiset* only, not of shard boundaries or merge order.

:class:`PeriodicityDetectionState` is the second map stage's unit:
per-object detection outcomes, merged by disjoint-dict union.  The
engine shards objects by ``stable_hash64(object_id)``, so no two
shards ever produce the same key.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..logs.record import (
    CacheStatus, HttpMethod, RecordChunk, RequestLog, record_chunks,
)
from ..periodicity.flows import ClientObjectFlow, FlowFilter, ObjectFlow

if TYPE_CHECKING:
    from ..periodicity.results import ObjectPeriodicity

__all__ = ["FlowCollectionState", "PeriodicityDetectionState"]

FlowKey = Tuple[str, str]  # (object_id, client_id)

#: The methods :meth:`HttpMethod.is_upload` counts as uploads.
_UPLOADS = frozenset(
    method for method in HttpMethod if method.is_upload()
)


@dataclass
class _RawFlow:
    """Unsorted per-(object, client) accumulators."""

    timestamps: List[float] = field(default_factory=list)
    upload_count: int = 0
    uncacheable_count: int = 0


class FlowCollectionState:
    """Mergeable partial state of the §5.1 flow extraction."""

    def __init__(self, flow_filter: Optional[FlowFilter] = None) -> None:
        self.flow_filter = flow_filter or FlowFilter()
        self.total_json_requests = 0
        self.record_count = 0
        self._raw: Dict[FlowKey, _RawFlow] = {}

    def update(self, records: Iterable[RequestLog]) -> "FlowCollectionState":
        for chunk in record_chunks(records):
            self.fold(chunk)
        return self

    def fold(self, chunk: RecordChunk) -> None:
        """Fold one chunk; mirrors ``extract_flows`` exactly.

        Flows are grouped per chunk, then each distinct (object,
        client) key takes its timestamps in record order and its
        counts, in first-occurrence order.
        """
        records = chunk.records
        is_json = chunk.is_json
        self.record_count += len(records)
        self.total_json_requests += sum(is_json)
        keys = list(zip(chunk.object_ids, chunk.client_ids))
        if self.flow_filter.json_only:
            records = list(compress(records, is_json))
            keys = list(compress(keys, is_json))
        groups: Dict[FlowKey, List[float]] = {}
        for key, record in zip(keys, records):
            timestamps = groups.get(key)
            if timestamps is None:
                groups[key] = [record.timestamp]
            else:
                timestamps.append(record.timestamp)
        uploads = Counter(compress(keys, [
            record.method in _UPLOADS for record in records
        ]))
        uncacheable = Counter(compress(keys, [
            record.cache_status is CacheStatus.NO_STORE for record in records
        ]))
        flows = self._raw
        for key, timestamps in groups.items():
            raw = flows.get(key)
            if raw is None:
                raw = flows[key] = _RawFlow()
            raw.timestamps.extend(timestamps)
            raw.upload_count += uploads[key]
            raw.uncacheable_count += uncacheable[key]

    def merge(self, other: "FlowCollectionState") -> "FlowCollectionState":
        """Timestamp-union merge; exact under any shard split."""
        if other.flow_filter != self.flow_filter:
            raise ValueError(
                f"cannot merge flow states with different filters: "
                f"{self.flow_filter} != {other.flow_filter}"
            )
        self.total_json_requests += other.total_json_requests
        self.record_count += other.record_count
        for key, theirs in other._raw.items():
            mine = self._raw.get(key)
            if mine is None:
                self._raw[key] = _RawFlow(
                    timestamps=list(theirs.timestamps),
                    upload_count=theirs.upload_count,
                    uncacheable_count=theirs.uncacheable_count,
                )
            else:
                mine.timestamps.extend(theirs.timestamps)
                mine.upload_count += theirs.upload_count
                mine.uncacheable_count += theirs.uncacheable_count
        return self

    def finalize(self) -> Dict[str, ObjectFlow]:
        """Apply the §5.1 filters and build the flow map.

        Produces the same flows (same keys, timestamp arrays, and
        tallies) as ``extract_flows`` over the unsplit record stream;
        objects and client flows come out in sorted-id order, which
        is the canonical ordering for the parallel path.

        Both filters run on the raw lists first, so a timestamp array
        is built only for a client flow that ends up in the result,
        and numpy loads only when one does.
        """
        criteria = self.flow_filter
        clients: Dict[str, List[str]] = {}
        for object_id, client_id in sorted(
            key
            for key, raw in self._raw.items()
            if len(raw.timestamps) >= criteria.min_requests_per_client_flow
        ):
            clients.setdefault(object_id, []).append(client_id)
        kept = {
            object_id: client_ids
            for object_id, client_ids in clients.items()
            if len(client_ids) >= criteria.min_clients_per_object_flow
        }
        if not kept:
            return {}

        import numpy as np

        objects: Dict[str, ObjectFlow] = {}
        for object_id, client_ids in kept.items():
            flow = objects[object_id] = ObjectFlow(object_id)
            for client_id in client_ids:
                raw = self._raw[(object_id, client_id)]
                flow.client_flows[client_id] = ClientObjectFlow(
                    object_id=object_id,
                    client_id=client_id,
                    timestamps=np.sort(
                        np.asarray(raw.timestamps, dtype=np.float64)
                    ),
                    upload_count=raw.upload_count,
                    uncacheable_count=raw.uncacheable_count,
                )
        return objects

    def canonical(self):
        """Order-independent value for merge-property comparisons."""
        return (
            self.flow_filter,
            self.total_json_requests,
            self.record_count,
            {
                key: (
                    tuple(sorted(raw.timestamps)),
                    raw.upload_count,
                    raw.uncacheable_count,
                )
                for key, raw in self._raw.items()
            },
        )


class PeriodicityDetectionState:
    """Mergeable per-object detection outcomes (second map stage)."""

    def __init__(
        self, objects: Optional[Dict[str, ObjectPeriodicity]] = None
    ) -> None:
        self.objects: Dict[str, ObjectPeriodicity] = objects or {}

    @property
    def record_count(self) -> int:
        return len(self.objects)

    def merge(self, other: "PeriodicityDetectionState") -> "PeriodicityDetectionState":
        overlap = self.objects.keys() & other.objects.keys()
        if overlap:
            raise ValueError(
                f"detection shards overlap on objects: {sorted(overlap)[:5]}"
            )
        self.objects.update(other.objects)
        return self
