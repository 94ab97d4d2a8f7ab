"""Dataset summary statistics (the paper's Table 2).

:class:`DatasetSummary` is a single-pass, constant-memory accumulator
that produces the row the paper reports per dataset — number of logs,
duration, number of domains — plus the auxiliary counts the rest of
the paper leans on (unique clients/objects, content-type mix, method
mix, cache mix, byte volumes).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from .record import CacheStatus, RequestLog

__all__ = ["DatasetSummary", "summarize"]


@dataclass
class DatasetSummary:
    """Streaming accumulator of dataset-level statistics."""

    total_logs: int = 0
    first_timestamp: Optional[float] = None
    last_timestamp: Optional[float] = None
    domains: set = field(default_factory=set)
    clients: set = field(default_factory=set)
    objects: set = field(default_factory=set)
    content_types: Counter = field(default_factory=Counter)
    methods: Counter = field(default_factory=Counter)
    cache_statuses: Counter = field(default_factory=Counter)
    total_response_bytes: int = 0
    total_request_bytes: int = 0

    def add(self, record: RequestLog) -> None:
        """Fold one record into the summary."""
        self.total_logs += 1
        if self.first_timestamp is None or record.timestamp < self.first_timestamp:
            self.first_timestamp = record.timestamp
        if self.last_timestamp is None or record.timestamp > self.last_timestamp:
            self.last_timestamp = record.timestamp
        self.domains.add(record.domain)
        self.clients.add(record.client_id)
        self.objects.add(record.object_id)
        self.content_types[record.content_type] += 1
        # ``_value_`` is the member's value as ``.value`` returns it,
        # read without the enum's Python-level property.
        self.methods[record.method._value_] += 1
        self.cache_statuses[record.cache_status._value_] += 1
        self.total_response_bytes += record.response_bytes
        self.total_request_bytes += record.request_bytes

    def update(self, records: Iterable[RequestLog]) -> "DatasetSummary":
        """Fold an iterable of records; returns self for chaining."""
        for record in records:
            self.add(record)
        return self

    def merge(self, other: "DatasetSummary") -> "DatasetSummary":
        """Combine two partial summaries; exact (counters and sets)."""
        self.total_logs += other.total_logs
        if other.first_timestamp is not None and (
            self.first_timestamp is None
            or other.first_timestamp < self.first_timestamp
        ):
            self.first_timestamp = other.first_timestamp
        if other.last_timestamp is not None and (
            self.last_timestamp is None
            or other.last_timestamp > self.last_timestamp
        ):
            self.last_timestamp = other.last_timestamp
        self.domains |= other.domains
        self.clients |= other.clients
        self.objects |= other.objects
        self.content_types.update(other.content_types)
        self.methods.update(other.methods)
        self.cache_statuses.update(other.cache_statuses)
        self.total_response_bytes += other.total_response_bytes
        self.total_request_bytes += other.total_request_bytes
        return self

    # -- derived metrics -------------------------------------------------

    @property
    def duration_seconds(self) -> float:
        """Span between first and last request (0 for empty/singleton)."""
        if self.first_timestamp is None or self.last_timestamp is None:
            return 0.0
        return self.last_timestamp - self.first_timestamp

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    @property
    def json_fraction(self) -> float:
        """Fraction of requests carrying application/json responses."""
        if not self.total_logs:
            return 0.0
        return self.content_types.get("application/json", 0) / self.total_logs

    @property
    def get_fraction(self) -> float:
        """Fraction of requests using the GET method."""
        if not self.total_logs:
            return 0.0
        return self.methods.get("GET", 0) / self.total_logs

    @property
    def uncacheable_fraction(self) -> float:
        """Fraction of responses marked no-store by customer policy."""
        if not self.total_logs:
            return 0.0
        return (
            self.cache_statuses.get(CacheStatus.NO_STORE.value, 0) / self.total_logs
        )

    @property
    def hit_ratio(self) -> float:
        """Cache hits over cacheable responses (hits + misses)."""
        hits = self.cache_statuses.get(CacheStatus.HIT.value, 0)
        misses = self.cache_statuses.get(CacheStatus.MISS.value, 0)
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    def to_table_row(self, name: str) -> Dict[str, object]:
        """Render the paper's Table 2 row for this dataset."""
        return {
            "dataset": name,
            "num_logs": self.total_logs,
            "duration_seconds": round(self.duration_seconds, 3),
            "num_domains": self.num_domains,
            "num_clients": self.num_clients,
            "num_objects": self.num_objects,
        }


def summarize(records: Iterable[RequestLog]) -> DatasetSummary:
    """Convenience one-shot summary of an iterable of records."""
    return DatasetSummary().update(records)
