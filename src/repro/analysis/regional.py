"""Per-region traffic analysis (the paper's §7 geographic future work).

Groups logs by the serving edge's region (edge ids are
``<region>-edge-<n>`` in multi-region datasets) and computes per-
region volumes, hourly activity profiles, and peak hours — enough to
"explore geographic and temporal differences in JSON traffic
patterns" as §7 proposes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.stats import ranked
from ..logs.record import RequestLog

__all__ = ["RegionStats", "regional_breakdown", "edge_region"]


def edge_region(edge_id: str) -> str:
    """Region name from an edge id (empty for single-region ids)."""
    prefix, separator, rest = edge_id.partition("-edge-")
    if separator and rest != "":
        return prefix if prefix != "edge" else ""
    return ""


@dataclass
class RegionStats:
    """Traffic aggregates for one region."""

    region: str
    total_requests: int = 0
    json_requests: int = 0
    hourly_volume: Counter = field(default_factory=Counter)
    unique_clients: set = field(default_factory=set)

    def add(self, record: RequestLog, epoch: float) -> None:
        self.total_requests += 1
        if record.is_json:
            self.json_requests += 1
        hour = int(((record.timestamp - epoch) / 3600.0) % 24)
        self.hourly_volume[hour] += 1
        self.unique_clients.add(record.client_id)

    @property
    def json_share(self) -> float:
        return self.json_requests / self.total_requests if self.total_requests else 0.0

    @property
    def client_count(self) -> int:
        return len(self.unique_clients)

    def peak_hour(self) -> int:
        """Busiest dataset-clock hour (diurnal phase indicator); the
        earliest hour wins a tie."""
        if not self.hourly_volume:
            return 0
        return ranked(self.hourly_volume)[0][0]

    def peak_to_trough(self) -> float:
        """Ratio of busiest to quietest hourly volume."""
        if not self.hourly_volume:
            return 1.0
        volumes = [self.hourly_volume.get(hour, 0) for hour in range(24)]
        low = min(volumes)
        return max(volumes) / max(low, 1)

    def hourly_profile(self) -> List[Tuple[int, int]]:
        return [(hour, self.hourly_volume.get(hour, 0)) for hour in range(24)]


def regional_breakdown(
    logs: Iterable[RequestLog], epoch: Optional[float] = None
) -> Dict[str, RegionStats]:
    """Group a log stream by serving region.

    ``epoch`` anchors hour-of-day; defaults to the first record's
    timestamp.
    """
    stats: Dict[str, RegionStats] = {}
    anchor = epoch
    for record in logs:
        if anchor is None:
            anchor = record.timestamp
        region = edge_region(record.edge_id)
        bucket = stats.get(region)
        if bucket is None:
            bucket = RegionStats(region)
            stats[region] = bucket
        bucket.add(record, anchor)
    return stats


def peak_hour_spread(stats: Dict[str, RegionStats]) -> int:
    """Largest circular peak-hour gap between any two regions.

    Multi-timezone deployments show hours of spread; single-region
    datasets show ~0.
    """
    peaks = [bucket.peak_hour() for bucket in stats.values()]
    if len(peaks) < 2:
        return 0
    spread = 0
    for a in peaks:
        for b in peaks:
            gap = abs(a - b)
            spread = max(spread, min(gap, 24 - gap))
    return spread
