"""Customer origin servers.

Uncacheable and missed requests propagate "from the edge server
through the CDN to origin content servers" (§4).  The origin model
tracks the offload the CDN is (or is not) providing each customer:
every origin fetch is a request the customer's own infrastructure had
to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.stats import ranked

__all__ = ["OriginFleet", "OriginStats"]


@dataclass
class OriginStats:
    """Per-domain origin load counters."""

    requests: int = 0
    bytes_served: int = 0


class OriginFleet:
    """Aggregate view of all customer origins behind the CDN."""

    def __init__(self) -> None:
        self._per_domain: Dict[str, OriginStats] = {}
        self.total_requests = 0
        self.total_bytes = 0

    def fetch(self, domain: str, response_bytes: int) -> None:
        """Record one origin fetch for a domain."""
        stats = self._per_domain.setdefault(domain, OriginStats())
        stats.requests += 1
        stats.bytes_served += response_bytes
        self.total_requests += 1
        self.total_bytes += response_bytes

    def domain_stats(self, domain: str) -> OriginStats:
        return self._per_domain.get(domain, OriginStats())

    def offload_ratio(self, total_cdn_requests: int) -> float:
        """Fraction of CDN requests the origins did NOT see."""
        if total_cdn_requests <= 0:
            return 0.0
        return 1.0 - self.total_requests / total_cdn_requests

    def top_domains(self, count: int = 10) -> Dict[str, int]:
        """Most-requested domains, ties broken by name."""
        return dict(
            ranked(
                {domain: stats.requests for domain, stats in self._per_domain.items()}
            )[:count]
        )
