"""§4 response-size analysis.

Computes size distributions per content type and the two size
comparisons the paper reports: JSON vs HTML at the median and 75th
percentile (24% and 87% smaller respectively), and the JSON
mean-size trend since 2016 (~28% decrease).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.stats import percentile
from ..logs.record import RequestLog

__all__ = ["SizeDistribution", "SizeComparison", "analyze_sizes", "compare_sizes"]


@dataclass
class SizeDistribution:
    """Accumulated response sizes for one content type."""

    content_type: str
    sizes: List[int] = field(default_factory=list)

    def add(self, size: int) -> None:
        self.sizes.append(size)

    def merge(self, other: "SizeDistribution") -> "SizeDistribution":
        """Combine two partial distributions (order-insensitive stats)."""
        if other.content_type != self.content_type:
            raise ValueError(
                "cannot merge distributions of different content types: "
                f"{self.content_type!r} != {other.content_type!r}"
            )
        self.sizes.extend(other.sizes)
        return self

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def mean(self) -> float:
        return sum(self.sizes) / len(self.sizes) if self.sizes else 0.0

    def percentile(self, q: float) -> float:
        if not self.sizes:
            raise ValueError(f"no sizes recorded for {self.content_type}")
        return percentile(self.sizes, q)

    @property
    def median(self) -> float:
        return self.percentile(50)

    def summary(self) -> Dict[str, float]:
        if not self.sizes:
            return {"count": 0}
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p25": self.percentile(25),
            "p50": self.percentile(50),
            "p75": self.percentile(75),
            "p95": self.percentile(95),
        }


@dataclass(frozen=True)
class SizeComparison:
    """How much smaller one content type is than another."""

    numerator: str
    denominator: str
    smaller_at_p50: float
    smaller_at_p75: float

    @staticmethod
    def between(a: SizeDistribution, b: SizeDistribution) -> "SizeComparison":
        """Relative size reduction of ``a`` vs ``b`` at p50/p75.

        A value of 0.24 means ``a``'s median is 24% below ``b``'s.
        """
        return SizeComparison(
            numerator=a.content_type,
            denominator=b.content_type,
            smaller_at_p50=1.0 - a.percentile(50) / b.percentile(50),
            smaller_at_p75=1.0 - a.percentile(75) / b.percentile(75),
        )


def analyze_sizes(
    logs: Iterable[RequestLog],
    content_types: Sequence[str] = ("application/json", "text/html"),
) -> Dict[str, SizeDistribution]:
    """Collect size distributions for the requested content types."""
    wanted = {ct.lower() for ct in content_types}
    distributions: Dict[str, SizeDistribution] = {
        ct: SizeDistribution(ct) for ct in wanted
    }
    for record in logs:
        content_type = record.content_type
        if content_type in wanted:
            distributions[content_type].add(record.response_bytes)
    return distributions


def compare_sizes(logs: Iterable[RequestLog]) -> SizeComparison:
    """The paper's JSON-vs-HTML size comparison on one dataset."""
    distributions = analyze_sizes(logs)
    return SizeComparison.between(
        distributions["application/json"], distributions["text/html"]
    )
