"""The engine's unit of work: a mergeable §4 characterization state.

:class:`CharacterizationState` is what the map phase produces per
shard and what the reduce phase folds together.  It composes the
analysis layer's own accumulators (dataset summary,
traffic-source/request-type breakdowns, cacheability, per-domain
counts, size distributions, app usage), all of which merge
losslessly because they are counters and lists.

The invariant the engine tests enforce: for any split of a dataset
into shards, ``merge``-ing the per-shard states and finalizing with
:meth:`CharacterizationState.to_report` yields a report identical to
the analysis-layer functions (:func:`~repro.analysis.characterize`,
:func:`~repro.analysis.analyze_cacheability`, …) over the unsplit
records.  User agents classify through the process-wide
:data:`~repro.useragent.classify.SHARED_CLASSIFIER` and
:func:`~repro.useragent.appid.identify_app` memos, so a state carries
no cache of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..analysis.cacheability import (
    CacheabilityHeatmap,
    CacheabilityStats,
    DomainCacheability,
)
from ..analysis.characterize import RequestTypeBreakdown, TrafficSourceBreakdown
from ..analysis.sizes import SizeDistribution
from ..logs.record import RequestLog
from ..logs.summary import DatasetSummary
from ..useragent.appid import AppUsageReport, identify_app
from ..useragent.classify import SHARED_CLASSIFIER

__all__ = ["CharacterizationState"]

_SIZE_CONTENT_TYPES: Tuple[str, ...] = ("application/json", "text/html")


@dataclass
class CharacterizationState:
    """Mergeable partial state of the §4 characterization.

    One instance per shard: :meth:`ingest` folds records in exactly
    the way the analysis-layer functions do, :meth:`merge` combines
    shard states losslessly (the underlying accumulators are counters
    and sets), and :meth:`to_report` finalizes a
    :class:`~repro.core.pipeline.CharacterizationReport`.
    """

    summary: DatasetSummary = field(default_factory=DatasetSummary)
    traffic_source: TrafficSourceBreakdown = field(
        default_factory=TrafficSourceBreakdown
    )
    request_type: RequestTypeBreakdown = field(default_factory=RequestTypeBreakdown)
    cacheability: CacheabilityStats = field(default_factory=CacheabilityStats)
    domains: Dict[str, DomainCacheability] = field(default_factory=dict)
    sizes: Dict[str, SizeDistribution] = field(
        default_factory=lambda: {
            ct: SizeDistribution(ct) for ct in _SIZE_CONTENT_TYPES
        }
    )
    apps: AppUsageReport = field(default_factory=AppUsageReport)

    @property
    def record_count(self) -> int:
        return self.summary.total_logs

    def ingest(self, record: RequestLog) -> None:
        """Fold one record; mirrors the analysis-layer functions exactly."""
        self.summary.add(record)
        # One split of the mime type serves the size distributions and
        # the JSON filter (``record.is_json``).
        content_type = record.content_type
        sizes = self.sizes.get(content_type)
        if sizes is not None:
            sizes.add(record.response_bytes)
        if content_type != "application/json":
            return
        self.traffic_source.add(record, SHARED_CLASSIFIER)
        self.request_type.add(record)
        self.cacheability.add(record)
        domain = self.domains.get(record.domain)
        if domain is None:
            domain = DomainCacheability(record.domain)
            self.domains[record.domain] = domain
        domain.total_requests += 1
        if record.cacheable:
            domain.cacheable_requests += 1
        self.apps.add(identify_app(record.user_agent), record)

    def update(self, records: Iterable[RequestLog]) -> "CharacterizationState":
        for record in records:
            self.ingest(record)
        return self

    def merge(self, other: "CharacterizationState") -> "CharacterizationState":
        """Combine two partial states; exact for all §4 counters."""
        self.summary.merge(other.summary)
        self.traffic_source.merge(other.traffic_source)
        self.request_type.merge(other.request_type)
        self.cacheability.merge(other.cacheability)
        for name, theirs in other.domains.items():
            mine = self.domains.get(name)
            if mine is None:
                self.domains[name] = DomainCacheability(
                    theirs.domain,
                    theirs.category,
                    theirs.cacheable_requests,
                    theirs.total_requests,
                )
            else:
                mine.cacheable_requests += theirs.cacheable_requests
                mine.total_requests += theirs.total_requests
        for content_type, theirs in other.sizes.items():
            mine = self.sizes.get(content_type)
            if mine is None:
                self.sizes[content_type] = theirs
            else:
                mine.merge(theirs)
        self.apps.merge(other.apps)
        return self

    def build_heatmap(
        self, domain_categories: Optional[Mapping[str, str]] = None
    ) -> CacheabilityHeatmap:
        """Figure 4 heatmap from the merged per-domain counts."""
        heatmap = CacheabilityHeatmap()
        for name, stats in self.domains.items():
            category = stats.category
            if category is None and domain_categories:
                category = domain_categories.get(name)
            heatmap.add_domain(
                DomainCacheability(
                    stats.domain,
                    category,
                    stats.cacheable_requests,
                    stats.total_requests,
                )
            )
        return heatmap

    def to_report(self, domain_categories: Optional[Mapping[str, str]] = None):
        """Finalize into the serial pipeline's report type."""
        from ..core.pipeline import CharacterizationReport

        return CharacterizationReport(
            summary=self.summary,
            traffic_source=self.traffic_source,
            request_type=self.request_type,
            cacheability=self.cacheability,
            heatmap=self.build_heatmap(domain_categories),
            sizes=self.sizes,
            apps=self.apps,
        )
