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

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..analysis.cacheability import (
    CacheabilityHeatmap,
    CacheabilityStats,
    DomainCacheability,
)
from ..analysis.characterize import RequestTypeBreakdown, TrafficSourceBreakdown
from ..analysis.sizes import SizeDistribution
from ..core.taxonomy import AppClass
from ..logs.record import CacheStatus, RecordChunk, RequestLog, record_chunks
from ..logs.summary import DatasetSummary
from ..useragent.appid import AppUsageReport, identify_app
from ..useragent.classify import SHARED_CLASSIFIER

__all__ = ["CharacterizationState"]

_SIZE_CONTENT_TYPES: Tuple[str, ...] = ("application/json", "text/html")


@dataclass
class CharacterizationState:
    """Mergeable partial state of the §4 characterization.

    One instance per shard: :meth:`update` folds records, a chunk at a
    time, to exactly what the analysis-layer functions compute,
    :meth:`merge` combines shard states losslessly (the underlying
    accumulators are counters and sets), and :meth:`to_report`
    finalizes a :class:`~repro.core.pipeline.CharacterizationReport`.
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

    def update(self, records: Iterable[RequestLog]) -> "CharacterizationState":
        for chunk in record_chunks(records):
            self.fold(chunk)
        return self

    def fold(self, chunk: RecordChunk) -> None:
        """Fold one chunk; equal to the analysis-layer functions.

        Column passes feed the counters and sets in record order, and
        each distinct user agent and domain of the chunk is classified
        once and counted in first-occurrence order, so every counter,
        dict and set is built in the order a record-by-record fold
        builds it.
        """
        records = chunk.records
        content_types = chunk.content_types
        methods = [record.method for record in records]
        statuses = [record.cache_status for record in records]
        response_bytes = [record.response_bytes for record in records]
        timestamps = [record.timestamp for record in records]

        summary = self.summary
        summary.total_logs += len(records)
        first, last = summary.first_timestamp, summary.last_timestamp
        summary.first_timestamp = (
            min(timestamps) if first is None else min(first, *timestamps)
        )
        summary.last_timestamp = (
            max(timestamps) if last is None else max(last, *timestamps)
        )
        summary.domains.update([record.domain for record in records])
        summary.clients.update(chunk.client_ids)
        summary.objects.update(chunk.object_ids)
        summary.content_types.update(content_types)
        # ``_value_`` is ``.value`` without the enum's Python-level property.
        for method, count in Counter(methods).items():
            summary.methods[method._value_] += count
        for status, count in Counter(statuses).items():
            summary.cache_statuses[status._value_] += count
        summary.total_response_bytes = sum(
            response_bytes, summary.total_response_bytes
        )
        summary.total_request_bytes = sum(
            [record.request_bytes for record in records],
            summary.total_request_bytes,
        )
        for content_type, sizes in self.sizes.items():
            sizes.sizes.extend(compress(response_bytes, [
                kind == content_type for kind in content_types
            ]))

        is_json = chunk.is_json
        json_records = list(compress(records, is_json))
        if not json_records:
            return
        count = len(json_records)
        agents = [record.user_agent for record in json_records]
        json_bytes = list(compress(response_bytes, is_json))
        json_statuses = list(compress(statuses, is_json))
        json_domains = [record.domain for record in json_records]

        self.request_type.total_requests += count
        method_counts = self.request_type.method_counts
        for method, method_count in Counter(compress(methods, is_json)).items():
            method_counts[method._value_] += method_count

        hits = json_statuses.count(CacheStatus.HIT)
        misses = json_statuses.count(CacheStatus.MISS)
        cacheability = self.cacheability
        cacheability.total += count
        cacheability.hits += hits
        cacheability.misses += misses
        cacheability.no_store += count - hits - misses

        cacheable = Counter(compress(json_domains, [
            status is not CacheStatus.NO_STORE for status in json_statuses
        ]))
        for name, total in Counter(json_domains).items():
            domain = self.domains.get(name)
            if domain is None:
                domain = self.domains[name] = DomainCacheability(name)
            domain.total_requests += total
            domain.cacheable_requests += cacheable[name]

        bytes_by_agent: Dict[Optional[str], int] = {}
        for agent, size in zip(agents, json_bytes):
            bytes_by_agent[agent] = bytes_by_agent.get(agent, 0) + size
        source = self.traffic_source
        apps = self.apps
        source.total_requests += count
        apps.total_requests += count
        classify = SHARED_CLASSIFIER.classify
        for agent, agent_count in Counter(agents).items():
            traffic = classify(agent)
            device = traffic.device._value_
            source.device_counts[device] += agent_count
            source.app_counts[traffic.app._value_] += agent_count
            if traffic.app is AppClass.BROWSER:
                source.browser_by_device[device] += agent_count
            if agent:
                source.ua_strings_by_device.setdefault(device, set()).add(agent)
            identity = identify_app(agent)
            apps.requests_per_app[identity.name] += agent_count
            apps.bytes_per_app[identity.name] += bytes_by_agent[agent]
            if identity.identified and identity.version:
                versions = apps.versions_per_app.get(identity.name)
                if versions is None:
                    versions = apps.versions_per_app[identity.name] = Counter()
                versions[identity.version] += agent_count

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
