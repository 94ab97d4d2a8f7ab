"""CDN edge-delivery substrate.

LRU+TTL caching, origin fleet accounting, latency models, the edge
server that turns request events into log records, delivery metrics,
and the two optimizations the paper proposes: ngram prefetching
(§5.2) and machine-traffic deprioritization (§5.1).
"""

from .._lazy import lazy_exports

__all__ = [
    "LruTtlCache",
    "CacheEntry",
    "CacheStats",
    "EdgeServer",
    "ServedRequest",
    "LatencyModel",
    "LatencySample",
    "OriginFleet",
    "OriginStats",
    "DeliveryMetrics",
    "percentile",
    "NgramPrefetcher",
    "TimedNgramPrefetcher",
    "ObjectIndex",
    "PrefetchStats",
    "build_object_index",
    "PurgeController",
    "PurgeRequest",
    "ReplayPolicy",
    "ReplayOutcome",
    "WhatIfReplayer",
    "Job",
    "CompletedJob",
    "PriorityServer",
    "ClassMetrics",
    "simulate",
    "HUMAN",
    "MACHINE",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("CacheEntry", "CacheStats", "LruTtlCache"),
    ".edge": ("EdgeServer", "ServedRequest"),
    ".metrics": ("DeliveryMetrics", "percentile"),
    ".network": ("LatencyModel", "LatencySample"),
    ".origin": ("OriginFleet", "OriginStats"),
    ".prefetch": (
        "NgramPrefetcher", "ObjectIndex", "PrefetchStats",
        "TimedNgramPrefetcher", "build_object_index",
    ),
    ".purge": ("PurgeController", "PurgeRequest"),
    ".replay": ("ReplayOutcome", "ReplayPolicy", "WhatIfReplayer"),
    ".scheduler": (
        "HUMAN", "MACHINE", "ClassMetrics", "CompletedJob", "Job",
        "PriorityServer", "simulate",
    ),
})
