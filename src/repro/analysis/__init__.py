"""§4/§5 analyses over request logs.

Characterization (traffic source, request type), response sizes,
cacheability + the Figure 4 heatmap, and the Figure 1 trend.  The §5
pattern analyses live in :mod:`repro.periodicity` and
:mod:`repro.ngram` and are re-exported here for a single entry point.
"""

from .._lazy import lazy_exports

__all__ = [
    "TrafficSourceBreakdown",
    "RequestTypeBreakdown",
    "characterize",
    "Session",
    "SessionStats",
    "sessionize",
    "session_statistics",
    "SizeDistribution",
    "SizeComparison",
    "analyze_sizes",
    "compare_sizes",
    "CacheabilityStats",
    "DomainCacheability",
    "CacheabilityHeatmap",
    "analyze_cacheability",
    "CostModel",
    "ContentCost",
    "serving_costs",
    "DriftReport",
    "MetricDelta",
    "compare_traffic",
    "traffic_metrics",
    "RegionStats",
    "regional_breakdown",
    "edge_region",
    "peak_hour_spread",
    "TrendAnalysis",
    "analyze_trend",
    "snapshot_ratio",
    "analyze_periodicity",
    "run_table3",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "..ngram.evaluate": ("run_table3",),
    "..periodicity.results": ("analyze_logs as analyze_periodicity",),
    ".cacheability": (
        "CacheabilityHeatmap", "CacheabilityStats", "DomainCacheability",
        "analyze_cacheability",
    ),
    ".characterize": (
        "RequestTypeBreakdown", "TrafficSourceBreakdown", "characterize",
    ),
    ".sessionize": (
        "Session", "SessionStats", "session_statistics", "sessionize",
    ),
    ".sizes": (
        "SizeComparison", "SizeDistribution", "analyze_sizes", "compare_sizes",
    ),
    ".cost": ("ContentCost", "CostModel", "serving_costs"),
    ".drift": (
        "DriftReport", "MetricDelta", "compare_traffic", "traffic_metrics",
    ),
    ".regional": (
        "RegionStats", "edge_region", "peak_hour_spread", "regional_breakdown",
    ),
    ".trend": ("TrendAnalysis", "analyze_trend", "snapshot_ratio"),
})
