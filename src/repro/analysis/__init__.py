"""§4/§5 analyses over request logs.

Characterization (traffic source, request type), response sizes,
cacheability + the Figure 4 heatmap, and the Figure 1 trend.  The §5
pattern analyses live in :mod:`repro.periodicity` and
:mod:`repro.ngram` and are re-exported here for a single entry point.
"""

from ..ngram.evaluate import run_table3
from ..periodicity.results import analyze_logs as analyze_periodicity
from .cacheability import (
    CacheabilityHeatmap,
    CacheabilityStats,
    DomainCacheability,
    analyze_cacheability,
)
from .characterize import (
    RequestTypeBreakdown,
    TrafficSourceBreakdown,
    characterize,
)
from .sessionize import Session, SessionStats, session_statistics, sessionize
from .sizes import SizeComparison, SizeDistribution, analyze_sizes, compare_sizes
from .cost import ContentCost, CostModel, serving_costs
from .drift import DriftReport, MetricDelta, compare_traffic, traffic_metrics
from .regional import RegionStats, edge_region, peak_hour_spread, regional_breakdown
from .trend import TrendAnalysis, analyze_trend, snapshot_ratio

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
