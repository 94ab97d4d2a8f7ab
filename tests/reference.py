"""Independent references for the differential suites.

Every analysis entry point runs the sharded engine, so a suite that
compared the engine against an entry point would compare the engine
with itself.  The references here are built from the analysis-layer
functions instead: §4 from ``characterize``, ``analyze_cacheability``,
``analyze_sizes``, ``aggregate_apps`` and ``DatasetSummary.update``
(never from ``CharacterizationState``), §5 from ``analyze_logs`` and
``run_table3``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro import obs
from repro.analysis.cacheability import analyze_cacheability
from repro.analysis.characterize import characterize
from repro.analysis.sizes import analyze_sizes
from repro.core.pipeline import CharacterizationReport, PatternReport
from repro.logs.summary import DatasetSummary
from repro.ngram.evaluate import run_table3
from repro.obs.registry import MetricsRegistry
from repro.periodicity.results import analyze_logs
from repro.useragent.appid import aggregate_apps


def characterization_reference(
    logs, domain_categories: Optional[Mapping[str, str]] = None
) -> CharacterizationReport:
    """Every §4 analysis over the unsplit records."""
    materialized = list(logs)
    summary = DatasetSummary().update(materialized)
    json_logs = [record for record in materialized if record.is_json]
    traffic_source, request_type = characterize(json_logs, json_only=False)
    cache_stats, heatmap = analyze_cacheability(
        json_logs, domain_categories, json_only=False
    )
    return CharacterizationReport(
        summary=summary,
        traffic_source=traffic_source,
        request_type=request_type,
        cacheability=cache_stats,
        heatmap=heatmap,
        sizes=analyze_sizes(materialized),
        apps=aggregate_apps(json_logs, json_only=False),
    )


def patterns_reference(logs, detector_config=None) -> PatternReport:
    """Every §5 analysis over the unsplit records."""
    materialized = list(logs)
    return PatternReport(
        periodicity=analyze_logs(materialized, detector_config=detector_config),
        ngram=run_table3(materialized),
    )


def counted(run, *args, **kwargs):
    """``(result, counters)``: ``run`` under a fresh metrics registry.

    The engine's run statistics (shards planned, retried, served from
    checkpoints, recomputed, failed) are counters in that registry.
    """
    registry = MetricsRegistry()
    with obs.installed(registry):
        result = run(*args, **kwargs)
    counters: Dict[str, float] = registry.snapshot()["counters"]
    return result, counters
