"""Periodicity mining (§5.1): flows, two-domain detection with
permutation thresholds, and dataset-level aggregation.
"""

from .._lazy import lazy_exports

__all__ = [
    "bin_series",
    "autocorrelation",
    "acf_peak",
    "acf_local_peak",
    "periodogram",
    "dominant_frequencies",
    "frequency_to_period_bins",
    "DetectorConfig",
    "DetectedPeriod",
    "PeriodDetector",
    "MultiPeriodDetector",
    "PhaseProfile",
    "object_phase_profile",
    "phase_coherence",
    "PeriodComponent",
    "ClientObjectFlow",
    "ObjectFlow",
    "FlowFilter",
    "extract_flows",
    "ObjectPeriodicity",
    "PeriodicityReport",
    "analyze_flows",
    "analyze_logs",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".autocorr": (
        "acf_local_peak", "acf_peak", "autocorrelation", "bin_series",
    ),
    ".config": ("DetectorConfig",),
    ".detector": ("DetectedPeriod", "PeriodDetector"),
    ".multiperiod": ("MultiPeriodDetector", "PeriodComponent"),
    ".phase": ("PhaseProfile", "object_phase_profile", "phase_coherence"),
    ".flows": (
        "ClientObjectFlow", "FlowFilter", "ObjectFlow", "extract_flows",
    ),
    ".results": (
        "ObjectPeriodicity", "PeriodicityReport", "analyze_flows",
        "analyze_logs",
    ),
    ".spectrum": (
        "dominant_frequencies", "frequency_to_period_bins", "periodogram",
    ),
})
