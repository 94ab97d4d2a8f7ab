"""Synthetic CDN traffic substrate.

The stand-in for the paper's proprietary Akamai logs (see DESIGN.md
§2 for the substitution argument).  Domain and client populations,
human session traffic, periodic machine traffic, response-size and
multi-year trend models, and the two Table 2 dataset builders.
"""

from .._lazy import lazy_exports

__all__ = [
    "PAPER",
    "PaperTargets",
    "Client",
    "ClientPopulation",
    "ClientSegment",
    "DEFAULT_SEGMENT_MIX",
    "CachePolicy",
    "CachePolicyKind",
    "DomainPopulation",
    "DomainProfile",
    "Endpoint",
    "EndpointKind",
    "CATEGORY_POLICY_MIX",
    "CATEGORY_DOMAIN_SHARE",
    "PeriodicAgent",
    "PeriodicObjectSpec",
    "CANONICAL_PERIODS",
    "Region",
    "DEFAULT_REGIONS",
    "assign_regions",
    "substream",
    "weighted_choice",
    "zipf_weights",
    "RequestEvent",
    "SessionConfig",
    "SessionGenerator",
    "SizeModel",
    "KIND_SIGMA",
    "json_size_scale",
    "CalibrationCheck",
    "ValidationReport",
    "validate_dataset",
    "MonthlyVolume",
    "TrendModel",
    "Dataset",
    "GroundTruth",
    "WorkloadBuilder",
    "WorkloadConfig",
    "short_term_config",
    "long_term_config",
    "EPOCH_2019",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".calibration": ("PAPER", "PaperTargets"),
    ".clients": (
        "DEFAULT_SEGMENT_MIX", "Client", "ClientPopulation", "ClientSegment",
    ),
    ".domains": (
        "CATEGORY_DOMAIN_SHARE", "CATEGORY_POLICY_MIX", "CachePolicy",
        "CachePolicyKind", "DomainPopulation", "DomainProfile", "Endpoint",
        "EndpointKind",
    ),
    ".periodic": ("CANONICAL_PERIODS", "PeriodicAgent", "PeriodicObjectSpec"),
    ".regions": ("DEFAULT_REGIONS", "Region", "assign_regions"),
    ".rng": ("substream", "weighted_choice", "zipf_weights"),
    ".sessions": ("RequestEvent", "SessionConfig", "SessionGenerator"),
    ".sizes": ("KIND_SIGMA", "SizeModel", "json_size_scale"),
    ".trend": ("MonthlyVolume", "TrendModel"),
    ".validation": (
        "CalibrationCheck", "ValidationReport", "validate_dataset",
    ),
    ".workload": (
        "EPOCH_2019", "Dataset", "GroundTruth", "WorkloadBuilder",
        "WorkloadConfig", "long_term_config", "short_term_config",
    ),
})
