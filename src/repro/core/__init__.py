"""The paper's core: taxonomy, end-to-end pipeline, reporting."""

from .._lazy import lazy_exports

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "experiments_by_kind",
    "DeviceType",
    "AppClass",
    "TriggerType",
    "RequestKind",
    "IndustryCategory",
    "TrafficSource",
    "CharacterizationReport",
    "PatternReport",
    "run_characterization",
    "run_ngram",
    "run_pattern_analysis",
    "run_periodicity",
    "render_table",
    "render_bar_chart",
    "render_heatmap",
    "format_pct",
    "ecdf",
    "histogram",
    "relative_error",
    "within",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".inventory": ("EXPERIMENTS", "Experiment", "experiments_by_kind"),
    ".pipeline": (
        "CharacterizationReport", "PatternReport", "run_characterization",
        "run_ngram", "run_pattern_analysis", "run_periodicity",
    ),
    ".report": (
        "format_pct", "render_bar_chart", "render_heatmap", "render_table",
    ),
    ".stats": ("ecdf", "histogram", "relative_error", "within"),
    ".taxonomy": (
        "AppClass", "DeviceType", "IndustryCategory", "RequestKind",
        "TrafficSource", "TriggerType",
    ),
})
