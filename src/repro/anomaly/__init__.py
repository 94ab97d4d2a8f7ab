"""Traffic anomaly detection built on the §5 patterns.

The paper proposes both uses without building them; this package
does: period-deviation monitoring (an object polled at the wrong
rate, §5.1) and sequence anomaly scoring (a client requesting highly
unlikely objects, §5.2).
"""

from .._lazy import lazy_exports

__all__ = [
    "PeriodBaseline",
    "PeriodAlert",
    "PeriodicAnomalyMonitor",
    "SequenceAlert",
    "SequenceAnomalyDetector",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".periodic": ("PeriodAlert", "PeriodBaseline", "PeriodicAnomalyMonitor"),
    ".sequence": ("SequenceAlert", "SequenceAnomalyDetector"),
})
