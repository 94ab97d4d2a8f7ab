"""repro — reproduction of "Characterizing JSON Traffic Patterns on a
CDN" (Vargas, Goel, Steiner, Balasubramanian; IMC 2019).

The package is organized as the paper's system stack:

* :mod:`repro.logs` — edge request-log substrate (records and their
  field contract, anonymization, serialization, summaries);
* :mod:`repro.useragent` — user-agent parsing, reference databases,
  device/app classification, and a UA generation grammar;
* :mod:`repro.synth` — the synthetic CDN traffic generator standing
  in for the proprietary Akamai datasets (see DESIGN.md);
* :mod:`repro.cdn` — edge cache/origin/latency simulator plus the
  proposed optimizations (prefetching, M2M deprioritization);
* :mod:`repro.periodicity` — §5.1 period detection;
* :mod:`repro.ngram` — §5.2 request prediction;
* :mod:`repro.analysis` — §4 characterization analyses;
* :mod:`repro.core` — taxonomy, end-to-end pipeline, reporting.

Quickstart::

    from repro.synth import WorkloadBuilder, short_term_config
    from repro.core import run_characterization

    dataset = WorkloadBuilder(short_term_config(50_000, seed=7)).build()
    report = run_characterization(
        dataset.logs,
        {d.name: d.category.value for d in dataset.domains},
    )
    print(report.render("short-term"))
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "RequestLog",
    "WorkloadBuilder",
    "Dataset",
    "short_term_config",
    "long_term_config",
    "PAPER",
    "run_characterization",
    "run_pattern_analysis",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core.pipeline": ("run_characterization", "run_pattern_analysis"),
    ".logs.record": ("RequestLog",),
    ".synth.calibration": ("PAPER",),
    ".synth.workload": (
        "Dataset", "WorkloadBuilder", "long_term_config", "short_term_config",
    ),
})
