"""repro.obs — metrics and tracing for engine, stream, and pipeline runs.

The subsystem has four pieces:

* :mod:`repro.obs.sketch` — :class:`QuantileSketch`, a fixed
  log-bucket mergeable quantile sketch (the bounded-memory histogram
  state; also backs :class:`repro.cdn.metrics.DeliveryMetrics`);
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, counters /
  gauges / histograms with engine-style merge semantics;
* :mod:`repro.obs.runtime` — ambient install (process-global +
  thread-local), mirroring ``repro.faults.runtime``;
* :mod:`repro.obs.spans` / :mod:`repro.obs.export` — stage tracing
  and Prometheus-text / JSON / JSONL exporters.

Typical use::

    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.installed(registry):
        run_characterization(records, engine=EngineOptions(workers=4))
    print(obs.to_prometheus_text(registry))

See ``docs/observability.md`` for the metric catalog and the
determinism contract.
"""

from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import (
    active,
    inc,
    install,
    installed,
    max_gauge,
    observe,
    record_span,
    set_gauge,
    shard_scope,
)
from .sketch import DEFAULT_GROWTH, DEFAULT_MIN_VALUE, QuantileSketch
from .spans import span
from .export import to_prometheus_text, write_metrics, write_spans_jsonl

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "DEFAULT_GROWTH",
    "DEFAULT_MIN_VALUE",
    "active",
    "inc",
    "install",
    "installed",
    "max_gauge",
    "observe",
    "record_span",
    "set_gauge",
    "shard_scope",
    "span",
    "to_prometheus_text",
    "write_metrics",
    "write_spans_jsonl",
]
