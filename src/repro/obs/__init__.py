"""repro.obs — the unified observability layer (DESIGN.md §11).

One subsystem for the system's self-knowledge, in two halves:

* **Spans** (:mod:`repro.obs.trace`): timed, attributed, nested phases —
  ``with span("compile.traceset_dfa", spec=...):`` — propagated through
  a ContextVar, across the obligation engine's process pool (worker
  records ship back and re-parent), exported as JSON lines
  (:class:`JsonLinesExporter`), collected in memory for tests and
  ``repro profile`` (:class:`InMemoryCollector`).  Disabled by default:
  with no sink installed an instrumentation point costs one truthiness
  check (``benchmarks/bench_obs.py`` gates this).

* **Metrics** (:mod:`repro.obs.registry`): a single
  :class:`MetricsRegistry` of counters, gauges, and histograms that
  absorbs what used to be three incompatible APIs — the service's
  ``ServiceMetrics``, the checker's ``CheckerMetrics``, the pipeline's
  ``NormalizationMetrics`` (all in :mod:`repro.obs.metrics`) and the
  exploration counters (:mod:`repro.obs.exploration`).  The service's
  counts live only in the registry; the per-run bundles also keep
  their own integers, since one run is not the whole process.  The
  registry renders Prometheus text for the service's ``METRICS`` verb;
  ``repro serve --metrics-port`` and ``--metrics-interval`` serve that
  text through the gateway (merged across workers at ``--procs N``).
"""

from repro.obs.export import (
    InMemoryCollector,
    JsonLinesExporter,
    format_columns,
    render_span_tree,
)
from repro.obs.exploration import (
    ExplorationStats,
    active_exploration_stats,
    collect_exploration,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    OBLIGATION_BUCKETS,
    CheckerMetrics,
    LatencyHistogram,
    NormalizationMetrics,
    ServiceMetrics,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.trace import (
    Span,
    SpanRecord,
    add_sink,
    adopt_parent,
    current_span_id,
    remove_sink,
    replay,
    span,
    tracing_enabled,
    use_sink,
)

__all__ = [
    # trace
    "Span",
    "SpanRecord",
    "add_sink",
    "adopt_parent",
    "current_span_id",
    "remove_sink",
    "replay",
    "span",
    "tracing_enabled",
    "use_sink",
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    # exporters
    "InMemoryCollector",
    "JsonLinesExporter",
    "format_columns",
    "render_span_tree",
    # metric bundles
    "DEFAULT_BUCKETS",
    "OBLIGATION_BUCKETS",
    "CheckerMetrics",
    "LatencyHistogram",
    "NormalizationMetrics",
    "ServiceMetrics",
    # exploration
    "ExplorationStats",
    "active_exploration_stats",
    "collect_exploration",
]
