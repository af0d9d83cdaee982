"""Observability: tracing, metrics, access logs, SLOs, bench history.

* :mod:`repro.obs.trace` — parent-linked spans, JSONL export, text
  trees, and cross-process continuity (:class:`TraceContext` +
  :meth:`Tracer.graft` splice forked scan workers' spans under the
  parent scan span).
* :mod:`repro.obs.metrics` — counters, gauges, log-bucketed histograms
  (mergeable, with interpolated quantiles) behind a
  :class:`MetricsRegistry`.
* :mod:`repro.obs.export` — Prometheus text exposition, JSON snapshots,
  and adapters projecting the ``BuildStats``/``IOStats``/``ServingStats``
  blocks into a registry, one counter family per entry of each block's
  ``COUNTERS`` table.
* :mod:`repro.obs.access` — structured per-request serving access log
  (JSONL) with RED metrics per ``(endpoint, fingerprint)``.
* :mod:`repro.obs.slo` — declarative availability/latency objectives
  with multi-window burn-rate alerting over cumulative samples.
* :mod:`repro.obs.benchhist` — append-only bench-result trajectory and
  the rolling-baseline regression gate behind ``cmp-repro
  bench-history``.
* :mod:`repro.obs.inspect` — trace summaries and the scan-count /
  per-pid worker-span cross-checks behind ``cmp-repro inspect-trace``.

Tracing is strictly observational: a traced build or serve produces
bit-identical trees and predictions, at low single-digit-percent
overhead (``benchmarks/bench_obs_overhead.py`` enforces the bound on
both scan backends).
"""

from repro.obs.access import OUTCOMES, AccessLog, AccessRecord, load_access_log
from repro.obs.benchhist import (
    Regression,
    append_run,
    check_regressions,
    flatten_metrics,
    load_history,
    metric_direction,
    new_history,
    save_history,
    summarize_history,
)
from repro.obs.export import (
    record_admission,
    record_breaker,
    record_build_stats,
    record_io_stats,
    record_serving_stats,
    to_prometheus,
    write_metrics,
)
from repro.obs.inspect import TraceSummary, format_summary, summarize_trace
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    BurnAlert,
    BurnRateWindow,
    SLODefinition,
    SLOMonitor,
    availability_counts,
    latency_counts,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    load_trace_jsonl,
    render_tree,
    span_from_dict,
)

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span_from_dict",
    "load_trace_jsonl",
    "render_tree",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "LATENCY_BUCKETS_S",
    "to_prometheus",
    "write_metrics",
    "record_io_stats",
    "record_build_stats",
    "record_serving_stats",
    "record_breaker",
    "record_admission",
    "AccessLog",
    "AccessRecord",
    "load_access_log",
    "OUTCOMES",
    "SLODefinition",
    "SLOMonitor",
    "BurnRateWindow",
    "BurnAlert",
    "DEFAULT_WINDOWS",
    "availability_counts",
    "latency_counts",
    "Regression",
    "append_run",
    "check_regressions",
    "flatten_metrics",
    "load_history",
    "metric_direction",
    "new_history",
    "save_history",
    "summarize_history",
    "TraceSummary",
    "summarize_trace",
    "format_summary",
]
