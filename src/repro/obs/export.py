"""Export surfaces: Prometheus text exposition, JSON metrics, stats adapters.

Two halves:

* **Rendering** — :func:`to_prometheus` emits the Prometheus text
  exposition format (version 0.0.4: ``# HELP`` / ``# TYPE`` headers,
  ``_bucket{le=…}`` / ``_sum`` / ``_count`` for histograms, escaped
  label values).  The exact output is golden-file-tested.
  :func:`write_metrics` routes a registry to a path: ``*.json`` gets the
  JSON snapshot, anything else the Prometheus text.

* **Adapters** — the functions here *project* the counter blocks
  (:class:`~repro.io.metrics.BuildStats`, ``IOStats``, ``ServingStats``)
  into a :class:`MetricsRegistry` after the fact.  ``IOStats`` and
  ``ServingStats`` declare their counters in a ``COUNTERS`` table of
  name → HELP text; :func:`record_io_stats` and
  :func:`record_serving_stats` emit one ``cmp_io_<name>_total`` /
  ``cmp_serve_<name>_total`` counter per entry and keep no list of
  their own, and :func:`record_build_stats` loops the same way over
  the ``BuildStats`` attributes it exports.  Nothing in the training or
  serving hot path writes to a registry directly, so the export surface
  costs nothing until asked for.  (Adapters duck-type their inputs;
  this module deliberately does not import :mod:`repro.io` at runtime,
  keeping ``repro.obs`` import-cycle-free.)

Metric names follow Prometheus conventions: ``cmp_`` prefix, base
units, ``_total`` on counters.
"""

from __future__ import annotations

import json
import math
from typing import IO, TYPE_CHECKING, Mapping

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.io.metrics import BuildStats, IOStats, ServingStats


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    # HELP text escapes only backslash and newline (quotes stay raw),
    # per the exposition-format spec — different from label values.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _format_value(bound)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render ``registry`` in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, kind, help_text, members in registry.collect():
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for m in members:
            if kind == "histogram":
                for le, cum in m.cumulative_buckets():
                    labels = _format_labels(m.labels, f'le="{_format_le(le)}"')
                    lines.append(f"{name}_bucket{labels} {cum}")
                labels = _format_labels(m.labels)
                lines.append(f"{name}_sum{labels} {_format_value(m.sum)}")
                lines.append(f"{name}_count{labels} {m.count}")
            else:
                labels = _format_labels(m.labels)
                lines.append(f"{name}{labels} {_format_value(m.value)}")
    return "\n".join(lines) + "\n" if lines else ""


def write_metrics(registry: MetricsRegistry, path_or_file: "str | IO[str]") -> None:
    """Write ``registry`` to a path: ``*.json`` → JSON, else Prometheus text."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(to_prometheus(registry))  # type: ignore[union-attr]
        return
    path = str(path_or_file)
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".json"):
            json.dump(registry.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(to_prometheus(registry))


# ---------------------------------------------------------------------------
# Adapters: existing stats blocks -> registry
# ---------------------------------------------------------------------------


def _record_counters(
    registry: MetricsRegistry,
    prefix: str,
    block: "IOStats | ServingStats",
    labels: Mapping[str, str] | None,
) -> None:
    """One ``<prefix><name>_total`` counter per entry of ``block.COUNTERS``."""
    snap = block.snapshot()
    for name, help_text in block.COUNTERS.items():
        registry.counter(f"{prefix}{name}_total", help_text, labels).inc(
            float(snap[name])
        )


def record_io_stats(
    registry: MetricsRegistry,
    io: "IOStats",
    labels: Mapping[str, str] | None = None,
) -> None:
    """Project an :class:`~repro.io.metrics.IOStats` block into counters."""
    _record_counters(registry, "cmp_io_", io, labels)


#: BuildStats attributes exported as ``cmp_build_<name>_total`` counters.
_BUILD_COUNTERS = {
    "wall_seconds": "Wall-clock build time, seconds.",
    "simulated_ms": "Cost-model simulated build time.",
    "parallel_batches": "Parallel chunk batches dispatched by the scan engine.",
    "buffer_overflow_rescans": "Extra scans forced by alive-buffer overflow.",
    "native_kernel_calls": "Native training-kernel calls made during the build.",
}


def record_build_stats(
    registry: MetricsRegistry,
    stats: "BuildStats",
    labels: Mapping[str, str] | None = None,
) -> None:
    """Project one finished build's :class:`BuildStats` into the registry.

    Counters/gauges only — the flat ``summary()`` dict remains the
    in-process reporting surface; this adapter is its machine-readable
    twin.  Call once per build (counters accumulate across calls, which
    is exactly right for a sweep of several builds sharing a registry).
    """
    record_io_stats(registry, stats.io, labels)
    registry.counter(
        "cmp_build_total", "Tree builds recorded into this registry.", labels
    ).inc()
    for name, help_text in _BUILD_COUNTERS.items():
        registry.counter(f"cmp_build_{name}_total", help_text, labels).inc(
            float(getattr(stats, name))
        )
    for phase, seconds in sorted(stats.phase_seconds.items()):
        phase_labels = dict(labels or {})
        phase_labels["phase"] = phase
        registry.counter(
            "cmp_build_phase_seconds_total",
            "Wall-clock seconds per build phase.",
            phase_labels,
        ).inc(seconds)
    registry.gauge(
        "cmp_build_peak_memory_bytes", "Peak tracked memory of the last build.", labels
    ).set(float(stats.memory.peak))
    registry.gauge(
        "cmp_build_nodes", "Nodes in the last built tree.", labels
    ).set(float(stats.nodes_created))
    registry.gauge(
        "cmp_build_levels", "Depth of the last built tree.", labels
    ).set(float(stats.levels_built))
    registry.gauge(
        "cmp_build_scan_workers",
        "Chunk-routing workers of the build's scan engine (1 for serial builders).",
        labels,
    ).set(float(stats.scan_workers))


def record_serving_stats(
    registry: MetricsRegistry,
    stats: "ServingStats",
    labels: Mapping[str, str] | None = None,
) -> None:
    """Project one model's :class:`ServingStats` into the registry.

    The latency histogram is merged bucket-for-bucket into the
    registry's, so Prometheus quantiles computed downstream agree with
    ``snapshot()``'s p50/p90/p99.
    """
    _record_counters(registry, "cmp_serve_", stats, labels)
    hist = registry.histogram(
        "cmp_serve_batch_latency_seconds",
        "Per-batch execution latency.",
        labels,
        bounds=stats.latency.bounds,
    )
    hist.merge_from(stats.latency)


def record_breaker(
    registry: MetricsRegistry,
    breaker,
    labels: Mapping[str, str] | None = None,
) -> None:
    """Project one circuit breaker's state and counters into the registry.

    The state gauge uses the numeric encoding of
    :data:`repro.serve.breaker.STATE_CODES` (0 closed, 1 half-open,
    2 open), so dashboards can alert on ``cmp_serve_breaker_state > 0``.
    Duck-typed on ``snapshot()`` like the other adapters.
    """
    snap = breaker.snapshot()
    registry.gauge(
        "cmp_serve_breaker_state",
        "Circuit state: 0 closed, 1 half-open, 2 open.",
        labels,
    ).set(float(snap["state_code"]))
    registry.counter(
        "cmp_serve_breaker_trips_total", "Closed/half-open to open transitions.",
        labels,
    ).inc(float(snap["trips"]))
    registry.counter(
        "cmp_serve_breaker_open_rejections_total",
        "Requests rejected while the circuit was open.",
        labels,
    ).inc(float(snap["rejections"]))


def record_admission(
    registry: MetricsRegistry,
    admission,
    labels: Mapping[str, str] | None = None,
) -> None:
    """Project an admission controller's queue gauges and shed counters."""
    snap = admission.snapshot()
    registry.gauge(
        "cmp_serve_queue_depth", "Requests currently admitted and in flight.",
        labels,
    ).set(float(snap["depth"]))
    registry.gauge(
        "cmp_serve_queue_depth_limit", "Configured admission bound.", labels
    ).set(float(snap["max_depth"]))
    registry.gauge(
        "cmp_serve_queue_peak_depth", "High-water mark of the serve queue.",
        labels,
    ).set(float(snap["peak_depth"]))
    registry.counter(
        "cmp_serve_admitted_total", "Requests granted an admission permit.",
        labels,
    ).inc(float(snap["admitted"]))
    registry.counter(
        "cmp_serve_admission_shed_total",
        "Requests rejected at the admission gate.",
        labels,
    ).inc(float(snap["shed"]))


__all__ = [
    "to_prometheus",
    "write_metrics",
    "record_io_stats",
    "record_build_stats",
    "record_serving_stats",
    "record_breaker",
    "record_admission",
]
