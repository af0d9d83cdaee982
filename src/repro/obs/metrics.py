"""Counters, gauges and log-bucketed histograms with a Prometheus-shaped registry.

The build and serving stats blocks (:class:`repro.io.metrics.IOStats`,
``ServingStats``) keep cumulative counters as plain attributes under
one lock per block, because they sit on hot paths.  This module supplies
what a scrape endpoint needs on top of them — a latency distribution,
quantiles and a registry to expose:

* :class:`Counter` / :class:`Gauge` — thread-safe scalars.
* :class:`Histogram` — cumulative-style bucket counts over **log-spaced**
  upper bounds, with quantile estimation by within-bucket linear
  interpolation and an exact ``merge_from`` reducer, the same
  merge-deltas idiom the parallel scan engine uses for class histograms
  (worker-private copies merged deterministically).
* :class:`MetricsRegistry` — get-or-create keyed by ``(name, labels)``,
  the collection surface :mod:`repro.obs.export` renders as Prometheus
  text exposition or JSON.

Everything here is pure stdlib and importable on its own: the adapters
that project ``BuildStats``/``IOStats``/``ServingStats`` into a registry
(one counter per entry of a block's ``COUNTERS`` table) live in
:mod:`repro.obs.export`, so this module never imports :mod:`repro.io`.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping

#: Canonical label ordering: sorted (key, value) pairs.
LabelSet = "tuple[tuple[str, str], ...]"


def _labelset(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def log_buckets(lo: float, hi: float, factor: float = 2.0) -> tuple[float, ...]:
    """Geometric bucket upper bounds from ``lo`` until ``hi`` is covered.

    ``log_buckets(1e-4, 1.0)`` → 1e-4, 2e-4, 4e-4, … , first bound >= 1.0.
    The implicit ``+Inf`` bucket is added by :class:`Histogram` itself.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    return tuple(bounds)


#: Default latency buckets: 100 µs … ~105 s in ×2 steps (21 bounds).
LATENCY_BUCKETS_S = log_buckets(1e-4, 100.0)


class Counter:
    """Monotonically increasing scalar."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters never go down)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Scalar that can move both ways (peak memory, live models, …)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bucketed distribution with quantile estimation and exact merging.

    ``bounds`` are finite, strictly increasing bucket *upper* bounds; an
    ``+Inf`` overflow bucket is implicit.  An observation lands in the
    first bucket whose bound is >= the value (Prometheus ``le``
    semantics).  Per-bucket counts plus ``sum``/``count`` are exactly
    mergeable, so worker threads can observe into private histograms and
    fold them together afterwards — order-independent, no locks on the
    hot path.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str = "",
        labels: tuple[tuple[str, str], ...] = (),
        bounds: Iterable[float] = LATENCY_BUCKETS_S,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if not all(math.isfinite(b) for b in self.bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        # counts[i] observations in (bounds[i-1], bounds[i]]; last is +Inf.
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (binary search over the bounds)."""
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._sum += value

    def merge_from(self, other: "Histogram") -> None:
        """Fold ``other`` in; bucket layouts must match exactly."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        with other._lock:
            counts = list(other._counts)
            total = other._sum
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += total

    # -- reading -------------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket counts (last entry is the +Inf overflow bucket)."""
        with self._lock:
            return list(self._counts)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs incl. +Inf."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by within-bucket linear interpolation.

        Matches ``histogram_quantile`` semantics: the first bucket
        interpolates from 0, and a quantile landing in the overflow
        bucket returns the largest finite bound (the histogram cannot
        resolve beyond it).  Returns ``nan`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._counts)
        total = sum(counts)
        if total == 0:
            return math.nan
        rank = q * total
        running = 0.0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if running + c >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.bounds[-1]
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = self.bounds[i]
                frac = (rank - running) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            running += c
        return self.bounds[-1]

    def percentiles(self, *ps: float) -> dict[str, float]:
        """Shorthand: ``percentiles(50, 90, 99)`` → ``{"p50": …, …}``."""
        return {f"p{g:g}": self.quantile(g / 100.0) for g in ps}


Metric = "Counter | Gauge | Histogram"


class MetricsRegistry:
    """Get-or-create store of metrics keyed by ``(name, labels)``.

    A *family* is every metric sharing one name; all members must have
    the same kind (and, for histograms, the same bucket bounds), which
    is what makes the Prometheus exposition well-formed.  ``help_text``
    is per-family, taken from the first registration.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Mapping[str, str] | None,
        factory,
    ):
        if not name or not name[0].isalpha():
            raise ValueError(f"invalid metric name {name!r}")
        key = (name, _labelset(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing_kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[1])
                self._metrics[key] = metric
                self._kinds[name] = kind
                if help_text or name not in self._help:
                    self._help.setdefault(name, help_text)
            return metric

    def counter(
        self, name: str, help_text: str = "", labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(name, "counter", help_text, labels, Counter)

    def gauge(
        self, name: str, help_text: str = "", labels: Mapping[str, str] | None = None
    ) -> Gauge:
        return self._get_or_create(name, "gauge", help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Mapping[str, str] | None = None,
        bounds: Iterable[float] = LATENCY_BUCKETS_S,
    ) -> Histogram:
        bounds = tuple(bounds)
        hist = self._get_or_create(
            name,
            "histogram",
            help_text,
            labels,
            lambda n, ls: Histogram(n, ls, bounds),
        )
        if hist.bounds != bounds:
            raise ValueError(f"histogram {name!r} already has different buckets")
        return hist

    # -- collection ----------------------------------------------------------

    def collect(self) -> list[tuple[str, str, str, list[object]]]:
        """``(name, kind, help, [metrics])`` per family, registration order."""
        with self._lock:
            families: dict[str, list[object]] = {}
            for (name, __), metric in self._metrics.items():
                families.setdefault(name, []).append(metric)
            return [
                (name, self._kinds[name], self._help.get(name, ""), members)
                for name, members in families.items()
            ]

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot (the ``--metrics foo.json`` surface)."""
        out: dict[str, object] = {}
        for name, kind, help_text, members in self.collect():
            entries = []
            for m in members:
                entry: dict[str, object] = {"labels": dict(m.labels)}
                if kind == "histogram":
                    entry["count"] = m.count
                    entry["sum"] = m.sum
                    entry["buckets"] = [
                        {"le": le if math.isfinite(le) else "+Inf", "count": c}
                        for le, c in m.cumulative_buckets()
                    ]
                    entry.update(m.percentiles(50, 90, 99))
                else:
                    entry["value"] = m.value
                entries.append(entry)
            out[name] = {"type": kind, "help": help_text, "values": entries}
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "LATENCY_BUCKETS_S",
]
