"""Model registry, versioned rollout, and the hardened batch execution engine.

:class:`ModelRegistry` keys deployed models by the compiled tree's
content fingerprint — registering the same tree twice (or the same tree
rebuilt from JSON) lands on one entry, and a pruned tree registers as a
*different* model, because pruning changes the flattened arrays and
therefore the fingerprint.  On top of the fingerprint store it carries:

* **named endpoints** (:mod:`repro.serve.rollout`): clients address
  ``registry.deploy("scorer", fp)`` names; a weighted canary splits
  traffic deterministically by ``route_key`` and promote/rollback are
  single atomic pointer flips;
* **drain-aware removal**: :meth:`ModelRegistry.unregister` refuses to
  drop a fingerprint an endpoint still routes to, and defers removal
  while leased requests are in flight, so hot swaps never yank a model
  out from under a running batch.

:class:`ServingEngine` executes prediction batches against registered
models.  Large batches are sharded row-wise across a thread pool using
the same contiguous-partition idiom as the training-side scan engine
(:func:`repro.core.parallel.partition_chunks`): shards are contiguous
row ranges, results are written in shard order, so the merged output is
identical to the single-threaded call for any worker count.  Around
that unchanged execution core sits the robustness layer:

* **admission control** — an optional bounded queue
  (:class:`~repro.serve.admission.AdmissionController`); excess load is
  rejected immediately with :class:`~repro.serve.admission.Overloaded`;
* **deadlines** — a per-request budget checked before execution and
  enforced on shard waits (:class:`~repro.serve.admission.Deadline`);
* **circuit breaking** — one
  :class:`~repro.serve.breaker.CircuitBreaker` per fingerprint, tripped
  by consecutive execution failures, with graceful degradation to a
  configured fallback model or the majority-class prior;
* **shard retry** — a failed shard is retried (with deterministic
  backoff) before the batch fails.

Every executed batch feeds the model's
:class:`~repro.io.metrics.ServingStats`, including the shed / timeout /
breaker / fallback counters the robustness paths increment.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.core.compiled import CompiledTree, compile_tree
from repro.core.tree import DecisionTree, _as_batch
from repro.io.metrics import ServingStats
from repro.obs.access import AccessLog
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.serve.admission import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    Overloaded,
    as_deadline,
)
from repro.serve.breaker import BreakerPolicy, CircuitBreaker, CircuitOpen
from repro.serve.rollout import ModelInUseError, RolloutManager

#: ``fallback=PRIOR_FALLBACK`` degrades to the model's majority-class prior.
PRIOR_FALLBACK = "prior"


class ModelRegistry:
    """Fingerprint-keyed store of models, endpoints, and serving stats."""

    def __init__(self) -> None:
        self._models: dict[str, object] = {}
        self._stats: dict[str, ServingStats] = {}
        self._inflight: dict[str, int] = {}
        self._pending_removal: set[str] = set()
        self._rollout = RolloutManager()
        self._lock = threading.Lock()

    def register(self, model: "DecisionTree | CompiledTree | object") -> str:
        """Register a model; returns its fingerprint (the serving key).

        Accepts a :class:`DecisionTree` (compiled on the spot), a
        :class:`CompiledTree`, an ensemble :class:`~repro.ensemble.Forest`
        (packed into a :class:`~repro.core.compiled.CompiledForest` on the
        spot — anything exposing a ``compiled()`` factory compiles the
        same way), or any object exposing ``fingerprint`` plus the
        prediction methods — which is how the fault-injection wrappers of
        :mod:`repro.serve.faults` deploy alongside real models.
        Idempotent: re-registering a structurally identical model reuses
        the existing entry and its accumulated stats.
        """
        if isinstance(model, DecisionTree):
            compiled: object = compile_tree(model)
        elif hasattr(model, "fingerprint") and hasattr(model, "predict"):
            compiled = model
        elif callable(getattr(model, "compiled", None)):
            compiled = model.compiled()  # type: ignore[operator]
        else:
            raise TypeError(
                f"cannot register {type(model).__name__}: need a DecisionTree, "
                "a CompiledTree, or a fingerprinted model wrapper"
            )
        key = compiled.fingerprint  # type: ignore[attr-defined]
        with self._lock:
            if key not in self._models:
                self._models[key] = compiled
                self._stats[key] = ServingStats()
            self._pending_removal.discard(key)
        return key

    #: Shortest fingerprint prefix the registry resolves (back-compat with
    #: the former 16-hex-char truncated keys; anything shorter is too
    #: collision-prone to be useful as an address).
    MIN_PREFIX = 8

    def _canonical_locked(self, fingerprint: str) -> str:
        """Resolve a full fingerprint or a unique prefix to the stored key.

        Fingerprints are full sha256 hex digests (64 chars); callers that
        recorded the historical 16-char truncation — or any prefix of at
        least :attr:`MIN_PREFIX` chars — still resolve, as long as the
        prefix is unambiguous.  Must be called with ``self._lock`` held.
        Unknown keys are returned unchanged so each caller raises its own
        ``KeyError`` with the caller's wording.
        """
        if fingerprint in self._models or len(fingerprint) < self.MIN_PREFIX:
            return fingerprint
        matches = [k for k in self._models if k.startswith(fingerprint)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise KeyError(
                f"fingerprint prefix {fingerprint!r} is ambiguous: matches "
                f"{len(matches)} registered models"
            )
        return fingerprint

    def unregister(self, fingerprint: str) -> bool:
        """Remove a model, honouring rollout and drain semantics.

        Raises :class:`~repro.serve.rollout.ModelInUseError` while any
        endpoint still routes to the fingerprint (repoint or roll back
        first).  If leased requests are in flight, removal is *deferred*
        — new leases are refused immediately and the entry is dropped
        when the last in-flight request completes — and ``False`` is
        returned; ``True`` means the model is gone now.
        """
        with self._lock:
            fingerprint = self._canonical_locked(fingerprint)
            if fingerprint not in self._models:
                raise KeyError(f"no model registered as {fingerprint!r}")
            routed = self._rollout.routes_to(fingerprint)
            if routed:
                raise ModelInUseError(
                    f"model {fingerprint!r} still routed by endpoint(s) "
                    f"{sorted(routed)}; promote, rollback or remove them first"
                )
            if self._inflight.get(fingerprint, 0) > 0:
                self._pending_removal.add(fingerprint)
                return False
            self._drop(fingerprint)
            return True

    def _drop(self, fingerprint: str) -> None:
        del self._models[fingerprint]
        del self._stats[fingerprint]
        self._inflight.pop(fingerprint, None)
        self._pending_removal.discard(fingerprint)

    @contextmanager
    def lease_route(
        self, target: str, route_key: object = None
    ) -> Iterator[tuple[str, str, object, ServingStats]]:
        """Resolve ``target`` and hold its model for one request.

        Yields ``(fingerprint, route, model, stats)``.  A leased
        fingerprint cannot disappear mid-request: deferred removal waits
        for the in-flight count to hit zero, and leasing a draining
        model is refused like an unknown one.  Resolution and lease
        happen under one registry lock, so a concurrent :meth:`hot_swap`
        cannot retire the resolved model in between.
        """
        with self._lock:
            fingerprint, route = self._resolve_route_locked(target, route_key)
            if fingerprint in self._pending_removal:
                raise KeyError(f"model {fingerprint!r} is draining for removal")
            try:
                model = self._models[fingerprint]
            except KeyError:
                raise KeyError(f"no model registered as {fingerprint!r}") from None
            self._inflight[fingerprint] = self._inflight.get(fingerprint, 0) + 1
            stats = self._stats[fingerprint]
        try:
            yield fingerprint, route, model, stats
        finally:
            with self._lock:
                remaining = self._inflight.get(fingerprint, 1) - 1
                self._inflight[fingerprint] = remaining
                if remaining <= 0 and fingerprint in self._pending_removal:
                    self._drop(fingerprint)

    def inflight(self, fingerprint: str) -> int:
        """Requests currently leasing ``fingerprint``."""
        with self._lock:
            return self._inflight.get(self._canonical_locked(fingerprint), 0)

    # -- endpoints (versioned rollout) ---------------------------------------

    def deploy(self, name: str, fingerprint: str) -> None:
        """Point endpoint ``name`` (created on first use) at a stable model."""
        fingerprint = self._require_registered(fingerprint)
        self._rollout.deploy(name, fingerprint)

    def set_canary(self, name: str, fingerprint: str, weight: float) -> None:
        """Send ``weight`` of ``name``'s traffic to a canary model."""
        fingerprint = self._require_registered(fingerprint)
        self._rollout.set_canary(name, fingerprint, weight)

    def promote(self, name: str) -> str:
        """Canary becomes stable in one atomic flip; returns the old stable."""
        return self._rollout.promote(name)

    def hot_swap(
        self,
        name: str,
        model: "DecisionTree | CompiledTree | object",
        *,
        canary_weight: float = 1.0,
        retire: bool = True,
    ) -> str:
        """Register ``model`` and make it endpoint ``name``'s stable version.

        The zero-downtime refresh primitive: the first call creates the
        endpoint; every later call goes through the rollout path —
        register, canary at ``canary_weight``, promote — so the stable
        pointer flips atomically and no request ever observes an
        endpoint without a model.  With ``retire`` (the default) the
        displaced stable is unregistered afterwards, honouring drain
        semantics: removal is deferred while leased requests are in
        flight and skipped entirely if another endpoint still routes to
        it.  Returns the new fingerprint.
        """
        fingerprint = self.register(model)
        if not self._rollout.has_endpoint(name):
            self._rollout.deploy(name, fingerprint)
            return fingerprint
        old = self._rollout.peek(name)
        if old == fingerprint:
            return fingerprint
        self._rollout.set_canary(name, fingerprint, canary_weight)
        self._rollout.promote(name)
        if retire:
            try:
                self.unregister(old)
            except ModelInUseError:
                pass  # another endpoint still serves the displaced model
        return fingerprint

    def endpoint_version(self, name: str) -> int:
        """Monotone stable-version counter of endpoint ``name``."""
        return self._rollout.version(name)

    def rollback(self, name: str) -> str:
        """Drop the canary in one atomic flip; returns its fingerprint."""
        return self._rollout.rollback(name)

    def remove_endpoint(self, name: str) -> None:
        """Delete an endpoint (its models stay registered)."""
        self._rollout.remove_endpoint(name)

    def endpoints(self) -> list[dict[str, object]]:
        """Snapshot of every endpoint's routing state."""
        return self._rollout.endpoints()

    def resolve(self, target: str, route_key: object = None) -> str:
        """Resolve an endpoint name or raw fingerprint to a fingerprint.

        Endpoint names win over fingerprints (names are human-chosen,
        fingerprints are full sha256 hex digests, and an explicit
        fingerprint still resolves as itself when no endpoint shadows
        it).  A unique fingerprint prefix of at least
        :attr:`MIN_PREFIX` chars — e.g. a historical 16-char truncated
        key — resolves to the full digest.
        """
        return self.resolve_route(target, route_key)[0]

    def resolve_route(
        self, target: str, route_key: object = None
    ) -> tuple[str, str]:
        """Like :meth:`resolve`, also naming the route taken.

        Returns ``(fingerprint, route)``: ``"stable"`` or ``"canary"``
        for endpoint traffic, ``"direct"`` for raw fingerprint targets
        — the per-request attribution the access log records.
        """
        with self._lock:
            return self._resolve_route_locked(target, route_key)

    def _resolve_route_locked(
        self, target: str, route_key: object
    ) -> tuple[str, str]:
        # Registry lock, then rollout lock: the order unregister takes.
        if self._rollout.has_endpoint(target):
            return self._rollout.resolve_with_route(target, route_key)
        target = self._canonical_locked(target)
        if target in self._models:
            return target, "direct"
        raise KeyError(f"no endpoint or model registered as {target!r}")

    def _require_registered(self, fingerprint: str) -> str:
        with self._lock:
            fingerprint = self._canonical_locked(fingerprint)
            if fingerprint not in self._models:
                raise KeyError(f"no model registered as {fingerprint!r}")
            return fingerprint

    # -- plain lookups -------------------------------------------------------

    def get(self, fingerprint: str) -> "CompiledTree | object":
        """The model registered under ``fingerprint`` (or a unique prefix)."""
        with self._lock:
            fingerprint = self._canonical_locked(fingerprint)
            try:
                return self._models[fingerprint]
            except KeyError:
                raise KeyError(f"no model registered as {fingerprint!r}") from None

    def stats_for(self, target: str) -> ServingStats:
        """Stats of an endpoint's stable model or of a raw fingerprint.

        Unlike :meth:`resolve`, looking up stats never advances routing
        counters.
        """
        if self._rollout.has_endpoint(target):
            return self.stats(self._rollout.peek(target))
        return self.stats(target)

    def stats(self, fingerprint: str) -> ServingStats:
        """The serving counters of one registered model."""
        with self._lock:
            fingerprint = self._canonical_locked(fingerprint)
            try:
                return self._stats[fingerprint]
            except KeyError:
                raise KeyError(f"no model registered as {fingerprint!r}") from None

    def fingerprints(self) -> list[str]:
        """Registered model keys, in registration order."""
        with self._lock:
            return list(self._models)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            if not isinstance(fingerprint, str):
                return False
            return self._canonical_locked(fingerprint) in self._models


class ServingEngine:
    """Executes prediction batches against a :class:`ModelRegistry`.

    Parameters
    ----------
    registry:
        Shared model store; one engine can serve every registered model.
    workers:
        Row-sharding threads per batch.  ``1`` keeps the plain
        single-call path; batches shorter than ``min_shard_rows`` stay
        single-threaded regardless, so tiny requests skip pool overhead.
    min_shard_rows:
        Minimum rows per shard before a batch is split.
    tracer:
        Optional span recorder: every request records one ``request``
        span (endpoint, method, outcome) whose id is the access log's
        trace exemplar, and each executed batch records a nested
        ``serve_batch`` span (model, method, rows, shard count).
        Tracing never changes predictions.
    access_log:
        Optional :class:`~repro.obs.access.AccessLog`; when set, every
        request — served, shed, expired, broken or failed — emits
        exactly one structured record (see :mod:`repro.obs.access`).
    max_queue_depth:
        Admission-control bound on concurrently in-flight requests;
        ``None`` disables admission (the pre-hardening behaviour).  An
        existing :class:`AdmissionController` may be passed to share one
        gate across engines.
    breaker_policy:
        When set, each served fingerprint gets a circuit breaker built
        from this policy; ``None`` disables circuit breaking.
    fallback:
        Degraded answer when a breaker rejects a request:
        :data:`PRIOR_FALLBACK` serves the model's majority-class prior,
        a fingerprint serves that registered model, ``None`` (default)
        raises :class:`~repro.serve.breaker.CircuitOpen`.
    shard_retries / shard_backoff_s:
        Failed shard executions are retried up to ``shard_retries``
        times, sleeping ``shard_backoff_s * attempt`` between tries.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        workers: int = 1,
        min_shard_rows: int = 8192,
        tracer: "Tracer | NullTracer | None" = None,
        access_log: AccessLog | None = None,
        max_queue_depth: "int | AdmissionController | None" = None,
        breaker_policy: BreakerPolicy | None = None,
        fallback: str | None = None,
        shard_retries: int = 1,
        shard_backoff_s: float = 0.001,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if min_shard_rows < 1:
            raise ValueError("min_shard_rows must be at least 1")
        if shard_retries < 0:
            raise ValueError("shard_retries must be non-negative")
        if shard_backoff_s < 0:
            raise ValueError("shard_backoff_s must be non-negative")
        self.registry = registry if registry is not None else ModelRegistry()
        self.workers = workers
        self.min_shard_rows = min_shard_rows
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.access_log = access_log
        if isinstance(max_queue_depth, AdmissionController):
            self.admission: AdmissionController | None = max_queue_depth
        elif max_queue_depth is not None:
            self.admission = AdmissionController(max_queue_depth)
        else:
            self.admission = None
        self.breaker_policy = breaker_policy
        self.fallback = fallback
        self.shard_retries = shard_retries
        self.shard_backoff_s = shard_backoff_s
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="cmp-serve"
            )
        return self._pool

    def close(self) -> None:
        """Shut the shard pool down and refuse further requests (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- robustness plumbing -------------------------------------------------

    def breaker(self, fingerprint: str) -> CircuitBreaker | None:
        """This fingerprint's circuit breaker (created lazily), or ``None``."""
        if self.breaker_policy is None:
            return None
        with self._breakers_lock:
            breaker = self._breakers.get(fingerprint)
            if breaker is None:
                breaker = self.breaker_policy.build()
                self._breakers[fingerprint] = breaker
            return breaker

    def breakers(self) -> dict[str, CircuitBreaker]:
        """Snapshot of every instantiated breaker, keyed by fingerprint."""
        with self._breakers_lock:
            return dict(self._breakers)

    def _validate_batch(self, fingerprint: str, model: object, X: np.ndarray) -> None:
        """Reject malformed input before it reaches the compiled kernel."""
        if X.ndim != 2:
            raise ValueError(
                f"model {fingerprint!r}: expected a 2-D record batch, got "
                f"{X.ndim}-D input of shape {X.shape}"
            )
        width = getattr(model, "n_attributes", None)
        if width is not None and len(X) > 0 and X.shape[1] != width:
            raise ValueError(
                f"model {fingerprint!r}: expected {width} attribute column(s), "
                f"got batch of shape {X.shape}"
            )

    def _degrade(
        self,
        fingerprint: str,
        model: object,
        X: np.ndarray,
        method: str,
        stats: ServingStats,
    ) -> np.ndarray:
        """Answer from the fallback path while the breaker holds traffic."""
        if self.fallback is None:
            raise CircuitOpen(
                f"circuit open for model {fingerprint!r} and no fallback "
                "is configured"
            )
        if self.fallback == PRIOR_FALLBACK:
            counts = getattr(model, "counts", None)
            if method == "apply" or counts is None:
                raise CircuitOpen(
                    f"circuit open for model {fingerprint!r}: majority-class "
                    f"prior cannot answer {method!r}"
                )
            totals = np.asarray(counts, dtype=np.float64).sum(axis=0)
            stats.count("fallbacks")
            if method == "predict":
                return np.full(len(X), int(np.argmax(totals)), dtype=np.int64)
            grand = totals.sum()
            proba = (
                totals / grand
                if grand > 0
                else np.full_like(totals, 1.0 / len(totals))
            )
            return np.tile(proba, (len(X), 1))
        fallback_model = self.registry.get(self.fallback)
        stats.count("fallbacks")
        return getattr(fallback_model, method)(X)

    def _shard_call(self, fn, X: np.ndarray, stats: ServingStats) -> np.ndarray:
        """One shard's execution, with bounded retry + deterministic backoff."""
        attempt = 0
        while True:
            try:
                return fn(X)
            except Exception:
                attempt += 1
                if attempt > self.shard_retries:
                    raise
                stats.count("shard_retries")
                if self.shard_backoff_s:
                    time.sleep(self.shard_backoff_s * attempt)

    # -- execution -----------------------------------------------------------

    def _run(
        self,
        target: str,
        X: np.ndarray,
        method: str,
        route_key: object = None,
        deadline: "Deadline | float | None" = None,
    ) -> np.ndarray:
        if self._closed:
            raise RuntimeError(
                "serving engine is closed; create a new engine to serve"
            )
        start = time.perf_counter()
        outcome = "error"
        error_name: str | None = None
        fingerprint: str | None = None
        route: str | None = None
        rows = 0
        with self.tracer.span(
            "request", endpoint=str(target), method=method
        ) as req_span:
            try:
                dl = as_deadline(deadline)
                # Resolve and lease at once: a hot swap between the two
                # would retire the resolved model under the request.
                with self.registry.lease_route(target, route_key) as leased:
                    fingerprint, route, model, stats = leased
                    X = _as_batch(X)
                    rows = len(X)
                    self._validate_batch(fingerprint, model, X)
                    if self.admission is not None and not self.admission.try_acquire():
                        stats.count("shed")
                        outcome = "shed"
                        raise Overloaded(
                            f"serve queue full ({self.admission.max_depth} in "
                            f"flight); request for {fingerprint!r} shed",
                            depth=self.admission.max_depth,
                            max_depth=self.admission.max_depth,
                        )
                    try:
                        if dl.expired:
                            stats.count("timeouts")
                            outcome = "deadline"
                            raise DeadlineExceeded(
                                f"deadline expired before executing request for "
                                f"{fingerprint!r}"
                            )
                        breaker = self.breaker(fingerprint)
                        if breaker is not None and not breaker.allow():
                            stats.count("breaker_rejections")
                            # _degrade either answers (fallback) or raises
                            # CircuitOpen, in which case "breaker" stands.
                            outcome = "breaker"
                            out = self._degrade(fingerprint, model, X, method, stats)
                            outcome = "fallback"
                            return out
                        out = self._execute(
                            fingerprint, model, X, method, dl, breaker, stats
                        )
                        outcome = "ok"
                        return out
                    finally:
                        if self.admission is not None:
                            self.admission.release()
            except DeadlineExceeded:
                outcome = "deadline"
                raise
            except BaseException as exc:
                if outcome == "error":
                    error_name = type(exc).__name__
                raise
            finally:
                req_span.annotate(outcome=outcome, rows=rows)
                if fingerprint is not None:
                    req_span.annotate(model=fingerprint[:12], route=route)
                if self.access_log is not None:
                    self.access_log.record(
                        source="engine",
                        endpoint=str(target),
                        fingerprint=fingerprint,
                        route=route,
                        method=method,
                        rows=rows,
                        outcome=outcome,
                        latency_s=time.perf_counter() - start,
                        trace_id=req_span.span_id if req_span.span_id >= 0 else None,
                        error=error_name,
                        route_key=None if route_key is None else str(route_key),
                    )

    def _execute(
        self,
        fingerprint: str,
        model: object,
        X: np.ndarray,
        method: str,
        dl: Deadline,
        breaker: CircuitBreaker | None,
        stats: ServingStats,
    ) -> np.ndarray:
        n = len(X)
        fn = getattr(model, method)
        with self.tracer.span(
            "serve_batch", model=fingerprint[:12], method=method, rows=n
        ) as span:
            start = time.perf_counter()
            try:
                if self.workers == 1 or n < 2 * self.min_shard_rows:
                    out = self._shard_call(fn, X, stats)
                else:
                    out = self._run_sharded(fn, X, n, dl, stats, span)
            except FutureTimeout:
                stats.count("timeouts")
                if breaker is not None:
                    breaker.record_failure()
                raise DeadlineExceeded(
                    f"deadline expired while executing a sharded batch "
                    f"for {fingerprint!r}"
                ) from None
            except Exception:
                if breaker is not None:
                    breaker.record_failure()
                raise
            if breaker is not None:
                breaker.record_success()
            stats.observe_batch(n, time.perf_counter() - start)
        return out

    def _run_sharded(
        self, fn, X: np.ndarray, n: int, dl: Deadline, stats: ServingStats, span
    ) -> np.ndarray:
        # Contiguous, balanced row ranges — the partition_chunks rule,
        # computed as bounds so a million-row batch is not listed out.
        shards = max(2, min(self.workers, n // self.min_shard_rows))
        base, extra = divmod(n, shards)
        bounds = []
        lo = 0
        for i in range(shards):
            hi = lo + base + (1 if i < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        span.annotate(shards=shards)
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._shard_call, fn, X[a:b], stats) for a, b in bounds
        ]
        parts = []
        try:
            for f in futures:
                parts.append(f.result(timeout=dl.remaining()))
        finally:
            if len(parts) < len(futures):
                for f in futures:
                    f.cancel()
        return np.concatenate(parts, axis=0)

    def predict(
        self,
        target: str,
        X: np.ndarray,
        *,
        route_key: object = None,
        deadline: "Deadline | float | None" = None,
    ) -> np.ndarray:
        """Majority-class labels for ``X`` under a model or endpoint."""
        return self._run(target, X, "predict", route_key, deadline)

    def predict_proba(
        self,
        target: str,
        X: np.ndarray,
        *,
        route_key: object = None,
        deadline: "Deadline | float | None" = None,
    ) -> np.ndarray:
        """Per-class probabilities for ``X`` under a model or endpoint."""
        return self._run(target, X, "predict_proba", route_key, deadline)

    def apply(
        self,
        target: str,
        X: np.ndarray,
        *,
        route_key: object = None,
        deadline: "Deadline | float | None" = None,
    ) -> np.ndarray:
        """Leaf node ids for ``X`` under a model or endpoint."""
        return self._run(target, X, "apply", route_key, deadline)


__all__ = ["ModelRegistry", "ServingEngine", "PRIOR_FALLBACK"]
