"""Request micro-batching for the serving engine.

Single-record prediction requests are the worst case for a vectorized
engine: every call pays batch setup for one row.  :class:`MicroBatcher`
sits in front of :class:`~repro.serve.engine.ServingEngine` and coalesces
concurrent requests:

* :meth:`submit` enqueues one record and returns a
  :class:`concurrent.futures.Future` immediately;
* a background flush thread drains the queue into one engine call when
  either ``max_batch`` records are waiting or the oldest request has
  waited ``max_delay_s`` (whichever comes first), then resolves every
  future from the batch result;
* :meth:`close` flushes whatever is queued and joins the thread, so no
  future is ever left pending.

The batcher also enforces the serve path's robustness contract at
request granularity:

* **admission** — ``max_pending`` bounds the queue; a request arriving
  at a full queue is rejected immediately with
  :class:`~repro.serve.admission.Overloaded` (counted as shed);
* **deadlines** — each request may carry a latency budget.  The flush
  thread wakes no later than the earliest deadline, requests that
  expire before execution fail fast with
  :class:`~repro.serve.admission.DeadlineExceeded` *without* being sent
  to the engine (an all-expired batch skips the predict call entirely),
  and a request whose deadline lapses while its batch is mid-execution
  is failed at delivery rather than handed a late answer.

An engine-side failure is propagated to every future in the failed
batch rather than killing the flush thread.

When the engine carries an :class:`~repro.obs.access.AccessLog`, the
batcher emits one ``source="batcher"`` record per *submitted* request —
shed at submit, expired before or after execution, failed with the
batch, or answered — with its queue wait and flush ``batch_id``; the
engine's own ``source="engine"`` record covers the coalesced batch
call.  A request answered by the engine's fallback path logs ``ok``
here (it got an answer) while the engine record says ``fallback``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.serve.admission import DeadlineExceeded, Overloaded
from repro.serve.breaker import CircuitOpen
from repro.serve.engine import ServingEngine


class MicroBatcher:
    """Coalesces single-record requests into batched engine calls.

    Parameters
    ----------
    engine:
        The executing engine.
    target:
        Registry key — or endpoint name — of the model this batcher
        serves.
    method:
        Engine method to call per batch: ``"predict"``,
        ``"predict_proba"`` or ``"apply"``.
    max_batch:
        Flush as soon as this many records are queued.
    max_delay_s:
        Flush when the oldest queued record has waited this long.
    max_pending:
        Bound on queued-but-unflushed requests; ``None`` keeps the
        queue unbounded (the pre-hardening behaviour).
    default_deadline_s:
        Latency budget applied to requests submitted without one;
        ``None`` means no deadline.
    """

    def __init__(
        self,
        engine: ServingEngine,
        target: str,
        method: str = "predict",
        max_batch: int = 256,
        max_delay_s: float = 0.005,
        max_pending: int | None = None,
        default_deadline_s: float | None = None,
    ) -> None:
        if method not in ("predict", "predict_proba", "apply"):
            raise ValueError(f"unknown engine method {method!r}")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay_s <= 0:
            raise ValueError("max_delay_s must be positive")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        engine.registry.stats_for(target)  # fail fast on unknown targets
        self.engine = engine
        self.target = target
        self.method = method
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_pending = max_pending
        self.default_deadline_s = default_deadline_s
        self._rows: list[np.ndarray] = []
        self._futures: list[Future] = []
        self._expiries: list[float | None] = []
        self._submits: list[float] = []
        self._batch_seq = 0
        self._deadline = 0.0
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._thread = threading.Thread(
            target=self._flush_loop, name="cmp-batcher", daemon=True
        )
        self._thread.start()

    @property
    def fingerprint(self) -> str:
        """Backwards-compatible alias for :attr:`target`."""
        return self.target

    def _stats(self):
        # Request-level counters land on the target's stable model; only
        # actual engine execution routes (and counts) canary traffic.
        return self.engine.registry.stats_for(self.target)

    def _log(
        self,
        outcome: str,
        submit_s: float,
        queue_wait_s: float | None,
        batch_id: int | None,
        error: str | None = None,
    ) -> None:
        """One per-request access record (no-op without an engine log).

        Fingerprint/route stay ``None``: routing happens inside the
        engine call, whose ``source="engine"`` record attributes the
        whole flush; these records attribute the *request's* fate.
        """
        log = self.engine.access_log
        if log is None:
            return
        log.record(
            source="batcher",
            endpoint=str(self.target),
            fingerprint=None,
            route=None,
            method=self.method,
            rows=1,
            outcome=outcome,
            latency_s=time.perf_counter() - submit_s,
            queue_wait_s=queue_wait_s,
            batch_id=batch_id,
            error=error,
        )

    # -- client side ---------------------------------------------------------

    def submit(self, row: np.ndarray, deadline_s: float | None = None) -> Future:
        """Enqueue one record; the future resolves to its prediction.

        ``deadline_s`` is this request's latency budget (falling back to
        ``default_deadline_s``): if it expires before the answer is
        delivered, the future fails with :class:`DeadlineExceeded`.
        Raises :class:`Overloaded` when ``max_pending`` requests are
        already queued, and :class:`RuntimeError` after :meth:`close`.
        """
        x = np.asarray(row, dtype=np.float64).reshape(-1)
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        future: Future = Future()
        with self._wake:
            if self._closed:
                raise RuntimeError(
                    "batcher is closed; its flush thread has stopped and "
                    "would never serve this request"
                )
            now = time.perf_counter()
            if (
                self.max_pending is not None
                and len(self._rows) >= self.max_pending
            ):
                self._stats().count("shed")
                self._log("shed", now, 0.0, None)
                raise Overloaded(
                    f"micro-batch queue full ({self.max_pending} pending)",
                    depth=len(self._rows),
                    max_depth=self.max_pending,
                )
            if not self._rows:
                # The flush window is anchored to the *oldest* request.
                self._deadline = now + self.max_delay_s
            self._rows.append(x)
            self._futures.append(future)
            self._expiries.append(
                None if deadline_s is None else now + deadline_s
            )
            self._submits.append(now)
            self._stats().count("requests")
            self._wake.notify()
        return future

    def close(self) -> None:
        """Flush pending requests and stop the background thread."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify()
        self._thread.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- flush thread --------------------------------------------------------

    def _take_batch(
        self,
    ) -> tuple[list[np.ndarray], list[Future], list[float | None], list[float]]:
        rows, futures = self._rows, self._futures
        expiries, submits = self._expiries, self._submits
        self._rows, self._futures, self._expiries, self._submits = [], [], [], []
        return rows, futures, expiries, submits

    def _wake_at(self) -> float:
        """Earliest moment the flush thread must act (window or deadline)."""
        wake = self._deadline
        for expiry in self._expiries:
            if expiry is not None and expiry < wake:
                wake = expiry
        return wake

    def _flush_loop(self) -> None:
        while True:
            with self._wake:
                while not self._closed and len(self._rows) < self.max_batch:
                    if self._rows:
                        remaining = self._wake_at() - time.perf_counter()
                        if remaining <= 0:
                            break  # window or a deadline expired: act now
                        self._wake.wait(timeout=remaining)
                    else:
                        self._wake.wait()
                rows, futures, expiries, submits = self._take_batch()
                done = self._closed
            if rows:
                self._execute(rows, futures, expiries, submits)
            if done:
                return

    def _reject_expired(
        self,
        rows: list[np.ndarray],
        futures: list[Future],
        expiries: list[float | None],
        submits: list[float],
        batch_id: int,
    ) -> tuple[list[np.ndarray], list[Future], list[float | None], list[float]]:
        """Fail requests whose budget already ran out; return the survivors."""
        now = time.perf_counter()
        live_rows: list[np.ndarray] = []
        live_futures: list[Future] = []
        live_expiries: list[float | None] = []
        live_submits: list[float] = []
        expired = 0
        for row, future, expiry, submit in zip(rows, futures, expiries, submits):
            if expiry is not None and now >= expiry:
                expired += 1
                self._log("deadline", submit, now - submit, batch_id)
                future.set_exception(
                    DeadlineExceeded("request deadline expired before execution")
                )
            else:
                live_rows.append(row)
                live_futures.append(future)
                live_expiries.append(expiry)
                live_submits.append(submit)
        if expired:
            self._stats().count("timeouts", expired)
        return live_rows, live_futures, live_expiries, live_submits

    @staticmethod
    def _failure_outcome(exc: BaseException) -> str:
        """Access-log outcome for an engine-side batch failure."""
        if isinstance(exc, Overloaded):
            return "shed"
        if isinstance(exc, DeadlineExceeded):
            return "deadline"
        if isinstance(exc, CircuitOpen):
            return "breaker"
        return "error"

    def _execute(
        self,
        rows: list[np.ndarray],
        futures: list[Future],
        expiries: list[float | None],
        submits: list[float],
    ) -> None:
        batch_id = self._batch_seq
        self._batch_seq += 1
        rows, futures, expiries, submits = self._reject_expired(
            rows, futures, expiries, submits, batch_id
        )
        if not rows:
            return  # every request expired: skip the predict call entirely
        # The flush span wraps coalescing plus the engine call (which
        # records its own child request/serve_batch spans on the same
        # tracer).
        with self.engine.tracer.span(
            "flush", rows=len(rows), method=self.method, batch=batch_id
        ):
            exec_start = time.perf_counter()
            try:
                X = np.vstack(rows)
                out = getattr(self.engine, self.method)(self.target, X)
            except BaseException as exc:  # propagate, don't kill the thread
                outcome = self._failure_outcome(exc)
                for f, submit in zip(futures, submits):
                    self._log(
                        outcome,
                        submit,
                        exec_start - submit,
                        batch_id,
                        error=type(exc).__name__ if outcome == "error" else None,
                    )
                    f.set_exception(exc)
                return
            now = time.perf_counter()
            late = 0
            for i, (f, expiry, submit) in enumerate(
                zip(futures, expiries, submits)
            ):
                if expiry is not None and now >= expiry:
                    # The answer exists but arrived past the caller's
                    # budget: deliver the timeout, not a late result.
                    late += 1
                    self._log("deadline", submit, exec_start - submit, batch_id)
                    f.set_exception(
                        DeadlineExceeded(
                            "request deadline expired while its batch was "
                            "executing"
                        )
                    )
                else:
                    self._log("ok", submit, exec_start - submit, batch_id)
                    f.set_result(out[i])
            if late:
                self._stats().count("timeouts", late)


__all__ = ["MicroBatcher"]
