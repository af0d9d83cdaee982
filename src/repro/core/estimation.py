"""Gini lower-bound estimation inside intervals (Equations 4-5).

CLOUDS — and CMP after it — computes the gini index exactly only at
interval boundaries.  To decide whether an interval's *interior* might hold
a better split point, it estimates the minimum gini reachable inside the
interval with a gradient-guided hill climb:

* At a point with cumulative class counts ``x`` (records at or left of the
  point), the gradient of ``gini^D`` along class ``i`` is Equation 4.
* Starting from the interval's left boundary, pick the class with the
  steepest descending gradient and move *all* of that class's records in
  the interval across the point at once — [14] shows intermediate points
  need not be evaluated, so the climb takes at most ``c`` steps.
* Repeat from the right boundary moving leftward.
* The estimate is the minimum gini seen at any evaluated point, including
  both boundaries (Equation 5).

The estimate is a heuristic lower envelope: it assumes the interval's
records may be reordered class-by-class.  Two refinements keep it honest:

* **Atomic intervals** — an interval holding a single distinct value has
  no interior split point, so its estimate is just the better of its two
  boundary ginis (no climb).  Histograms track per-interval min/max values
  to detect this; without it, heavy atoms (e.g. the Agrawal generator's
  ``commission = 0`` spike) produce estimates no real split can attain and
  drag the split onto the wrong attribute.
* The climb is evaluated **in lockstep across all intervals** of every
  histogram passed in (at most ``c`` vectorized steps per direction).
  Small calls cost mostly numpy's fixed per-call overhead: with two
  classes, a call takes about 0.6-0.9 ms at ``q = 20`` rows and
  0.8-1.2 ms at ``q = 100``, but only 2-3 µs per row from ``q = 6000``
  on (2-vCPU x86 container).  Builders therefore stack a whole tree
  level's histograms into one call instead of making one per (node,
  attribute).

Stacked histograms are *segments* of one ``(Σq, c)`` array; every row
carries its own segment's class totals.  Counts are integer-valued (see
:meth:`repro.core.histogram.ClassHistogram.update`), so every count sum
is exact and a segment's results are bit-identical to analysing it
alone.

:func:`interval_estimate` is the scalar reference implementation;
:func:`interval_estimates` is the vectorized version used by builders.
Property tests assert they agree.
"""

from __future__ import annotations

import numpy as np

from repro.core.gini import gini_partition


def sketch_count_slack(rank_error: float, n: float) -> float:
    """Gini slack from evaluating a candidate with ε-approximate counts.

    Moving one record across a partition changes ``gini^D`` by at most
    ``2 / N`` (the same Lipschitz fact behind the paper's footnote 1), so
    a cumulative class-count vector whose total L1 error is at most
    ``rank_error`` perturbs the partition gini by at most
    ``2 * rank_error / N``.  This is the term a quantile sketch's rank
    error ε contributes each time a candidate threshold is *scored*.
    """
    if n <= 0:
        return 0.0
    return 2.0 * float(rank_error) / float(n)


def sketch_split_slack(
    eps: float, q: int, n_classes: int = 2, safety: float = 1.0
) -> float:
    """Analytic bound on ``achieved - oracle`` for a sketch-chosen split.

    The chain (mirroring the differential harness's footnote-1 argument,
    with the sketch's rank error ε threaded through):

    * the winner's achieved gini differs from its sketch score by at
      most ``2 * c * eps`` (per-class rank errors sum over ``c``
      classes — :func:`sketch_count_slack` with ``rank_error =
      c * eps * N``);
    * the winner's score is minimal over every candidate of every
      attribute, including the candidates bracketing the oracle's true
      optimum;
    * the oracle's optimum sits inside one interval of its attribute's
      sketch-quantile grid; that interval holds at most
      ``(1/q + 2 * c * eps)`` of the records (equal-depth up to the
      sketch's rank error), so footnote 1 bounds the interior undershoot
      by twice that; scoring that boundary costs another
      ``2 * c * eps``.

    Total: ``2/q + 8 * c * eps``, scaled by ``safety``.  The
    verification harness replaces the analytic ``1/q + 2 c eps``
    interval population with the *measured* non-atomic population of the
    recorded candidate grid, which is both tighter and exact.
    """
    ce = float(n_classes) * float(eps)
    return float(safety) * (2.0 / float(q) + 8.0 * ce)


def gini_gradient(x: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gradient of ``gini^D(S, a <= v)`` along every class (Equation 4).

    ``x`` is the cumulative class-count vector at the evaluation point and
    ``totals`` the class counts of the whole set.  Undefined (returns
    zeros) when the point is degenerate (``n_l`` is 0 or ``n``).
    """
    x = np.asarray(x, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.float64)
    n = totals.sum()
    nl = x.sum()
    if nl <= 0 or nl >= n:
        return np.zeros_like(x)
    nr = n - nl
    first = 2.0 / (nl * nr) * (totals * nl / n - x)
    second = (1.0 / n) * (np.sum((totals - x) ** 2) / nr**2 - np.sum(x**2) / nl**2)
    return first - second


def _probe_ginis(x: np.ndarray, jump: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Partition gini after hypothetically applying each class's full jump.

    ``x`` is ``(q, c)`` current cumulative counts, ``jump`` the ``(q, c)``
    signed count deltas (one candidate class jump per column), ``totals``
    the ``(c,)`` class totals or ``(q, c)`` per-row totals.  Returns
    ``(q, c)`` ginis; entries with a zero jump are ``+inf``.
    """
    n = totals.sum(axis=-1, keepdims=True)
    sx = x.sum(axis=1, keepdims=True)
    sx2 = (x**2).sum(axis=1, keepdims=True)
    rtot = totals - x
    sr2 = (rtot**2).sum(axis=1, keepdims=True)

    nl = sx + jump
    nr = n - nl
    left_sq = sx2 - x**2 + (x + jump) ** 2
    right_sq = sr2 - rtot**2 + (rtot - jump) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        gl = np.where(nl > 0, 1.0 - left_sq / np.maximum(nl, 1.0) ** 2, 0.0)
        gr = np.where(nr > 0, 1.0 - right_sq / np.maximum(nr, 1.0) ** 2, 0.0)
    g = (np.maximum(nl, 0.0) * gl + np.maximum(nr, 0.0) * gr) / n
    return np.where(jump != 0.0, g, np.inf)


def _gradient_rows(x: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Equation 4 evaluated row-wise for ``(q, c)`` points at once.

    ``totals`` is ``(c,)`` or one row of totals per point.
    """
    n = totals.sum(axis=-1, keepdims=True)
    nl = x.sum(axis=1, keepdims=True)
    nr = n - nl
    with np.errstate(divide="ignore", invalid="ignore"):
        first = 2.0 / np.maximum(nl * nr, 1.0) * (totals * nl / n - x)
        second = (1.0 / n) * (
            ((totals - x) ** 2).sum(axis=1, keepdims=True)
            / np.maximum(nr, 1.0) ** 2
            - (x**2).sum(axis=1, keepdims=True) / np.maximum(nl, 1.0) ** 2
        )
    grad = first - second
    degenerate = (nl <= 0) | (nl >= n)
    return np.where(degenerate, 0.0, grad)


def interval_estimate(
    cum_left: np.ndarray,
    interval_counts: np.ndarray,
    totals: np.ndarray,
    atomic: bool = False,
) -> float:
    """CLOUDS lower-bound estimate for one interval (scalar reference).

    Parameters
    ----------
    cum_left:
        Cumulative class counts strictly below the interval (its left
        boundary point).
    interval_counts:
        Class counts inside the interval.
    totals:
        Class counts of the whole set.
    atomic:
        True when the interval is known to hold a single distinct value
        (no interior split point exists).
    """
    cum_left = np.asarray(cum_left, dtype=np.float64)
    interval_counts = np.asarray(interval_counts, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.float64)
    cum_right = cum_left + interval_counts
    g_left = float(gini_partition(cum_left, totals - cum_left))
    g_right = float(gini_partition(cum_right, totals - cum_right))
    best = min(g_left, g_right)
    if atomic or interval_counts.sum() == 0:
        return best
    n = totals.sum()
    for direction, start in ((+1, cum_left), (-1, cum_right)):
        x = start.copy()
        remaining = interval_counts.copy()
        while remaining.sum() > 0:
            nl = x.sum()
            jump = direction * remaining
            if 0 < nl < n:
                score = direction * gini_gradient(x, totals)
                score = np.where(remaining > 0, score, np.inf)
            else:
                score = _probe_ginis(x[None, :], jump[None, :], totals)[0]
            i = int(np.argmin(score))
            x[i] += direction * remaining[i]
            remaining[i] = 0.0
            best = min(best, float(gini_partition(x, totals - x)))
    return best


def segment_frame(
    hist: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment-local cumulative counts of stacked histograms.

    ``hist`` is ``(R, c)``: segment ``s`` occupies rows ``starts[s]`` up
    to the next start.  Returns ``(cum, cum_left, totals)``, each
    ``(R, c)``: class counts at or below each row's upper edge, strictly
    below the row, and of the row's whole segment.  With integer-valued
    counts all three are exact, hence equal to per-segment cumsums.
    """
    rows, c = hist.shape
    run = np.cumsum(hist, axis=0)
    ends = np.append(starts[1:], rows) - 1
    before = np.zeros((len(starts), c))
    before[1:] = run[ends[:-1]]
    seg = np.repeat(np.arange(len(starts)), ends - starts + 1)
    cum = run - before[seg]
    cum_left = np.empty_like(cum)
    cum_left[1:] = cum[:-1]
    cum_left[starts] = 0.0
    return cum, cum_left, cum[ends][seg]


def interval_estimates(
    hist: np.ndarray,
    atomic: np.ndarray | None = None,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Estimates for every interval of stacked histograms, vectorized.

    ``hist`` is ``(R, c)`` class counts per interval; ``atomic`` an
    optional ``(R,)`` boolean mask of single-distinct-value intervals;
    ``starts`` the first row of each stacked histogram (``None`` for a
    single histogram).  Returns ``(R,)`` estimates.  All intervals of
    every segment climb in lockstep, so one call costs ``O(c)``
    vectorized steps per direction regardless of ``R``.
    """
    hist = np.ascontiguousarray(hist, dtype=np.float64)
    if hist.ndim != 2:
        raise ValueError("hist must be (intervals, classes)")
    c = hist.shape[1]
    starts = np.zeros(1, dtype=np.intp) if starts is None else np.asarray(starts)
    cum, cum_left, totals = segment_frame(hist, starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_left = np.asarray(gini_partition(cum_left, totals - cum_left))
        g_right = np.asarray(gini_partition(cum, totals - cum))
    best = np.minimum(g_left, g_right)

    climbable = hist.sum(axis=1) > 0
    if atomic is not None:
        climbable &= ~np.asarray(atomic, dtype=bool)

    for direction, start in ((+1, cum_left), (-1, cum)):
        rows = np.nonzero(climbable)[0]
        x = start[rows]
        remaining = hist[rows]
        tot = totals[rows]
        for _ in range(c):
            active = remaining.sum(axis=1) > 0
            if not active.all():
                rows, x, remaining, tot = (
                    rows[active], x[active], remaining[active], tot[active]
                )
            if len(rows) == 0:
                break
            grad_score = direction * _gradient_rows(x, tot)
            cols = np.argmin(np.where(remaining > 0, grad_score, np.inf), axis=1)
            # The gradient is undefined at a degenerate point (an empty
            # side); there the climb probes each class's full jump instead.
            nl = x.sum(axis=1)
            deg = np.nonzero((nl <= 0) | (nl >= tot.sum(axis=1)))[0]
            if len(deg):
                probe = _probe_ginis(x[deg], direction * remaining[deg], tot[deg])
                cols[deg] = np.argmin(probe, axis=1)
            at = np.arange(len(rows))
            x[at, cols] += direction * remaining[at, cols]
            remaining[at, cols] = 0.0
            g = np.asarray(gini_partition(x, tot - x))
            best[rows] = np.minimum(best[rows], g)
    return best
