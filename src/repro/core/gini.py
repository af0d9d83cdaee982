"""Gini index computations (Equations 1-3 of the paper).

All functions work on *class-count* vectors rather than label arrays: a set
``S`` is represented by ``counts[j]`` = number of records of class ``j``.
This is exactly the information the paper's histograms carry, and it lets
every routine vectorize over many candidate splits at once.
"""

from __future__ import annotations

import numpy as np


def gini(counts: np.ndarray) -> np.ndarray | float:
    """Gini index of one or many sets (Equation 1).

    ``counts`` has class counts along its last axis; the result drops that
    axis.  An empty set has gini 0 by convention (it contributes nothing to
    a weighted partition index).
    """
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p2 = np.where(n[..., None] > 0, counts / np.maximum(n[..., None], 1.0), 0.0) ** 2
    out = np.where(n > 0, 1.0 - p2.sum(axis=-1), 0.0)
    return float(out) if out.ndim == 0 else out


def gini_partition(left: np.ndarray, right: np.ndarray) -> np.ndarray | float:
    """Weighted gini of a binary partition (Equation 2).

    ``left`` and ``right`` are class-count arrays (class axis last); they
    broadcast, so many candidate partitions can be evaluated at once.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    nl = left.sum(axis=-1)
    nr = right.sum(axis=-1)
    n = nl + nr
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            n > 0,
            (nl * gini(left) + nr * gini(right)) / np.maximum(n, 1.0),
            0.0,
        )
    return float(out) if out.ndim == 0 else out


def gini_partition_many(parts: list[np.ndarray] | np.ndarray) -> float:
    """Weighted gini of a k-way partition (used by the 3-way linear split).

    ``parts`` is a sequence of class-count vectors (or a 2-D array with one
    partition per row).
    """
    parts = np.asarray(parts, dtype=np.float64)
    sizes = parts.sum(axis=-1)
    n = sizes.sum()
    if n == 0:
        return 0.0
    return float((sizes * gini(parts)).sum() / n)


def boundary_ginis(cum: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Partition gini at every interval boundary at once (Equation 3).

    Parameters
    ----------
    cum:
        ``(b, c)`` cumulative class counts: ``cum[k, j]`` is the number of
        class-``j`` records with attribute value at or below boundary ``k``.
    totals:
        ``(c,)`` class counts of the whole set.

    Returns
    -------
    ``(b,)`` array of ``gini^D(S, a <= boundary_k)``.  Degenerate
    boundaries (all records on one side) evaluate to the gini of ``S``
    itself, so they are never preferred over a genuine split.
    """
    cum = np.asarray(cum, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.float64)
    if cum.ndim != 2 or cum.shape[1] != len(totals):
        raise ValueError("cum must be (boundaries, classes) aligned with totals")
    return np.asarray(gini_partition(cum, totals[None, :] - cum), dtype=np.float64)


def gini_gain(parent_counts: np.ndarray, split_gini: float) -> float:
    """Reduction in gini achieved by a split."""
    return float(gini(parent_counts)) - split_gini


def prefix_cuts(
    values: np.ndarray,
    labels: np.ndarray,
    base: np.ndarray,
    n_classes: int,
    include_last: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Cut points of a run of buffered records and the class counts left of each.

    The records are sorted stably by value.  A cut falls after the last
    record of each distinct value; the cut after the run's final record
    is included only with ``include_last``.  Returns the cut thresholds
    ``(k,)`` and, per cut, ``base`` plus the class counts of the sorted
    prefix ``(k, n_classes)``.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    onehot = np.zeros((len(v), n_classes), dtype=np.float64)
    onehot[np.arange(len(v)), labels[order]] = 1.0
    cum = np.cumsum(onehot, axis=0) + base[None, :]
    cuts = np.nonzero(v[:-1] < v[1:])[0]
    if include_last and len(v):
        cuts = np.append(cuts, len(v) - 1)
    return v[cuts], cum[cuts]


def best_cut(left: np.ndarray, totals: np.ndarray) -> tuple[int, float] | None:
    """Index and gini of the best valid candidate split, or ``None``.

    ``left`` holds each candidate's left-side class counts; a candidate
    is valid when both sides are non-empty.  Ties go to the first
    candidate.
    """
    n = totals.sum()
    nl = left.sum(axis=1)
    valid = (nl > 0) & (nl < n)
    if not valid.any():
        return None
    ginis = np.asarray(gini_partition(left, totals[None, :] - left), dtype=np.float64)
    ginis = np.where(valid, ginis, np.inf)
    k = int(np.argmin(ginis))
    return k, float(ginis[k])


def exact_best_threshold(
    values: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[float, float]:
    """Exact best ``a <= C`` split of a labelled sample: the sorted-value
    sweep of Quinlan's C4.5, as :func:`prefix_cuts` + :func:`best_cut`.

    Returns ``(threshold, gini)``; the threshold is the largest value of
    the left side.  Raises ``ValueError`` when no split exists (fewer
    than two distinct values).
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if len(values) != len(labels):
        raise ValueError("values and labels must align")
    thresholds, left = prefix_cuts(values, labels, np.zeros(n_classes), n_classes)
    best = best_cut(left, np.bincount(labels, minlength=n_classes).astype(np.float64))
    if best is None:
        raise ValueError("fewer than two distinct values; no split exists")
    k, g = best
    return float(thresholds[k]), g
