"""Compiled batch inference: a trained tree flattened into numpy arrays.

The training side of this repository is scan-oriented, but the serving
side (ROADMAP: heavy prediction traffic) was still walking Python
``Node`` objects record-batch by record-batch.  This module flattens a
:class:`~repro.core.tree.DecisionTree` into contiguous arrays — one row
per node, in pre-order — and routes whole batches iteratively with
vectorized active-set masking, so ``predict``/``predict_proba`` never
touch a Python node object:

* ``kind`` tags each node (leaf / numeric / categorical / linear);
* ``attr``/``attr2``, ``coef_a``/``coef_b`` and ``threshold`` encode all
  three split forms of :mod:`repro.core.splits` (``a <= C``, subset
  splits, and ``a*x + b*y <= c`` linear-combination splits);
* ``left``/``right`` are child *indices* (``-1`` at leaves);
* categorical subset masks live in one flat boolean array addressed by
  per-node ``cat_offset``/``cat_len``, with ``default_left`` routing
  category codes unseen at training time toward the heavier child;
* per-leaf class-count rows feed a ``(n_leaves, n_classes)`` probability
  table for ``predict_proba``.

Every comparison uses the same float64 expression the object walker
evaluates, so the compiled engine is **bit-identical** to
:func:`repro.verify.walker.walk_predict` / ``walk_predict_proba`` on
any input — the property tests in ``tests/test_compiled.py`` assert
exactly that on randomized trees of all three split kinds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.native import forest_kernel as native_forest_kernel
from repro.core.native import route_kernel as native_route_kernel
from repro.core.splits import CategoricalSplit, LinearSplit, NumericSplit
from repro.core.tree import DecisionTree, Node, _as_batch

#: Node tags in :attr:`CompiledTree.kind`.
LEAF, NUMERIC, CATEGORICAL, LINEAR = 0, 1, 2, 3


@dataclass(frozen=True)
class CompiledTree:
    """Array form of a decision tree; see the module docstring.

    Immutable once built: a pruned tree compiles to a *new*
    ``CompiledTree`` (the model registry keys serving state off
    :attr:`fingerprint` for the same reason).
    """

    kind: np.ndarray  #: (n_nodes,) int8 node tag
    attr: np.ndarray  #: (n_nodes,) int32 split attribute (x attribute for linear)
    attr2: np.ndarray  #: (n_nodes,) int32 linear y attribute, -1 elsewhere
    attr2c: np.ndarray  #: (n_nodes,) int32 gather-safe ``attr2`` (= ``attr`` off linear nodes)
    coef_a: np.ndarray  #: (n_nodes,) float64 linear ``a`` coefficient
    coef_b: np.ndarray  #: (n_nodes,) float64 linear ``b`` coefficient
    threshold: np.ndarray  #: (n_nodes,) float64 numeric threshold / linear ``c``
    left: np.ndarray  #: (n_nodes,) intp left-child index; leaves self-loop
    right: np.ndarray  #: (n_nodes,) intp right-child index; leaves self-loop
    default_left: np.ndarray  #: (n_nodes,) bool unseen-category routing
    cat_offset: np.ndarray  #: (n_nodes,) int64 offset into ``cat_mask``
    cat_len: np.ndarray  #: (n_nodes,) int64 categorical mask length
    cat_mask: np.ndarray  #: (sum cat_len,) bool flat subset masks
    node_id: np.ndarray  #: (n_nodes,) int64 original ``Node.node_id``
    leaf_class: np.ndarray  #: (n_nodes,) int64 majority class (valid at leaves)
    leaf_row: np.ndarray  #: (n_nodes,) intp row into ``proba`` (valid at leaves)
    proba: np.ndarray  #: (n_leaves, n_classes) float64 leaf class distributions
    counts: np.ndarray  #: (n_leaves, n_classes) float64 raw leaf class counts
    n_classes: int
    n_attributes: int  #: record width the tree was trained on
    depth: int  #: depth of the deepest leaf (root = 0)
    has_linear: bool  #: any linear split present
    has_categorical: bool  #: any categorical split present
    fingerprint: str  #: stable content hash (model-registry key)
    _scalars_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return len(self.kind)

    @property
    def n_leaves(self) -> int:
        """Leaf count."""
        return len(self.proba)

    def nbytes(self) -> int:
        """Total bytes held by the flattened arrays."""
        return sum(
            getattr(self, f).nbytes
            for f in (
                "kind", "attr", "attr2", "attr2c", "coef_a", "coef_b",
                "threshold", "left", "right", "default_left", "cat_offset",
                "cat_len", "cat_mask", "node_id", "leaf_class", "leaf_row",
                "proba", "counts",
            )
        )

    # -- batch routing -------------------------------------------------------

    def _node_scalars(self) -> tuple:
        """Per-node metadata as plain Python lists (cached).

        The numpy routing path visits one tree node per iteration of a
        Python loop; plain-list indexing there is several times cheaper
        than numpy scalar extraction.
        """
        cached = self._scalars_cache
        if cached is None:
            cached = (
                self.kind.tolist(),
                self.attr.tolist(),
                self.attr2.tolist(),
                self.coef_a.tolist(),
                self.coef_b.tolist(),
                self.threshold.tolist(),
                self.left.tolist(),
                self.right.tolist(),
                self.default_left.tolist(),
                self.cat_offset.tolist(),
                self.cat_len.tolist(),
            )
            object.__setattr__(self, "_scalars_cache", cached)
        return cached

    def route(self, X: np.ndarray) -> np.ndarray:
        """Node *index* of each record's leaf (the routing core).

        Dispatches to the native C kernel when one could be built
        (:mod:`repro.core.native`), otherwise to the vectorized numpy
        descent — both bit-identical to the object walker.
        """
        X = _as_batch(X)
        n = len(X)
        if n == 0 or self.kind[0] == LEAF:
            return np.zeros(n, dtype=np.intp)
        kernel = native_route_kernel()
        if kernel is not None:
            return self._route_native(kernel, X)
        return self._route_numpy(X)

    def _route_native(self, kernel, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X)
        out = np.empty(len(X), dtype=np.intp)
        kernel(self, X, out)
        return out

    def _route_numpy(self, X: np.ndarray) -> np.ndarray:
        """Vectorized fallback: grouped pre-order descent.

        Records are kept as per-node active index sets (the whole batch
        at the root) and partitioned down the tree with one single-column
        gather and one vectorized comparison per node — the per-node
        threshold, coefficients and children are Python scalars, so no
        per-record node-table gathers happen at all.  Columns are
        gathered from a Fortran-order copy so every ``take`` hits
        contiguous memory, and index sets stay sorted under boolean
        partitioning, keeping the gathers cache-friendly.
        """
        n = len(X)
        out = np.zeros(n, dtype=np.intp)
        XF = np.asfortranarray(X)
        cols = [XF[:, j] for j in range(XF.shape[1])]
        (kind, attr, attr2, coef_a, coef_b, threshold,
         left, right, default_left, cat_offset, cat_len) = self._node_scalars()
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(n, dtype=np.intp))]
        while stack:
            i, idx = stack.pop()
            k = kind[i]
            if k == LEAF:
                out[idx] = i
                continue
            if idx.size == 0:
                continue
            if k == NUMERIC:
                goes = cols[attr[i]].take(idx) <= threshold[i]
            elif k == LINEAR:
                goes = (
                    coef_a[i] * cols[attr[i]].take(idx)
                    + coef_b[i] * cols[attr2[i]].take(idx)
                ) <= threshold[i]
            else:
                codes = cols[attr[i]].take(idx).astype(np.intp)
                length = cat_len[i]
                seen = (codes >= 0) & (codes < length)
                mask = self.cat_mask[cat_offset[i] : cat_offset[i] + length]
                goes = np.where(
                    seen, mask[np.clip(codes, 0, length - 1)], default_left[i]
                )
            stack.append((right[i], idx[~goes]))
            stack.append((left[i], idx[goes]))
        return out

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf ``node_id`` per record (compiled ``DecisionTree.apply``)."""
        return self.node_id[self.route(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-class label per record."""
        return self.leaf_class[self.route(X)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-class probabilities, shape ``(n, n_classes)``."""
        return self.proba[self.leaf_row[self.route(X)]]


def tree_fingerprint(tree: DecisionTree) -> str:
    """Stable content hash of a tree (structure, splits, counts, schema).

    Reuses the tree's (lazily built) compiled form: hashing the flattened
    arrays is iterative, so trees deeper than Python's recursion limit
    fingerprint fine where a JSON-based hash would not.
    """
    return tree.compiled().fingerprint


def compile_tree(tree: DecisionTree) -> CompiledTree:
    """Flatten ``tree`` into a :class:`CompiledTree` (pre-order layout)."""
    nodes: list[Node] = list(tree.iter_nodes())
    index = {id(node): i for i, node in enumerate(nodes)}
    n = len(nodes)
    n_classes = tree.schema.n_classes

    kind = np.zeros(n, dtype=np.int8)
    attr = np.zeros(n, dtype=np.int32)
    attr2 = np.full(n, -1, dtype=np.int32)
    coef_a = np.ones(n, dtype=np.float64)
    coef_b = np.zeros(n, dtype=np.float64)
    threshold = np.zeros(n, dtype=np.float64)
    # Leaves self-loop: route() advances every record each level and a
    # finished record simply stays put.
    left = np.arange(n, dtype=np.intp)
    right = np.arange(n, dtype=np.intp)
    default_left = np.zeros(n, dtype=bool)
    cat_offset = np.zeros(n, dtype=np.int64)
    cat_len = np.zeros(n, dtype=np.int64)
    node_id = np.zeros(n, dtype=np.int64)
    leaf_class = np.zeros(n, dtype=np.int64)
    leaf_row = np.zeros(n, dtype=np.intp)

    masks: list[np.ndarray] = []
    mask_total = 0
    leaves: list[Node] = []

    for i, node in enumerate(nodes):
        node_id[i] = node.node_id
        if node.is_leaf:
            kind[i] = LEAF
            leaf_class[i] = node.majority_class
            leaf_row[i] = len(leaves)
            leaves.append(node)
            continue
        split = node.split
        left[i] = index[id(node.left)]
        right[i] = index[id(node.right)]
        if isinstance(split, NumericSplit):
            kind[i] = NUMERIC
            attr[i] = split.attr
            threshold[i] = split.threshold
        elif isinstance(split, CategoricalSplit):
            kind[i] = CATEGORICAL
            attr[i] = split.attr
            # Unseen category codes follow the heavier child (ties left) —
            # the same rule the object walker applies.
            default_left[i] = node.left.n_records >= node.right.n_records  # type: ignore[union-attr]
            m = np.asarray(split.left_mask, dtype=bool)
            cat_offset[i] = mask_total
            cat_len[i] = len(m)
            masks.append(m)
            mask_total += len(m)
        elif isinstance(split, LinearSplit):
            kind[i] = LINEAR
            attr[i] = split.attr_x
            attr2[i] = split.attr_y
            coef_a[i] = split.a
            coef_b[i] = split.b
            threshold[i] = split.c
        else:
            raise TypeError(f"unknown split type {type(split).__name__}")

    # Leaf probability table, row order == pre-order leaf order — the same
    # construction (and float64 arithmetic) as walk_predict_proba.  Empty
    # leaves predict from the nearest populated ancestor's distribution
    # (Node.effective_counts); ``counts`` keeps the raw per-leaf counts.
    proba = np.empty((len(leaves), n_classes), dtype=np.float64)
    counts = np.empty((len(leaves), n_classes), dtype=np.float64)
    for row, node in enumerate(leaves):
        counts[row] = node.class_counts
        effective = node.effective_counts
        total = effective.sum()
        proba[row] = (
            effective / total
            if total > 0
            else np.full_like(effective, 1.0 / len(effective))
        )

    cat_mask = np.concatenate(masks) if masks else np.zeros(0, dtype=bool)
    attr2c = np.where(kind == LINEAR, attr2, attr).astype(np.int32)
    depth = int(max(node.depth for node in nodes) - tree.root.depth)

    # Content hash over the flattened arrays plus the schema: iterative
    # (deep chain trees fingerprint fine) and covers structure, split
    # parameters and leaf distributions.
    digest = hashlib.sha256()
    for arr in (
        kind, attr, attr2, coef_a, coef_b, threshold, left, right,
        default_left, cat_offset, cat_len, cat_mask, node_id, counts,
    ):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(repr(tree.schema).encode("utf-8"))

    return CompiledTree(
        kind=kind,
        attr=attr,
        attr2=attr2,
        attr2c=attr2c,
        coef_a=coef_a,
        coef_b=coef_b,
        threshold=threshold,
        left=left,
        right=right,
        default_left=default_left,
        cat_offset=cat_offset,
        cat_len=cat_len,
        cat_mask=cat_mask,
        node_id=node_id,
        leaf_class=leaf_class,
        leaf_row=leaf_row,
        proba=proba,
        counts=counts,
        n_classes=n_classes,
        n_attributes=tree.schema.n_attributes,
        depth=depth,
        has_linear=bool((kind == LINEAR).any()),
        has_categorical=bool((kind == CATEGORICAL).any()),
        fingerprint=digest.hexdigest(),
    )


@dataclass(frozen=True)
class CompiledForest:
    """An ensemble packed into one set of concatenated node arrays.

    The member trees' pre-order node arrays are laid back to back, with
    child indices, ``cat_mask`` offsets and leaf rows shifted to global
    positions: one native C call (:func:`repro.core.native.forest_kernel`)
    routes a whole batch through every member and accumulates the leaf
    ``values`` rows.  The numpy fallback routes each member with its own
    (already bit-identical) :meth:`CompiledTree.route` and adds the same
    value rows in the same member order — the element-wise fold order
    matches the C loop exactly, so the two paths are bit-identical.

    Aggregation ``mode``:

    * ``"average"`` (bagging) — ``values`` rows are member-leaf class
      distributions; ``predict_proba`` divides the accumulated sum by
      the member count (soft voting), ``predict`` is its argmax.
    * ``"sum_softmax"`` (boosting) — ``values`` rows are leaf score
      contributions added onto ``base``; ``predict_proba`` is the
      softmax of the accumulated raw scores, ``predict`` its argmax.

    ``counts`` feeds the serving engine's degraded majority-class
    fallback (summed over axis 0, like a tree's per-leaf counts).
    """

    members: tuple[CompiledTree, ...]
    tree_offsets: np.ndarray  #: (T + 1,) int64 member root node offsets
    kind: np.ndarray
    attr: np.ndarray
    attr2: np.ndarray
    coef_a: np.ndarray
    coef_b: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    default_left: np.ndarray
    cat_offset: np.ndarray
    cat_len: np.ndarray
    cat_mask: np.ndarray
    leaf_row: np.ndarray  #: (n_nodes,) int64 global row into ``values``
    values: np.ndarray  #: (total_leaves, n_outputs) float64 leaf value rows
    base: np.ndarray  #: (n_outputs,) float64 accumulator start
    mode: str  #: "average" | "sum_softmax"
    counts: np.ndarray  #: (rows, n_outputs) float64 prior-fallback counts
    n_classes: int
    n_attributes: int
    fingerprint: str

    @property
    def n_trees(self) -> int:
        """Member count."""
        return len(self.members)

    @property
    def n_outputs(self) -> int:
        """Width of the accumulator (equals ``n_classes``)."""
        return self.values.shape[1]

    @property
    def n_nodes(self) -> int:
        """Total packed node count across all members."""
        return len(self.kind)

    def nbytes(self) -> int:
        """Total bytes held by the packed arrays."""
        return sum(
            getattr(self, f).nbytes
            for f in (
                "tree_offsets", "kind", "attr", "attr2", "coef_a", "coef_b",
                "threshold", "left", "right", "default_left", "cat_offset",
                "cat_len", "cat_mask", "leaf_row", "values", "base", "counts",
            )
        )

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """``base`` plus the summed member leaf rows, shape ``(n, K)``."""
        X = _as_batch(X)
        n = len(X)
        if n == 0:
            return np.tile(self.base, (0, 1))
        kernel = native_forest_kernel()
        if kernel is not None:
            X = np.ascontiguousarray(X)
            acc = np.empty((n, self.n_outputs), dtype=np.float64)
            kernel(self, X, acc)
            return acc
        acc = np.tile(self.base, (n, 1))
        for t, member in enumerate(self.members):
            rows = self.tree_offsets[t] + member.route(X)
            acc += self.values[self.leaf_row[rows]]
        return acc

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Aggregated class label per record."""
        return np.argmax(self.decision_values(X), axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Aggregated per-class probabilities, shape ``(n, n_classes)``."""
        acc = self.decision_values(X)
        if self.mode == "average":
            return acc / self.n_trees
        # Numerically stable softmax over the raw boosted scores.
        shifted = acc - acc.max(axis=1, keepdims=True)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=1, keepdims=True)
        return shifted

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Member-leaf ``node_id`` per record, shape ``(n, n_trees)``."""
        X = _as_batch(X)
        out = np.empty((len(X), self.n_trees), dtype=np.int64)
        for t, member in enumerate(self.members):
            out[:, t] = member.apply(X)
        return out


def compile_forest(
    members: "list[CompiledTree | DecisionTree]",
    mode: str = "average",
    values: "list[np.ndarray] | None" = None,
    base: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> CompiledForest:
    """Pack member trees into a :class:`CompiledForest`.

    ``values`` gives each member's ``(n_leaves, K)`` leaf value rows (in
    the member's pre-order leaf order); omitted, each member contributes
    its class-distribution ``proba`` table (bagging soft vote).  ``base``
    defaults to zeros; ``counts`` defaults to the stacked member root
    class counts (recovered as the column sums of each member's leaf
    ``counts`` table).
    """
    if not members:
        raise ValueError("need at least one member tree")
    if mode not in ("average", "sum_softmax"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    compiled = [
        compile_tree(m) if isinstance(m, DecisionTree) else m for m in members
    ]
    n_classes = compiled[0].n_classes
    n_attributes = compiled[0].n_attributes
    for m in compiled:
        if m.n_classes != n_classes or m.n_attributes != n_attributes:
            raise ValueError("member trees must share schema shape")
    if values is None:
        value_rows = [m.proba for m in compiled]
    else:
        if len(values) != len(compiled):
            raise ValueError("need one value table per member")
        value_rows = [np.asarray(v, dtype=np.float64) for v in values]
        for m, v in zip(compiled, value_rows):
            if v.shape != (m.n_leaves, n_classes):
                raise ValueError(
                    f"value table shape {v.shape} does not match "
                    f"({m.n_leaves}, {n_classes})"
                )
    if base is None:
        base = np.zeros(n_classes, dtype=np.float64)
    else:
        base = np.ascontiguousarray(base, dtype=np.float64)
        if base.shape != (n_classes,):
            raise ValueError("base must have one entry per class")
    if counts is None:
        counts = np.stack([m.counts.sum(axis=0) for m in compiled])
    else:
        counts = np.ascontiguousarray(np.atleast_2d(counts), dtype=np.float64)

    node_offsets = np.cumsum([0] + [m.n_nodes for m in compiled])
    mask_offsets = np.cumsum([0] + [len(m.cat_mask) for m in compiled])
    leaf_offsets = np.cumsum([0] + [m.n_leaves for m in compiled])

    def cat(arrays, dtype):
        return np.ascontiguousarray(np.concatenate(arrays), dtype=dtype)

    kind = cat([m.kind for m in compiled], np.int8)
    attr = cat([m.attr for m in compiled], np.int32)
    attr2 = cat([m.attr2 for m in compiled], np.int32)
    coef_a = cat([m.coef_a for m in compiled], np.float64)
    coef_b = cat([m.coef_b for m in compiled], np.float64)
    threshold = cat([m.threshold for m in compiled], np.float64)
    # Child indices shift by the member's node offset — leaf self-loops
    # stay self-loops at their global position.
    left = cat([m.left + off for m, off in zip(compiled, node_offsets)], np.int64)
    right = cat([m.right + off for m, off in zip(compiled, node_offsets)], np.int64)
    default_left = cat([m.default_left for m in compiled], bool)
    cat_offset = cat(
        [m.cat_offset + off for m, off in zip(compiled, mask_offsets)], np.int64
    )
    cat_len = cat([m.cat_len for m in compiled], np.int64)
    cat_mask = (
        cat([m.cat_mask for m in compiled], bool)
        if any(len(m.cat_mask) for m in compiled)
        else np.zeros(0, dtype=bool)
    )
    leaf_row = cat(
        [m.leaf_row + off for m, off in zip(compiled, leaf_offsets)], np.int64
    )
    packed_values = np.ascontiguousarray(np.concatenate(value_rows), dtype=np.float64)

    # Member fingerprints cover structure, splits and training counts;
    # the value rows and base are hashed separately because boosting leaf
    # scores are not part of any member's digest.
    digest = hashlib.sha256()
    digest.update(mode.encode("utf-8"))
    for m in compiled:
        digest.update(m.fingerprint.encode("utf-8"))
    digest.update(packed_values.tobytes())
    digest.update(base.tobytes())

    return CompiledForest(
        members=tuple(compiled),
        tree_offsets=np.ascontiguousarray(node_offsets, dtype=np.int64),
        kind=kind,
        attr=attr,
        attr2=attr2,
        coef_a=coef_a,
        coef_b=coef_b,
        threshold=threshold,
        left=left,
        right=right,
        default_left=default_left,
        cat_offset=cat_offset,
        cat_len=cat_len,
        cat_mask=cat_mask,
        leaf_row=leaf_row,
        values=packed_values,
        base=base,
        mode=mode,
        counts=counts,
        n_classes=n_classes,
        n_attributes=n_attributes,
        fingerprint=digest.hexdigest(),
    )


__all__ = [
    "CompiledTree",
    "CompiledForest",
    "compile_tree",
    "compile_forest",
    "tree_fingerprint",
    "LEAF",
    "NUMERIC",
    "CATEGORICAL",
    "LINEAR",
]
