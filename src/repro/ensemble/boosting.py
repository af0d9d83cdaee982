"""Histogram gradient boosting over the shared-scan machinery.

:class:`HistGradientBoostingBuilder` fits softmax gradient-boosted
trees: every iteration trains ``n_classes`` regression trees on the
current class gradients, and — like the bagged forest — all trees of an
iteration grow level-synchronously with **one** accounted table scan
per level.  The scan accumulates per-``(tree, slot)`` binned gradient
histograms (first/second-order sums plus record counts) over the
equal-depth bins fixed by a single up-front quantiling pass, reusing
:func:`repro.data.discretize.equal_depth_edges` / ``bin_index``.

Determinism: float gradient sums are *not* associative, so worker
deltas are not merged by accumulation.  Each worker returns its
per-chunk partial histograms and the parent folds them in chunk order —
the exact fold a serial pass produces — making every built tree
bit-identical across worker counts and scan backends.  Prediction-side
parity is structural: the training loop updates the raw-score matrix in
the same member order the packed :class:`~repro.core.compiled.CompiledForest`
accumulates leaf rows, so serving scores equal training scores on the
training set itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import BuilderConfig
from repro.core.builder import TreeBuilder
from repro.core.checkpoint import SlotCounter
from repro.core.parallel import ScanEngine
from repro.core.splits import CategoricalSplit, NumericSplit
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.discretize import bin_index, equal_depth_edges
from repro.ensemble.forest import Forest, ForestBuildResult
from repro.io.metrics import BuildStats
from repro.io.pager import ScanChunk


@dataclass
class _OpenNode:
    """A frontier node of one class-tree within the current iteration."""

    node: Node
    slot: int
    depth: int
    grad: float  #: first-order gradient sum over the node's records
    hess: float  #: second-order gradient sum
    count: int  #: record count


@dataclass
class _ChunkSums:
    """A level scan's target: per-chunk partial gradient histograms.

    ``keys`` are the open ``(tree, slot)`` pairs; ``nid``, ``grad``,
    ``hess`` and ``binned`` are the routing context, which a worker's
    delta shares and a forked worker's delta leaves behind when it is
    pickled home.  Workers only *append*; the owner folds the chunks in
    start order after the scan, so the reduction order never depends on
    scheduling.
    """

    keys: list[tuple[int, int]]
    nid: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    binned: dict[int, np.ndarray]
    n_bins: dict[int, int]
    attr_order: list[int]
    chunks: list[tuple[int, dict]] = field(default_factory=list)

    def __getstate__(self) -> dict:
        return {"chunks": self.chunks}

    def route(self, chunk: ScanChunk) -> None:
        """Append the chunk's per-``(tree, slot)`` partial histograms."""
        lo, hi = chunk.start, chunk.stop
        partial: dict = {}
        for k, slot in self.keys:
            mask = self.nid[lo:hi, k] == slot
            if not mask.any():
                continue
            gk = self.grad[lo:hi, k][mask]
            hk = self.hess[lo:hi, k][mask]
            attrs = {}
            for j in self.attr_order:
                b = self.binned[j][lo:hi][mask]
                nb = self.n_bins[j]
                attrs[j] = (
                    np.bincount(b, weights=gk, minlength=nb),
                    np.bincount(b, weights=hk, minlength=nb),
                    np.bincount(b, minlength=nb),
                )
            partial[(k, slot)] = attrs
        self.chunks.append((lo, partial))

    def scan_delta(self) -> "_ChunkSums":
        """An empty clone over the same routing context."""
        return replace(self, chunks=[])

    def merge_scan_delta(self, delta: "_ChunkSums") -> None:
        """Take a worker's chunks; :meth:`folded` puts them in order."""
        self.chunks.extend(delta.chunks)

    def delta_nbytes(self) -> int:
        """A worker's histograms: three sums per bin per open node."""
        bins = sum(self.n_bins[j] for j in self.attr_order)
        return 3 * 8 * bins * len(self.keys)

    def folded(self) -> dict:
        """Per-key histograms folded left-to-right in chunk order."""
        out: dict = {}
        for _, partial in sorted(self.chunks, key=lambda item: item[0]):
            for key, attrs in partial.items():
                acc = out.setdefault(key, {})
                for j, (g, h, cnt) in attrs.items():
                    if j in acc:
                        ag, ah, ac = acc[j]
                        acc[j] = (ag + g, ah + h, ac + cnt)
                    else:
                        acc[j] = (g, h, cnt)
        return out


class HistGradientBoostingBuilder(TreeBuilder):
    """Softmax gradient boosting with shared per-level scans.

    It keeps its own level loop: float gradient sums fold per chunk (see
    :class:`_ChunkSums`), which the CMP driver's accumulators do not.
    """

    name = "hist-gbdt"
    result_type = ForestBuildResult

    def __init__(
        self,
        config: BuilderConfig | None = None,
        n_iterations: int = 10,
        learning_rate: float = 0.1,
        l2: float = 1.0,
        tracer=None,
    ) -> None:
        super().__init__(config, tracer)
        if n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        if not (learning_rate > 0.0):
            raise ValueError("learning_rate must be positive")
        if l2 < 0.0:
            raise ValueError("l2 must be non-negative")
        if self.config.prune != "none":
            raise ValueError(f"{self.name} does not support pruning")
        self.n_iterations = int(n_iterations)
        self.learning_rate = float(learning_rate)
        self.l2 = float(l2)

    def _span_attrs(self) -> dict[str, object]:
        return {"iterations": self.n_iterations}

    def _build(self, dataset: Dataset, stats: BuildStats) -> Forest:
        """Train the boosted forest (``n_iterations * n_classes`` members)."""
        with self._scan_engine(stats) as engine:
            trees, values, base = self._boost(dataset, stats, engine)
        return Forest(
            trees,
            mode="sum_softmax",
            values=values,
            base=base,
            counts=dataset.class_counts()[None, :].astype(np.float64),
        )

    # -- the boosting loop ----------------------------------------------------

    def _boost(self, dataset: Dataset, stats: BuildStats, engine: ScanEngine):
        cfg = self.config
        schema = dataset.schema
        n, K = dataset.n_records, dataset.n_classes
        lam, lr = self.l2, self.learning_rate
        cont = schema.continuous_indices()
        cats = schema.categorical_indices()
        table = self._open_table(dataset, stats)

        # --- One quantiling/binning pass fixes the global bin grid. -------
        with stats.phase("scan"):
            Xfull, y = self._read_table(table)
        edges = {j: equal_depth_edges(Xfull[:, j], cfg.n_intervals) for j in cont}
        binned: dict[int, np.ndarray] = {
            j: bin_index(Xfull[:, j], edges[j]) for j in cont
        }
        for j in cats:
            binned[j] = Xfull[:, j].astype(np.int64)
        n_bins = {j: len(edges[j]) + 1 for j in cont}
        for j in cats:
            n_bins[j] = schema.attribute(j).cardinality
        del Xfull
        stats.memory.allocate(
            "boost/binned", sum(b.nbytes for b in binned.values())
        )

        # Accumulator state: raw scores start at the class log-priors.
        class_counts = np.bincount(y, minlength=K).astype(np.float64)
        base = np.log(np.maximum(class_counts, 1.0) / n)
        raw = np.tile(base, (n, 1))
        onehot = np.zeros((n, K), dtype=np.float64)
        onehot[np.arange(n), y] = 1.0
        stats.memory.allocate("boost/scores", raw.nbytes + onehot.nbytes)

        trees: list[DecisionTree] = []
        values: list[np.ndarray] = []
        attr_order = cont + cats

        for it in range(self.n_iterations):
            # Class probabilities and softmax gradients for this round.
            shifted = raw - raw.max(axis=1, keepdims=True)
            np.exp(shifted, out=shifted)
            prob = shifted / shifted.sum(axis=1, keepdims=True)
            grad = prob - onehot
            hess = prob * (1.0 - prob)

            nid = np.zeros((n, K), dtype=np.int64)
            counters = [SlotCounter() for _ in range(K)]
            accounts = [TreeAccount() for _ in range(K)]
            leaf_values: list[dict[int, float]] = [{} for _ in range(K)]
            slot_values: list[dict[int, float]] = [{} for _ in range(K)]
            roots: list[Node] = []
            frontier: dict[tuple[int, int], _OpenNode] = {}
            with self.tracer.span("boost-iteration", iteration=it, classes=K):
                for k in range(K):
                    root = accounts[k].new_node(0, np.zeros(K, dtype=np.float64))
                    roots.append(root)
                    opened = _OpenNode(
                        node=root,
                        slot=0,
                        depth=0,
                        grad=float(grad[:, k].sum()),
                        hess=float(hess[:, k].sum()),
                        count=n,
                    )
                    self._open_or_close(
                        opened, k, frontier, leaf_values[k], slot_values[k], lam, lr
                    )

                level = 0
                while frontier:
                    stats.shared_level_scans += 1
                    level += 1
                    with self.tracer.span(
                        "level", level=level, pendings=len(frontier)
                    ):
                        sums = _ChunkSums(
                            sorted(frontier), nid, grad, hess,
                            binned, n_bins, attr_order,
                        )
                        with stats.phase("scan"):
                            engine.scan(table, [sums], memory=stats.memory)
                        folded = sums.folded()
                        next_frontier: dict[tuple[int, int], _OpenNode] = {}
                        with stats.phase("resolve"):
                            for key in sorted(frontier):
                                open_node = frontier[key]
                                self._split_or_leaf(
                                    key,
                                    open_node,
                                    folded.get(key, {}),
                                    attr_order,
                                    cont,
                                    edges,
                                    nid,
                                    binned,
                                    counters[key[0]],
                                    accounts[key[0]],
                                    next_frontier,
                                    leaf_values[key[0]],
                                    slot_values[key[0]],
                                    lam,
                                    lr,
                                    K,
                                )
                        # Record→leaf routing is an in-memory nid rewrite,
                        # charged like the CMP nid swap.
                        stats.io.count_nid_swap(n * K)
                        frontier = next_frontier

                # Fold this round's trees into the raw scores — column
                # ``k`` gets tree ``k``'s leaf value per record, in the
                # same member order serving accumulates.
                for k in range(K):
                    tree = DecisionTree(roots[k], schema)
                    trees.append(tree)
                    values.append(self._leaf_value_rows(tree, leaf_values[k], k, K))
                    lookup = np.zeros(counters[k].next, dtype=np.float64)
                    for slot, value in slot_values[k].items():
                        lookup[slot] = value
                    raw[:, k] += lookup[nid[:, k]]

        stats.memory.release("boost/scores")
        stats.memory.release("boost/binned")
        return trees, values, base

    def _open_or_close(
        self,
        opened: _OpenNode,
        k: int,
        frontier: dict[tuple[int, int], _OpenNode],
        leaf_values: dict[int, float],
        slot_values: dict[int, float],
        lam: float,
        lr: float,
    ) -> None:
        """Queue a node for splitting, or seal it as a leaf immediately.

        Leaf values are recorded twice: by ``node_id`` (feeds the packed
        value table in pre-order leaf order) and by ``slot`` (feeds the
        in-memory raw-score update through the ``nid`` map).
        """
        cfg = self.config
        if opened.depth >= cfg.max_depth or opened.count < cfg.min_records:
            value = -lr * opened.grad / (opened.hess + lam)
            leaf_values[opened.node.node_id] = value
            slot_values[opened.slot] = value
        else:
            frontier[(k, opened.slot)] = opened

    def _split_or_leaf(
        self,
        key: tuple[int, int],
        open_node: _OpenNode,
        attrs: dict,
        attr_order: list[int],
        cont: list[int],
        edges: dict[int, np.ndarray],
        nid: np.ndarray,
        binned: dict[int, np.ndarray],
        counter: SlotCounter,
        account: TreeAccount,
        next_frontier: dict[tuple[int, int], _OpenNode],
        leaf_values: dict[int, float],
        slot_values: dict[int, float],
        lam: float,
        lr: float,
        K: int,
    ) -> None:
        """Pick the node's best binned split or seal it as a leaf."""
        k, slot = key
        G, H, C = open_node.grad, open_node.hess, open_node.count
        parent_score = G * G / (H + lam)
        best = None  # (gain, j, boundary, GL, HL, CL, left_selector)
        for j in attr_order:
            if j not in attrs:
                continue
            g, h, cnt = attrs[j]
            if j in cont:
                gl = np.cumsum(g)[:-1]
                hl = np.cumsum(h)[:-1]
                cl = np.cumsum(cnt)[:-1]
                order = None
            else:
                # Order categories by gradient ratio (the optimal 1-D
                # ordering for second-order gain), scan prefix subsets.
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(cnt > 0, g / (h + lam), np.inf)
                order = np.argsort(ratio, kind="stable")
                gl = np.cumsum(g[order])[:-1]
                hl = np.cumsum(h[order])[:-1]
                cl = np.cumsum(cnt[order])[:-1]
            if len(gl) == 0:
                continue
            valid = (cl > 0) & (cl < C)
            if not valid.any():
                continue
            gr, hr = G - gl, H - hl
            gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score
            gain = np.where(valid, gain, -np.inf)
            b = int(np.argmax(gain))
            if best is None or gain[b] > best[0]:
                best = (float(gain[b]), j, b, float(gl[b]), float(hl[b]), int(cl[b]), order)

        if best is None or best[0] <= 0.0:
            value = -lr * G / (H + lam)
            leaf_values[open_node.node.node_id] = value
            slot_values[slot] = value
            return

        gain, j, b, GL, HL, CL, order = best
        node = open_node.node
        mask = nid[:, k] == slot
        if order is None:
            node.split = NumericSplit(
                j, float(edges[j][b]), n_candidates=max(1, len(edges[j]))
            )
            goes_left = binned[j][mask] <= b
        else:
            left_mask = np.zeros(len(order), dtype=bool)
            left_mask[order[: b + 1]] = True
            node.split = CategoricalSplit(j, tuple(bool(v) for v in left_mask))
            goes_left = left_mask[binned[j][mask]]
        lslot, rslot = counter(), counter()
        rows = np.flatnonzero(mask)
        nid[rows[goes_left], k] = lslot
        nid[rows[~goes_left], k] = rslot

        left = account.new_node(node.depth + 1, np.zeros(K, dtype=np.float64))
        right = account.new_node(node.depth + 1, np.zeros(K, dtype=np.float64))
        node.left, node.right = left, right
        for child, child_slot, cg, ch, cc in (
            (left, lslot, GL, HL, CL),
            (right, rslot, G - GL, H - HL, C - CL),
        ):
            self._open_or_close(
                _OpenNode(
                    node=child,
                    slot=child_slot,
                    depth=child.depth,
                    grad=cg,
                    hess=ch,
                    count=cc,
                ),
                k,
                next_frontier,
                leaf_values,
                slot_values,
                lam,
                lr,
            )

    @staticmethod
    def _leaf_value_rows(
        tree: DecisionTree, leaf_values: dict[int, float], k: int, K: int
    ) -> np.ndarray:
        """Per-leaf value rows in compile (pre-order) leaf order.

        Each row is one-hot at column ``k``: a class-``k`` tree only
        moves class ``k``'s raw score.
        """
        leaves = [node for node in tree.iter_nodes() if node.is_leaf]
        rows = np.zeros((len(leaves), K), dtype=np.float64)
        for row, node in enumerate(leaves):
            rows[row, k] = leaf_values[node.node_id]
        return rows


__all__ = ["HistGradientBoostingBuilder"]
