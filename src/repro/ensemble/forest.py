"""The trained-forest model object returned by the ensemble builders.

A :class:`Forest` is to :class:`~repro.core.compiled.CompiledForest` what
:class:`~repro.core.tree.DecisionTree` is to ``CompiledTree``: the
object-level training artifact that lazily compiles itself into the
packed array form for serving.  It deliberately does **not** expose a
``fingerprint`` attribute — :meth:`repro.serve.engine.ModelRegistry.register`
probes for one before probing for a ``compiled()`` factory, and a forest
must take the factory path so the registry keys it under the packed
forest's content hash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compiled import CompiledForest, compile_forest
from repro.core.tree import DecisionTree
from repro.io.metrics import BuildStats


class Forest:
    """An ordered ensemble of member trees with one aggregation mode.

    ``values`` (optional) carries per-member leaf value tables for
    boosted forests; ``base`` the accumulator start (log priors for
    boosting).  Prediction methods delegate to the lazily-built
    :class:`CompiledForest`, so every forest prediction in the repository
    goes through the packed single-call path.
    """

    def __init__(
        self,
        members: "tuple[DecisionTree, ...] | list[DecisionTree]",
        mode: str = "average",
        values: "list[np.ndarray] | None" = None,
        base: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> None:
        if not members:
            raise ValueError("a forest needs at least one member tree")
        self.members = tuple(members)
        self.mode = mode
        self.values = values
        self.base = base
        self.counts = counts
        self._compiled: CompiledForest | None = None

    @property
    def n_trees(self) -> int:
        """Member count."""
        return len(self.members)

    @property
    def schema(self):
        """The (shared) member schema."""
        return self.members[0].schema

    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return self.schema.n_classes

    def compiled(self) -> CompiledForest:
        """The packed array form (built once, cached)."""
        if self._compiled is None:
            self._compiled = compile_forest(
                list(self.members),
                mode=self.mode,
                values=self.values,
                base=self.base,
                counts=self.counts,
            )
        return self._compiled

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Raw aggregated scores, shape ``(n, n_classes)``."""
        return self.compiled().decision_values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Aggregated class label per record."""
        return self.compiled().predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Aggregated per-class probabilities."""
        return self.compiled().predict_proba(X)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Member-leaf ``node_id`` per record, shape ``(n, n_trees)``."""
        return self.compiled().apply(X)


@dataclass
class ForestBuildResult:
    """A trained forest plus the accounting of how it was built."""

    forest: Forest
    stats: BuildStats

    @property
    def summary(self) -> dict[str, float]:
        """Flat stats dict (see :meth:`repro.io.metrics.BuildStats.summary`)."""
        return self.stats.summary()


__all__ = ["Forest", "ForestBuildResult"]
