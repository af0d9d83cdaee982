"""Bagged CMP-S forests trained with shared level scans.

Training ``T`` bootstrap members independently costs ``T`` full table
scans per tree level.  :class:`BaggedForestBuilder` grows all members
level-synchronously instead: **one** scan per level routes each chunk
once and scatters per-member accumulator deltas keyed by
``(tree_id, slot)``, merged in submission (= chunk) order.  The trick
that makes this exact is representing member ``t``'s bootstrap draw as
per-record multiplicity *weights* over the original table rather than a
materialized resampled copy:

* histogram updates add each drawn record with its weight — exact for
  integer-valued float64 weights, hence bit-identical to the repeated
  unit adds a materialized bootstrap sample would produce;
* alive-interval buffers append ``np.repeat``-expanded rows, so the
  concatenated buffer contents equal the solo build's byte for byte
  (both walk records in ascending original order);
* the per-member ``nid`` column marks never-drawn records ``-1`` — a
  slot number is never negative, so those records fall through every
  routing mask without an explicit weight filter.

Each member also consumes exactly the random stream its solo twin
would: the scan-1 reservoirs are fed the member's *expanded* value
stream re-chunked to the table's chunk size (same ``extend`` batch
lengths, same shared per-member generator, same attribute
interleaving).  The resulting guarantee — asserted by the differential
harness — is that member ``t`` is **bit-identical** to::

    cfg_t = config.with_(seed=member_seed(config.seed, t))
    CMPSBuilder(cfg_t).build(dataset.take(np.sort(bootstrap_indices(config.seed, t, n))))

while the shared loop reads the table once per level instead of ``T``
times.  The members run through the solo driver,
:meth:`~repro.core.builder.LevelBuilder._grow`: each member is a
:class:`~repro.core.cmp_s.CMPSBuilder` helper with the member's seed,
its bootstrap weights and an ``m{t}/`` ledger prefix, so the quantiling
scan, every level scan (the roots' included, overflow rescans too) and
every post-scan step — resolve, decide, slot remap, PUBLIC(1) — are the solo
build's code and cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.config import BuilderConfig
from repro.core.builder import LevelBuilder, Member
from repro.core.cmp_s import CMPSBuilder
from repro.data.dataset import Dataset
from repro.ensemble.bootstrap import bootstrap_weights, member_seed
from repro.ensemble.forest import Forest, ForestBuildResult
from repro.io.metrics import BuildStats


class BaggedForestBuilder(LevelBuilder):
    """Bootstrap-aggregated CMP-S forest with shared level scans.

    The forest has no split strategy of its own: each member's CMP-S
    helper supplies it.
    """

    name = "bagged-CMP-S"
    supports_checkpointing = False
    result_type = ForestBuildResult

    def __init__(
        self,
        config: BuilderConfig | None = None,
        n_trees: int = 10,
        tracer=None,
    ) -> None:
        super().__init__(config, tracer)
        if n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.config.criterion != "gini":
            raise ValueError(f"{self.name} supports only the gini criterion")
        self.n_trees = int(n_trees)

    def _span_attrs(self) -> dict[str, object]:
        return {"members": self.n_trees}

    def _build(self, dataset: Dataset, stats: BuildStats) -> Forest:
        """Train the members; one table scan per shared tree level."""
        cfg = self.config
        members = []
        for t in range(self.n_trees):
            helper = CMPSBuilder(
                cfg.with_(seed=member_seed(cfg.seed, t)), tracer=self.tracer
            )
            members.append(
                Member(
                    helper,
                    bootstrap_weights(cfg.seed, t, dataset.n_records),
                    f"m{t}/",
                    np.random.default_rng(helper.config.seed),
                )
            )
        return Forest(self._grow(dataset, stats, members), mode="average")


__all__ = ["BaggedForestBuilder"]
