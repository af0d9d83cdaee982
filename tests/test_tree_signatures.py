"""Pinned trees: every level-scan builder's and exact baseline's output on
fixed small inputs.

Each case records the sha256 of ``repr(tree_signature(tree))`` together
with the build's scan count, simulated cost and memory-ledger peak (the
boosted forest, whose members carry leaf values, is pinned by its
compiled fingerprint instead).  Refactors of the level loop must leave
all four unchanged; a changed digest means some split parameter or class
count moved, a changed scan count or cost means the I/O accounting did,
and a changed peak means the ledger entries did.

The pinned values live in ``tests/data/tree_signatures.json``.  To
regenerate them after an *intended* behaviour change, run::

    PYTHONPATH=src python tests/test_tree_signatures.py
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.clouds import CloudsBuilder
from repro.baselines.rainforest import RainForestBuilder
from repro.baselines.sliq import SliqBuilder
from repro.baselines.sprint import SprintBuilder
from repro.config import BuilderConfig
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.parallel import process_backend_available
from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous
from repro.data.synthetic import generate_agrawal
from repro.ensemble import BaggedForestBuilder, HistGradientBoostingBuilder
from repro.verify.differential import tree_signature

PINNED = Path(__file__).parent / "data" / "tree_signatures.json"
N_RECORDS = 4_000
CFG = BuilderConfig(
    n_intervals=32,
    max_depth=6,
    min_records=20,
    reservoir_capacity=1_000,
    page_records=100,
)
BUILDERS = {"CMP-S": CMPSBuilder, "CMP-B": CMPBBuilder, "CMP": CMPBuilder}
#: CMP-B's rarer two-level shapes, ``(first split, side's second split)``,
#: each with a configuration that reaches it on the pinned data.  The
#: other CMP-B and CMP cases reach only an estimated first split whose
#: sides hold one part or an estimated second split.
SHAPE_VARIANTS = {
    "q16": (CFG.with_(n_intervals=16), ("exact", "estimated")),
    "q12mr5": (CFG.with_(n_intervals=12, min_records=5), ("estimated", "exact")),
}
CLOUDS_MODES = {"CLOUDS-SS": "ss", "CLOUDS-SSE": "sse"}
#: The exact baselines, whose categorical counts fill standalone histograms.
BASELINES = {"RainForest": RainForestBuilder, "SPRINT": SprintBuilder, "SLIQ": SliqBuilder}


def mixed_dataset(n: int, seed: int) -> Dataset:
    """Two continuous and two categorical attributes, all carrying signal."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, n)
    b = rng.uniform(0.0, 10.0, n)
    color = rng.integers(0, 6, n)
    size = rng.integers(0, 3, n)
    y = ((color % 2 == 0) & (a > -0.3)) | ((size == 2) & (b > 6.0))
    flip = rng.random(n) < 0.05
    y = (y ^ flip).astype(np.int64)
    schema = Schema(
        (
            continuous("a"),
            categorical("color", tuple("rgbcmy")),
            continuous("b"),
            categorical("size", ("s", "m", "l")),
        ),
        ("no", "yes"),
    )
    X = np.column_stack([a, color.astype(float), b, size.astype(float)])
    return Dataset(X, y, schema)


@functools.lru_cache(maxsize=None)
def dataset(name: str) -> Dataset:
    if name == "mixed":
        return mixed_dataset(N_RECORDS, seed=3)
    return generate_agrawal(name, N_RECORDS, seed=11)


def _digest(signature) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def _pin(signature, stats) -> dict:
    return {
        "sha256": _digest(signature),
        "scans": int(stats.io.scans),
        "simulated_ms": float(stats.simulated_ms),
        "peak_memory_bytes": int(stats.memory.peak),
    }


@contextlib.contextmanager
def two_level_shapes():
    """Count the ``(first, second)`` shapes of the two-level sides CMP-B resolves.

    ``first`` is ``exact`` or ``estimated``; ``second`` is ``none`` for
    a single-part side, else the side's second split's kind.
    """
    seen: collections.Counter = collections.Counter()
    resolve = CMPBBuilder._resolve

    def spy(self, p, *args):
        if p.two_level:
            first = "estimated" if p.exact_split is None else "exact"
            for side in p.sides:
                kind = (
                    "none" if side.n_parts == 1
                    else "exact" if side.exact_split is not None
                    else "estimated"
                )
                seen[(first, kind)] += 1
        return resolve(self, p, *args)

    CMPBBuilder._resolve = spy
    try:
        yield seen
    finally:
        CMPBBuilder._resolve = resolve


def _case_ids() -> list[str]:
    ids = [
        f"{builder}/{data}/{prune}"
        for builder in BUILDERS
        for data in ("F2", "F7", "Ff", "mixed")
        for prune in ("none", "public")
    ]
    ids += ["CMP-S/F2/budget2048", "bagged-CMP-S/F2/T3"]
    ids += [
        "bagged-CMP-S/mixed/T3",
        "bagged-CMP-S/F2/budget2048",
        "bagged-CMP-S/F2/process2",
        "hist-gbdt/mixed/I3",
    ]
    ids += ["CMP-S/F2/process2", "CMP/F2/process2"]
    ids += ["CMP-B/mixed/q16", "CMP-B/F7/q12mr5"]
    ids += [
        f"{builder}/{data}/none"
        for builder in CLOUDS_MODES
        for data in ("F2", "F7", "mixed")
    ]
    ids += ["CLOUDS-SS/F2/public", "CLOUDS-SSE/F7/public"]
    # Forked-worker twins of the exact pass, the overflow refill and the
    # boosted scan: their trees match the serial pins, while their cost
    # and ledger peak carry the parallel pass and its worker deltas.
    ids += [
        "CLOUDS-SSE/F2/process2",
        "CMP-S/F2/budget2048-process2",
        "hist-gbdt/mixed/I3-process2",
    ]
    # The process2 twins scan one 6,400-record chunk per pass, so one
    # worker delta each; 10-record pages split every pass into 7 chunks
    # over four forked workers, which pins the ledger charge of several.
    ids += ["CMP-S/F2/pages10-process4"]
    ids += [f"{builder}/{data}/none" for builder in BASELINES for data in ("F2", "mixed")]
    return ids


def run_case(case: str) -> dict:
    """Build one case and return its pinned values."""
    builder, data, variant = case.split("/")
    ds = dataset(data)
    base = CFG
    if variant.endswith(("process2", "process4")):
        # Forked scan workers on top of the variant named before it.
        base = CFG.with_(scan_workers=int(variant[-1]), scan_backend="process")
        variant = variant[: -len("process2")].removesuffix("-") or "none"
    if builder == "hist-gbdt":
        result = HistGradientBoostingBuilder(base, n_iterations=3).build(ds)
        pin = _pin(None, result.stats)
        pin["sha256"] = result.forest.compiled().fingerprint
        return pin
    if builder in BASELINES:
        result = BASELINES[builder](base.with_(prune=variant)).build(ds)
        return _pin(tree_signature(result.tree), result.stats)
    if builder in CLOUDS_MODES:
        cfg = base.with_(clouds_mode=CLOUDS_MODES[builder], prune=variant)
        result = CloudsBuilder(cfg).build(ds)
        return _pin(tree_signature(result.tree), result.stats)
    shape = None
    if variant in SHAPE_VARIANTS:
        cfg, shape = SHAPE_VARIANTS[variant]
    elif variant == "budget2048":
        cfg = base.with_(buffer_budget_bytes=2048)
    elif variant == "pages10":
        cfg = base.with_(page_records=10)
    elif variant == "T3":
        cfg = base
    else:
        cfg = base.with_(prune=variant)
    if builder == "bagged-CMP-S":
        result = BaggedForestBuilder(cfg.with_(prune="public"), n_trees=3).build(ds)
        signature = tuple(tree_signature(t) for t in result.forest.members)
    else:
        with two_level_shapes() as seen:
            result = BUILDERS[builder](cfg).build(ds)
        signature = tree_signature(result.tree)
        # A shape case exists to drive its two-level path; make sure it does.
        assert shape is None or seen[shape] > 0, dict(seen)
    if variant == "budget2048":
        # The case exists to drive the overflow rescan; make sure it does.
        assert result.stats.buffer_overflow_rescans > 0
    return _pin(signature, result.stats)


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("case", _case_ids())
def test_tree_matches_pinned(case, pinned):
    if "process" in case and not process_backend_available():
        pytest.skip("fork start method unavailable")
    assert run_case(case) == pinned[case]


def test_pinned_file_covers_every_case(pinned):
    assert sorted(pinned) == sorted(_case_ids())


if __name__ == "__main__":
    PINNED.write_text(
        json.dumps({case: run_case(case) for case in _case_ids()}, indent=2) + "\n"
    )
    print(f"wrote {PINNED}")
