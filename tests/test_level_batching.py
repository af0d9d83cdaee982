"""Level-batched estimate/select: one interval analysis per level.

The level driver stacks every node's histograms into one
``analyze_attributes`` call (plus one more for CMP-B's per-side second
splits), so the hill climb runs a bounded number of times per level
instead of once per (node, attribute).  These tests stop per-node calls
from creeping back.
"""

import pytest

import repro.core.intervals as intervals
from repro.baselines.clouds import CloudsBuilder
from repro.config import BuilderConfig
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.data.synthetic import generate_agrawal
from repro.ensemble import BaggedForestBuilder
from repro.obs.trace import Tracer


@pytest.fixture(scope="module")
def f7_20k():
    return generate_agrawal("F7", 20_000, seed=1)


@pytest.fixture()
def climb_calls(monkeypatch):
    """Count calls of the climb as the analysis module makes them."""
    calls = []
    real = intervals.interval_estimates

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(intervals, "interval_estimates", counted)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        CMPSBuilder,
        CMPBBuilder,
        CMPBuilder,
        lambda cfg: BaggedForestBuilder(cfg, n_trees=3),
        lambda cfg: CloudsBuilder(cfg.with_(clouds_mode="ss")),
        lambda cfg: CloudsBuilder(cfg.with_(clouds_mode="sse")),
    ],
    ids=["CMP-S", "CMP-B", "CMP", "bagged-CMP-S-T3", "CLOUDS-SS", "CLOUDS-SSE"],
)
def test_climb_runs_at_most_twice_per_level(make, f7_20k, climb_calls):
    result = make(BuilderConfig()).build(f7_20k)
    assert 0 < len(climb_calls) <= 2 * result.stats.levels_built + 1


def test_each_batch_records_one_span(f7_20k, climb_calls):
    tracer = Tracer()
    CMPBBuilder(BuilderConfig(max_depth=6), tracer=tracer).build(f7_20k)
    spans = [sp for sp in tracer.spans() if sp.name == "intervals.estimate"]
    assert len(spans) == len(climb_calls)
    assert [sp.attrs["rows"] for sp in spans] == climb_calls
    assert all(sp.attrs["segments"] >= 1 for sp in spans)
    assert max(sp.attrs["segments"] for sp in spans) > 2
