"""Shared fixtures: small, deterministic datasets and configurations."""

from __future__ import annotations

import functools
import os
import zlib

import numpy as np
import pytest

from repro.config import BuilderConfig
from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous
from repro.data.synthetic import generate_agrawal, generate_function_f
from repro.eval.treegen import adversarial_dataset
from repro.verify import conformance


#: Base seed for the ``rng`` fixture.  Override with ``PYTEST_SEED=N``
#: to rerun the whole suite on a different deterministic stream; the
#: active value is printed alongside any failing test that used ``rng``.
PYTEST_SEED = int(os.environ.get("PYTEST_SEED", "0"))


@pytest.fixture()
def rng(request: pytest.FixtureRequest) -> np.random.Generator:
    """Per-test deterministic generator.

    Seeded from ``PYTEST_SEED`` plus a CRC of the test's node id, so each
    test gets an independent stream, reruns of a single test reproduce
    the full-suite behaviour exactly, and ``PYTEST_SEED=N pytest ...``
    re-seeds everything at once.
    """
    return np.random.default_rng(
        [PYTEST_SEED, zlib.crc32(request.node.nodeid.encode())]
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print the active seed next to failures of ``rng``-using tests."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        if "rng" in getattr(item, "fixturenames", ()):
            report.sections.append(
                (
                    "rng seed",
                    f"PYTEST_SEED={PYTEST_SEED} — rerun with "
                    f"`PYTEST_SEED={PYTEST_SEED} pytest {item.nodeid}` "
                    "to reproduce this stream",
                )
            )


@pytest.fixture(scope="session")
def f2_small() -> Dataset:
    """Function 2 at a size small enough for end-to-end builder tests."""
    return generate_agrawal("F2", 6_000, seed=7)


@pytest.fixture(scope="session")
def f7_small() -> Dataset:
    """Function 7, small."""
    return generate_agrawal("F7", 6_000, seed=7)


@pytest.fixture(scope="session")
def ff_small() -> Dataset:
    """The paper's Function f (linearly correlated), small."""
    return generate_function_f(8_000, seed=7)


@pytest.fixture(scope="session")
def two_blob() -> Dataset:
    """A clean two-attribute, two-class dataset with an obvious best split.

    Class 1 iff ``x0 > 0``; ``x1`` is pure noise.  Every exact algorithm
    must split on ``x0`` at ~0 at the root.
    """
    rng = np.random.default_rng(11)
    n = 4_000
    x0 = rng.normal(0.0, 1.0, n)
    x1 = rng.normal(0.0, 1.0, n)
    y = (x0 > 0.0).astype(np.int64)
    schema = Schema((continuous("x0"), continuous("x1")), ("neg", "pos"))
    return Dataset(np.column_stack([x0, x1]), y, schema)


@pytest.fixture(scope="session")
def diagonal() -> Dataset:
    """Class decided by ``x + y >= 1`` on the unit square — the workload
    where only a linear split is clean."""
    rng = np.random.default_rng(13)
    n = 8_000
    X = rng.uniform(0.0, 1.0, (n, 2))
    y = (X[:, 0] + X[:, 1] >= 1.0).astype(np.int64)
    schema = Schema((continuous("x"), continuous("y")), ("under", "over"))
    return Dataset(X, y, schema)


@pytest.fixture(scope="session")
def mixed_types() -> Dataset:
    """Continuous + categorical attributes where the categorical one is
    the true signal (class = category parity)."""
    rng = np.random.default_rng(17)
    n = 3_000
    cat = rng.integers(0, 6, n)
    noise = rng.normal(0.0, 1.0, (n, 2))
    y = (cat % 2).astype(np.int64)
    schema = Schema(
        (
            continuous("a"),
            categorical("color", tuple("rgbcmy")),
            continuous("b"),
        ),
        ("even", "odd"),
    )
    X = np.column_stack([noise[:, 0], cat.astype(float), noise[:, 1]])
    return Dataset(X, y, schema)


class ConformanceMatrix:
    """:mod:`repro.verify.conformance` on the test datasets: the tree
    builders on Agrawal F2 and F7 (3k, seed 5), the ensembles on a 2k
    mixed set.  Each case's datasets, references and engine findings
    are computed once, so the tests that check a slice of the matrix
    share ``tests/test_conformance.py``'s builds."""

    config = BuilderConfig(n_intervals=16, max_depth=4, min_records=30)

    @functools.lru_cache(maxsize=None)
    def built(self, name: str, data: str):
        """``(dataset, reference)`` of case ``name`` on ``data``."""
        if data == "mixed":
            dataset = adversarial_dataset("mixed", n=2_000, seed=5)
        else:
            dataset = generate_agrawal(data, 3_000, seed=5)
        case = conformance.CASES_BY_NAME[name]
        return dataset, conformance.reference(case, dataset, self.config)

    @functools.lru_cache(maxsize=None)
    def findings(self, name: str, data: str, engine) -> tuple:
        """:func:`~repro.verify.conformance.check_engine`'s findings."""
        dataset, ref = self.built(name, data)
        case = conformance.CASES_BY_NAME[name]
        return tuple(
            conformance.check_engine(case, dataset, self.config, engine, ref)
        )

    def check(self, name: str, data: str, engine, *runs: str) -> None:
        """Fail on the findings of the runs whose labels start with one
        of ``runs`` (every run when none is given).  A resume run must
        have happened: only checkpointing builds of 3 or more scans
        crash and resume."""
        if any(run.endswith(" resume") for run in runs):
            ref = self.built(name, data)[1]["native"]
            case = conformance.CASES_BY_NAME[name]
            assert case.make(self.config).supports_checkpointing
            assert ref.stats.io.scans >= 3, f"{name} on {data} never resumes"
        found = [
            str(f)
            for f in self.findings(name, data, engine)
            if f.message.startswith(runs or "")
        ]
        assert not found, "\n".join(found)


@pytest.fixture(scope="session")
def conformance_matrix() -> ConformanceMatrix:
    """The session's :class:`ConformanceMatrix`."""
    return ConformanceMatrix()


@pytest.fixture()
def fast_config() -> BuilderConfig:
    """Small-grid configuration for quick end-to-end builds."""
    return BuilderConfig(
        n_intervals=32,
        max_depth=8,
        min_records=20,
        reservoir_capacity=4_000,
    )


def assert_tree_consistent(tree, dataset) -> None:
    """Every leaf's recorded class counts must match actual routing."""
    leaf_ids = tree.apply(dataset.X)
    for node in tree.iter_nodes():
        if node.is_leaf:
            actual = np.bincount(
                dataset.y[leaf_ids == node.node_id], minlength=dataset.n_classes
            )
            np.testing.assert_array_equal(
                actual,
                node.class_counts.astype(np.int64),
                err_msg=f"leaf {node.node_id} counts diverge from routing",
            )
