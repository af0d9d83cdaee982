"""Tests for the one native library (`repro.core.native`).

Every kernel, training and serving alike, lives in one C source that
compiles to one shared library behind one switch: ``force_numpy`` and
``CMP_NO_NATIVE`` turn all of them off together, and a cold process
publishes exactly one library into the compile cache.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import native, native_build, native_scan
from repro.core.compiled import compile_forest, compile_tree
from repro.eval.treegen import random_batch, random_tree

pytestmark = [
    pytest.mark.skipif(
        native_build.compiler() is None, reason="no C compiler on this machine"
    ),
    pytest.mark.skipif(
        bool(os.environ.get("CMP_NO_NATIVE")),
        reason="native kernels disabled via CMP_NO_NATIVE",
    ),
]


def test_force_numpy_turns_off_routing_and_scoring():
    trees = [random_tree(depth=6, seed=s) for s in (1, 2, 3)]
    ct = compile_tree(trees[0])
    cf = compile_forest(trees)
    X = random_batch(trees[0].schema, 500, seed=4, unseen_frac=0.1)
    labels = ct.predict(X)
    scores = cf.decision_values(X)
    assert native.route_kernel() is not None
    assert native.forest_kernel() is not None
    with native_scan.force_numpy():
        assert native.route_kernel() is None
        assert native.forest_kernel() is None
        np.testing.assert_array_equal(ct.predict(X), labels)
        np.testing.assert_array_equal(cf.decision_values(X), scores)
    assert native.route_kernel() is not None


def test_cold_process_builds_one_library(tmp_path):
    code = (
        "from repro.core import native, native_scan\n"
        "assert native_scan.warm_up()\n"
        "assert native.native_available()\n"
    )
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": "src", "CMP_NATIVE_CACHE": str(cache)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(cache.glob("*.so"))) == 1
