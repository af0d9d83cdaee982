"""Tests for the STATLOG stand-in generator."""

import hashlib

import numpy as np
import pytest

from repro.data.statlog import STATLOG_SPECS, all_statlog, generate_statlog


class TestShapes:
    @pytest.mark.parametrize("name", sorted(STATLOG_SPECS))
    def test_matches_spec(self, name):
        spec = STATLOG_SPECS[name]
        ds = generate_statlog(name, seed=0)
        assert ds.n_records == spec.n_records
        assert ds.n_attributes == spec.n_attributes
        assert ds.n_classes == spec.n_classes

    def test_paper_record_counts(self):
        # The counts the paper's Table 1 reports.
        assert STATLOG_SPECS["letter"].n_records == 15_000
        assert STATLOG_SPECS["satimage"].n_records == 4_435
        assert STATLOG_SPECS["segment"].n_records == 2_310
        assert STATLOG_SPECS["shuttle"].n_records == 43_500


class TestContent:
    def test_all_classes_present(self):
        ds = generate_statlog("segment", seed=0)
        assert len(np.unique(ds.y)) == ds.n_classes

    def test_informative_attribute_separates(self):
        # The first attribute should carry far more signal than the last.
        ds = generate_statlog("shuttle", seed=0)
        from repro.core.gini import exact_best_threshold, gini

        node_gini = float(gini(ds.class_counts()))
        __, g_first = exact_best_threshold(ds.column(0), ds.y, ds.n_classes)
        __, g_last = exact_best_threshold(
            ds.column(ds.n_attributes - 1), ds.y, ds.n_classes
        )
        assert g_first < g_last
        assert node_gini - g_first > 5 * (node_gini - g_last)

    def test_deterministic(self):
        a = generate_statlog("letter", seed=3)
        b = generate_statlog("letter", seed=3)
        np.testing.assert_array_equal(a.X, b.X)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown STATLOG"):
            generate_statlog("iris")

    def test_all_statlog(self):
        out = all_statlog(seed=1)
        assert set(out) == set(STATLOG_SPECS)


# sha256 of ``X.tobytes()`` and ``y.tobytes()`` of each stand-in at seed 0.
STATLOG_PINS = {
    "letter": (
        "82b3514c69595ae73c19847da1344c418af3945423ae8ceed9bf7786b5097741",
        "fa69525ec058687dd56b98f33fb21f2ebdc06b2411951c40a60f652ac6bbc314",
    ),
    "satimage": (
        "a84fb4f4a62430457fe7435c9726bede6909ea4bd95043a873706b49a1f42866",
        "b44e727ef10b07e63beab9cb8ad59bb8016938e3844595d4a0f08ad1b3cfe705",
    ),
    "segment": (
        "cfdb070018d454e36e750a2c8719648cea3e08da1852061fceea416325a92c89",
        "e2d434a8984bdc8b2649d76644f0609ed48c6976ce35a2e6b97f872b6e19cfcf",
    ),
    "shuttle": (
        "dabe604702f9b5630501a10a6a1d13932311e71b24da33fa15a209656053a345",
        "3cc49e4c8a19e39a05ad40e96281b70ab4342b79baaefbffa6e97aeb5457455c",
    ),
}


class TestOutputBytes:
    @pytest.mark.parametrize("name", sorted(STATLOG_SPECS))
    def test_pin(self, name):
        ds = generate_statlog(name, seed=0)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (ds.X, ds.y))
        assert digests == STATLOG_PINS[name]
