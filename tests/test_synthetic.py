"""Tests for the Agrawal synthetic generator."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import (
    AGRAWAL_SCHEMA,
    ATTRIBUTE_NAMES,
    FUNCTIONS,
    GROUP_A,
    GROUP_B,
    _LABEL_BLOCK,
    generate_agrawal,
    generate_drift,
    generate_function_f,
)


class TestSchema:
    def test_attribute_layout(self):
        assert AGRAWAL_SCHEMA.n_attributes == 9
        assert [a.name for a in AGRAWAL_SCHEMA.attributes] == list(ATTRIBUTE_NAMES)
        assert AGRAWAL_SCHEMA.continuous_indices() == [0, 1, 2, 6, 7, 8]
        assert AGRAWAL_SCHEMA.categorical_indices() == [3, 4, 5]

    def test_two_classes(self):
        assert AGRAWAL_SCHEMA.class_labels == ("Group A", "Group B")


class TestAttributeDistributions:
    @pytest.fixture(scope="class")
    def ds(self):
        return generate_agrawal("F1", 20_000, seed=0, perturbation=0.0)

    def test_salary_range(self, ds):
        salary = ds.column("salary")
        assert salary.min() >= 20_000
        assert salary.max() <= 150_000

    def test_commission_zero_iff_high_salary(self, ds):
        salary = ds.column("salary")
        commission = ds.column("commission")
        assert np.all(commission[salary >= 75_000] == 0)
        low = commission[salary < 75_000]
        assert np.all((low >= 10_000) & (low <= 75_000))

    def test_age_range(self, ds):
        age = ds.column("age")
        assert age.min() >= 20
        assert age.max() <= 80

    def test_categorical_codes(self, ds):
        assert set(np.unique(ds.column("elevel"))) <= set(range(5))
        assert set(np.unique(ds.column("car"))) <= set(range(20))
        assert set(np.unique(ds.column("zipcode"))) <= set(range(9))

    def test_hvalue_depends_on_zipcode(self, ds):
        zipcode = ds.column("zipcode")
        hvalue = ds.column("hvalue")
        for z in range(9):
            k = z + 1
            vals = hvalue[zipcode == z]
            assert vals.min() >= 0.5 * k * 100_000 - 1e-6
            assert vals.max() <= 1.5 * k * 100_000 + 1e-6

    def test_loan_range(self, ds):
        loan = ds.column("loan")
        assert loan.min() >= 0
        assert loan.max() <= 500_000


class TestLabelSemantics:
    def test_f1_age_rule(self):
        ds = generate_agrawal("F1", 5_000, seed=1, perturbation=0.0)
        age = ds.column("age")
        expected = np.where((age < 40) | (age >= 60), GROUP_A, GROUP_B)
        np.testing.assert_array_equal(ds.y, expected)

    def test_f2_box_rule(self):
        ds = generate_agrawal("F2", 5_000, seed=2, perturbation=0.0)
        age = ds.column("age")
        salary = ds.column("salary")
        in_a = (
            ((age < 40) & (salary >= 50_000) & (salary <= 100_000))
            | ((age >= 40) & (age < 60) & (salary >= 75_000) & (salary <= 125_000))
            | ((age >= 60) & (salary >= 25_000) & (salary <= 75_000))
        )
        np.testing.assert_array_equal(ds.y, np.where(in_a, GROUP_A, GROUP_B))

    def test_f7_disposable_rule(self):
        ds = generate_agrawal("F7", 5_000, seed=3, perturbation=0.0)
        disp = (
            2 * (ds.column("salary") + ds.column("commission")) / 3
            - ds.column("loan") / 5
            - 20_000
        )
        np.testing.assert_array_equal(ds.y, np.where(disp > 0, GROUP_A, GROUP_B))

    def test_function_f_rule(self):
        ds = generate_function_f(5_000, seed=4)
        in_a = (ds.column("age") >= 40) & (
            ds.column("salary") + ds.column("commission") >= 100_000
        )
        np.testing.assert_array_equal(ds.y, np.where(in_a, GROUP_A, GROUP_B))

    @pytest.mark.parametrize("function", sorted(FUNCTIONS))
    def test_both_classes_present(self, function):
        ds = generate_agrawal(function, 5_000, seed=5)
        counts = ds.class_counts()
        assert counts.min() > 0, f"{function} produced a single class"


class TestDeterminismAndNoise:
    def test_same_seed_same_data(self):
        a = generate_agrawal("F2", 1_000, seed=9)
        b = generate_agrawal("F2", 1_000, seed=9)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a = generate_agrawal("F2", 1_000, seed=9)
        b = generate_agrawal("F2", 1_000, seed=10)
        assert not np.array_equal(a.X, b.X)

    def test_perturbation_moves_attributes_not_labels(self):
        clean = generate_agrawal("F2", 2_000, seed=11, perturbation=0.0)
        noisy = generate_agrawal("F2", 2_000, seed=11, perturbation=0.05)
        np.testing.assert_array_equal(clean.y, noisy.y)
        assert not np.array_equal(clean.X, noisy.X)

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown function"):
            generate_agrawal("F99", 100)

    def test_bad_record_count(self):
        with pytest.raises(ValueError, match="positive"):
            generate_agrawal("F1", 0)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


# sha256 of ``X.tobytes()`` and ``y.tobytes()`` at 1000 records with the
# default perturbation.  Every function draws the same attribute matrix for
# one seed, so only the labels tell the functions apart.  These pin the
# generator's output bit for bit: change the draws, their order or the
# arithmetic and the trees of every pinned build move with them.
X_SEED0 = "1ca600bfd27c3a473e618c26f5ae2ebaa9259ba45b99424c2da68a51f154eb58"
X_SEED1 = "07db874f19cf2046fe26bb4360dc3ac161a834a6f422af56f9ca28ad01aa8e40"
AGRAWAL_PINS = {
    ("F1", 0): (X_SEED0, "5b8fbeed0562094778f4aee6e6c13e0caa3468e9109275d57b7bdd6a3811fe9d"),
    ("F1", 1): (X_SEED1, "afe43c2306940aa80a54da67aeb3d1cfc03358ac96ab8bc128456fa43af95d20"),
    ("F2", 0): (X_SEED0, "bf69ff051ce5471ba310aaf8fabb0b95dcc39d6fabb913c25461e0a4e139cc50"),
    ("F2", 1): (X_SEED1, "3302d080296926fc84eeb65eb2d0693182510a9697c57ac4a72449fc82a30b42"),
    ("F3", 0): (X_SEED0, "66916c75734a647714b6e7803265dbb80ddd780aeed18482f35e439b3ab80cce"),
    ("F3", 1): (X_SEED1, "925093f13742f00d5e4e380972aad109456e945ebaf125fb3dd2e44a55850ede"),
    ("F4", 0): (X_SEED0, "b06e2ddcd6bb96b9cce7c86e8349a9c7ed7f754307c1a2580a8b861d625c5f42"),
    ("F4", 1): (X_SEED1, "20b19f919b8ef05efd70d41a41d5a54a7324cbc534f561871860616fac8f60c6"),
    ("F5", 0): (X_SEED0, "03a9d787fd2008e9c1a4da37c345ab7cb7b7384bf1eeda79e7c136a3c659fcc1"),
    ("F5", 1): (X_SEED1, "953cd020fa40d2233980ef64b86fa7bfce4e574ee11c3c440274032c97b57037"),
    ("F6", 0): (X_SEED0, "0fab174ced5d75d20b5e39c2b46f19b57fd55604fae0c1ddbf7197c5799abd03"),
    ("F6", 1): (X_SEED1, "ddc7a5e015a44b4708ce6ca625aae2009bb1686e2cfaa8e13826f3a38015185b"),
    ("F7", 0): (X_SEED0, "ed2588b58be4954d05bdbbc35cac33d26c200c460334eae8425f7ad7e4c68b88"),
    ("F7", 1): (X_SEED1, "f3ce6e16ffcb2def7e5b01a4dfaec93369934c28cd64f55cb9d7d24363809880"),
    ("F8", 0): (X_SEED0, "f7f097ac3820bd5b05bfded4f898b7c26078454b4a987fa076f9a5ea3218bd5c"),
    ("F8", 1): (X_SEED1, "1259dfae2852a634baa44b6199482d5307a09f32ffe1de6c45b1a0119c1fb30e"),
    ("F9", 0): (X_SEED0, "7097c25f707d9823b79e85243a65ddf7ca091f621c97ebcdb09a38b30b6c5f41"),
    ("F9", 1): (X_SEED1, "003c60ca2ab748adf2df996a1d212d29f6968d2db84d360b68c39c0d371c5896"),
    ("F10", 0): (X_SEED0, "a1d9c3b5c212c7f5d33e315fa1930b5352701fed36c0b4a7d6f1f0f0c2fe407d"),
    ("F10", 1): (X_SEED1, "19577c52a350777e70d2d805e44e588d6eaf2c5b785afb3231f158a49962f9e7"),
    ("Ff", 0): (X_SEED0, "770157092c179d7485373e4eed911605a9c3f848609eca233bdb32cbeaa20c04"),
    ("Ff", 1): (X_SEED1, "9a3796cbaca8776be0955341037a193ea443038f8299e561f318c072cfe14df0"),
}


class TestOutputBytes:
    @pytest.mark.parametrize("function, seed", sorted(AGRAWAL_PINS))
    def test_agrawal_pins(self, function, seed):
        ds = generate_agrawal(function, 1_000, seed=seed)
        assert (_sha256(ds.X), _sha256(ds.y)) == AGRAWAL_PINS[function, seed]

    def test_pin_covers_every_function(self):
        assert {f for f, _ in AGRAWAL_PINS} == set(FUNCTIONS)

    def test_unperturbed_pin(self):
        ds = generate_agrawal("F2", 1_000, seed=0, perturbation=0.0)
        assert (_sha256(ds.X), _sha256(ds.y)) == (
            "a8cd6583a176f27ce53ee530b69cb4b07c94ccca738328ef8b3b692a888a382c",
            "bf69ff051ce5471ba310aaf8fabb0b95dcc39d6fabb913c25461e0a4e139cc50",
        )

    def test_drift_pin(self):
        ds = generate_drift((("F1", 600), ("F7", 400)), seed=3)
        assert (_sha256(ds.X), _sha256(ds.y)) == (
            "03d02209c70a4ac6c76a420c54c2d90766aab0512f4a70d5932906217c3cbc17",
            "0c518ac8e755ef4a92fb4fe3768a7a3a85939e819472367ac3fdce8bbf352d2e",
        )


class TestBlockLabelling:
    """Labels come from row blocks; they must equal one whole-matrix call."""

    @pytest.mark.parametrize("function", sorted(FUNCTIONS))
    def test_blocks_match_whole_matrix(self, function):
        ds = generate_agrawal(function, 2 * _LABEL_BLOCK + 7, seed=3, perturbation=0.0)
        whole = np.where(FUNCTIONS[function](ds.X), GROUP_A, GROUP_B)
        np.testing.assert_array_equal(ds.y, whole)

    def test_drift_segments_straddle_blocks(self):
        segments = (("F2", _LABEL_BLOCK + 5), ("F7", 3), ("F10", _LABEL_BLOCK))
        ds = generate_drift(segments, seed=2, perturbation=0.0)
        start = 0
        for function, n in segments:
            rows = slice(start, start + n)
            whole = np.where(FUNCTIONS[function](ds.X[rows]), GROUP_A, GROUP_B)
            np.testing.assert_array_equal(ds.y[rows], whole)
            start += n


def _peak_over_output(generate) -> float:
    """tracemalloc peak of ``generate()`` over the bytes of its X and y."""
    tracemalloc.start()
    try:
        ds = generate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (ds.X.nbytes + ds.y.nbytes)


class TestFootprint:
    """The record matrix is allocated once: no full-size copy at any step."""

    @pytest.mark.parametrize(
        "generate",
        [
            lambda: generate_agrawal("F7", 200_000),
            lambda: generate_agrawal("F2", 200_000),
            lambda: generate_drift((("F2", 100_000), ("F7", 100_000))),
        ],
        ids=["F7", "F2", "drift"],
    )
    def test_peak_near_output_size(self, generate):
        assert _peak_over_output(generate) <= 1.35
