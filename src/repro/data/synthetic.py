"""Synthetic workload generator of Agrawal, Imielinski & Swami [5].

The paper evaluates on "Function 2" and "Function 7" of the classic IBM
Quest classification benchmark, plus its own linearly-correlated
"Function f" (§2.3).  We reimplement the full generator — all ten
functions — from the published definitions, since several examples and
extension benches use the other functions as well.

Each record has nine attributes:

======== =========== ==========================================================
name     kind        distribution
======== =========== ==========================================================
salary   continuous  uniform [20 000, 150 000]
commission continuous 0 if salary >= 75 000 else uniform [10 000, 75 000]
age      continuous  uniform [20, 80]
elevel   categorical uniform {0 .. 4}
car      categorical uniform {1 .. 20}
zipcode  categorical uniform {z0 .. z8}
hvalue   continuous  uniform [0.5 k, 1.5 k] x 100 000, k = zipcode rank + 1
hyears   continuous  uniform [1, 30]
loan     continuous  uniform [0, 500 000]
======== =========== ==========================================================

Class labels are "Group A" / "Group B".  A perturbation factor ``p``
(default 5 %) optionally perturbs each continuous attribute by a uniform
offset of up to ``p`` times its range, as in the original generator, which
is what keeps the learning problems from being trivially separable.

Footprint: the generators allocate the ``n x 9`` float64 record matrix and
the ``n`` int64 labels once.  Each column is drawn straight into the
matrix, labelled in fixed-size row blocks and perturbed in place, so at
any time at most one column-sized temporary (the draw in hand) lives
beside them: peak memory is about ``(72 + 8 + 8) n`` bytes, not twice the
output.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous

#: Column order of the generated attribute matrix.
ATTRIBUTE_NAMES = (
    "salary",
    "commission",
    "age",
    "elevel",
    "car",
    "zipcode",
    "hvalue",
    "hyears",
    "loan",
)

GROUP_A = 0
GROUP_B = 1

AGRAWAL_SCHEMA = Schema(
    attributes=(
        continuous("salary"),
        continuous("commission"),
        continuous("age"),
        categorical("elevel", tuple(f"level{i}" for i in range(5))),
        categorical("car", tuple(f"make{i}" for i in range(1, 21))),
        categorical("zipcode", tuple(f"zip{i}" for i in range(9))),
        continuous("hvalue"),
        continuous("hyears"),
        continuous("loan"),
    ),
    class_labels=("Group A", "Group B"),
)

_COL = {name: i for i, name in enumerate(ATTRIBUTE_NAMES)}

#: Rows labelled per predicate call.
_LABEL_BLOCK = 65_536

#: Value ranges used for perturbation of continuous attributes.
_RANGES = {
    "salary": (20_000.0, 150_000.0),
    "commission": (0.0, 75_000.0),
    "age": (20.0, 80.0),
    "hvalue": (50_000.0, 1_350_000.0),
    "hyears": (1.0, 30.0),
    "loan": (0.0, 500_000.0),
}


def _raw_attributes(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the attribute matrix before any label assignment.

    Each column is written as soon as it is drawn, so besides ``X`` only
    the draw in hand is alive.  The draw order (salary, commission,
    zipcode, hvalue, age, elevel, car, hyears, loan) is the generator's
    stream order and fixes the output for a seed.
    """
    X = np.empty((n, len(ATTRIBUTE_NAMES)), dtype=np.float64)
    salary = X[:, _COL["salary"]]
    salary[:] = rng.uniform(20_000, 150_000, n)
    commission = X[:, _COL["commission"]]
    commission[:] = rng.uniform(10_000, 75_000, n)
    commission[salary >= 75_000] = 0.0
    zipcode = X[:, _COL["zipcode"]]
    zipcode[:] = rng.integers(0, 9, n)
    # hvalue = (u * (zipcode + 1)) * 100 000 with u ~ uniform [0.5, 1.5];
    # the product commutes, so the column can start as zipcode + 1.
    hvalue = X[:, _COL["hvalue"]]
    np.add(zipcode, 1.0, out=hvalue)
    hvalue *= rng.uniform(0.5, 1.5, n)
    hvalue *= 100_000
    X[:, _COL["age"]] = rng.uniform(20, 80, n)
    X[:, _COL["elevel"]] = rng.integers(0, 5, n)
    X[:, _COL["car"]] = rng.integers(0, 20, n)
    X[:, _COL["hyears"]] = rng.uniform(1, 30, n)
    X[:, _COL["loan"]] = rng.uniform(0, 500_000, n)
    return X


def _label(
    X: np.ndarray, y: np.ndarray, function: str, start: int, stop: int
) -> None:
    """Write the labels of rows ``[start, stop)`` of ``X`` into ``y``.

    Rows go through the predicate ``_LABEL_BLOCK`` at a time, so its
    temporaries stay small; every predicate is elementwise, so the labels
    do not depend on the block size.
    """
    predicate = FUNCTIONS[function]
    for lo in range(start, stop, _LABEL_BLOCK):
        hi = min(lo + _LABEL_BLOCK, stop)
        y[lo:hi] = np.where(predicate(X[lo:hi]), GROUP_A, GROUP_B)


def _perturb(X: np.ndarray, factor: float, rng: np.random.Generator) -> None:
    """Perturb continuous columns in place by up to ``factor`` of their range."""
    if factor <= 0:
        return
    for name, (lo, hi) in _RANGES.items():
        col = X[:, _COL[name]]
        span = (hi - lo) * factor
        noise = rng.uniform(-span, span, len(X))
        noise += col
        np.clip(noise, lo, hi, out=col)
        del noise  # free it before the next column's draw


def _between(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (v >= lo) & (v <= hi)


def _disposable_base(X: np.ndarray) -> np.ndarray:
    salary = X[:, _COL["salary"]]
    commission = X[:, _COL["commission"]]
    return 2.0 * (salary + commission) / 3.0


def _f1(X: np.ndarray) -> np.ndarray:
    age = X[:, _COL["age"]]
    return (age < 40) | (age >= 60)


def _f2(X: np.ndarray) -> np.ndarray:
    age = X[:, _COL["age"]]
    salary = X[:, _COL["salary"]]
    return (
        ((age < 40) & _between(salary, 50_000, 100_000))
        | ((age >= 40) & (age < 60) & _between(salary, 75_000, 125_000))
        | ((age >= 60) & _between(salary, 25_000, 75_000))
    )


def _f3(X: np.ndarray) -> np.ndarray:
    age = X[:, _COL["age"]]
    elevel = X[:, _COL["elevel"]]
    return (
        ((age < 40) & (elevel <= 1))
        | ((age >= 40) & (age < 60) & (elevel >= 1) & (elevel <= 3))
        | ((age >= 60) & (elevel >= 2) & (elevel <= 4))
    )


def _f4(X: np.ndarray) -> np.ndarray:
    age = X[:, _COL["age"]]
    elevel = X[:, _COL["elevel"]]
    salary = X[:, _COL["salary"]]
    young = np.where(
        elevel <= 1,
        _between(salary, 25_000, 75_000),
        _between(salary, 50_000, 100_000),
    )
    middle = np.where(
        (elevel >= 1) & (elevel <= 3),
        _between(salary, 50_000, 100_000),
        _between(salary, 75_000, 125_000),
    )
    old = np.where(
        (elevel >= 2) & (elevel <= 4),
        _between(salary, 50_000, 100_000),
        _between(salary, 25_000, 75_000),
    )
    return ((age < 40) & young) | ((age >= 40) & (age < 60) & middle) | ((age >= 60) & old)


def _f5(X: np.ndarray) -> np.ndarray:
    age = X[:, _COL["age"]]
    salary = X[:, _COL["salary"]]
    loan = X[:, _COL["loan"]]
    young = np.where(
        _between(salary, 50_000, 100_000),
        _between(loan, 100_000, 300_000),
        _between(loan, 200_000, 400_000),
    )
    middle = np.where(
        _between(salary, 75_000, 125_000),
        _between(loan, 200_000, 400_000),
        _between(loan, 300_000, 500_000),
    )
    old = np.where(
        _between(salary, 25_000, 75_000),
        _between(loan, 300_000, 500_000),
        _between(loan, 100_000, 300_000),
    )
    return ((age < 40) & young) | ((age >= 40) & (age < 60) & middle) | ((age >= 60) & old)


def _f6(X: np.ndarray) -> np.ndarray:
    age = X[:, _COL["age"]]
    total = X[:, _COL["salary"]] + X[:, _COL["commission"]]
    return (
        ((age < 40) & _between(total, 50_000, 100_000))
        | ((age >= 40) & (age < 60) & _between(total, 75_000, 125_000))
        | ((age >= 60) & _between(total, 25_000, 75_000))
    )


def _f7(X: np.ndarray) -> np.ndarray:
    loan = X[:, _COL["loan"]]
    return (_disposable_base(X) - loan / 5.0 - 20_000) > 0


def _f8(X: np.ndarray) -> np.ndarray:
    elevel = X[:, _COL["elevel"]]
    return (_disposable_base(X) - 5_000 * elevel - 20_000) > 0


def _f9(X: np.ndarray) -> np.ndarray:
    elevel = X[:, _COL["elevel"]]
    loan = X[:, _COL["loan"]]
    return (_disposable_base(X) - 5_000 * elevel - loan / 5.0 - 10_000) > 0


def _f10(X: np.ndarray) -> np.ndarray:
    elevel = X[:, _COL["elevel"]]
    hvalue = X[:, _COL["hvalue"]]
    hyears = X[:, _COL["hyears"]]
    equity = 0.1 * hvalue * np.maximum(hyears - 20, 0)
    return (_disposable_base(X) - 5_000 * elevel + 0.2 * equity - 10_000) > 0


def function_f(X: np.ndarray) -> np.ndarray:
    """The paper's linearly-correlated predicate of §2.3.

    ``(age >= 40) and (salary + commission >= 100 000)`` — the workload
    where univariate trees replicate subtrees (Figure 9) while CMP finds a
    two-level tree with one linear split (Figure 13).
    """
    age = X[:, _COL["age"]]
    total = X[:, _COL["salary"]] + X[:, _COL["commission"]]
    return (age >= 40) & (total >= 100_000)


FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "F1": _f1,
    "F2": _f2,
    "F3": _f3,
    "F4": _f4,
    "F5": _f5,
    "F6": _f6,
    "F7": _f7,
    "F8": _f8,
    "F9": _f9,
    "F10": _f10,
    "Ff": function_f,
}


def generate_agrawal(
    function: str,
    n_records: int,
    seed: int = 0,
    perturbation: float = 0.05,
) -> Dataset:
    """Generate ``n_records`` labelled records for one Agrawal function.

    Parameters
    ----------
    function:
        One of ``"F1"`` .. ``"F10"`` or ``"Ff"`` (the paper's Function f).
    n_records:
        Number of records to generate.
    seed:
        Seed for the deterministic generator.
    perturbation:
        Perturbation factor applied to continuous attributes *after* label
        assignment (the original generator's noise model); 0 disables it.
    """
    if function not in FUNCTIONS:
        raise ValueError(
            f"unknown function {function!r}; expected one of {sorted(FUNCTIONS)}"
        )
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    rng = np.random.default_rng(seed)
    X = _raw_attributes(n_records, rng)
    y = np.empty(n_records, dtype=np.int64)
    _label(X, y, function, 0, n_records)
    _perturb(X, perturbation, rng)
    return Dataset(X, y, AGRAWAL_SCHEMA)


def generate_function_f(
    n_records: int, seed: int = 0, perturbation: float = 0.0
) -> Dataset:
    """Shorthand for the paper's Function f workload (§2.3, Figure 18)."""
    return generate_agrawal("Ff", n_records, seed=seed, perturbation=perturbation)


def generate_drift(
    segments: tuple[tuple[str, int], ...],
    seed: int = 0,
    perturbation: float = 0.05,
) -> Dataset:
    """Time-varying Agrawal stream: the labelling concept flips per segment.

    ``segments`` is a sequence of ``(function, n_records)`` pairs; all
    covariates are drawn upfront from one generator stream, so for a
    fixed seed the attribute rows are *identical* regardless of how the
    stream is cut into segments — only the labelling concept drifts.
    Each segment's records are labelled by its own function.  Row order
    is time order — segment ``i`` occupies rows
    ``[sum(n_0..n_{i-1}), sum(n_0..n_i))`` — which is what the
    sliding-window refresh tests replay as a stream.
    """
    if not segments:
        raise ValueError("segments must be non-empty")
    for function, n_records in segments:
        if function not in FUNCTIONS:
            raise ValueError(
                f"unknown function {function!r}; expected one of "
                f"{sorted(FUNCTIONS)}"
            )
        if n_records <= 0:
            raise ValueError("every segment needs a positive record count")
    rng = np.random.default_rng(seed)
    total = sum(n for _, n in segments)
    X = _raw_attributes(total, rng)
    y = np.empty(total, dtype=np.int64)
    start = 0
    for function, n_records in segments:
        _label(X, y, function, start, start + n_records)
        start += n_records
    _perturb(X, perturbation, rng)
    return Dataset(X, y, AGRAWAL_SCHEMA)


def drift_boundaries(segments: tuple[tuple[str, int], ...]) -> list[int]:
    """Cumulative row offsets of each segment boundary (ends exclusive)."""
    bounds: list[int] = []
    total = 0
    for _, n_records in segments:
        total += n_records
        bounds.append(total)
    return bounds
