"""The conformance matrix of :mod:`repro.verify.conformance`: one test per
case, dataset and engine (the tree builders on Agrawal F2 and F7, the
ensembles on a mixed set), plus proof that the matrix fires on a
planted merge defect and on scans that never split."""

import numpy as np
import pytest

from repro.core.builder import PendingScan
from repro.core.parallel import process_backend_available
from repro.data.dataset import Dataset
from repro.data.schema import Schema, continuous
from repro.verify import conformance
from repro.verify.conformance import CASES, CASES_BY_NAME, ENGINES, THREAD4

ENSEMBLES = ("bagged-CMP-S", "hist-gbdt")
MATRIX = [
    (case.name, data, engine)
    for case in CASES
    for data in (("mixed",) if case.name in ENSEMBLES else ("F2", "F7"))
    for engine in ENGINES
]


@pytest.mark.parametrize(
    "name,data,engine", MATRIX, ids=[f"{n}-{d}-{e.label}" for n, d, e in MATRIX]
)
def test_engine_conforms(conformance_matrix, name, data, engine):
    if engine.backend == "process" and not process_backend_available():
        pytest.skip("fork start method unavailable")
    conformance_matrix.check(name, data, engine)


@pytest.mark.parametrize("n", [300, 2_000, 3_000, 5_000])
def test_scans_split_unevenly_into_enough_chunks(n):
    schema = Schema((continuous("a"),), ("n", "p"))
    dataset = Dataset(np.zeros((n, 1)), np.zeros(n, dtype=np.int64), schema)
    pages = conformance.page_records_for(dataset)
    chunks = len(dataset.as_paged(page_records=pages).chunk_starts())
    assert chunks % conformance.UNEVEN.workers and chunks >= min(8, -(-n // 64))


def test_folding_one_delta_per_scan_is_found(conformance_matrix, monkeypatch):
    merge = PendingScan.merge_scan_delta

    def first_only(self, delta):
        if not getattr(self, "folded", False):
            self.folded = True
            merge(self, delta)

    monkeypatch.setattr(PendingScan, "merge_scan_delta", first_only)
    dataset, ref = conformance_matrix.built("CMP", "F2")
    case = CASES_BY_NAME["CMP"]
    config = conformance_matrix.config
    findings = conformance.check_engine(case, dataset, config, THREAD4, ref)
    assert any(": signature " in f.message for f in findings)


def test_one_chunk_scans_are_vacuous(conformance_matrix, monkeypatch):
    monkeypatch.setattr(conformance, "page_records_for", lambda dataset: 10_000)
    dataset, __ = conformance_matrix.built("CMP-S", "F2")
    case = CASES_BY_NAME["CMP-S"]
    config = conformance_matrix.config
    findings = conformance.check_engine(case, dataset, config, THREAD4)
    assert {f.kind for f in findings} == {"vacuous_run"}
    assert any(f.message.endswith(": 1 chunk") for f in findings)
