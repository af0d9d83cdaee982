"""Simulated disk-resident table.

A :class:`PagedTable` wraps an in-memory :class:`repro.data.dataset.Dataset`
but forces algorithms to consume it the way SPRINT, CLOUDS and CMP consume a
training file: as sequential scans of fixed-size pages.  Each scan yields
:class:`ScanChunk` objects (contiguous record ranges as numpy views) and
charges the shared :class:`repro.io.metrics.IOStats`.

Keeping the data in memory while *accounting* it as disk pages is the
substitution that makes the paper's 1999 disk-bound evaluation reproducible
on a laptop: scan counts and page counts are exact, and the deterministic
cost model turns them into the simulated times reported by the experiment
drivers (see DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.io.metrics import IOStats

#: Default page capacity, in records.  The paper's records are nine 4-byte
#: attributes plus a label (~40 bytes), so an 8 KB page holds ~200 records.
DEFAULT_PAGE_RECORDS = 200


@dataclass(frozen=True)
class ScanChunk:
    """One batch of records produced by a scan.

    Attributes
    ----------
    start:
        Index of the first record of the chunk within the table.
    X:
        ``(k, p)`` float array view of attribute values.
    y:
        ``(k,)`` int array view of class labels.
    """

    start: int
    X: np.ndarray
    y: np.ndarray

    @property
    def stop(self) -> int:
        """Index one past the last record of the chunk."""
        return self.start + len(self.y)

    @property
    def rids(self) -> np.ndarray:
        """Record ids covered by this chunk."""
        return np.arange(self.start, self.stop)


class PagedTable:
    """A dataset readable only through accounted sequential scans."""

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        stats: IOStats | None = None,
        page_records: int = DEFAULT_PAGE_RECORDS,
        pages_per_chunk: int = 64,
    ) -> None:
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array of shape (n, p)")
        if len(X) != len(y):
            raise ValueError("X and y must have the same number of records")
        if page_records <= 0 or pages_per_chunk <= 0:
            raise ValueError("page_records and pages_per_chunk must be positive")
        self._X = X
        self._y = y
        self.stats = stats if stats is not None else IOStats()
        self.page_records = page_records
        self.pages_per_chunk = pages_per_chunk

    @property
    def n_records(self) -> int:
        """Number of records in the table."""
        return len(self._y)

    @property
    def n_attributes(self) -> int:
        """Number of attributes (class label excluded)."""
        return self._X.shape[1]

    @property
    def n_pages(self) -> int:
        """Number of simulated pages the table occupies."""
        return -(-self.n_records // self.page_records)

    def chunk_starts(self) -> range:
        """Record indices at which scan chunks begin, in scan order."""
        return range(0, self.n_records, self.page_records * self.pages_per_chunk)

    def read_chunk(self, start: int) -> ScanChunk:
        """Read (and charge) the single chunk beginning at ``start``.

        The unit of retry: a failed read can be re-issued for just this
        chunk without restarting the scan.  Each call charges its pages,
        so retried reads show up in the I/O counters like the re-reads
        they model.
        """
        stop = min(start + self.page_records * self.pages_per_chunk, self.n_records)
        pages = -(-(stop - start) // self.page_records)
        self.stats.count_pages(pages, stop - start)
        return ScanChunk(start, self._X[start:stop], self._y[start:stop])

    def scan(self) -> Iterator[ScanChunk]:
        """Yield the whole table in order, charging one full scan."""
        self.stats.begin_scan()
        for start in self.chunk_starts():
            yield self.read_chunk(start)
