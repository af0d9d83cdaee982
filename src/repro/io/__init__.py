"""Simulated disk I/O, file-backed tables, fault injection and accounting."""

from repro.io.errors import (
    ChecksumError,
    CorruptPageError,
    RecoverableReadError,
    ScanFailedError,
    TableIOError,
    TransientReadError,
    TruncatedReadError,
)
from repro.io.faults import FaultInjector, FaultyDataset, FaultyTable, InjectedCrash
from repro.io.metrics import BuildStats, CostModel, IOStats, MemoryTracker, ServingStats
from repro.io.pager import DEFAULT_PAGE_RECORDS, PagedTable, ScanChunk
from repro.io.retry import RetryingTable
from repro.io.storage import FilePagedTable, StoredDataset, write_table

__all__ = [
    "BuildStats",
    "CostModel",
    "IOStats",
    "MemoryTracker",
    "ServingStats",
    "PagedTable",
    "ScanChunk",
    "DEFAULT_PAGE_RECORDS",
    "FilePagedTable",
    "StoredDataset",
    "write_table",
    "TableIOError",
    "RecoverableReadError",
    "TransientReadError",
    "TruncatedReadError",
    "CorruptPageError",
    "ChecksumError",
    "ScanFailedError",
    "FaultInjector",
    "FaultyTable",
    "FaultyDataset",
    "InjectedCrash",
    "RetryingTable",
]
