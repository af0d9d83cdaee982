"""Datasets, schemas, synthetic generators and discretization."""

from repro.data.csv_io import infer_schema, load_csv, save_csv
from repro.data.dataset import Dataset
from repro.data.discretize import (
    ReservoirSampler,
    bin_index,
    equal_depth_edges,
)
from repro.data.schema import Attribute, AttributeKind, Schema, categorical, continuous
from repro.data.statlog import STATLOG_SPECS, all_statlog, generate_statlog
from repro.data.synthetic import (
    AGRAWAL_SCHEMA,
    ATTRIBUTE_NAMES,
    FUNCTIONS,
    generate_agrawal,
    generate_function_f,
)

__all__ = [
    "Dataset",
    "infer_schema",
    "load_csv",
    "save_csv",
    "ReservoirSampler",
    "bin_index",
    "equal_depth_edges",
    "Attribute",
    "AttributeKind",
    "Schema",
    "categorical",
    "continuous",
    "STATLOG_SPECS",
    "all_statlog",
    "generate_statlog",
    "AGRAWAL_SCHEMA",
    "ATTRIBUTE_NAMES",
    "FUNCTIONS",
    "generate_agrawal",
    "generate_function_f",
]
