"""The paper's contribution: gini machinery and the CMP family."""

from repro.core.builder import BuildResult, TreeBuilder
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.estimation import gini_gradient, interval_estimate, interval_estimates
from repro.core.gini import (
    boundary_ginis,
    exact_best_threshold,
    gini,
    gini_gain,
    gini_partition,
    gini_partition_many,
)
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.core.intervals import (
    AttributeAnalysis,
    analyze_attribute,
    analyze_attributes,
    choose_split_attribute,
    select_alive_intervals,
)
from repro.core.linear import best_linear_candidate, gini_slope_walk
from repro.core.matrix import HistogramMatrix, MatrixSet
from repro.core.predict import predict_split
from repro.core.serialize import (
    tree_from_dict,
    tree_from_json,
    tree_to_dict,
    tree_to_dot,
    tree_to_json,
)
from repro.core.splits import CategoricalSplit, LinearSplit, NumericSplit, Split
from repro.core.tree import DecisionTree, Node

__all__ = [
    "BuildResult",
    "TreeBuilder",
    "CMPSBuilder",
    "CMPBBuilder",
    "CMPBuilder",
    "gini",
    "gini_partition",
    "gini_partition_many",
    "boundary_ginis",
    "gini_gain",
    "exact_best_threshold",
    "gini_gradient",
    "interval_estimate",
    "interval_estimates",
    "ClassHistogram",
    "CategoryHistogram",
    "AttributeAnalysis",
    "analyze_attribute",
    "analyze_attributes",
    "choose_split_attribute",
    "select_alive_intervals",
    "best_linear_candidate",
    "gini_slope_walk",
    "HistogramMatrix",
    "MatrixSet",
    "predict_split",
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_json",
    "tree_from_json",
    "tree_to_dot",
    "Split",
    "NumericSplit",
    "CategoricalSplit",
    "LinearSplit",
    "DecisionTree",
    "Node",
]
