"""Exact compression of GNN node-classification and regression problems.

Compute (graded) color-refinement partitions of a colored multigraph,
collapse each class onto a representative to obtain a minimal multigraph
reduct, rewrite the training set and loss as integer-weighted targets,
and verify with a reference GNN evaluator that the compressed problem is
loss-equivalent to the original.
"""

from .errors import FormatError, ValidationError
from .gnn import Gnn, GnnConfig, chain_config, forward, one_hot_features, sample_gnn
from .graph import ColoredMultigraph, build_graph
from .problem import (LearningProblem, compress_problem, equivalence_report,
                      evaluate_compressed_loss, evaluate_loss)
from .reduction import choose_substitution, reduce_graph, verify_reduct
from .refine import Partition, naive_partition, refine

__version__ = "0.1.0"

__all__ = [
    "ColoredMultigraph",
    "FormatError",
    "Gnn",
    "GnnConfig",
    "LearningProblem",
    "Partition",
    "ValidationError",
    "build_graph",
    "chain_config",
    "choose_substitution",
    "compress_problem",
    "equivalence_report",
    "evaluate_compressed_loss",
    "evaluate_loss",
    "forward",
    "naive_partition",
    "one_hot_features",
    "reduce_graph",
    "refine",
    "sample_gnn",
    "verify_reduct",
]
