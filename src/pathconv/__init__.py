"""Graph classification with per-shortest-path-distance graph convolutions."""

from .data import (
    Dataset,
    Graph,
    dataset_summary,
    encode_degree_features,
    load_tu_dataset,
    save_tu_dataset,
    stratified_folds,
)
from .errors import ConfigError, DatasetError, NumericalError
from .layers import Adam, softmax_cross_entropy
from .model import (
    Model,
    ModelConfig,
    load_checkpoint,
    model_forward,
    resolve_sortpool_k,
    save_checkpoint,
)
from .shortest_paths import SPTensor, compute_sp_tensor, propagate
from .training import (
    ExperimentReport,
    FoldReport,
    emit_report,
    precompute_sp_tensors,
    run_experiment,
    train_one_fold,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ConfigError",
    "Dataset",
    "DatasetError",
    "ExperimentReport",
    "FoldReport",
    "Graph",
    "Model",
    "ModelConfig",
    "NumericalError",
    "SPTensor",
    "compute_sp_tensor",
    "dataset_summary",
    "emit_report",
    "encode_degree_features",
    "load_checkpoint",
    "load_tu_dataset",
    "model_forward",
    "precompute_sp_tensors",
    "propagate",
    "resolve_sortpool_k",
    "run_experiment",
    "save_checkpoint",
    "save_tu_dataset",
    "stratified_folds",
    "train_one_fold",
]
