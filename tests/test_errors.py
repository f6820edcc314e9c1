"""One rule for integer arguments: every size, count, cutoff, seed and
index the library takes is an int (not a bool, not a numpy integer) of
at least its least value, or the call raises ConfigError naming it."""

import numpy as np
import pytest

from pathconv import (
    ConfigError,
    Model,
    ModelConfig,
    compute_sp_tensor,
    precompute_sp_tensors,
    run_experiment,
    stratified_folds,
    train_one_fold,
)
from pathconv.layers import Conv1D, SortPool
from pathconv.shortest_paths import sp_tensors

from conftest import build_toy_dataset
from oracles import path_graph

DATASET = build_toy_dataset()
CONFIG = ModelConfig(r=1, sortpool_k=10, epochs=1, batch_size=16)
SPLIT = stratified_folds(DATASET, folds=5, seed=0)[0]

INT_FIELDS = {"r": 0, "conv_layers": 1, "channels": 1, "sortpool_k": 10,
              "conv1_filters": 1, "conv2_filters": 1, "dense_width": 1,
              "epochs": 0, "batch_size": 1, "seed": 0}

# (argument name, its least value, a call passing the value as that argument)
ENTRY_POINTS = [
    *[pytest.param(name, least, lambda v, name=name: ModelConfig(**{name: v}),
                   id=f"ModelConfig-{name}") for name, least in INT_FIELDS.items()],
    pytest.param("feature_dim", 1, lambda v: Model(CONFIG, v, 2), id="Model-feature_dim"),
    pytest.param("num_classes", 2, lambda v: Model(CONFIG, 3, v), id="Model-num_classes"),
    pytest.param("k", 1, lambda v: SortPool(v), id="SortPool-k"),
    pytest.param("signal length", 5,
                 lambda v: Conv1D(2, 3, 5, np.random.default_rng(0)).out_length(v),
                 id="Conv1D-out_length"),
    pytest.param("r", 0, lambda v: sp_tensors([path_graph(3, target=0)], v),
                 id="sp_tensors-r"),
    pytest.param("r", 0, lambda v: compute_sp_tensor(path_graph(3, target=0), v),
                 id="compute_sp_tensor-r"),
    pytest.param("r", 0, lambda v: precompute_sp_tensors(DATASET, v),
                 id="precompute_sp_tensors-r"),
    pytest.param("folds", 2, lambda v: stratified_folds(DATASET, v, seed=0),
                 id="stratified_folds-folds"),
    pytest.param("seed", 0, lambda v: stratified_folds(DATASET, 5, seed=v),
                 id="stratified_folds-seed"),
    pytest.param("folds", 2, lambda v: run_experiment(DATASET, CONFIG, folds=v),
                 id="run_experiment-folds"),
    pytest.param("repeats", 1, lambda v: run_experiment(DATASET, CONFIG, repeats=v),
                 id="run_experiment-repeats"),
    pytest.param("jobs", 1, lambda v: run_experiment(DATASET, CONFIG, jobs=v),
                 id="run_experiment-jobs"),
    pytest.param("fold_id", 0, lambda v: train_one_fold(DATASET, SPLIT, CONFIG, fold_id=v),
                 id="train_one_fold-fold_id"),
    pytest.param("repeat_id", 0,
                 lambda v: train_one_fold(DATASET, SPLIT, CONFIG, repeat_id=v),
                 id="train_one_fold-repeat_id"),
]


@pytest.mark.parametrize("kind", ["float", "bool", "numpy", "below"])
@pytest.mark.parametrize("name, least, call", ENTRY_POINTS)
def test_integer_argument_follows_the_rule(name, least, call, kind):
    value = {"float": float(max(least, 2)), "bool": True,
             "numpy": np.int64(max(least, 2)), "below": least - 1}[kind]
    with pytest.raises(ConfigError, match=rf"\b{name}\b") as exc:
        call(value)
    if kind == "below":
        assert str(exc.value) == f"need {name} >= {least}, got {name}={value}"
