"""The benchmark's tracer still fits the package's API.

``perfbench/spans.py`` wraps package functions and layer methods by
name and reads shortest-path tensors and layer attributes in its
counting hooks.  Installing it and running one training step in each
mode makes a rename that would break the benchmark fail here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pathconv.model import MODES, distance_cutoff
from pathconv.shortest_paths import batch_sp_tensors, compute_sp_tensor

from oracles import cycle_graph, random_graph
from test_model import build

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", MODES)
def test_tracer_wraps_one_training_step(mode):
    spans = load_spans()
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, n=12, edge_prob=0.3, target=0),
              cycle_graph(9, target=1, feature_dim=3)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        model = build(r=2, mode=mode)
        r = distance_cutoff(model.config)
        sp = batch_sp_tensors([compute_sp_tensor(g, r) for g in graphs], r)
        x = np.concatenate([g.features for g in graphs])
        model.loss_and_gradients(sp, x, [g.target for g in graphs])
        model.make_optimizer().step(model.gradients())
    finally:
        tracer.uninstall()

    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    for name in ("model.forward", "model.backward", "layers.adam.step",
                 "shortest_paths.propagate", "shortest_paths.propagate_transpose",
                 "layers.gconv0.fwd", "layers.gconv0.bwd",
                 "layers.sortpool.fwd", "layers.sortpool.bwd",
                 "layers.conv1.fwd", "layers.pool.bwd", "layers.dense2.bwd"):
        assert tracer.stats(name)[0] >= 1, f"no span recorded for {name}"
    assert tracer.gconv_flops > 0
    assert tracer.sortpool_inputs == 1
