"""The benchmark's set-up and tracer still fit the package's API.

``perfbench/run.py`` loads, featurizes, precomputes and splits its
datasets through the package; ``perfbench/spans.py`` wraps package
functions and layer methods by name and reads shortest-path tensors and
layer attributes in its counting hooks.  Running the set-up on files in
the benchmark's layout, and installing the tracer and running one
training step in each mode, makes a change that would break the
benchmark fail here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathconv import save_tu_dataset
from pathconv.model import MODES, distance_cutoff
from pathconv.shortest_paths import batch_sp_tensors, compute_sp_tensor

from oracles import cycle_graph, random_graph
from test_model import build

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("degree_features", [False, True], ids=["node-labels", "degrees"])
def test_set_up_reads_the_benchmark_layout(tmp_path, monkeypatch, degree_features):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports synth and spans
    run = load_module("run")
    dataset = run.synth.tiny_like(1)
    save_tu_dataset(dataset, tmp_path)
    if degree_features:  # as write_dataset leaves an IMDB-shaped workload
        (tmp_path / f"{dataset.name}_node_labels.txt").unlink()
    workload = run.Workload("tiny", "set-up guard", run.synth.tiny_like, ("TINY", 24, 16, 12.0),
                            "parametric", epochs=1, folds=3, driver="fold", min_calls=1,
                            degree_features=degree_features)

    loaded, sps, splits = run.set_up(workload, tmp_path, seed=1)

    degrees = sorted(set(np.concatenate([g.degrees() for g in dataset.graphs]).tolist()))
    assert loaded.feature_dim == (len(degrees) if degree_features else dataset.feature_dim)
    assert len(loaded) == len(sps) == len(dataset)
    for a, b, sp in zip(dataset.graphs, loaded.graphs, sps):
        assert (b.node_count, b.edges, b.target) == (a.node_count, a.edges, a.target)
        assert len(sp.mats) == run.R + 1
        if degree_features:
            columns = [degrees.index(d) for d in a.degrees().tolist()]
            assert np.array_equal(b.features, np.eye(len(degrees))[columns])
        else:
            assert np.array_equal(b.features, a.features)
    assert len(splits) == workload.folds
    for train, val, test in splits:
        assert len(train) + len(val) + len(test) == len(dataset)


@pytest.mark.parametrize("mode", MODES)
def test_tracer_wraps_one_training_step(mode):
    spans = load_module("spans")
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, n=12, edge_prob=0.3, target=0),
              cycle_graph(9, target=1, feature_dim=3)]
    tracer = spans.Tracer()
    methods = {(cls, attr): getattr(cls, attr)
               for cls in spans._LAYER_CLASSES for attr in ("forward", "backward")}
    tracer.install()
    try:
        patched = list(tracer._undo)
        model = build(r=2, mode=mode)
        r = distance_cutoff(model.config)
        sp = batch_sp_tensors([compute_sp_tensor(g, r) for g in graphs])
        x = np.concatenate([g.features for g in graphs])
        model.loss_and_gradients(sp, x, [g.target for g in graphs])
        model.make_optimizer().step(model.gradients())
    finally:
        tracer.uninstall()

    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    for (cls, attr), method in methods.items():  # no wrapper left behind
        assert getattr(cls, attr) is method, f"{cls.__name__}.{attr} left wrapped"
    for name in ("model.forward", "model.backward", "layers.adam.step",
                 "shortest_paths.propagate", "shortest_paths.propagate_transpose",
                 "layers.gconv0.fwd", "layers.gconv0.bwd",
                 "layers.sortpool.fwd", "layers.sortpool.bwd",
                 "layers.conv1.fwd", "layers.pool.bwd", "layers.dense2.bwd"):
        assert tracer.stats(name)[0] >= 1, f"no span recorded for {name}"
    assert tracer.gconv_flops > 0
    assert tracer.sortpool_inputs == 1
    # One span and one flop count per layer call: a layer class whose
    # methods were wrapped twice (as a subclass of another wrapped layer
    # class would be) would count both twice.
    for i in range(len(model.graph_convs)):
        for phase in ("fwd", "bwd"):
            assert tracer.stats(f"layers.gconv{i}.{phase}")[0] == 1
    assert tracer.gconv_flops == sum(spans.gconv_flops(conv, sp, forward)
                                     for conv in model.graph_convs
                                     for forward in (True, False))


def test_smoke_run_passes():
    """``perfbench/smoke.py`` runs both benchmark drivers, the tracer and
    the correctness gate on a tiny dataset and exits 0 when all hold."""
    done = subprocess.run([sys.executable, str(PERFBENCH / "smoke.py")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
