"""Central-finite-difference verification of every analytic gradient.

Each check builds a scalar objective (a fixed random projection of the
layer output, or the model's cross-entropy loss), computes the analytic
gradient through ``backward`` and compares it against central differences
with step 1e-6 in 64-bit.  Inputs feeding the sorting and max-pooling
layers are constructed with well-separated keys so the objective is
smooth in the checked neighborhood.  Every layer goes through one
routine, :func:`check_layer`.  Layers after the graph convolutions are
checked on batches, and the model both on one graph and on a batch of
three.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Graph
from .layers import (
    Conv1D,
    Dense,
    DistanceConv,
    JointConv,
    MaxPool1D,
    ReLU,
    SortPool,
    softmax_cross_entropy,
)
from .model import Model, ModelConfig
from .shortest_paths import batch_sp_tensors, compute_sp_tensor

STEP = 1e-6
LAYER_TOL = 1e-6
MODEL_TOL = 1e-5


@dataclass
class CheckResult:
    name: str
    rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.rel_error < self.tolerance


def central_difference(f, x: np.ndarray, step: float = STEP) -> np.ndarray:
    """Gradient of scalar ``f`` at ``x`` by central differences."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f()
        flat[i] = orig - step
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def _test_graph(rng: np.random.Generator) -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6)]
    return Graph(node_count=7, edges=edges, features=np.eye(3)[rng.integers(0, 3, size=7)],
                 target=0)


def check_layer(label: str, layer, forward, x: np.ndarray,
                projection: np.ndarray) -> list[CheckResult]:
    """Gradients of the objective <forward() output, projection> in every
    parameter of ``layer`` and in its input ``x``.  ``forward`` calls the
    layer on ``x`` and returns its (output, cache) pair."""
    _, cache = forward()
    params = getattr(layer, "parameters", list)()
    gradients = getattr(layer, "gradients", list)
    for _, g in gradients():
        g[...] = 0.0
    dx = layer.backward(cache, projection.copy())
    # Read after backward: a layer may fold its sums in only when asked.
    grads = gradients()

    def objective():
        return float((forward()[0] * projection).sum())

    results = [CheckResult(f"{label}.{name}",
                           relative_error(g, central_difference(objective, p)), LAYER_TOL)
               for (name, p), (_, g) in zip(params, grads)]
    results.append(CheckResult(f"{label}.input",
                               relative_error(dx, central_difference(objective, x)),
                               LAYER_TOL))
    return results


def check_graph_convs(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    graph = _test_graph(rng)
    sp = compute_sp_tensor(graph, r=2)
    results = []
    for label, layer in (("distance_conv", DistanceConv(r=2, c_in=3, c_out=4, rng=rng)),
                         ("joint_conv", JointConv(c_in=3, c_out=4, rng=rng))):
        h = rng.normal(size=(graph.node_count, 3))
        projection = rng.normal(size=(graph.node_count, layer.out_width))
        results += check_layer(label, layer, lambda: layer.forward(sp, h), h, projection)
    return results


def _separated_rows(rng: np.random.Generator, n: int, c: int,
                    gap: float = 0.1) -> np.ndarray:
    """Rows whose last column is separated by at least ``gap``."""
    h = rng.normal(size=(n, c))
    h[:, -1] = rng.permutation(n) * gap * 1.5 + rng.uniform(0, gap / 4, size=n)
    return h


def check_sortpool(seed: int = 2) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    layer = SortPool(k=4)
    # Two graphs: one truncated to k rows, one zero-padded.
    h = np.vstack([_separated_rows(rng, n=6, c=3), _separated_rows(rng, n=3, c=3)])
    offsets = np.array([0, 6, 9])
    projection = rng.normal(size=(2, 4, 3))
    return check_layer("sortpool", layer, lambda: layer.forward(h, offsets=offsets),
                       h, projection)


def check_conv1d(seed: int = 3) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    for label, width, c_in in (("pointwise", 1, 4), ("sliding", 5, 3)):
        layer = Conv1D(c_in=c_in, filters=3, width=width, rng=rng)
        x = rng.normal(size=(2, 16, c_in))
        projection = rng.normal(size=(2, layer.out_length(16), 3))
        results += check_layer(f"conv1d[{label}]", layer, lambda: layer.forward(x),
                               x, projection)
    return results


def check_maxpool(seed: int = 4) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    layer = MaxPool1D()
    # Separate pair entries so the argmax is stable under the FD step.
    x = (rng.permutation(2 * 12 * 3).reshape(2, 12, 3) * 0.05
         + rng.uniform(0, 0.01, (2, 12, 3)))
    projection = rng.normal(size=(2, 6, 3))
    return check_layer("maxpool", layer, lambda: layer.forward(x), x, projection)


def check_dense(seed: int = 5) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    layer = Dense(c_in=7, c_out=4, rng=rng)
    x = rng.normal(size=(3, 7))
    projection = rng.normal(size=(3, 4))
    return check_layer("dense", layer, lambda: layer.forward(x), x, projection)


def check_cross_entropy(seed: int = 6) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(3, 5))
    targets = np.array([2, 0, 4])
    _, grad = softmax_cross_entropy(logits, targets)
    numeric = central_difference(
        lambda: softmax_cross_entropy(logits, targets)[0].sum(), logits)
    # The loss gradient is exact, so hold it to a tighter tolerance.
    return [CheckResult("softmax_cross_entropy", relative_error(grad, numeric), 1e-8)]


def sort_key_gaps(model: Model, sp, x) -> np.ndarray:
    """Gaps between adjacent sort keys at the pooling layer, within each graph."""
    keys = model.conv_activations(sp, x)[-1][:, -1]
    bounds = sp.offsets
    return np.concatenate([np.diff(np.sort(keys[lo:hi]))
                           for lo, hi in zip(bounds[:-1], bounds[1:])])


def readout_margin(model: Model, sp, x) -> float:
    """Smallest distance of a read-out pre-activation from its rectifier kink."""
    h, _ = model.sortpool.forward(np.hstack(model.conv_activations(sp, x)),
                                  offsets=sp.offsets)
    margin = np.inf
    for layer in model.readout:
        if isinstance(layer, ReLU):
            margin = min(margin, float(np.abs(h).min()))
        h, _ = layer.forward(h)
    return margin


def _small_model(rng: np.random.Generator) -> Model:
    config = ModelConfig(r=2, conv_layers=2, channels=3, sortpool_k=10,
                         conv1_filters=3, conv2_filters=4, dense_width=6,
                         dropout_rate=0.0, seed=int(rng.integers(1 << 31)))
    model = Model(config, feature_dim=3, num_classes=2)
    # Nudge every parameter (biases included) so no pre-activation sits
    # exactly on a rectifier kink; zero-padded pooling rows would otherwise
    # land there systematically.
    for _, p in model.parameters():
        p += rng.uniform(-0.3, 0.3, size=p.shape)
    return model


def _model_results(label: str, model: Model, sp, x, targets,
                   input_rows: slice) -> list[CheckResult]:
    """Summed cross-entropy gradients of every parameter and of the
    feature rows ``input_rows`` against central differences."""
    # Kinks next to the evaluation point would poison the differences.
    margin = readout_margin(model, sp, x)
    if margin <= 1e-4:
        raise AssertionError(f"pre-activation too close to a kink: {margin}")

    def objective():
        _, cache = model.forward(sp, x)
        return float(softmax_cross_entropy(cache["logits"], targets)[0].sum())

    model.zero_gradients()
    _, _, dx = model.loss_and_gradients(sp, x, targets, input_grad=True)
    results = []
    for (name, p), (_, g) in zip(model.parameters(), model.gradients()):
        numeric = central_difference(objective, p)
        results.append(CheckResult(f"{label}.{name}", relative_error(g, numeric),
                                   MODEL_TOL))
    numeric = central_difference(objective, x[input_rows])
    results.append(CheckResult(f"{label}.input",
                               relative_error(dx[input_rows], numeric), MODEL_TOL))
    return results


def check_model(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    graph = _test_graph(rng)
    sp = compute_sp_tensor(graph, r=2)
    model = _small_model(rng)
    x = graph.features + rng.normal(scale=0.3, size=graph.features.shape)
    gap = sort_key_gaps(model, sp, x).min()
    if gap <= 1e-2:
        raise AssertionError(f"sort keys too close for a finite-difference check: {gap}")
    return _model_results("model", model, sp, x, np.array([1]), slice(None))


def check_batched_model(seed: int = 1) -> list[CheckResult]:
    """Three graphs in one pass.  The second has two mirror-image leaves
    with equal features, so its rows tie exactly on every column; a
    parameter step moves both alike, so the tie, and the order it falls
    back to, hold.  Input rows are checked on the first graph only, since
    moving one leaf alone would break the tie."""
    rng = np.random.default_rng(seed)
    mirrored = Graph(node_count=5, edges=[(0, 1), (0, 2), (0, 3), (3, 4)],
                     features=np.eye(3)[[0, 1, 1, 2, 0]], target=1)
    path = Graph(node_count=4, edges=[(0, 1), (1, 2), (2, 3)],
                 features=np.eye(3)[rng.integers(0, 3, size=4)], target=0)
    graphs = [_test_graph(rng), mirrored, path]
    sp = batch_sp_tensors([compute_sp_tensor(g, r=2) for g in graphs])
    model = _small_model(rng)
    x = np.vstack([g.features for g in graphs])
    x += rng.normal(scale=0.3, size=x.shape)
    x[8] = x[9]  # the mirrored leaves
    gaps = sort_key_gaps(model, sp, x)
    if np.count_nonzero(gaps == 0.0) != 1 or np.sort(gaps)[1] <= 1e-2:
        raise AssertionError(f"sort keys are not one exact tie and clear gaps: {gaps}")
    targets = np.array([0, 1, 1])
    return _model_results("batched_model", model, sp, x, targets,
                          slice(0, graphs[0].node_count))


def run_all() -> list[CheckResult]:
    """The full finite-difference suite, layer by layer and end to end."""
    results = []
    results += check_graph_convs()
    results += check_sortpool()
    results += check_conv1d()
    results += check_maxpool()
    results += check_dense()
    results += check_cross_entropy()
    results += check_model()
    results += check_batched_model()
    return results


def main_report(out=print) -> bool:
    start = time.perf_counter()
    results = run_all()
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        ok &= res.passed
        out(f"{status}  {res.name:<36} rel_err={res.rel_error:.3e} (tol {res.tolerance:.0e})")
    out(f"{'OK' if ok else 'FAILED'}: {len(results)} gradient checks in "
        f"{time.perf_counter() - start:.1f}s")
    return ok
