"""Central-finite-difference verification of every analytic gradient.

Each check builds a scalar objective (a fixed random projection of the
layer output, or the cross-entropy loss), computes the analytic gradient
through ``backward`` and compares it against central differences with
step 1e-6, on float64 layers and models only.  One routine,
:func:`compare`, runs every comparison: :func:`check_layer` feeds it
each layer, :func:`check_model` the whole model, and the loss check the
loss alone.  Inputs feeding the
sorting and max-pooling layers are constructed, or drawn again, until
their keys are well separated, so the objective is smooth in the checked
neighborhood.  Layers after the graph convolutions are checked on
batches, and the model on one graph and on a batch of three in each
mode.
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
from .model import Model, ModelConfig, distance_cutoff
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
    """Gradient of scalar ``f`` at ``x`` by central differences, each entry
    stepped in place by index, so ``x`` may be a strided view."""
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + step
        f_plus = f()
        x[i] = orig - step
        f_minus = f()
        x[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def _test_graph(rng: np.random.Generator) -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6)]
    return Graph(node_count=7, edges=edges, features=np.eye(3)[rng.integers(0, 3, size=7)],
                 target=0)


def compare(label: str, objective, checked, tolerance: float) -> list[CheckResult]:
    """One result per ``(name, point, analytic gradient)`` triple in
    ``checked``: the gradient against central differences of the scalar
    ``objective``, which reads ``point`` in place.  A triple named ``None``
    reports under ``label`` alone."""
    return [CheckResult(f"{label}.{name}" if name else label,
                        relative_error(g, central_difference(objective, p)), tolerance)
            for name, p, g in checked]


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
    checked = [(name, p, g) for (name, p), (_, g) in zip(params, gradients())]
    return compare(label, lambda: float((forward()[0] * projection).sum()),
                   checked + [("input", x, dx)], LAYER_TOL)


def _separated_rows(rng: np.random.Generator, n: int, c: int,
                    gap: float = 0.1) -> np.ndarray:
    """Rows whose last column is separated by at least ``gap``."""
    h = rng.normal(size=(n, c))
    h[:, -1] = rng.permutation(n) * gap * 1.5 + rng.uniform(0, gap / 4, size=n)
    return h


def check_layers() -> list[CheckResult]:
    """Every layer on its own, each case from its own seed, and the loss."""
    rng = np.random.default_rng(0)
    graph = _test_graph(rng)
    sp = compute_sp_tensor(graph, r=2)
    results = []
    for label, layer in (("distance_conv", DistanceConv(r=2, c_in=3, c_out=4, rng=rng)),
                         ("joint_conv", JointConv(c_in=3, c_out=4, rng=rng))):
        h = rng.normal(size=(graph.node_count, 3))
        projection = rng.normal(size=(graph.node_count, layer.out_width))
        results += check_layer(label, layer, lambda: layer.forward(sp, h), h, projection)

    rng = np.random.default_rng(2)
    layer = SortPool(k=4)
    # Two graphs: one truncated to k rows, one zero-padded.
    h = np.vstack([_separated_rows(rng, n=6, c=3), _separated_rows(rng, n=3, c=3)])
    offsets = np.array([0, 6, 9])
    results += check_layer("sortpool", layer, lambda: layer.forward(h, offsets=offsets),
                           h, rng.normal(size=(2, 4, 3)))

    rng = np.random.default_rng(3)
    for label, width, c_in in (("pointwise", 1, 4), ("sliding", 5, 3)):
        layer = Conv1D(c_in=c_in, filters=3, width=width, rng=rng)
        x = rng.normal(size=(2, 16, c_in))
        projection = rng.normal(size=(2, layer.out_length(16), 3))
        results += check_layer(f"conv1d[{label}]", layer, lambda: layer.forward(x),
                               x, projection)

    rng = np.random.default_rng(4)
    layer = MaxPool1D()
    # Separate pair entries so the argmax is stable under the FD step.
    x = (rng.permutation(2 * 12 * 3).reshape(2, 12, 3) * 0.05
         + rng.uniform(0, 0.01, (2, 12, 3)))
    results += check_layer("maxpool", layer, lambda: layer.forward(x), x,
                           rng.normal(size=(2, 6, 3)))

    rng = np.random.default_rng(5)
    layer = Dense(c_in=7, c_out=4, rng=rng)
    x = rng.normal(size=(3, 7))
    results += check_layer("dense", layer, lambda: layer.forward(x), x,
                           rng.normal(size=(3, 4)))

    rng = np.random.default_rng(6)
    logits = rng.normal(size=(3, 5))
    targets = np.array([2, 0, 4])
    _, grad = softmax_cross_entropy(logits, targets)
    # The loss gradient is exact, so hold it to a tighter tolerance.
    return results + compare("softmax_cross_entropy",
                             lambda: softmax_cross_entropy(logits, targets)[0].sum(),
                             [(None, logits, grad)], 1e-8)


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


def _small_model(rng: np.random.Generator, mode: str = "parametric") -> Model:
    config = ModelConfig(r=2, conv_layers=2, channels=3, sortpool_k=10,
                         conv1_filters=3, conv2_filters=4, dense_width=6,
                         dropout_rate=0.0, mode=mode, seed=int(rng.integers(1 << 31)),
                         dtype="float64")
    model = Model(config, feature_dim=3, num_classes=2)
    # Nudge every parameter (biases included) so no pre-activation sits
    # exactly on a rectifier kink; zero-padded pooling rows would otherwise
    # land there systematically.
    for _, p in model.parameters():
        p += rng.uniform(-0.3, 0.3, size=p.shape)
    return model


def check_model(label: str, model: Model, sp, x, targets,
                input_rows: slice) -> list[CheckResult]:
    """Summed cross-entropy gradients of every parameter and of the
    feature rows ``input_rows`` against central differences."""
    # Kinks next to the evaluation point would poison the differences.
    margin = readout_margin(model, sp, x)
    if margin <= 1e-4:
        raise AssertionError(f"pre-activation too close to a kink: {margin}")

    def objective():
        logits, _ = model.forward(sp, x)
        return float(softmax_cross_entropy(logits, targets)[0].sum())

    model.zero_gradients()
    logits, cache = model.forward(sp, x)
    dx = model.backward(cache, softmax_cross_entropy(logits, targets)[1], input_grad=True)
    checked = [(name, p, g) for (name, p), (_, g) in zip(model.parameters(),
                                                           model.gradients())]
    return compare(label, objective,
                   checked + [("input", x[input_rows], dx[input_rows])], MODEL_TOL)


def _inputs(rng: np.random.Generator, model: Model, sp, features: np.ndarray,
            tie: tuple[int, int] | None = None) -> np.ndarray:
    """Features plus noise, with row ``tie[0]`` set to row ``tie[1]``.  The
    noise is drawn again while any two sort keys of a graph lie within
    1e-2, apart from the one designed tie: a key crossing another under
    the finite-difference step would break the check."""
    ties = 0 if tie is None else 1
    for _ in range(20):
        x = features + rng.normal(scale=0.3, size=features.shape)
        if tie is not None:
            x[tie[0]] = x[tie[1]]
        gaps = np.sort(sort_key_gaps(model, sp, x))
        if np.count_nonzero(gaps == 0.0) == ties and gaps[ties] > 1e-2:
            return x
    raise AssertionError(f"sort keys are not {ties} exact ties and clear gaps: {gaps}")


def check_models() -> list[CheckResult]:
    """The whole model on one graph, then on a batch of three in each mode.

    In the batch the second graph has two mirror-image leaves with equal
    features, so its rows tie exactly on every column; a parameter step
    moves both alike, so the tie, and the order it falls back to, hold.
    Input rows are checked on the first graph only, since moving one leaf
    alone would break the tie."""
    rng = np.random.default_rng(0)
    graph = _test_graph(rng)
    sp = compute_sp_tensor(graph, r=2)
    model = _small_model(rng)
    x = _inputs(rng, model, sp, graph.features)
    results = check_model("model", model, sp, x, np.array([1]), slice(None))
    for label, mode in (("batched_model", "parametric"), ("baseline_model", "dgcnn_baseline")):
        rng = np.random.default_rng(1)
        mirrored = Graph(node_count=5, edges=[(0, 1), (0, 2), (0, 3), (3, 4)],
                         features=np.eye(3)[[0, 1, 1, 2, 0]], target=1)
        path = Graph(node_count=4, edges=[(0, 1), (1, 2), (2, 3)],
                     features=np.eye(3)[rng.integers(0, 3, size=4)], target=0)
        graphs = [_test_graph(rng), mirrored, path]
        model = _small_model(rng, mode)
        sp = batch_sp_tensors([compute_sp_tensor(g, distance_cutoff(model.config))
                               for g in graphs])
        x = _inputs(rng, model, sp, np.vstack([g.features for g in graphs]), tie=(8, 9))
        results += check_model(label, model, sp, x, np.array([0, 1, 1]),
                               slice(0, graphs[0].node_count))
    return results


def run_all() -> list[CheckResult]:
    """The full finite-difference suite, layer by layer and end to end."""
    return check_layers() + check_models()


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
