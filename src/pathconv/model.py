"""The full classification network and its configuration.

Architecture: a stack of graph convolution layers, a concatenation of all
their outputs, a sort-based pooling layer producing a fixed k x c tensor,
then a 1-D read-out (a width-1 convolution acting on each pooled node row,
max-pooling over pairs of rows, a second convolution) and two dense layers
ending in a softmax over the classes.  Graph convolutions use tanh, the
read-out uses rectified linear units.  The network runs on minibatches:
the graphs of a batch travel through the graph convolutions as one
disconnected graph and through the read-out as a leading batch axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .data import Graph
from .errors import ConfigError
from .layers import (
    Adam,
    Conv1D,
    Dense,
    DistanceConv,
    Dropout,
    JointConv,
    MaxPool1D,
    ReLU,
    SortPool,
    softmax,
    softmax_cross_entropy,
)
from .shortest_paths import SPTensor

MODES = ("parametric", "dgcnn_baseline")

# Kernel width of the second read-out convolution.
CONV2_WIDTH = 5

# Version of the checkpoint layout.  Checkpoints without one predate it
# (their conv1 kernel has another shape) and are refused, as are format-2
# ones (their baseline weights are named gconvI.w, not gconvI.w0).
CHECKPOINT_FORMAT = 3


@dataclass(frozen=True)
class ModelConfig:
    """All architecture and training hyper-parameters.

    In parametric mode every graph convolution layer carries r+1 weight
    matrices (one per shortest-path distance) and outputs (r+1) * channels
    columns; in dgcnn_baseline mode each layer carries a single weight
    matrix and outputs ``channels`` columns.  ``sortpool_k=None`` selects
    k at training time as the largest k such that at least 60% of the
    training graphs have at least k nodes (clamped to the smallest k the
    read-out supports).
    """

    r: int = 2
    conv_layers: int = 3
    channels: int = 32
    sortpool_k: int | None = None
    conv1_filters: int = 16
    conv2_filters: int = 32
    dense_width: int = 128
    dropout_rate: float = 0.5
    mode: str = "parametric"
    learning_rate: float = 1e-4
    epochs: int = 300
    batch_size: int = 50
    seed: int = 1

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.r < 0:
            raise ConfigError(f"r must be non-negative, got {self.r}")
        if self.conv_layers < 1:
            raise ConfigError("need at least one graph convolution layer")
        if self.channels < 1 or self.conv1_filters < 1 or self.conv2_filters < 1:
            raise ConfigError("channel and filter counts must be positive")
        if self.sortpool_k is not None and self.sortpool_k < 1:
            raise ConfigError(f"sortpool_k must be positive, got {self.sortpool_k}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch size >= 1")


def distance_cutoff(config: ModelConfig) -> int:
    """Largest shortest-path distance the model reads: r in parametric
    mode, the direct neighbors in baseline mode."""
    return config.r if config.mode == "parametric" else 1


def resolve_sortpool_k(config: ModelConfig, node_counts: list[int]) -> int:
    """Concrete pooling size for a training set.

    Explicit configuration wins; otherwise pick the largest k such that at
    least 60% of the given graphs have at least k nodes, clamped below so
    the read-out convolutions still fit.
    """
    if config.sortpool_k is not None:
        return config.sortpool_k
    if not node_counts:
        raise ConfigError("cannot derive sortpool_k from an empty training set")
    counts = sorted(node_counts, reverse=True)
    k = counts[math.ceil(0.6 * len(counts)) - 1]
    return max(k, 2 * CONV2_WIDTH)


class Model:
    """Layer stack with parameters, forward cache, and gradient buffers.

    Construction is deterministic in ``config.seed``.  ``forward`` and
    ``backward`` never mutate parameters; only an optimizer step does.
    """

    def __init__(self, config: ModelConfig, feature_dim: int, num_classes: int):
        config.validate()
        if config.sortpool_k is None:
            raise ConfigError("sortpool_k must be resolved before building a model")
        if num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {num_classes}")
        self.config = config
        self.feature_dim = feature_dim
        self.num_classes = num_classes

        rng = np.random.default_rng(config.seed)
        self.graph_convs = []
        width = feature_dim
        for _ in range(config.conv_layers):
            if config.mode == "parametric":
                conv = DistanceConv(config.r, width, config.channels, rng)
            else:
                conv = JointConv(width, config.channels, rng)
            self.graph_convs.append(conv)
            width = conv.out_width
        ends = np.cumsum([c.out_width for c in self.graph_convs]).tolist()
        self.concat_width = ends[-1]
        self._conv_columns = list(zip([0] + ends[:-1], ends))

        k = config.sortpool_k
        self.sortpool = SortPool(k)
        if k // 2 < CONV2_WIDTH:
            raise ConfigError(
                f"sortpool_k={k} leaves a read-out signal shorter than the "
                f"second convolution kernel (width {CONV2_WIDTH}); "
                f"need k >= {2 * CONV2_WIDTH}"
            )
        self.conv1 = Conv1D(self.concat_width, config.conv1_filters, width=1, rng=rng)
        self.pool = MaxPool1D()
        self.conv2 = Conv1D(config.conv1_filters, config.conv2_filters,
                            width=CONV2_WIDTH, rng=rng)
        self.dense1 = Dense(self.conv2.out_length(k // 2) * config.conv2_filters,
                            config.dense_width, rng)
        self.dropout = Dropout(config.dropout_rate)
        self.dense2 = Dense(config.dense_width, num_classes, rng)
        # From SortPool's (graphs, k, c) block to dense1's rectified rows.
        self.readout = [self.conv1, ReLU(), self.pool, self.conv2, ReLU(),
                        self.dense1, ReLU()]

        self._named_layers = [(f"gconv{i}", c) for i, c in enumerate(self.graph_convs)]
        self._named_layers += [("conv1", self.conv1), ("conv2", self.conv2),
                               ("dense1", self.dense1), ("dense2", self.dense2)]

    # ---------------------------------------------------------------- forward

    def _convolve(self, sp: SPTensor, x: np.ndarray):
        """Every graph convolution, each writing its columns of one
        (nodes, concat_width) array; returns that array and the caches."""
        if x.shape[1] != self.feature_dim:
            raise ValueError(
                f"feature dimension {x.shape[1]} does not match model ({self.feature_dim})"
            )
        hcat = np.empty((sp.node_count, self.concat_width))
        caches = []
        h = x
        for conv, (lo, hi) in zip(self.graph_convs, self._conv_columns):
            h, cache = conv.forward(sp, h, out=hcat[:, lo:hi])
            caches.append(cache)
        return hcat, caches

    def forward(self, sp: SPTensor, x: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None):
        """Class probabilities, one row per graph of ``sp``, plus the cache
        backward needs.  ``x`` stacks the graphs' feature rows."""
        hcat, conv_caches = self._convolve(sp, x)
        h, record = self.sortpool.forward(hcat, offsets=sp.offsets)
        readout_caches = []
        for layer in self.readout:
            h, layer_cache = layer.forward(h)
            readout_caches.append(layer_cache)
        h, mask = self.dropout.forward(h, train_mode, rng)
        logits, dense2_cache = self.dense2.forward(h)
        cache = {"conv_caches": conv_caches, "record": record,
                 "readout_caches": readout_caches, "dropout_mask": mask,
                 "dense2_cache": dense2_cache, "logits": logits}
        return softmax(logits), cache

    def backward(self, cache, dlogits: np.ndarray, input_grad: bool = False):
        """Add this batch's parameter gradients to the sums that
        ``gradients()`` returns.  Returns the input-feature gradient when
        ``input_grad`` is set, else None."""
        d = self.dense2.backward(cache["dense2_cache"], dlogits)
        d = self.dropout.backward(cache["dropout_mask"], d)
        for layer, layer_cache in zip(reversed(self.readout),
                                      reversed(cache["readout_caches"])):
            d = layer.backward(layer_cache, d)
        dhcat = self.sortpool.backward(cache["record"], d)

        # Each conv output feeds both the concatenation and the next layer.
        dnext = None
        for i in reversed(range(len(self.graph_convs))):
            lo, hi = self._conv_columns[i]
            dout = dhcat[:, lo:hi]
            if dnext is not None:
                dout += dnext
            dnext = self.graph_convs[i].backward(cache["conv_caches"][i], dout,
                                                 input_grad=input_grad or i > 0)
        return dnext

    def loss_and_gradients(self, sp: SPTensor, x: np.ndarray, target,
                           train_mode: bool = False,
                           rng: np.random.Generator | None = None,
                           input_grad: bool = False):
        """Forward, cross-entropy, backward; returns (losses, probs, dx),
        one loss per graph and dx only with ``input_grad``."""
        probs, cache = self.forward(sp, x, train_mode=train_mode, rng=rng)
        loss, dlogits = softmax_cross_entropy(cache["logits"], np.atleast_1d(target))
        dx = self.backward(cache, dlogits, input_grad=input_grad)
        return loss, probs, dx

    def conv_activations(self, sp: SPTensor, x: np.ndarray) -> list[np.ndarray]:
        """Outputs of every graph convolution layer, in order."""
        hcat, _ = self._convolve(sp, x)
        return [hcat[:, lo:hi] for lo, hi in self._conv_columns]

    # ------------------------------------------------------------- parameters

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{lname}.{pname}", p)
                for lname, layer in self._named_layers
                for pname, p in layer.parameters()]

    def gradients(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{lname}.{pname}", g)
                for lname, layer in self._named_layers
                for pname, g in layer.gradients()]

    def zero_gradients(self) -> None:
        for _, g in self.gradients():
            g[...] = 0.0

    def scale_gradients(self, factor: float) -> None:
        for _, g in self.gradients():
            g *= factor

    def get_state(self) -> list[np.ndarray]:
        return [p.copy() for _, p in self.parameters()]

    def set_state(self, state: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError("state does not match parameter list")
        for (_, p), s in zip(params, state):
            np.copyto(p, s)

    def make_optimizer(self) -> Adam:
        return Adam(self.parameters(), lr=self.config.learning_rate)


def model_forward(graph: Graph, sp: SPTensor, model: Model) -> np.ndarray:
    """Class probabilities for one graph, dropout off."""
    if sp.graph_sizes != (graph.node_count,):
        raise ValueError("shortest-path tensor does not match the graph")
    probs, _ = model.forward(sp, graph.features)
    return probs[0]


def save_checkpoint(model: Model, path) -> None:
    """Self-describing container: format, configuration and every
    parameter tensor."""
    meta = json.dumps({
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "feature_dim": model.feature_dim,
        "num_classes": model.num_classes,
    })
    arrays = {name: p for name, p in model.parameters()}
    np.savez(path, __meta__=np.array(meta), **arrays)


def _stored_config(stored: dict) -> ModelConfig:
    """The config of checkpoint metadata, each value's type checked against
    its field; a float field also takes an int, as JSON may write one."""
    hints = get_type_hints(ModelConfig)
    declared = {f.name: f.type for f in fields(ModelConfig)}
    for key, value in stored.items():
        allowed = get_args(hints[key]) or (hints[key],)
        if float in allowed:
            allowed += (int,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"checkpoint config {key}={value!r} is not {declared[key]}")
    return ModelConfig(**stored)


def load_checkpoint(path) -> Model:
    """Rebuild a model from :func:`save_checkpoint` output, bit-exact in value."""
    with np.load(path, allow_pickle=False) as data:
        if "__meta__" not in data:
            raise ConfigError("checkpoint lacks its __meta__ entry")
        try:
            meta = json.loads(str(data["__meta__"]))
        except json.JSONDecodeError:
            meta = None
        if not isinstance(meta, dict):
            raise ConfigError("checkpoint __meta__ entry is not a JSON object")
        stored = meta.get("format", "missing")
        if type(stored) is not int or stored != CHECKPOINT_FORMAT:
            raise ConfigError(f"checkpoint format is {stored!r}, "
                              f"expected {CHECKPOINT_FORMAT}")
        missing = [key for key in ("config", "feature_dim", "num_classes")
                   if key not in meta]
        if missing:
            raise ConfigError(f"checkpoint metadata lacks {', '.join(missing)}")
        unknown = sorted(set(meta["config"]) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise ConfigError(f"checkpoint has unknown config keys: {', '.join(unknown)}")
        config = _stored_config(meta["config"])
        for key in ("feature_dim", "num_classes"):
            if type(meta[key]) is not int:
                raise ConfigError(f"checkpoint {key} {meta[key]!r} is not an int")
        model = Model(config, meta["feature_dim"], meta["num_classes"])
        for name, p in model.parameters():
            if name not in data:
                raise ConfigError(f"checkpoint lacks parameter {name}")
            stored = data[name]
            if stored.shape != p.shape:
                raise ConfigError(f"checkpoint shape mismatch for {name}: "
                                  f"{stored.shape}, model has {p.shape}")
            np.copyto(p, stored)
    return model


def with_resolved_k(config: ModelConfig, node_counts: list[int]) -> ModelConfig:
    """Copy of ``config`` with ``sortpool_k`` made concrete."""
    return replace(config, sortpool_k=resolve_sortpool_k(config, node_counts))
