"""The full classification network and its configuration.

Architecture: a stack of graph convolution layers, a concatenation of all
their outputs, a sort-based pooling layer producing a fixed k x c tensor,
then a 1-D read-out (a width-1 convolution acting on each pooled node row,
max-pooling over pairs of rows, a second convolution) and two dense layers
ending in one logit per class.  Graph convolutions use tanh, the
read-out uses rectified linear units.  The network runs on minibatches:
the graphs of a batch travel through the graph convolutions as one
disconnected graph and through the read-out as a leading batch axis.
"""

from __future__ import annotations

import json
import math
import sys
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from .data import Graph
from .errors import ConfigError, check_count
from .layers import (
    Conv1D,
    Dense,
    DistanceConv,
    Dropout,
    JointConv,
    MaxPool1D,
    ReLU,
    SortPool,
    softmax,
)
from .shortest_paths import SPTensor, check_fit

MODES = ("parametric", "dgcnn_baseline")
DTYPES = ("float32", "float64")

# Kernel width of the second read-out convolution.
CONV2_WIDTH = 5

# Version of the checkpoint layout.  Checkpoints without one predate it
# (their conv1 kernel has another shape) and are refused, as are format-2
# ones (their baseline weights are named gconvI.w, not gconvI.w0).  A
# format-3 config without a dtype was written by a float64 model.
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
    read-out supports).  ``dtype`` is the floating-point type the model
    trains and infers in; float64 is for exact checks.

    A config is valid by construction: each field must be an instance of
    its annotation (a float field also takes an int, no field a bool) and
    within its range, or construction raises ConfigError naming it.
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
    dtype: str = "float32"

    def __post_init__(self):
        hints = get_type_hints(ModelConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            allowed = get_args(hints[f.name]) or (hints[f.name],)
            if float in allowed:
                allowed += (int,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(f"{f.name}={value!r} is not {f.type}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")
        # sortpool_k >= 2 * CONV2_WIDTH: the pair pooling halves the k rows,
        # and the second read-out convolution must fit in what is left.
        for name, low in (("r", 0), ("epochs", 0), ("conv_layers", 1), ("channels", 1),
                          ("sortpool_k", 2 * CONV2_WIDTH), ("conv1_filters", 1),
                          ("conv2_filters", 1), ("dense_width", 1), ("batch_size", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if value is not None:  # only sortpool_k may be None: resolved later
                check_count(name, value, low)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        # Finite as a float: NaN, inf and ints past the float range fail too.
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ConfigError("learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")


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
    return max(int(k), 2 * CONV2_WIDTH)


class Model:
    """Layer stack with parameters, forward cache, and gradient buffers.

    Construction is deterministic in ``config.seed``.  ``forward`` and
    ``backward`` never mutate parameters; only an optimizer step does.
    """

    def __init__(self, config: ModelConfig, feature_dim: int, num_classes: int):
        if config.sortpool_k is None:
            raise ConfigError("sortpool_k must be resolved before building a model")
        check_count("feature_dim", feature_dim, 1)
        check_count("num_classes", num_classes, 2)
        self.config = config
        self.feature_dim = feature_dim
        self.num_classes = num_classes
        self.dtype = dtype = np.dtype(config.dtype)

        rng = np.random.default_rng(config.seed)
        self.graph_convs = []
        width = feature_dim
        for _ in range(config.conv_layers):
            if config.mode == "parametric":
                conv = DistanceConv(config.r, width, config.channels, rng, dtype)
            else:
                conv = JointConv(width, config.channels, rng, dtype)
            self.graph_convs.append(conv)
            width = conv.out_width
        ends = np.cumsum([c.out_width for c in self.graph_convs]).tolist()
        self.concat_width = ends[-1]
        self._conv_columns = list(zip([0] + ends[:-1], ends))

        k = config.sortpool_k
        self.sortpool = SortPool(k)
        self.conv1 = Conv1D(self.concat_width, config.conv1_filters, 1, rng, dtype)
        self.pool = MaxPool1D()
        self.conv2 = Conv1D(config.conv1_filters, config.conv2_filters, CONV2_WIDTH, rng,
                            dtype)
        self.dense1 = Dense(self.conv2.out_length(k // 2) * config.conv2_filters,
                            config.dense_width, rng, dtype)
        self.dropout = Dropout(config.dropout_rate)
        self.dense2 = Dense(config.dense_width, num_classes, rng, dtype)
        # From SortPool's (graphs, k, c) block to dense1's rectified rows.
        self.readout = [self.conv1, ReLU(), self.pool, self.conv2, ReLU(),
                        self.dense1, ReLU()]

        self._named_layers = [(f"gconv{i}", c) for i, c in enumerate(self.graph_convs)]
        self._named_layers += [("conv1", self.conv1), ("conv2", self.conv2),
                               ("dense1", self.dense1), ("dense2", self.dense2)]

    # ---------------------------------------------------------------- forward

    def _convolve(self, sp: SPTensor, h: np.ndarray):
        """Every graph convolution, each writing its columns of one
        (nodes, concat_width) array of the model's dtype; returns that array
        and the caches.  Bool feature rows reach the first convolution as
        stored, since its GEMMs take them in the weights' dtype; other rows
        are cast to the model's dtype."""
        if h.shape != (sp.node_count, self.feature_dim):
            raise ValueError(f"feature shape {h.shape} does not match (nodes, feature "
                             f"dimension) = ({sp.node_count}, {self.feature_dim})")
        if h.dtype != bool:
            h = h.astype(self.dtype, copy=False)
        hcat = np.empty((sp.node_count, self.concat_width), self.dtype)
        caches = []
        for conv, (lo, hi) in zip(self.graph_convs, self._conv_columns):
            h, cache = conv.forward(sp, h, out=hcat[:, lo:hi])
            caches.append(cache)
        return hcat, caches

    def forward(self, sp: SPTensor, x: np.ndarray, rng: np.random.Generator | None = None):
        """Class logits, one float64 row per graph of ``sp``, plus the cache
        backward needs.  ``x`` stacks the graphs' feature rows, bool, int
        or float; every layer computes in the model's dtype, and only the
        logits are widened to float64 for the loss and the softmax.
        Dropout draws its mask from ``rng`` and is off without one."""
        hcat, conv_caches = self._convolve(sp, x)
        h, record = self.sortpool.forward(hcat, offsets=sp.offsets)
        readout_caches = []
        for layer in self.readout:
            h, layer_cache = layer.forward(h)
            readout_caches.append(layer_cache)
        h, mask = self.dropout.forward(h, rng)
        logits, dense2_cache = self.dense2.forward(h)
        cache = {"conv_caches": conv_caches, "record": record,
                 "readout_caches": readout_caches, "dropout_mask": mask,
                 "dense2_cache": dense2_cache}
        return logits.astype(np.float64, copy=False), cache

    def backward(self, cache, dlogits: np.ndarray, input_grad: bool = False):
        """Add this batch's parameter gradients to the sums that
        ``gradients()`` returns.  Returns the input-feature gradient when
        ``input_grad`` is set, else None.  ``dlogits`` is taken in the
        model's dtype."""
        d = self.dense2.backward(cache["dense2_cache"], dlogits.astype(self.dtype, copy=False))
        d = self.dropout.backward(cache["dropout_mask"], d)
        for layer, layer_cache in zip(reversed(self.readout),
                                      reversed(cache["readout_caches"])):
            d = layer.backward(layer_cache, d)

        # Each conv output feeds both the concatenation and the next layer.
        # SortPool routes each layer's columns alone, so no gradient as wide
        # as the concatenation is ever built.
        dnext = None
        for i in reversed(range(len(self.graph_convs))):
            lo, hi = self._conv_columns[i]
            dout = self.sortpool.backward(cache["record"], d[..., lo:hi])
            if dnext is not None:
                dout += dnext
            dnext = self.graph_convs[i].backward(cache["conv_caches"][i], dout,
                                                 input_grad=input_grad or i > 0)
        return dnext

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

    def get_state(self) -> list[np.ndarray]:
        return [p.copy() for _, p in self.parameters()]

    def set_state(self, state: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError("state does not match parameter list")
        for (_, p), s in zip(params, state):
            np.copyto(p, s)


def model_forward(graph: Graph, sp: SPTensor, model: Model) -> np.ndarray:
    """Class probabilities for one graph, the softmax of its float64
    logits, dropout off; ConfigError unless ``sp`` passes
    :func:`check_fit` for the graph at the model's cutoff and dtype."""
    check_fit([sp], [graph], distance_cutoff(model.config), model.dtype)
    logits, _ = model.forward(sp, graph.features)
    return softmax(logits)[0]


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


def load_checkpoint(path) -> Model:
    """Rebuild a model from :func:`save_checkpoint` output, bit-exact in value.

    A file that is not a readable archive of arrays (empty, truncated,
    damaged, text or a single array) raises ConfigError naming it; a
    missing file raises FileNotFoundError."""
    with open(path, "rb") as fh:  # closed on every path, a failed parse too
        try:
            data = np.load(fh, allow_pickle=False)
        except (EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"checkpoint {path} is unreadable: {exc}") from None
        if isinstance(data, np.ndarray):
            raise ConfigError(f"checkpoint {path} is a single array, not an archive")

        def entry(name: str) -> np.ndarray:
            try:
                return data[name]
            except (ValueError, zipfile.BadZipFile, zlib.error) as exc:  # object array, damage
                raise ConfigError(f"checkpoint {path} entry {name} is unreadable: {exc}") from None

        if "__meta__" not in data:
            raise ConfigError("checkpoint lacks its __meta__ entry")
        raw = entry("__meta__")
        try:
            meta = json.loads(str(raw))
        except ValueError:  # not JSON
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
        if not isinstance(meta["config"], dict):
            raise ConfigError(f"checkpoint config {meta['config']!r} is not a JSON object")
        unknown = sorted(set(meta["config"]) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise ConfigError(f"checkpoint has unknown config keys: {', '.join(unknown)}")
        # A config without a dtype predates the field: it trained in float64.
        config = ModelConfig(**{"dtype": "float64", **meta["config"]})
        model = Model(config, meta["feature_dim"], meta["num_classes"])
        unknown = sorted(set(data.files) - {"__meta__"} - {name for name, _ in model.parameters()})
        if unknown:
            raise ConfigError(f"checkpoint has arrays the model lacks: {', '.join(unknown)}")
        for name, p in model.parameters():
            if name not in data:
                raise ConfigError(f"checkpoint lacks parameter {name}")
            stored = entry(name)
            if stored.shape != p.shape:
                raise ConfigError(f"checkpoint shape mismatch for {name}: "
                                  f"{stored.shape}, model has {p.shape}")
            if stored.dtype.kind not in "biuf":
                raise ConfigError(f"checkpoint parameter {name} has dtype {stored.dtype}, "
                                  "not boolean, integer or real floating point")
            np.copyto(p, stored)
    return model

