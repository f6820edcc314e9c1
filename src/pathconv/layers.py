"""Network layers with hand-derived backward passes.

Every layer follows the same convention: ``forward`` returns the output
plus an opaque cache, ``backward`` takes that cache and the gradient of
the loss with respect to the output, adds the parameter gradients to the
layer's sums and returns the gradient with respect to the input; read the
sums through ``gradients()``, which returns the layer's ``grad_*``
buffers.  Parameters are only ever mutated by the optimizer.

Layers work on minibatches.  The graph convolutions see the batch as one
disconnected graph whose node rows are stacked; SortPool cuts it into a
(graphs, k, channels) block, and every later layer takes that leading
batch axis.  Parameter gradients are summed over the batch.

All arithmetic is 64-bit.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, NumericalError
from .shortest_paths import SPTensor, propagate, propagate_transpose


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


class GraphConv:
    """Graph convolution: output block j is tanh(Q_j h W_j), the blocks
    side by side, so the output is blocks * c_out columns wide.

    The product is taken in the cheaper order, Q_j (h W_j): one GEMM
    projects h onto every W_j at once, and the operators act at the c_out
    width.  A subclass supplies them as two methods: ``_propagate(sp, z)``
    returns Q z for the projection z, with the state its transpose needs,
    and ``_propagate_transpose(sp, state, g)`` returns Q^T g for the
    gradient g at the pre-activation.  Either may overwrite its argument.
    """

    def __init__(self, blocks: int, c_in: int, c_out: int, rng: np.random.Generator):
        self.c_in = c_in
        self.c_out = c_out
        self.weights = [glorot_uniform(rng, c_in, c_out) for _ in range(blocks)]
        self.grad_weights = [np.zeros_like(w) for w in self.weights]

    @property
    def out_width(self) -> int:
        return len(self.weights) * self.c_out

    def _block(self, a: np.ndarray, j: int) -> np.ndarray:
        return a[:, j * self.c_out:(j + 1) * self.c_out]

    def forward(self, sp: SPTensor, h: np.ndarray, out: np.ndarray | None = None):
        """``out``, if given, is the (nodes, out_width) array to write into."""
        if h.shape[1] != self.c_in:
            raise ValueError(f"expected {self.c_in} input columns, got {h.shape[1]}")
        w = np.concatenate(self.weights, axis=1)
        z, state = self._propagate(sp, h @ w)
        act = np.tanh(z, out=out)
        return act, (sp, h, w, act, state)

    def backward(self, cache, dout: np.ndarray, input_grad: bool = True):
        """Returns the input gradient, or None when ``input_grad`` is off.

        The gradient at the projection, dz = Q^T (dout * tanh'), is taken
        at the c_out width; one GEMM then gives every weight gradient
        h^T dz and one more the input gradient dz W^T.
        """
        sp, h, w, act, state = cache
        dz = np.multiply(act, act)  # in place: fresh arrays this size are slow to get
        np.subtract(1.0, dz, out=dz)
        dz *= dout
        dz = self._propagate_transpose(sp, state, dz)
        grad = h.T @ dz
        for j, g in enumerate(self.grad_weights):
            g += self._block(grad, j)
        return dz @ w.T if input_grad else None

    def parameters(self):
        return [(f"w{j}", w) for j, w in enumerate(self.weights)]

    def gradients(self):
        return [(f"w{j}", g) for j, g in enumerate(self.grad_weights)]


class DistanceConv(GraphConv):
    """One weight matrix per shortest-path distance: block j in 0..r is
    the mean over the nodes at distance exactly j, Q_j = P_j.  Block 0
    is kept as it is (P_0 = I) and each later block is propagated in
    place."""

    def __init__(self, r: int, c_in: int, c_out: int, rng: np.random.Generator):
        self.r = r
        super().__init__(r + 1, c_in, c_out, rng)

    def _propagate(self, sp: SPTensor, z: np.ndarray):
        for j in range(1, self.r + 1):
            block = self._block(z, j)
            block[...] = propagate(sp, j, block)
        return z, None

    def _propagate_transpose(self, sp: SPTensor, state, g: np.ndarray) -> np.ndarray:
        for j in range(1, self.r + 1):
            block = self._block(g, j)
            block[...] = propagate_transpose(sp, j, block)
        return g


class JointConv(GraphConv):
    """Baseline graph convolution: one weight matrix and the joint mean
    over a node and its direct neighbors, Q = N (I + D P_1), where D holds
    the neighbor counts d and N their joint normalizers 1 / (1 + d) on
    its diagonal."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        super().__init__(1, c_in, c_out, rng)

    def _propagate(self, sp: SPTensor, z: np.ndarray):
        # Neighbor count, exact: one stored entry per neighbor.
        d = np.diff(sp.mats[1].indptr)[:, None]
        norm = 1.0 / (1 + d)  # self-contribution keeps every row sum >= 1
        return norm * (z + d * propagate(sp, 1, z)), (d, norm)

    def _propagate_transpose(self, sp: SPTensor, state, g: np.ndarray) -> np.ndarray:
        d, norm = state
        s = norm * g
        return s + propagate_transpose(sp, 1, d * s)  # (I + D P_1)^T N g


class SortPool:
    """Fixed-size readout: order each graph's rows lexicographically and keep k.

    Rows are sorted in descending order keyed on the last column, ties
    broken by the next column to the left, and finally by ascending
    original node index so the ordering is total and reproducible.  The
    top k rows are kept; zero rows are appended when the graph has fewer
    than k nodes.  The returned record maps output rows to source nodes
    for gradient routing.

    Rows tied on the last column are ordered by one stable sort over byte
    keys: the id of their tied run, then the earlier columns from right to
    left, each float mapped to an integer whose unsigned order is
    descending float order.  They reach that sort in ascending index
    order, so rows tied on every column keep it.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ConfigError(f"sort-pooling size must be positive, got {k}")
        self.k = k

    def forward(self, h: np.ndarray, offsets: np.ndarray):
        """One (k, c) block per graph as (graphs, k, c); ``offsets`` holds
        every graph's first row, then the row count."""
        n, c = h.shape
        graph = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        # Stable sort: by graph, then descending last column, ties in
        # ascending index order.
        order = np.lexsort((-h[:, c - 1], graph))
        graph, last = graph[order], h[order, c - 1]
        tied = (graph[1:] == graph[:-1]) & (last[1:] == last[:-1])
        if tied.any():  # refine runs of rows tied on the last column
            new = np.concatenate(([True], ~tied))  # position starts a run
            pos = np.flatnonzero(~(new & np.append(new[1:], True)))  # runs of 2+
            rows = order[pos]
            # Descending float order as unsigned integer order: flip all but
            # the sign bit of non-negative values.  + 0.0 turns -0.0 into
            # 0.0 so the two compare equal.
            x = (h[rows, -2::-1] + 0.0).view(np.int64)
            x ^= ~(x >> 63) & 0x7FFF_FFFF_FFFF_FFFF
            # Big-endian bytes compare in the order of the integers, and
            # numpy compares unstructured void values bytewise.
            keys = np.concatenate((np.cumsum(new)[pos, None], x), axis=1)
            keys = keys.byteswap().view(f"V{8 * c}").ravel()
            order[pos] = rows[np.argsort(keys, kind="stable")]
        rank = np.arange(n) - offsets[graph]
        kept = np.zeros(n, dtype=bool)
        kept[order] = rank < self.k
        slot = np.zeros(n, dtype=np.int64)  # output row of each kept node
        slot[order] = graph * self.k + rank
        out = np.zeros((len(offsets) - 1, self.k, c))
        out.reshape(-1, c)[slot[kept]] = h[kept]
        return out, (slot, kept, out.shape)

    def backward(self, record, dout: np.ndarray) -> np.ndarray:
        slot, kept, shape = record
        if dout.shape != shape:
            raise ValueError(f"gradient shape {dout.shape} does not match {shape}")
        dh = dout.reshape(-1, shape[-1])[np.where(kept, slot, 0)]
        dh[~kept] = 0.0
        return dh


class Conv1D:
    """1-D cross-correlation with stride 1 over (..., length, channels)
    signals.  At width 1 it acts on each step's channel row alone."""

    def __init__(self, c_in: int, filters: int, width: int, rng: np.random.Generator):
        self.c_in = c_in
        self.filters = filters
        self.width = width
        self.kernel = glorot_uniform(rng, width * c_in, filters,
                                     shape=(filters, width, c_in))
        self.bias = np.zeros(filters)
        self.grad_kernel = np.zeros_like(self.kernel)
        self.grad_bias = np.zeros_like(self.bias)

    def out_length(self, length: int) -> int:
        if length < self.width:
            raise ConfigError(
                f"signal of length {length} is shorter than kernel width {self.width}"
            )
        return length - self.width + 1

    def forward(self, x: np.ndarray):
        t_out = self.out_length(x.shape[-2])
        # (steps, width * c_in): one receptive field per output step, as a
        # view whose window axis reuses the step stride.
        windows = as_strided(x, (*x.shape[:-2], t_out, self.width, self.c_in),
                             x.strides[:-1] + x.strides[-2:], writeable=False)
        windows = windows.reshape(-1, self.width * self.c_in)
        out = windows @ self.kernel.reshape(self.filters, -1).T + self.bias
        return out.reshape(*x.shape[:-2], t_out, self.filters), (windows, x.shape)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        windows, x_shape = cache
        dflat = dout.reshape(-1, self.filters)
        self.grad_bias += dflat.sum(axis=0)
        self.grad_kernel += (dflat.T @ windows).reshape(self.kernel.shape)
        # Step t receives tap w from output step t - w.  Padding dout with
        # width - 1 zero steps on both sides makes each tap's share one
        # slice of the product; at width 1 the product is the gradient
        # itself, with no second signal-sized array to fill.
        edge = self.width - 1
        dpad = np.zeros((*dout.shape[:-2], dout.shape[-2] + 2 * edge, self.filters))
        dpad[..., edge:edge + dout.shape[-2], :] = dout
        dtap = dpad.reshape(-1, self.filters) @ self.kernel.reshape(self.filters, -1)
        dtap = dtap.reshape(*dpad.shape[:-1], self.width, self.c_in)
        length = x_shape[-2]
        return reduce(np.add, (dtap[..., edge - w:edge - w + length, w, :]
                               for w in range(self.width)))

    def parameters(self):
        return [("kernel", self.kernel), ("bias", self.bias)]

    def gradients(self):
        return [("kernel", self.grad_kernel), ("bias", self.grad_bias)]


class MaxPool1D:
    """Max over non-overlapping pairs of steps of (..., length, channels)
    signals; an odd last step is dropped.  The first of two equal values
    wins, and only it receives the gradient."""

    def forward(self, x: np.ndarray):
        *lead, length, channels = x.shape
        pairs = x[..., : length - length % 2, :].reshape(*lead, -1, 2, channels)
        arg = pairs.argmax(axis=-2)[..., None, :]
        return np.take_along_axis(pairs, arg, axis=-2)[..., 0, :], (arg, x.shape)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        arg, x_shape = cache
        *lead, length, channels = x_shape
        dx = np.zeros(x_shape)
        # Splitting the step axis in two is a view, so this writes into dx.
        pairs = dx[..., : length - length % 2, :].reshape(*lead, -1, 2, channels)
        np.put_along_axis(pairs, arg, dout[..., None, :], axis=-2)
        return dx


class Dense:
    """Affine layer on rows of ``c_in`` features: an input of any shape is
    read as (rows, c_in), so a (graphs, steps, channels) signal whose
    steps * channels is c_in gives one row per graph.

    ``backward`` keeps each (rows, dout) pair instead of adding its
    outer product to ``grad_weight``: a wide layer fed one graph at a time
    would otherwise read and write the whole weight-sized buffer per call.
    ``gradients()`` folds every kept pair in with one GEMM; a kept input
    must not change before then.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        self.weight = glorot_uniform(rng, c_in, c_out)
        self.bias = np.zeros(c_out)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def forward(self, x: np.ndarray):
        rows = x.reshape(-1, self.weight.shape[0])
        return rows @ self.weight + self.bias, (rows, x.shape)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        rows, x_shape = cache
        self._pending.append((rows, dout))
        self.grad_bias += dout.sum(axis=0)
        return (dout @ self.weight.T).reshape(x_shape)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def gradients(self):
        if self._pending:
            rows, douts = zip(*self._pending)
            self.grad_weight += np.concatenate(rows).T @ np.concatenate(douts)
            self._pending.clear()
        return [("weight", self.grad_weight), ("bias", self.grad_bias)]


class ReLU:
    def forward(self, x: np.ndarray):
        return np.maximum(x, 0.0), x > 0

    def backward(self, mask, dout: np.ndarray) -> np.ndarray:
        return dout * mask


class Dropout:
    """Inverted dropout; identity outside training mode."""

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x: np.ndarray, train_mode: bool, rng: np.random.Generator | None):
        if not train_mode or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ValueError("dropout in training mode needs a random generator")
        mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * mask, mask

    def backward(self, mask, dout: np.ndarray) -> np.ndarray:
        return dout if mask is None else dout * mask


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, target) -> tuple[np.ndarray, np.ndarray]:
    """Stabilized cross-entropy loss of every row of ``logits`` and its
    gradient in the logits; ``target`` holds one class per row."""
    target = np.asarray(target)
    classes = logits.shape[-1]
    if np.any((target < 0) | (target >= classes)):
        raise ValueError(f"target {target} outside 0..{classes - 1}")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    picked = target[..., None]
    loss = (np.log(total) - np.take_along_axis(z, picked, axis=-1))[..., 0]
    grad = e / total
    np.put_along_axis(grad, picked, np.take_along_axis(grad, picked, axis=-1) - 1.0,
                      axis=-1)
    return loss, grad


class Adam:
    """Bias-corrected adaptive-moment optimizer over named parameters.

    ``params`` is a list of (name, array) pairs; arrays are updated in
    place.  Moment buffers match parameter shapes and persist across
    steps.
    """

    def __init__(self, params: list[tuple[str, np.ndarray]], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(p) for _, p in params]
        self.v = [np.zeros_like(p) for _, p in params]

    def step(self, grads: list[tuple[str, np.ndarray]]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, ((name, p), (gname, g)) in enumerate(zip(self.params, grads)):
            if name != gname:
                raise ValueError(f"parameter/gradient mismatch: {name} vs {gname}")
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient in {name}")
            m, v = self.m[i], self.v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
