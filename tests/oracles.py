"""Independent reference implementations used to cross-check the package.

Nothing here shares code with the implementation under test: distances
come from Floyd-Warshall instead of sparse matrix products, the read-out is
composed from plain numpy products, and gradients are checked elsewhere
against central finite differences.
"""

from __future__ import annotations

import numpy as np

from pathconv import Graph


def floyd_warshall_distances(n: int, edges) -> np.ndarray:
    """All-pairs shortest-path distances by min-plus relaxation.

    Returns an (n, n) float matrix with np.inf for unreachable pairs.
    """
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in edges:
        dist[i, j] = dist[j, i] = 1.0
    for mid in range(n):
        dist = np.minimum(dist, dist[:, mid:mid + 1] + dist[mid:mid + 1, :])
    return dist


def adjacency(graph: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix of a graph's edge list."""
    a = np.zeros((graph.node_count, graph.node_count))
    i, j = graph.edges.T
    a[i, j] = a[j, i] = 1.0
    return a


def indicator_from_distances(dist: np.ndarray, j: int) -> np.ndarray:
    """Dense 0/1 matrix of pairs at distance exactly j."""
    return (dist == j).astype(float)


def normalized_from_distances(dist: np.ndarray, j: int) -> np.ndarray:
    """Dense row-normalized operator at distance j: the indicator with
    each row divided by its entry count; rows without entries stay zero."""
    ind = indicator_from_distances(dist, j)
    return ind / np.maximum(ind.sum(axis=1, keepdims=True), 1.0)


def distance_conv_reference(dist: np.ndarray, h: np.ndarray, weights, dout: np.ndarray):
    """Dense DistanceConv in the propagate-first order, tanh(P_j h W_j) per
    block, plus the gradients of <output, dout>: one per weight matrix,
    (P_j h)^T (dout_j * tanh'), and the input's, sum_j P_j^T (...) W_j^T."""
    c = weights[0].shape[1]
    blocks, grads, dh = [], [], np.zeros_like(h)
    for j, w in enumerate(weights):
        p = normalized_from_distances(dist, j)
        mean = p @ h
        act = np.tanh(mean @ w)
        s = dout[:, j * c:(j + 1) * c] * (1.0 - act * act)
        blocks.append(act)
        grads.append(mean.T @ s)
        dh += p.T @ s @ w.T
    return np.hstack(blocks), grads, dh


def joint_conv_reference(dist: np.ndarray, h: np.ndarray, weight: np.ndarray,
                         dout: np.ndarray):
    """Dense JointConv: tanh(M h W) with M = (I + A) / (1 + degree), the
    joint mean over a node and its neighbors, plus the gradients of
    <output, dout> in W and in h."""
    adjacency = indicator_from_distances(dist, 1)
    m = (np.eye(len(dist)) + adjacency) / (1.0 + adjacency.sum(axis=1, keepdims=True))
    mean = m @ h
    act = np.tanh(mean @ weight)
    s = dout * (1.0 - act * act)
    return act, mean.T @ s, m.T @ s @ weight.T


def block_distances(dists) -> np.ndarray:
    """Distances of several graphs taken as one disconnected graph."""
    n = sum(len(d) for d in dists)
    block = np.full((n, n), np.inf)
    lo = 0
    for d in dists:
        block[lo:lo + len(d), lo:lo + len(d)] = d
        lo += len(d)
    return block


def random_graph(rng: np.random.Generator, n: int, edge_prob: float,
                 feature_dim: int = 3, target: int = 0) -> Graph:
    """Erdos-Renyi style graph with one-hot features."""
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    }
    features = np.zeros((n, feature_dim))
    features[np.arange(n), rng.integers(0, feature_dim, size=n)] = 1.0
    return Graph(node_count=n, edges=frozenset(edges), features=features, target=target)


def cycle_graph(n: int, target: int, feature_dim: int = 1) -> Graph:
    edges = {(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)}
    edges = {tuple(sorted(e)) for e in edges}
    features = np.zeros((n, feature_dim))
    features[:, 0] = 1.0
    return Graph(node_count=n, edges=frozenset(edges), features=features, target=target)


def path_graph(n: int, target: int, feature_dim: int = 1) -> Graph:
    edges = frozenset((i, i + 1) for i in range(n - 1))
    features = np.zeros((n, feature_dim))
    features[:, 0] = 1.0
    return Graph(node_count=n, edges=edges, features=features, target=target)


def sortpool_order(h: np.ndarray) -> np.ndarray:
    """Row order of one graph under SortPool's rule, by one full lexsort:
    every column descending, the last column most significant, then
    ascending row index."""
    n, c = h.shape
    return np.lexsort((np.arange(n),) + tuple(-h[:, col] for col in range(c)))


def sortpool_block(h: np.ndarray, k: int) -> np.ndarray:
    """One graph's (k, c) SortPool output: the first k rows in
    :func:`sortpool_order`, zero rows below when there are fewer."""
    block = np.zeros((k, h.shape[1]))
    rows = h[sortpool_order(h)[:k]]
    block[: len(rows)] = rows
    return block


def readout_probabilities(pooled: np.ndarray, params: dict) -> np.ndarray:
    """Class probabilities of (graphs, k, c) pooled blocks through the
    read-out, from the model's named parameters: a product per node row,
    ReLU, max over pairs of rows, a width-5 correlation, ReLU, dense, ReLU,
    dense, softmax."""
    kernel1 = params["conv1.kernel"][:, 0, :]  # (filters, c)
    a1 = np.maximum(np.einsum("gkc,fc->gkf", pooled, kernel1) + params["conv1.bias"], 0.0)
    half = a1.shape[1] // 2
    p1 = np.maximum(a1[:, 0:2 * half:2], a1[:, 1:2 * half:2])
    kernel2 = params["conv2.kernel"]  # (filters, width, channels)
    width = kernel2.shape[1]
    steps = half - width + 1
    z2 = sum(np.einsum("gtc,fc->gtf", p1[:, w:w + steps], kernel2[:, w, :])
             for w in range(width)) + params["conv2.bias"]
    flat = np.maximum(z2, 0.0).reshape(len(pooled), -1)
    hidden = np.maximum(flat @ params["dense1.weight"] + params["dense1.bias"], 0.0)
    logits = hidden @ params["dense2.weight"] + params["dense2.bias"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
