"""A synthetic distance task on which the filter size r should matter.

Each graph is a random tree of 14-25 nodes: node k > 0 takes its parent
uniformly from the nodes 0..k-1.  Two of its nodes are marked, at
shortest-path distance exactly 3 (class 0) or 4 (class 1), and each node
carries the one-hot feature (plain, marked).  A tree with no pair at its
class's distance is redrawn.  The label depends only on that distance,
so a model that cannot tell distance 3 from 4 stays at chance.

``collab_like`` is a stand-in of another kind: a set of COLLAB's shape
for loading at the paper's scale, with no task in it.

The module lives beside the tests so the package does not grow.  Tests
import it as ``synthetic``; a script puts the ``tests`` directory on
``sys.path`` first.
"""

from __future__ import annotations

import numpy as np

from pathconv import Dataset, Graph

DISTANCES = (3, 4)  # marked-pair distance of class 0 and class 1
MIN_NODES, MAX_NODES = 14, 25


def _tree_distances(parents: np.ndarray) -> np.ndarray:
    """All-pairs distances of the tree in which node k + 1 hangs from
    ``parents[k]`` < k + 1.  Each new node is a leaf, so its path to every
    earlier node runs through its parent."""
    n = parents.size + 1
    dist = np.zeros((n, n), dtype=np.int64)
    for k, p in enumerate(parents, start=1):
        dist[k, :k] = dist[:k, k] = dist[p, :k] + 1
    return dist


def _marked_tree(rng: np.random.Generator, target: int) -> Graph:
    while True:
        n = int(rng.integers(MIN_NODES, MAX_NODES + 1))
        parents = rng.integers(0, np.arange(1, n))
        pairs = np.argwhere(np.triu(_tree_distances(parents) == DISTANCES[target]))
        if len(pairs):
            break
    features = np.zeros((n, 2))
    features[:, 0] = 1.0
    features[pairs[rng.integers(len(pairs))]] = (0.0, 1.0)
    edges = np.c_[parents, np.arange(1, n)]
    return Graph(n, edges, features, target)


def distance_task(seed: int, n_graphs: int = 300) -> Dataset:
    """``n_graphs`` marked trees, alternating class 0 and class 1, drawn
    deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    graphs = tuple(_marked_tree(rng, i % 2) for i in range(n_graphs))
    return Dataset(name=f"distance-task-{seed}", graphs=graphs, num_classes=2, feature_dim=2)


def _ego_graph(rng: np.random.Generator, n: int, target: int) -> Graph:
    """Node 0 joined to every other node, the others G(n - 1, 0.667); the
    features are the one constant column a file without node labels
    loads to."""
    i, j = np.triu_indices(n, 1)
    keep = (i == 0) | (rng.random(i.size) < 0.667)
    return Graph(n, np.c_[i[keep], j[keep]], np.ones((n, 1)), target)


def collab_like(seed: int, graphs: int = 5000) -> Dataset:
    """COLLAB's shape: ``graphs`` dense ego networks of 32-492 nodes (mean
    about 74.5, so about 2500 edges per graph) in three classes, drawn
    deterministically from ``seed``."""
    rng = np.random.default_rng([seed, 0xC011AB])
    counts = np.clip(np.rint(32 + rng.exponential(42.5, graphs)).astype(np.int64), 32, 492)
    gs = tuple(_ego_graph(rng, int(n), i % 3) for i, n in enumerate(counts))
    return Dataset("COLLAB", gs, num_classes=3, feature_dim=1)
