"""Invariants of the synthetic distance task in ``synthetic.py``."""

import numpy as np
import pytest

from oracles import floyd_warshall_distances
from synthetic import DISTANCES, MAX_NODES, MIN_NODES, distance_task


@pytest.fixture(scope="module")
def task():
    return distance_task(seed=0)


def test_marked_pair_at_class_distance(task):
    for g in task.graphs:
        dist = floyd_warshall_distances(g.node_count, g.edges)
        marked = np.flatnonzero(g.features[:, 1])
        assert marked.size == 2
        assert dist[marked[0], marked[1]] == DISTANCES[g.target]
        assert np.array_equal(g.features.sum(axis=1), np.ones(g.node_count))


def test_every_graph_is_a_tree(task):
    for g in task.graphs:
        assert MIN_NODES <= g.node_count <= MAX_NODES
        assert len(g.edges) == g.node_count - 1
        assert np.isfinite(floyd_warshall_distances(g.node_count, g.edges)).all()


def test_classes_balanced(task):
    assert len(task) == 300
    assert np.bincount(task.targets()).tolist() == [150, 150]


def test_deterministic_in_seed(task):
    def content(ds):
        return [(g.edges.tobytes(), g.features.tobytes(), g.target) for g in ds.graphs]

    assert content(distance_task(seed=0)) == content(task)
    assert content(distance_task(seed=1)) != content(task)
