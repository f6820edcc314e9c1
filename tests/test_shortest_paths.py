"""Distance-matrix construction checked against a Floyd-Warshall oracle."""

import numpy as np
import pytest

from pathconv import Graph, compute_sp_tensor, propagate

from oracles import floyd_warshall_distances, indicator_from_distances, random_graph, path_graph


def test_path_graph_distance_two():
    g = path_graph(3, target=0)
    sp = compute_sp_tensor(g, r=2)
    entries = sorted(zip(*sp.mats[2].nonzero()))
    assert entries == [(0, 2), (2, 0)]


def test_r_zero_is_identity_only():
    g = random_graph(np.random.default_rng(0), n=8, edge_prob=0.4)
    sp = compute_sp_tensor(g, r=0)
    assert len(sp.mats) == 1
    assert np.array_equal(sp.mats[0].toarray(), np.eye(8))


def test_distance_one_equals_adjacency():
    g = random_graph(np.random.default_rng(1), n=10, edge_prob=0.3)
    sp = compute_sp_tensor(g, r=1)
    assert np.array_equal(sp.mats[1].toarray(), g.adjacency())


def test_matrices_symmetric():
    g = random_graph(np.random.default_rng(2), n=12, edge_prob=0.25)
    sp = compute_sp_tensor(g, r=3)
    for m in sp.mats:
        dense = m.toarray()
        assert np.array_equal(dense, dense.T)


def test_agrees_with_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        r = int(rng.integers(0, 5))
        g = random_graph(rng, n=n, edge_prob=0.2)
        sp = compute_sp_tensor(g, r)
        dist = floyd_warshall_distances(n, g.edges)
        for j in range(r + 1):
            expected = indicator_from_distances(dist, j)
            assert np.array_equal(sp.mats[j].toarray(), expected), (n, r, j)


def test_rows_stored_sorted_without_duplicates():
    # Propagation sums each row in stored order, so a canonical layout
    # keeps the bits independent of the order the search visits nodes in.
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_graph(rng, n=int(rng.integers(1, 25)), edge_prob=0.3)
        sp = compute_sp_tensor(g, r=3)
        assert all(m.has_canonical_format for m in sp.mats)


def test_supports_disjoint_and_cover_a_plus_i():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng, n=12, edge_prob=0.3)
        sp = compute_sp_tensor(g, r=3)
        total = sum(m.toarray() for m in sp.mats)
        assert total.max() <= 1.0  # pairwise disjoint supports
        a_tilde = (sp.mats[0] + sp.mats[1]).toarray()
        assert np.array_equal(a_tilde, g.adjacency() + np.eye(g.node_count))


def test_inverse_degrees_exact():
    rng = np.random.default_rng(4)
    g = random_graph(rng, n=15, edge_prob=0.3)
    sp = compute_sp_tensor(g, r=3)
    for j, m in enumerate(sp.mats):
        rowsum = np.asarray(m.sum(axis=1)).ravel()
        inv = sp.inv_degrees[j]
        nz = rowsum > 0
        assert np.all(inv[nz] * rowsum[nz] == 1.0)  # exact, not approximate
        assert np.all(inv[~nz] == 0.0)


def test_pairs_beyond_r_absent():
    g = path_graph(6, target=0)
    sp = compute_sp_tensor(g, r=2)
    total = sum(m.toarray() for m in sp.mats)
    assert total[0, 3] == 0 and total[0, 5] == 0


class TestPropagate:
    def test_distance_zero_is_identity(self):
        g = path_graph(4, target=0)
        sp = compute_sp_tensor(g, r=1)
        h = np.random.default_rng(5).normal(size=(4, 3))
        assert np.array_equal(propagate(sp, 0, h), h)

    def test_two_term_mean_on_path(self):
        g = path_graph(3, target=0)
        sp = compute_sp_tensor(g, r=1)
        h = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(propagate(sp, 1, h), np.array([[2.0], [2.0], [2.0]]))

    def test_isolated_node_gets_zero(self):
        g = Graph(1, frozenset(), np.ones((1, 1)), 0)
        sp = compute_sp_tensor(g, r=1)
        assert np.array_equal(propagate(sp, 1, np.array([[5.0]])), np.array([[0.0]]))

    def test_linearity(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=9, edge_prob=0.4)
        sp = compute_sp_tensor(g, r=2)
        h1 = rng.normal(size=(9, 4))
        h2 = rng.normal(size=(9, 4))
        alpha = 1.7
        for j in range(3):
            lhs = propagate(sp, j, alpha * h1 + h2)
            rhs = alpha * propagate(sp, j, h1) + propagate(sp, j, h2)
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)

    def test_j_out_of_range(self):
        g = path_graph(3, target=0)
        sp = compute_sp_tensor(g, r=1)
        with pytest.raises(ValueError):
            propagate(sp, 2, np.zeros((3, 1)))

    def test_row_count_mismatch(self):
        g = path_graph(3, target=0)
        sp = compute_sp_tensor(g, r=1)
        with pytest.raises(ValueError):
            propagate(sp, 1, np.zeros((4, 1)))


def test_negative_r_rejected():
    with pytest.raises(ValueError):
        compute_sp_tensor(path_graph(3, target=0), r=-1)
