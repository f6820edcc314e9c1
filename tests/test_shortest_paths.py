"""Distance-operator construction checked against a Floyd-Warshall oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pathconv import Dataset, Graph, compute_sp_tensor, propagate
from pathconv.layers import DistanceConv
from pathconv.shortest_paths import batch_sp_tensors, propagate_transpose
from pathconv.training import NODE_BUDGET, precompute_sp_tensors

from oracles import (
    floyd_warshall_distances,
    indicator_from_distances,
    normalized_from_distances,
    path_graph,
    random_graph,
)


def support(m) -> np.ndarray:
    """Dense 0/1 pattern of the stored entries of a sparse matrix."""
    return (m.toarray() != 0).astype(float)


def stored_rows(m) -> np.ndarray:
    """Row of every stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


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
    adjacency = g.adjacency()
    assert np.array_equal(support(sp.mats[1]), adjacency)
    degree = adjacency.sum(axis=1)
    assert np.array_equal(sp.mats[1].data, 1.0 / degree[stored_rows(sp.mats[1])])


def test_matrices_symmetric():
    g = random_graph(np.random.default_rng(2), n=12, edge_prob=0.25)
    sp = compute_sp_tensor(g, r=3)
    for m in sp.mats:
        pattern = support(m)
        assert np.array_equal(pattern, pattern.T)


def test_agrees_with_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        r = int(rng.integers(0, 5))
        g = random_graph(rng, n=n, edge_prob=0.2)
        sp = compute_sp_tensor(g, r)
        dist = floyd_warshall_distances(n, g.edges)
        for j in range(r + 1):
            expected = normalized_from_distances(dist, j)
            assert np.array_equal(sp.mats[j].toarray(), expected), (n, r, j)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.data())
def test_dataset_precompute_equals_per_graph_and_floyd_warshall(data):
    """``precompute_sp_tensors``, which builds runs of graphs together,
    gives every graph the arrays of ``compute_sp_tensor`` bit for bit and
    dtype for dtype, with canonical indices, equal to the Floyd-Warshall
    operators.  The datasets hold single-node, edgeless and disconnected
    graphs, and one graph larger than NODE_BUDGET, which forms a run of
    its own."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sizes = data.draw(st.lists(st.integers(1, 30), max_size=25))
    graphs = [random_graph(rng, n, edge_prob=data.draw(st.sampled_from((0.0, 0.1, 0.3, 0.9))))
              for n in sizes]
    left, right = random_graph(rng, 5, edge_prob=0.5), random_graph(rng, 7, edge_prob=0.5)
    graphs += [
        Graph(1, [], np.ones((1, 3)), 0),
        Graph(6, [], np.ones((6, 3)), 0),
        Graph(12, np.concatenate([left.edges, right.edges + 5]),
              np.concatenate([left.features, right.features]), 0),
        random_graph(rng, NODE_BUDGET + data.draw(st.integers(1, 40)), edge_prob=0.01),
    ]
    graphs = data.draw(st.permutations(graphs))
    dataset = Dataset("mixed", tuple(graphs), num_classes=1, feature_dim=3)
    dists = [floyd_warshall_distances(g.node_count, g.edges) for g in graphs]
    for r in range(4):
        sps = precompute_sp_tensors(dataset, r)
        assert len(sps) == len(graphs)
        for g, dist, sp in zip(graphs, dists, sps):
            assert sp.r == r and sp.graph_sizes == (g.node_count,)
            for j, (m, ref) in enumerate(zip(sp.mats, compute_sp_tensor(g, r).mats, strict=True)):
                for name, dtype in (("indptr", np.int32), ("indices", np.int32),
                                    ("data", np.float64)):
                    got, want = getattr(m, name), getattr(ref, name)
                    assert got.dtype == want.dtype == dtype, (name, j)
                    assert got.tobytes() == want.tobytes(), (name, j)
                assert m.has_canonical_format
                assert np.array_equal(m.toarray(), normalized_from_distances(dist, j)), (r, j)


def test_pair_with_many_shortest_paths_found():
    """Nodes 0 and 1 share 256 neighbors, so 256 shortest paths join them;
    the distance-2 pair must not be lost to a path count kept in 8 bits."""
    n = 258
    g = Graph(n, [(a, k) for a in (0, 1) for k in range(2, n)], np.ones((n, 1)), 0)
    sp = compute_sp_tensor(g, r=2)
    dist = floyd_warshall_distances(n, g.edges)
    for j in range(3):
        assert np.array_equal(sp.mats[j].toarray(), normalized_from_distances(dist, j)), j


def test_rows_stored_sorted_without_duplicates():
    # Propagation sums each row in stored order, so a canonical layout
    # keeps the bits independent of the order the builder finds pairs in.
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
        total = sum(support(m) for m in sp.mats)
        assert total.max() <= 1.0  # pairwise disjoint supports
        a_tilde = support(sp.mats[0]) + support(sp.mats[1])
        assert np.array_equal(a_tilde, g.adjacency() + np.eye(g.node_count))


def test_inverse_degrees_exact():
    rng = np.random.default_rng(4)
    g = random_graph(rng, n=15, edge_prob=0.3)
    sp = compute_sp_tensor(g, r=3)
    dist = floyd_warshall_distances(g.node_count, g.edges)
    for j, m in enumerate(sp.mats):
        count = indicator_from_distances(dist, j).sum(axis=1)
        assert np.all(m.data == 1.0 / count[stored_rows(m)])  # exact, not approximate


def transpose_oracle(dist: np.ndarray, j: int, g: np.ndarray) -> np.ndarray:
    """S_j @ (D_j^-1 g) with S_j built from the oracle indicator."""
    ind = indicator_from_distances(dist, j)
    inv = 1.0 / np.maximum(ind.sum(axis=1), 1.0)
    return sparse.csr_matrix(ind) @ (inv[:, None] * g)


def test_transpose_bitwise_equals_indicator_formula():
    """P_j^T g gives the bits of S_j @ (D_j^-1 g), on single graphs with
    isolated nodes and on batched tensors."""
    rng = np.random.default_rng(9)
    isolated = Graph(5, frozenset({(1, 3)}), np.ones((5, 1)), 0)
    for _ in range(30):
        graphs = [random_graph(rng, n=int(rng.integers(1, 16)), edge_prob=0.2)
                  for _ in range(2)] + [isolated]
        dists = [floyd_warshall_distances(g.node_count, g.edges) for g in graphs]
        for r in range(4):
            sps = [compute_sp_tensor(g, r) for g in graphs]
            batched = batch_sp_tensors(sps)
            grad = rng.normal(size=(batched.node_count, 3))
            bounds = batched.offsets
            for j in range(r + 1):
                for sp, dist, lo, hi in zip(sps, dists, bounds[:-1], bounds[1:]):
                    assert np.array_equal(propagate_transpose(sp, j, grad[lo:hi]),
                                          transpose_oracle(dist, j, grad[lo:hi]))
                block = np.full((batched.node_count,) * 2, np.inf)
                for dist, lo, hi in zip(dists, bounds[:-1], bounds[1:]):
                    block[lo:hi, lo:hi] = dist
                assert np.array_equal(propagate_transpose(batched, j, grad),
                                      transpose_oracle(block, j, grad))


def test_stored_transposes_equal_transposed_operators():
    """``transposes[j]`` is exactly mats[j].T: canonical CSR sharing P_j's
    index arrays, per graph (with isolated nodes) and batched."""
    rng = np.random.default_rng(10)
    graphs = [random_graph(rng, n=int(rng.integers(1, 16)), edge_prob=0.25)
              for _ in range(4)] + [Graph(5, frozenset({(1, 3)}), np.ones((5, 1)), 0)]
    for r in range(4):
        sps = [compute_sp_tensor(g, r) for g in graphs]
        for sp in sps + [batch_sp_tensors(sps)]:
            assert len(sp.transposes) == r + 1
            for m, t in zip(sp.mats, sp.transposes):
                assert t.format == "csr" and t.has_canonical_format
                assert m.nnz == 0 or np.shares_memory(t.indices, m.indices)
                assert np.shares_memory(t.indptr, m.indptr)
                assert np.array_equal(t.toarray(), m.T.toarray())


def test_transposes_built_only_by_backward():
    rng = np.random.default_rng(11)
    sp = compute_sp_tensor(random_graph(rng, n=9, edge_prob=0.4), 2)
    layer = DistanceConv(r=2, c_in=3, c_out=2, rng=rng)
    h = rng.normal(size=(9, 3))
    for j in range(3):
        propagate(sp, j, h)
    out, cache = layer.forward(sp, h)
    propagate_transpose(sp, 0, h)
    assert "transposes" not in vars(sp)
    layer.backward(cache, np.ones_like(out))
    assert "transposes" in vars(sp)


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
