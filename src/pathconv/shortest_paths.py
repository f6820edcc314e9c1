"""Row-normalized shortest-path operators and mean-over-distance propagation.

For a graph with n nodes and a cutoff r, the engine builds one sparse
n x n operator P_j = D_j^-1 S_j per distance j in 0..r.  S_j is the
binary matrix whose (i, k) entry is 1 exactly when the shortest-path
distance between i and k is j, and D_j holds its row counts, so row i of
P_j stores 1 / (number of nodes at distance j from i) at each of those
nodes.  P_0 is the identity, P_1 has the support of the adjacency
matrix, and the supports of the operators are pairwise disjoint.
Propagation at distance j, P_j @ h, replaces each node's row by the mean
over its distance-j neighbors; P_0 = I is applied as a copy-free no-op.
Backpropagation needs P_j^T = S_j D_j^-1, which each tensor builds on
first use, so precompute and forward-only passes never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .data import Graph


@dataclass(frozen=True)
class SPTensor:
    """Per-distance propagation operators for one graph.

    ``mats[j]`` is the CSR operator P_j: row i stores 1 / c at each of
    the c nodes at distance exactly j from node i, in ascending column
    order, and is empty when there is none.  ``transposes[j]`` is P_j^T,
    built on first use.  Immutable after construction.

    ``graph_sizes`` lists the node counts of the graphs it describes, in
    row order: one for a single graph, several for a tensor from
    :func:`batch_sp_tensors`, which joins graphs into one disconnected graph.
    """

    r: int
    mats: tuple[sparse.csr_matrix, ...]
    graph_sizes: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return self.mats[0].shape[0]

    @property
    def offsets(self) -> np.ndarray:
        """First row of every graph, then the total row count."""
        return np.cumsum((0,) + self.graph_sizes)

    @cached_property
    def transposes(self) -> tuple[sparse.csr_matrix, ...]:
        """P_0^T..P_r^T as CSR.  S_j is symmetric, so P_j^T = S_j D_j^-1
        has P_j's ``indptr`` and ``indices`` (shared, not copied) and stores
        1 / c_k at column k, c_k being row k's entry count.  P_0 is its own
        transpose."""
        transposed = [self.mats[0]]
        for m in self.mats[1:]:
            counts = np.diff(m.indptr)
            transposed.append(sparse.csr_matrix(
                (1.0 / counts[m.indices], m.indices, m.indptr), shape=m.shape))
        return tuple(transposed)


def compute_sp_tensor(graph: Graph, r: int) -> SPTensor:
    """Build the operators P_0..P_r with one depth-limited breadth-first
    visit per node.

    Pairs at distance greater than r (including disconnected pairs) appear
    in no matrix.  Worst case O(n * (n + m)) per graph; the depth bound
    only ever shrinks the visits.
    """
    if r < 0:
        raise ValueError(f"distance cutoff must be non-negative, got {r}")
    n = graph.node_count
    nbrs = graph.neighbors
    # Per distance: each row's entry count, and the rows' sorted columns
    # in row order, which is CSR with canonical (sorted) indices.
    counts = [[0] * n for _ in range(r + 1)]
    cols: list[list[int]] = [[] for _ in range(r + 1)]
    for src in range(n):
        seen = {src}
        frontier = [src]
        for depth in range(1, r + 1):
            nxt = []
            for u in frontier:
                for w in nbrs[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:
                break
            nxt.sort()
            counts[depth][src] = len(nxt)
            cols[depth] += nxt
            frontier = nxt

    mats = [sparse.identity(n, format="csr")]
    for j in range(1, r + 1):
        row_counts = np.array(counts[j])
        indptr = np.concatenate(([0], np.cumsum(row_counts)))
        data = 1.0 / np.repeat(row_counts, row_counts)  # 1 / c, c times per row
        mats.append(sparse.csr_matrix(
            (data, np.array(cols[j], dtype=np.int32), indptr), shape=(n, n)))
    return SPTensor(r=r, mats=tuple(mats), graph_sizes=(n,))


def batch_sp_tensors(sps: list[SPTensor]) -> SPTensor:
    """The graphs of ``sps`` as one disconnected graph, with the distances
    0..r that every tensor holds, r being the smallest cutoff among them.

    Every ``mats[j]`` is block-diagonal, built by concatenating the CSR
    arrays, so each row keeps its entries in their original order and
    propagation gives every graph's rows bit for bit.  Each CSR array is
    one concatenation plus one shift, and the index arrays stay int32 so
    scipy takes them without a copy.
    """
    if len(sps) == 1:
        return sps[0]
    r = min(sp.r for sp in sps)
    sizes = tuple(sp.node_count for sp in sps)
    n = sum(sizes)
    row_starts = np.cumsum((0,) + sizes[:-1], dtype=np.int32)
    zero = np.zeros(1, np.int32)
    mats = []
    for j in range(r + 1):
        parts = [sp.mats[j] for sp in sps]
        nnz = np.array([m.indices.size for m in parts], dtype=np.int32)
        indptr = np.concatenate([zero] + [m.indptr[1:] for m in parts])
        indptr[1:] += np.repeat(nnz.cumsum(dtype=np.int32) - nnz, sizes)
        indices = np.concatenate([m.indices for m in parts])
        indices += np.repeat(row_starts, nnz)
        data = np.concatenate([m.data for m in parts])
        mats.append(sparse.csr_matrix((data, indices, indptr), shape=(n, n)))
    return SPTensor(r=r, mats=tuple(mats), graph_sizes=sizes)


def propagate(sp: SPTensor, j: int, h: np.ndarray) -> np.ndarray:
    """Mean of the rows of ``h`` over the nodes at distance exactly j.

    Rows with no distance-j neighbor come out all-zero.  Linear in ``h``.
    At j = 0 it returns ``h`` itself.
    """
    if not 0 <= j <= sp.r:
        raise ValueError(f"distance {j} outside 0..{sp.r}")
    if h.shape[0] != sp.node_count:
        raise ValueError(f"h has {h.shape[0]} rows, graph has {sp.node_count} nodes")
    return h if j == 0 else sp.mats[j] @ h


def propagate_transpose(sp: SPTensor, j: int, h: np.ndarray) -> np.ndarray:
    """Apply P_j^T, the transpose of the distance-j propagation operator;
    this is what backpropagation through :func:`propagate` needs.

    P_j^T = S_j D_j^-1, since S_j is symmetric: row i sums (1 / c_k) g_k
    over the nodes k at distance j from i, in ascending k.  One CSR
    product with ``sp.transposes[j]``; at j = 0 it returns ``h`` itself.
    """
    if not 0 <= j <= sp.r:
        raise ValueError(f"distance {j} outside 0..{sp.r}")
    return h if j == 0 else sp.transposes[j] @ h
