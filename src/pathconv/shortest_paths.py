"""Row-normalized shortest-path operators and mean-over-distance propagation.

For a graph with n nodes and a cutoff r, the engine builds one sparse
n x n operator P_j = D_j^-1 S_j per distance j in 0..r.  S_j is the
binary matrix whose (i, k) entry is 1 exactly when the shortest-path
distance between i and k is j, and D_j holds its row counts, so row i of
P_j stores 1 / (number of nodes at distance j from i) at each of those
nodes.  P_0 is the identity, P_1 has the support of the adjacency
matrix, and the supports of the operators are pairwise disjoint: S_j
holds the nonzeros of (A + I)^j that (A + I)^(j-1) lacks.
Propagation at distance j, P_j @ h, replaces each node's row by the mean
over its distance-j neighbors; P_0 = I is applied as a copy-free no-op.
Backpropagation needs P_j^T = S_j D_j^-1, which each tensor builds on
first use, so precompute and forward-only passes never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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


def sp_tensors(graphs: list[Graph], r: int) -> list[SPTensor]:
    """The operators P_0..P_r of each graph in ``graphs``, built together.

    Ring j, the pairs at distance exactly j, holds what the product of
    ring j - 1 with the graphs' block-diagonal A + I reaches and no earlier
    ring holds.  The products are boolean, so no count of paths can wrap
    to zero.  Each ring is cut back into per-graph CSR arrays with sorted
    int32 indices.
    """
    if r < 0:
        raise ValueError(f"distance cutoff must be non-negative, got {r}")
    sizes = [g.node_count for g in graphs]
    offsets = list(accumulate(sizes, initial=0))
    n = offsets[-1]
    edges = np.concatenate([g.edges + lo for g, lo in zip(graphs, offsets)]
                           or [np.empty((0, 2), np.int64)])
    loops = np.arange(n)
    rows, cols = np.concatenate((edges, edges[:, ::-1], np.c_[loops, loops])).T
    step = sparse.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n))
    reach = ring = sparse.identity(n, dtype=bool, format="csr")
    rings = []
    for _ in range(r):
        ring = ring @ step
        ring.sort_indices()
        ring = ring > reach
        reach = reach + ring
        counts = np.diff(ring.indptr)
        rings.append((ring.indptr, ring.indices, 1.0 / np.repeat(counts, counts)))
    tensors = []
    for size, lo, hi in zip(sizes, offsets, offsets[1:]):
        mats = [sparse.identity(size, format="csr")]
        for indptr, indices, data in rings:
            start, stop = indptr[lo], indptr[hi]
            mats.append(sparse.csr_matrix(
                (data[start:stop], indices[start:stop] - lo, indptr[lo:hi + 1] - start),
                shape=(size, size)))
        tensors.append(SPTensor(r=r, mats=tuple(mats), graph_sizes=(size,)))
    return tensors


def compute_sp_tensor(graph: Graph, r: int) -> SPTensor:
    """The operators P_0..P_r of one graph: ``sp_tensors([graph], r)[0]``."""
    return sp_tensors([graph], r)[0]


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
