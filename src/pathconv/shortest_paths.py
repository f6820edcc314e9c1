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
over its distance-j neighbors.  Backpropagation applies P_j^T through a
CSC view of P_j that shares its arrays, made at each call.  A tensor
never changes after construction.

The operators' data are built in one floating-point type, float64 unless
another is asked for: a model multiplies by operators of its own dtype,
so scipy takes each product in that type without a widened copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import Graph
from .errors import ConfigError, check_count


@dataclass(frozen=True)
class SPTensor:
    """Per-distance propagation operators for one graph.

    ``mats[j]`` is the CSR operator P_j for j in 0..r: row i stores 1 / c
    at each of the c nodes at distance exactly j from node i, in ascending
    column order, and is empty when there is none.  Every operator's data
    has the dtype the tensor was built in, 1 / c rounded to it; the index
    arrays are int32 whatever that dtype.  Nothing changes a
    tensor after construction; :func:`propagate_transpose` builds each
    P_j^T at each call.

    ``graph_sizes``, the only record of the graphs it describes, lists their
    node counts in row order: one for a single graph, every joined graph's
    for a tensor from :func:`batch_sp_tensors`.
    """

    mats: tuple[sparse.csr_matrix, ...]
    graph_sizes: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.mats) - 1

    @property
    def node_count(self) -> int:
        return self.mats[0].shape[0]

    @property
    def offsets(self) -> np.ndarray:
        """First row of every graph, then the total row count."""
        return np.cumsum((0,) + self.graph_sizes)


# Most stored entries of the block-diagonal A + I that :func:`sp_tensors`
# multiplies by in one run of graphs; a graph that holds more forms a run
# of its own.  What a run's products hold grows with these entries, so the
# bound caps the product memory on dense graphs while sparse graphs share
# few, large runs.
RUN_ENTRIES = 2**15


def cut_runs(weights: list[int], budget: int) -> list[slice]:
    """Consecutive runs covering ``weights`` in order, each the longest
    from its start whose weights sum to at most ``budget``; an item over
    the budget forms a run of its own.  No items give no runs."""
    starts, total = [], float("inf")
    for pos, weight in enumerate(weights):
        if total + weight > budget:
            starts.append(pos)
            total = 0
        total += weight
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(weights)])]


def sp_tensors(graphs: list[Graph], r: int, dtype=np.float64) -> list[SPTensor]:
    """The operators P_0..P_r of each graph in ``graphs``, built together,
    their data in ``dtype``.

    The graphs are taken in order, in the runs that :func:`cut_runs` cuts
    at RUN_ENTRIES stored entries of A + I, and each run is built by
    :func:`_run_tensors`.
    """
    check_count("r", r, 0)
    runs = cut_runs([g.node_count + 2 * len(g.edges) for g in graphs], RUN_ENTRIES)
    return [sp for run in runs for sp in _run_tensors(graphs[run], r, dtype)]


def _run_tensors(graphs: list[Graph], r: int, dtype) -> list[SPTensor]:
    """The operators of one run of graphs.

    Ring j, the pairs at distance exactly j, holds what the product of
    ring j - 1 with the graphs' block-diagonal A + I reaches and no earlier
    ring holds.  The products are boolean, so no count of paths can wrap
    to zero.  Each ring is cut into per-graph CSR arrays with sorted int32
    indices by array operations over the whole run: one division gives the
    whole ring's data 1 / c in ``dtype``, one subtraction makes the column
    indices local, and every graph's ``indptr`` is a slice of one array, so
    per graph and distance only slicing and the ``csr_matrix`` call remain.
    """
    sizes = np.array([g.node_count for g in graphs])
    offsets = np.cumsum(np.r_[0, sizes])
    n = int(offsets[-1])
    edges = np.concatenate([g.edges + lo for g, lo in zip(graphs, offsets.tolist())])
    loops = np.arange(n)
    rows, cols = np.concatenate((edges, edges[:, ::-1], np.c_[loops, loops])).T
    step = sparse.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n))
    reach = ring = sparse.identity(n, dtype=bool, format="csr")
    rings = [ring]
    for _ in range(r):
        ring = ring @ step
        ring.sort_indices()
        ring = ring > reach
        reach = reach + ring
        rings.append(ring)
    # Graph g's indptr is ptr[offsets[g] + g : offsets[g + 1] + g + 1]: the
    # pointers of its rows and the next, less the pointer of its first row.
    ptr_rows = np.arange(n + len(graphs)) - np.repeat(np.arange(len(graphs)), sizes + 1)
    ptr_starts = (offsets + np.arange(len(graphs) + 1)).tolist()
    cuts = []
    for ring in rings:
        counts = np.diff(ring.indptr)
        bounds = ring.indptr[offsets]
        indices = ring.indices - np.repeat(offsets[:-1].astype(ring.indices.dtype), np.diff(bounds))
        ptr = ring.indptr[ptr_rows] - np.repeat(bounds[:-1], sizes + 1)
        cuts.append((np.divide(1, np.repeat(counts, counts), dtype=dtype), indices, ptr,
                     bounds.tolist()))
    tensors = []
    for g, size in enumerate(sizes.tolist()):
        a, b = ptr_starts[g], ptr_starts[g + 1]
        mats = tuple(sparse.csr_matrix((data[lo[g]:lo[g + 1]], indices[lo[g]:lo[g + 1]], ptr[a:b]),
                                       shape=(size, size))
                     for data, indices, ptr, lo in cuts)
        tensors.append(SPTensor(mats=mats, graph_sizes=(size,)))
    return tensors


def compute_sp_tensor(graph: Graph, r: int) -> SPTensor:
    """The operators P_0..P_r of one graph: ``sp_tensors([graph], r)[0]``."""
    return sp_tensors([graph], r)[0]


def batch_sp_tensors(sps: list[SPTensor]) -> SPTensor:
    """The graphs of ``sps`` as one disconnected graph, with the distances
    0..r that every tensor holds, r being the smallest cutoff among them;
    ``graph_sizes`` concatenates theirs, so joins nest like one flat join.

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
    return SPTensor(mats=tuple(mats), graph_sizes=tuple(s for sp in sps for s in sp.graph_sizes))


def check_fit(sps: list[SPTensor], graphs: list[Graph], r: int, dtype) -> None:
    """ConfigError unless ``sps`` is one tensor per graph, of that graph alone,
    to distance >= r, with data at least as wide as ``dtype``, the model's:
    narrower operators would round every product of a wider model."""
    if [sp.graph_sizes for sp in sps] != [(g.node_count,) for g in graphs]:
        raise ConfigError(f"{len(sps)} shortest-path tensors do not fit the {len(graphs)} graphs' sizes")
    if any(sp.r < r for sp in sps):
        raise ConfigError(f"shortest-path tensors stop short of distance {r}")
    for held in {m.dtype for sp in sps for m in sp.mats}:
        if not np.can_cast(dtype, held):
            raise ConfigError(f"shortest-path tensors in {held} are narrower than "
                              f"the {np.dtype(dtype)} model")


def propagate(sp: SPTensor, j: int, h: np.ndarray) -> np.ndarray:
    """Mean of the rows of ``h`` over the nodes at distance exactly j.

    Rows with no distance-j neighbor come out all-zero.  Linear in ``h``.
    """
    if not 0 <= j <= sp.r:
        raise ValueError(f"distance {j} outside 0..{sp.r}")
    if h.shape[0] != sp.node_count:
        raise ValueError(f"h has {h.shape[0]} rows, graph has {sp.node_count} nodes")
    return sp.mats[j] @ h


def propagate_transpose(sp: SPTensor, j: int, h: np.ndarray) -> np.ndarray:
    """Apply P_j^T, the transpose of the distance-j propagation operator;
    this is what backpropagation through :func:`propagate` needs.

    P_j^T = S_j D_j^-1, since S_j is symmetric: row i sums (1 / c_k) g_k
    over the nodes k at distance j from i, in ascending k.  One product
    with ``sp.mats[j].T``, a CSC view built at each call that shares all
    three arrays of P_j and leaves ``sp`` unchanged; the product visits
    P_j's rows, and each row's columns, in ascending order.
    """
    if not 0 <= j <= sp.r:
        raise ValueError(f"distance {j} outside 0..{sp.r}")
    return sp.mats[j].T @ h
