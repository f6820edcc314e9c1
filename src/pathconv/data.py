"""Graph data model and benchmark-format ingestion.

Datasets follow the plain-text benchmark layout: a directory holding
``<name>_A.txt`` (comma-separated edge list, 1-indexed, typically listing
each undirected edge in both directions), ``<name>_graph_indicator.txt``
(graph id per node line), ``<name>_graph_labels.txt`` (class label per
graph line) and optionally ``<name>_node_labels.txt`` (integer label per
node line).  Everything is converted to 0-based indices at this boundary.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Graph:
    """A single undirected labeled graph.

    ``edges`` is a read-only (m, 2) int64 array: each undirected edge once
    as a row (i, j) with i < j, rows ascending.  The constructor takes any
    iterable of integer pairs and raises DatasetError for a self-loop, a
    reversed, out-of-range or duplicate pair, or input that is not (m, 2)
    integers.  ``features`` is an (n, d) matrix whose rows are one-hot
    after encoding.  Instances are immutable and safe to share across
    workers; they compare by identity.
    """

    node_count: int
    edges: np.ndarray
    features: np.ndarray
    target: int

    def __post_init__(self):
        if self.node_count < 1:
            raise DatasetError("graph must have at least one node")
        try:
            edges = np.asarray(self.edges if isinstance(self.edges, np.ndarray)
                               else list(self.edges) or np.empty((0, 2), dtype=np.int64))
        except (TypeError, ValueError) as exc:  # not iterable, or ragged pairs
            raise DatasetError(f"edges must be (m, 2) integers: {exc}") from None
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
            raise DatasetError(f"edges must be (m, 2) integers, got {edges.dtype} {edges.shape}")
        edges = edges.astype(np.int64, copy=False)
        i, j = edges.T
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= self.node_count))
        if bad.size:
            i, j = edges[bad[0]].tolist()
            raise DatasetError(f"self-loop ({i}, {i}) is not allowed" if i == j
                               else f"edge ({i}, {j}) out of range for n={self.node_count}")
        key = i * self.node_count + j
        if (key[1:] <= key[:-1]).any():
            order = np.argsort(key, kind="stable")
            edges, key = edges[order], key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                raise DatasetError(f"edge {tuple(edges[dup[0]].tolist())} listed twice")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        if self.features.ndim != 2 or self.features.shape[0] != self.node_count:
            raise DatasetError(
                f"feature matrix shape {self.features.shape} does not match n={self.node_count}"
            )
        self.features.flags.writeable = False

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.node_count)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (derived on demand)."""
        a = np.zeros((self.node_count, self.node_count))
        i, j = self.edges.T
        a[i, j] = a[j, i] = 1.0
        return a


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of graphs sharing one feature encoding."""

    name: str
    graphs: tuple[Graph, ...]
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        for g in self.graphs:
            if g.feature_dim != self.feature_dim:
                raise DatasetError("all graphs must share the same feature dimension")
            if not 0 <= g.target < self.num_classes:
                raise DatasetError(f"target {g.target} outside 0..{self.num_classes - 1}")

    def __len__(self) -> int:
        return len(self.graphs)

    def targets(self) -> np.ndarray:
        return np.array([g.target for g in self.graphs], dtype=np.int64)


@contextmanager
def _open_utf8(path: Path):
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 raises
    DatasetError naming the file."""
    try:
        with path.open(encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path.name}: not UTF-8 text ({exc.reason})") from None


def _read_rows(path: Path, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-blank lines of ``path``, each ``width`` comma-separated
    integers: their 1-based line numbers in the file, and the values as
    an int64 ``(lines, width)`` array.  A malformed line, or an integer
    outside int64, raises DatasetError naming the file and the line."""
    with _open_utf8(path) as fh:
        lines = fh.read().split("\n")
    filled = np.fromiter(map(bool, map(str.strip, lines)), dtype=bool, count=len(lines))
    linenos = np.flatnonzero(filled) + 1
    rows = list(compress(lines, filled))
    if not rows:
        return linenos, np.empty((0, width), dtype=np.int64)
    try:
        values = np.loadtxt(rows, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        if values.shape[1] == width:
            return linenos, values
    except ValueError:
        pass
    # The bulk parse names no file line: find the first line that breaks the format.
    expected = f"expected {width} comma-separated 64-bit integer(s)"
    for lineno, line in zip(linenos.tolist(), rows):
        fields = line.split(",")
        try:
            fits = len(fields) == width and all(-2**63 <= int(f) < 2**63 for f in fields)
        except ValueError:
            fits = False
        if not fits:
            raise DatasetError(f"{path.name}:{lineno}: {expected}, got {line.strip()!r}")
    raise DatasetError(f"{path.name}: {expected} per line")


def _distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted, each value once.  ``np.unique`` does the same
    through a hash table, many times slower on millions of int64 keys."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def load_tu_dataset(root_path: str | Path, name: str) -> Dataset:
    """Load a benchmark dataset from its standard text files.

    Looks for the files either directly under ``root_path`` or under
    ``root_path/<name>/``.  Edges are symmetrized, deduplicated and
    stripped of self-loops; graph class labels are remapped to 0..C-1
    preserving their sorted original order; node labels (when present)
    are one-hot encoded over the sorted alphabet observed across the
    whole dataset.  Datasets without node labels get a constant single
    one-hot column (see :func:`encode_degree_features` for the usual
    follow-up on such datasets).
    """
    root = Path(root_path)
    base = root / name if (root / name / f"{name}_A.txt").exists() else root

    def fpath(suffix: str) -> Path:
        return base / f"{name}_{suffix}.txt"

    for suffix in ("A", "graph_indicator", "graph_labels"):
        if not fpath(suffix).exists():
            raise DatasetError(f"missing dataset file: {fpath(suffix)}")

    indicator_lines, indicator = _read_rows(fpath("graph_indicator"), 1)
    _, raw_graph_labels = _read_rows(fpath("graph_labels"), 1)
    total_nodes = indicator.shape[0]
    num_graphs = raw_graph_labels.shape[0]
    if total_nodes == 0:
        raise DatasetError(f"{fpath('graph_indicator').name}: no nodes listed")

    # Graph ids must be 1..num_graphs, and every graph must own a node.
    graph_of = indicator[:, 0] - 1
    bad = np.flatnonzero((graph_of < 0) | (graph_of >= num_graphs))
    if bad.size:
        raise DatasetError(
            f"{fpath('graph_indicator').name}:{indicator_lines[bad[0]]}: "
            f"graph id {indicator[bad[0], 0]} outside 1..{num_graphs}"
        )
    sizes = np.bincount(graph_of, minlength=num_graphs)
    if not sizes.all():
        raise DatasetError(f"graph {np.argmin(sizes) + 1} has zero nodes")
    # Each node's position once nodes are grouped by graph, each graph's
    # nodes kept in global order: graph g holds offsets[g]:offsets[g + 1].
    order = np.argsort(graph_of, kind="stable")
    position = np.empty(total_nodes, dtype=np.int64)
    position[order] = np.arange(total_nodes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    edge_lines, uv = _read_rows(fpath("A"), 2)
    uv -= 1
    bad = np.flatnonzero(((uv < 0) | (uv >= total_nodes)).any(axis=1))
    if bad.size:
        raise DatasetError(
            f"{fpath('A').name}:{edge_lines[bad[0]]}: node index out of range 1..{total_nodes}"
        )
    bad = np.flatnonzero(graph_of[uv[:, 0]] != graph_of[uv[:, 1]])
    if bad.size:
        raise DatasetError(
            f"{fpath('A').name}:{edge_lines[bad[0]]}: edge joins nodes of different graphs"
        )
    directed = _distinct(uv[:, 0] * total_nodes + uv[:, 1])
    u, v = np.divmod(directed, total_nodes)
    self_loop = u == v
    dropped_self_loops = np.count_nonzero(self_loop)
    dropped_duplicates = uv.shape[0] - directed.size
    if dropped_self_loops or dropped_duplicates:
        log.info(
            "%s: dropped %d self-loops and %d duplicate edge lines",
            name, dropped_self_loops, dropped_duplicates,
        )
    # Each undirected edge once as sorted (lo, hi) positions, so the edges
    # of graph g form the run edge_offsets[g]:edge_offsets[g + 1]; shifted
    # to the graph's own node ids, that run is its sorted edge array.
    a, b = position[u[~self_loop]], position[v[~self_loop]]
    lo, hi = np.divmod(_distinct(np.minimum(a, b) * total_nodes + np.maximum(a, b)), total_nodes)
    edge_offsets = np.searchsorted(lo, offsets)
    edges = np.stack((lo, hi), 1) - np.repeat(offsets[:-1], np.diff(edge_offsets))[:, None]

    # Class labels remapped to 0..C-1 in sorted original order.
    classes, targets = np.unique(raw_graph_labels[:, 0], return_inverse=True)

    # Node features: one-hot over the dataset-wide label alphabet, or a
    # single constant column when the dataset carries no node labels.
    node_labels_path = fpath("node_labels")
    if node_labels_path.exists():
        _, node_labels = _read_rows(node_labels_path, 1)
        if node_labels.shape[0] != total_nodes:
            raise DatasetError(
                f"{node_labels_path.name}: {node_labels.shape[0]} labels for {total_nodes} nodes"
            )
        alphabet, columns = np.unique(node_labels[:, 0], return_inverse=True)
        feature_dim = alphabet.size
    else:
        log.info("%s: no node labels, using a constant one-column encoding", name)
        feature_dim = 1
        columns = np.zeros(total_nodes, dtype=np.int64)
    features = np.eye(feature_dim)[columns[order]]

    if fpath("edge_labels").exists():
        log.info("%s: ignoring edge labels (%s)", name, fpath("edge_labels").name)

    graphs = tuple(
        Graph(
            node_count=int(sizes[g]),
            edges=edges[e0:e1],
            features=features[offsets[g]:offsets[g + 1]],
            target=int(targets[g]),
        )
        for g, (e0, e1) in enumerate(zip(edge_offsets[:-1], edge_offsets[1:]))
    )
    return Dataset(name=name, graphs=graphs, num_classes=classes.size, feature_dim=feature_dim)


def save_tu_dataset(dataset: Dataset, root_path: str | Path) -> None:
    """Write a dataset back to the benchmark text format.

    Each undirected edge is emitted in both directions with 1-based global
    node ids; node labels are written as the one-hot column index of each
    feature row, so a load/save/load cycle reproduces adjacency, features
    and targets exactly.
    """
    base = Path(root_path)
    base.mkdir(parents=True, exist_ok=True)
    graphs = dataset.graphs
    sizes = [g.node_count for g in graphs]
    first_ids = np.cumsum([1] + sizes[:-1])
    edges = np.concatenate([g.edges + first for g, first in zip(graphs, first_ids)])
    directed = np.concatenate([edges, edges[:, ::-1]])

    def write(suffix: str, rows) -> None:
        np.savetxt(base / f"{dataset.name}_{suffix}.txt", rows, fmt="%d", delimiter=", ")

    write("graph_indicator", np.repeat(np.arange(1, len(graphs) + 1), sizes))
    write("graph_labels", [g.target for g in graphs])
    write("node_labels", np.concatenate([g.features.argmax(axis=1) for g in graphs]))
    write("A", directed[np.lexsort(directed.T[::-1])])


def encode_degree_features(dataset: Dataset) -> Dataset:
    """Replace node features by a one-hot encoding of node degree.

    The degree alphabet is the sorted set of distinct degrees observed
    across the whole dataset.  Intended for datasets loaded without node
    labels.
    """
    alphabet, columns = np.unique(np.concatenate([g.degrees() for g in dataset.graphs]),
                                  return_inverse=True)
    features = np.eye(alphabet.size)[columns]
    offsets = np.cumsum([0] + [g.node_count for g in dataset.graphs])
    graphs = tuple(Graph(g.node_count, g.edges, features[offsets[i]:offsets[i + 1]], g.target)
                   for i, g in enumerate(dataset.graphs))
    return Dataset(name=dataset.name, graphs=graphs,
                   num_classes=dataset.num_classes, feature_dim=alphabet.size)


def stratified_folds(
    dataset: Dataset, folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Partition graph indices into stratified (train, validation, test) splits.

    The dataset is split into ``folds`` disjoint test blocks whose
    per-class counts deviate from an even spread by at most one example.
    For split f the test block is fold f, the validation block is fold
    (f+1) mod folds, and the training block is everything else.  With
    exactly two folds the single remaining fold is instead subdivided
    (stratified) into training and validation halves so the training
    block is never empty.  The same (dataset, folds, seed) always yields
    identical partitions.
    """
    if folds < 2:
        raise ConfigError(f"need at least 2 folds, got {folds}")
    targets = dataset.targets()
    rng = np.random.default_rng(seed)
    fold_of = np.empty(targets.size, dtype=np.int64)
    # A rotation pointer shared across classes spreads the per-class
    # remainders so overall fold sizes also differ by at most one.
    pointer = int(rng.integers(folds))
    for cls in range(dataset.num_classes):
        idx = np.flatnonzero(targets == cls)
        if idx.size < folds:
            raise ConfigError(
                f"class {cls} has {idx.size} graphs, fewer than {folds} folds"
            )
        rng.shuffle(idx)
        fold_of[idx] = (pointer + np.arange(idx.size)) % folds
        pointer = (pointer + idx.size) % folds
    fold_arrays = [np.flatnonzero(fold_of == f) for f in range(folds)]

    splits = []
    for f in range(folds):
        test = fold_arrays[f]
        if folds == 2:
            pool = fold_arrays[1 - f]
            sub_rng = np.random.default_rng([seed, f])
            val_parts = []
            train_parts = []
            for cls in range(dataset.num_classes):
                members = pool[targets[pool] == cls]
                sub_rng.shuffle(members)
                half = members.size // 2
                val_parts.append(members[:half])
                train_parts.append(members[half:])
            val = np.sort(np.concatenate(val_parts))
            train = np.sort(np.concatenate(train_parts))
        else:
            val = fold_arrays[(f + 1) % folds]
            train = np.flatnonzero((fold_of != f) & (fold_of != (f + 1) % folds))
        splits.append((train, val, test))
    return splits


def dataset_summary(dataset: Dataset) -> dict:
    """Headline statistics in the usual benchmark-table form."""
    counts = np.array([g.node_count for g in dataset.graphs])
    edge_counts = np.array([len(g.edges) for g in dataset.graphs])
    return {
        "name": dataset.name,
        "num_graphs": len(dataset.graphs),
        "num_classes": dataset.num_classes,
        "feature_dim": dataset.feature_dim,
        "max_nodes": int(counts.max()),
        "avg_nodes": float(counts.mean()),
        "avg_edges": float(edge_counts.mean()),
    }
