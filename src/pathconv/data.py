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
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Graph:
    """A single undirected labeled graph.

    ``edges`` holds each undirected edge exactly once as a pair (i, j)
    with i < j; the implied adjacency matrix is symmetric with a zero
    diagonal.  ``features`` is an (n, d) matrix whose rows are one-hot
    after encoding.  Instances are immutable and safe to share across
    workers.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]
    features: np.ndarray
    target: int

    def __post_init__(self):
        if self.node_count < 1:
            raise DatasetError("graph must have at least one node")
        for i, j in self.edges:
            if i == j:
                raise DatasetError(f"self-loop ({i}, {i}) is not allowed")
            if not (0 <= i < j < self.node_count):
                raise DatasetError(f"edge ({i}, {j}) out of range for n={self.node_count}")
        if self.features.ndim != 2 or self.features.shape[0] != self.node_count:
            raise DatasetError(
                f"feature matrix shape {self.features.shape} does not match n={self.node_count}"
            )
        self.features.flags.writeable = False

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists derived from ``edges``."""
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.neighbors], dtype=np.int64)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (derived on demand)."""
        a = np.zeros((self.node_count, self.node_count))
        for i, j in self.edges:
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


def _read_int_lines(path: Path) -> list[int]:
    values = []
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                values.append(int(token))
            except ValueError:
                raise DatasetError(f"{path.name}:{lineno}: expected an integer, got {token!r}")
    return values


def _read_edge_lines(path: Path, total_nodes: int) -> list[tuple[int, int, int]]:
    """Parse the 1-indexed edge file into (lineno, u, v) with 0-based endpoints."""
    out = []
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split(",")
            if len(parts) != 2:
                raise DatasetError(f"{path.name}:{lineno}: expected 'u, v', got {stripped!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DatasetError(f"{path.name}:{lineno}: non-integer node index in {stripped!r}")
            if not (1 <= u <= total_nodes and 1 <= v <= total_nodes):
                raise DatasetError(
                    f"{path.name}:{lineno}: node index out of range 1..{total_nodes}"
                )
            out.append((lineno, u - 1, v - 1))
    return out


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

    indicator = _read_int_lines(fpath("graph_indicator"))
    raw_graph_labels = _read_int_lines(fpath("graph_labels"))
    total_nodes = len(indicator)
    num_graphs = len(raw_graph_labels)
    if total_nodes == 0:
        raise DatasetError(f"{fpath('graph_indicator').name}: no nodes listed")

    # Nodes of graph g, in global order; graph ids must be 1..num_graphs.
    members: list[list[int]] = [[] for _ in range(num_graphs)]
    for node, gid in enumerate(indicator):
        if not 1 <= gid <= num_graphs:
            raise DatasetError(
                f"{fpath('graph_indicator').name}:{node + 1}: graph id {gid} outside 1..{num_graphs}"
            )
        members[gid - 1].append(node)
    for gid0, nodes in enumerate(members):
        if not nodes:
            raise DatasetError(f"graph {gid0 + 1} has zero nodes")

    local_index = np.empty(total_nodes, dtype=np.int64)
    graph_of = np.empty(total_nodes, dtype=np.int64)
    for gid0, nodes in enumerate(members):
        for local, node in enumerate(nodes):
            local_index[node] = local
            graph_of[node] = gid0

    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(num_graphs)]
    seen_directed: set[int] = set()
    dropped_self_loops = 0
    dropped_duplicates = 0
    for lineno, u, v in _read_edge_lines(fpath("A"), total_nodes):
        if graph_of[u] != graph_of[v]:
            raise DatasetError(
                f"{fpath('A').name}:{lineno}: edge joins nodes of different graphs"
            )
        key = u * total_nodes + v
        if key in seen_directed:
            dropped_duplicates += 1
            continue
        seen_directed.add(key)
        if u == v:
            dropped_self_loops += 1
            continue
        g = graph_of[u]
        a, b = sorted((int(local_index[u]), int(local_index[v])))
        edge_sets[g].add((a, b))
    if dropped_self_loops or dropped_duplicates:
        log.info(
            "%s: dropped %d self-loops and %d duplicate edge lines",
            name, dropped_self_loops, dropped_duplicates,
        )

    # Class labels remapped to 0..C-1 in sorted original order.
    classes = sorted(set(raw_graph_labels))
    class_of = {c: i for i, c in enumerate(classes)}
    targets = [class_of[c] for c in raw_graph_labels]

    # Node features: one-hot over the dataset-wide label alphabet, or a
    # single constant column when the dataset carries no node labels.
    node_labels_path = fpath("node_labels")
    if node_labels_path.exists():
        node_labels = _read_int_lines(node_labels_path)
        if len(node_labels) != total_nodes:
            raise DatasetError(
                f"{node_labels_path.name}: {len(node_labels)} labels for {total_nodes} nodes"
            )
        alphabet = sorted(set(node_labels))
        label_col = {lab: i for i, lab in enumerate(alphabet)}
        feature_dim = len(alphabet)
        columns = np.array([label_col[lab] for lab in node_labels], dtype=np.int64)
    else:
        log.info("%s: no node labels, using a constant one-column encoding", name)
        feature_dim = 1
        columns = np.zeros(total_nodes, dtype=np.int64)

    if fpath("edge_labels").exists():
        log.info("%s: ignoring edge labels (%s)", name, fpath("edge_labels").name)

    graphs = []
    for gid0, nodes in enumerate(members):
        features = np.zeros((len(nodes), feature_dim))
        features[np.arange(len(nodes)), columns[nodes]] = 1.0
        graphs.append(
            Graph(
                node_count=len(nodes),
                edges=frozenset(edge_sets[gid0]),
                features=features,
                target=targets[gid0],
            )
        )
    return Dataset(name=name, graphs=tuple(graphs), num_classes=len(classes),
                   feature_dim=feature_dim)


def save_tu_dataset(dataset: Dataset, root_path: str | Path) -> None:
    """Write a dataset back to the benchmark text format.

    Each undirected edge is emitted in both directions with 1-based global
    node ids; node labels are written as the one-hot column index of each
    feature row, so a load/save/load cycle reproduces adjacency, features
    and targets exactly.
    """
    base = Path(root_path)
    base.mkdir(parents=True, exist_ok=True)
    name = dataset.name

    offsets = np.cumsum([0] + [g.node_count for g in dataset.graphs])
    with (base / f"{name}_graph_indicator.txt").open("w") as fh:
        for gid0, g in enumerate(dataset.graphs):
            fh.writelines(f"{gid0 + 1}\n" for _ in range(g.node_count))
    with (base / f"{name}_graph_labels.txt").open("w") as fh:
        fh.writelines(f"{g.target}\n" for g in dataset.graphs)
    with (base / f"{name}_node_labels.txt").open("w") as fh:
        for g in dataset.graphs:
            fh.writelines(f"{int(col)}\n" for col in g.features.argmax(axis=1))
    with (base / f"{name}_A.txt").open("w") as fh:
        for gid0, g in enumerate(dataset.graphs):
            off = int(offsets[gid0]) + 1
            directed = sorted(
                [(i + off, j + off) for i, j in g.edges]
                + [(j + off, i + off) for i, j in g.edges]
            )
            fh.writelines(f"{u}, {v}\n" for u, v in directed)


def encode_degree_features(dataset: Dataset) -> Dataset:
    """Replace node features by a one-hot encoding of node degree.

    The degree alphabet is the sorted set of distinct degrees observed
    across the whole dataset.  Intended for datasets loaded without node
    labels.
    """
    alphabet = sorted({int(d) for g in dataset.graphs for d in g.degrees()})
    col = {d: i for i, d in enumerate(alphabet)}
    graphs = []
    for g in dataset.graphs:
        features = np.zeros((g.node_count, len(alphabet)))
        for node, d in enumerate(g.degrees()):
            features[node, col[int(d)]] = 1.0
        graphs.append(Graph(g.node_count, g.edges, features, g.target))
    return Dataset(name=dataset.name, graphs=tuple(graphs),
                   num_classes=dataset.num_classes, feature_dim=len(alphabet))


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
    blocks: list[list[int]] = [[] for _ in range(folds)]
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
        for pos, g in enumerate(idx):
            blocks[(pointer + pos) % folds].append(int(g))
        pointer = (pointer + idx.size) % folds
    fold_arrays = [np.sort(np.array(b, dtype=np.int64)) for b in blocks]

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
            train = np.sort(np.concatenate(
                [fold_arrays[i] for i in range(folds) if i not in (f, (f + 1) % folds)]
            ))
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
