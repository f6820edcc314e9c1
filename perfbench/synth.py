"""Seeded synthetic datasets shaped like rows of the paper's dataset table.

The real benchmark files are not shipped with the repository, so each
workload runs on a stand-in with the same graph count, maximum and
average node count as its ``TABLE_STATS`` row in
``tests/test_acceptance.py``.  Node counts are drawn and then nudged so
the total (and hence the average) and the maximum are exact for every
seed; this keeps the amount of work per epoch nearly the same across
seeds, so seed-to-seed spread in the timings is mostly machine noise.

Each generator returns a ``pathconv.Dataset``; the caller writes it with
``save_tu_dataset`` and reads it back with ``load_tu_dataset``.
"""

from __future__ import annotations

import numpy as np

from pathconv import Dataset, Graph


def exact_node_counts(rng: np.random.Generator, draws: np.ndarray, lo: int,
                      hi: int, total: int) -> np.ndarray:
    """Clip ``draws`` to [lo, hi], force one graph to ``hi`` and move single
    nodes between graphs until the counts sum to ``total``."""
    counts = np.clip(np.rint(draws).astype(np.int64), lo, hi)
    counts[int(rng.integers(counts.size))] = hi
    top = int(np.flatnonzero(counts == hi)[0])
    while counts.sum() != total:
        i = int(rng.integers(counts.size))
        if i == top:
            continue
        step = 1 if counts.sum() < total else -1
        # Stay strictly inside (lo, hi) so the forced maximum stays unique.
        if lo <= counts[i] + step < hi:
            counts[i] += step
    return counts


def _one_hot(columns: np.ndarray, width: int) -> np.ndarray:
    features = np.zeros((columns.size, width))
    features[np.arange(columns.size), columns] = 1.0
    return features


def _full_alphabet(graphs: list[Graph], width: int) -> tuple[Graph, ...]:
    """Relabel the first ``width`` nodes of the largest graph 0..width-1 so
    every label occurs and the feature width does not depend on the seed."""
    i = max(range(len(graphs)), key=lambda g: graphs[g].node_count)
    g = graphs[i]
    cols = g.features.argmax(axis=1)
    cols[:width] = np.arange(width)
    graphs[i] = Graph(g.node_count, g.edges, _one_hot(cols, width), g.target)
    return tuple(graphs)


def _molecule(rng: np.random.Generator, n: int, target: int) -> Graph:
    """A tree of bounded degree plus a few ring-closing bonds."""
    edges = set()
    degree = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        candidates = [u for u in range(max(0, v - 6), v) if degree[u] < 3] or [v - 1]
        u = int(rng.choice(candidates))
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    for _ in range(int(rng.integers(1, 4))):  # rings: close a 6-cycle-ish loop
        v = int(rng.integers(5, n))
        u = v - 5
        if (u, v) not in edges and degree[u] < 4 and degree[v] < 4:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    # Mostly carbon; mutagenic (class 1) molecules carry more N/O (nitro groups).
    probs = ([0.62, 0.16, 0.17, 0.01, 0.01, 0.02, 0.01] if target == 1
             else [0.82, 0.06, 0.07, 0.01, 0.01, 0.02, 0.01])
    labels = rng.choice(7, size=n, p=probs)
    return Graph(n, frozenset(edges), _one_hot(labels, 7), target)


def mutag_like(seed: int, graphs: int = 188, max_nodes: int = 28,
               avg_nodes: float = 17.93) -> Dataset:
    """MUTAG shape: 188 molecules, 10..28 nodes, 7 atom labels, 125/63 classes."""
    rng = np.random.default_rng([seed, 0x4D55])
    counts = exact_node_counts(rng, rng.normal(avg_nodes, 4.6, graphs), 10,
                               max_nodes, round(graphs * avg_nodes))
    targets = np.array([1] * round(graphs * 125 / 188) + [0] * (graphs - round(graphs * 125 / 188)))
    rng.shuffle(targets)
    gs = [_molecule(rng, int(n), int(t)) for n, t in zip(counts, targets)]
    return Dataset("MUTAG", _full_alphabet(gs, 7), num_classes=2, feature_dim=7)


def _protein(rng: np.random.Generator, n: int, target: int, labels: int) -> Graph:
    """A backbone chain plus contacts between residues close along the chain,
    giving DD's average degree of about 5."""
    edges = {(i, i + 1) for i in range(n - 1)}
    window = 12
    extra = int(round(1.5 * n))  # 2 * (n - 1 + extra) / n ~= 5
    i = rng.integers(0, n, size=extra)
    j = i + rng.integers(2, window + 1, size=extra)
    keep = j < n
    edges.update(zip(i[keep].tolist(), j[keep].tolist()))
    # Amino-acid-like labels, Zipf-skewed; the two classes differ in skew.
    ranks = np.arange(1, labels + 1, dtype=float)
    weights = ranks ** -(1.1 if target else 0.9)
    cols = rng.choice(labels, size=n, p=weights / weights.sum())
    return Graph(n, frozenset(edges), _one_hot(cols, labels), target)


def dd_like(seed: int, graphs: int = 100, max_nodes: int = 5748,
            avg_nodes: float = 284.32, labels: int = 89) -> Dataset:
    """DD shape at reduced graph count: lognormal sizes, 30..5748 nodes with
    one graph at DD's maximum, 89 residue labels, two balanced classes."""
    rng = np.random.default_rng([seed, 0xDD])
    draws = rng.lognormal(np.log(200.0), 0.55, graphs)
    counts = exact_node_counts(rng, draws, 30, max_nodes, round(graphs * avg_nodes))
    targets = np.arange(graphs) % 2
    rng.shuffle(targets)
    gs = [_protein(rng, int(n), int(t), labels) for n, t in zip(counts, targets)]
    return Dataset("DD", _full_alphabet(gs, labels), num_classes=2, feature_dim=labels)


def _ego_network(rng: np.random.Generator, n: int, target: int) -> Graph:
    """An actor's ego network: the ego joined to everyone, the others grouped
    into overlapping movie casts that are cliques."""
    others = np.arange(1, n)
    edges = {(0, int(v)) for v in others}
    # Romance (class 1) casts are fewer and larger than action casts.
    cast = 9 if target else 6
    movies = max(1, int(round((n - 1) / cast)))
    member_of = rng.integers(0, movies, size=n - 1)
    groups = [others[member_of == m] for m in range(movies)]
    for m in range(movies):  # overlap: a few actors also appear in another cast
        if movies > 1:
            guest = rng.choice(others, size=min(2, n - 1), replace=False)
            groups[m] = np.union1d(groups[m], guest)
    for grp in groups:
        for a in range(grp.size):
            for b in range(a + 1, grp.size):
                edges.add((int(grp[a]), int(grp[b])))
    return Graph(n, frozenset(edges), np.ones((n, 1)), target)


def imdb_like(seed: int, graphs: int = 1000, max_nodes: int = 136,
              avg_nodes: float = 19.77) -> Dataset:
    """IMDB-BINARY shape: 1000 ego networks, 12..136 nodes, no node labels."""
    rng = np.random.default_rng([seed, 0x1DB])
    draws = 12 + rng.gamma(1.2, (avg_nodes - 12) / 1.2, graphs)
    counts = exact_node_counts(rng, draws, 12, max_nodes, round(graphs * avg_nodes))
    targets = np.arange(graphs) % 2
    rng.shuffle(targets)
    gs = [_ego_network(rng, int(n), int(t)) for n, t in zip(counts, targets)]
    return Dataset("IMDB-BINARY", tuple(gs), num_classes=2, feature_dim=1)


def tiny_like(seed: int, graphs: int = 24) -> Dataset:
    """A few small molecules, for a smoke run of the benchmark itself."""
    rng = np.random.default_rng([seed, 0x5E])
    counts = exact_node_counts(rng, rng.normal(12, 2, graphs), 10, 16, graphs * 12)
    targets = np.arange(graphs) % 2
    gs = [_molecule(rng, int(n), int(t)) for n, t in zip(counts, targets)]
    return Dataset("TINY", _full_alphabet(gs, 7), num_classes=2, feature_dim=7)
