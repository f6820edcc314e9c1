"""Data model, benchmark-file ingestion, and fold construction."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathconv import (
    ConfigError,
    Dataset,
    DatasetError,
    Graph,
    dataset_summary,
    encode_degree_features,
    load_tu_dataset,
    save_tu_dataset,
    stratified_folds,
)

from conftest import write_tu_files
from oracles import path_graph, random_graph


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(DatasetError):
            Graph(2, frozenset({(1, 1)}), np.eye(2), 0)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(DatasetError):
            Graph(2, frozenset({(0, 2)}), np.eye(2), 0)

    def test_rejects_empty_graph(self):
        with pytest.raises(DatasetError):
            Graph(0, frozenset(), np.zeros((0, 1)), 0)

    def test_adjacency_symmetric_zero_diagonal(self):
        g = path_graph(4, target=0)
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)

    def test_features_read_only(self):
        g = path_graph(3, target=0)
        with pytest.raises(ValueError):
            g.features[0, 0] = 2.0


class TestLoadTuDataset:
    def test_tiny_fixture(self, tiny_tu_dir):
        ds = load_tu_dataset(tiny_tu_dir, "TINY")
        assert len(ds) == 2
        assert ds.num_classes == 2
        # Smallest nonempty graph: two nodes, one edge.
        g0 = ds.graphs[0]
        assert g0.node_count == 2
        assert set(g0.edges) == {(0, 1)}
        # Labels -1/1 remap to 0/1 preserving sorted order.
        assert [g.target for g in ds.graphs] == [0, 1]
        # Node labels {0, 1} one-hot encode over the whole dataset.
        assert ds.feature_dim == 2
        assert np.array_equal(g0.features, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_loaded_graphs_satisfy_invariants(self, tiny_tu_dir):
        ds = load_tu_dataset(tiny_tu_dir, "TINY")
        for g in ds.graphs:
            a = g.adjacency()
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)
            assert np.array_equal(g.features.sum(axis=1), np.ones(g.node_count))

    def test_duplicates_and_self_loops_dropped(self, tmp_path):
        write_tu_files(
            tmp_path, "DIRTY",
            edges_1based=[(1, 2), (2, 1), (1, 2), (1, 1), (2, 3), (3, 2)],
            indicator=[1, 1, 1],
            graph_labels=[5],
        )
        ds = load_tu_dataset(tmp_path, "DIRTY")
        assert set(ds.graphs[0].edges) == {(0, 1), (1, 2)}

    def test_missing_file_names_file(self, tmp_path):
        write_tu_files(tmp_path, "GONE", edges_1based=[(1, 2), (2, 1)],
                       indicator=[1, 1], graph_labels=[0])
        (tmp_path / "GONE_graph_labels.txt").unlink()
        with pytest.raises(DatasetError, match="GONE_graph_labels.txt"):
            load_tu_dataset(tmp_path, "GONE")

    def test_bad_token_reports_line_number(self, tmp_path):
        write_tu_files(tmp_path, "BAD", edges_1based=[(1, 2), (2, 1)],
                       indicator=[1, 1], graph_labels=[0])
        (tmp_path / "BAD_A.txt").write_text("1, 2\n2, x\n")
        with pytest.raises(DatasetError, match="BAD_A.txt:2"):
            load_tu_dataset(tmp_path, "BAD")

    def test_node_index_out_of_range_reports_line(self, tmp_path):
        write_tu_files(tmp_path, "OOR", edges_1based=[(1, 2), (2, 7)],
                       indicator=[1, 1], graph_labels=[0])
        with pytest.raises(DatasetError, match="OOR_A.txt:2"):
            load_tu_dataset(tmp_path, "OOR")

    def test_non_utf8_byte_names_file(self, tiny_tu_dir):
        with (tiny_tu_dir / "TINY_graph_labels.txt").open("ab") as fh:
            fh.write(b"\xff\xfe\n")
        with pytest.raises(DatasetError, match="TINY_graph_labels.txt: not UTF-8"):
            load_tu_dataset(tiny_tu_dir, "TINY")

    def test_zero_node_graph_rejected(self, tmp_path):
        # Two labels but only graph 2 has nodes.
        write_tu_files(tmp_path, "EMPTY", edges_1based=[(1, 2), (2, 1)],
                       indicator=[2, 2], graph_labels=[0, 1])
        with pytest.raises(DatasetError, match="zero nodes"):
            load_tu_dataset(tmp_path, "EMPTY")

    def test_no_node_labels_gives_constant_column(self, tmp_path):
        write_tu_files(tmp_path, "PLAIN", edges_1based=[(1, 2), (2, 1)],
                       indicator=[1, 1], graph_labels=[0])
        ds = load_tu_dataset(tmp_path, "PLAIN")
        assert ds.feature_dim == 1
        assert np.array_equal(ds.graphs[0].features, np.ones((2, 1)))

    def test_nested_directory_layout(self, tmp_path):
        write_tu_files(tmp_path / "NEST", "NEST", edges_1based=[(1, 2), (2, 1)],
                       indicator=[1, 1], graph_labels=[0])
        ds = load_tu_dataset(tmp_path, "NEST")
        assert len(ds) == 1


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tiny_tu_dir, tmp_path):
        ds = load_tu_dataset(tiny_tu_dir, "TINY")
        out = tmp_path / "again"
        save_tu_dataset(ds, out)
        ds2 = load_tu_dataset(out, "TINY")
        assert ds2.num_classes == ds.num_classes
        assert ds2.feature_dim == ds.feature_dim
        for a, b in zip(ds.graphs, ds2.graphs):
            assert a.node_count == b.node_count
            assert set(a.edges) == set(b.edges)
            assert np.array_equal(a.features, b.features)
            assert a.target == b.target

    def test_degree_encoded_round_trip(self, tmp_path):
        ds = encode_degree_features(Dataset(
            "DEG", (path_graph(3, 0), path_graph(5, 1)), num_classes=2, feature_dim=1))
        save_tu_dataset(ds, tmp_path / "deg")
        ds2 = load_tu_dataset(tmp_path / "deg", "DEG")
        for a, b in zip(ds.graphs, ds2.graphs):
            assert np.array_equal(a.features, b.features)


@st.composite
def tu_datasets(draw):
    """Small random datasets with isolated nodes and single-node graphs;
    some feature columns and classes may go unused."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    feature_dim = draw(st.integers(1, 4))
    num_classes = draw(st.integers(1, 3))
    graphs = [random_graph(rng, n=draw(st.integers(1, 9)),
                           edge_prob=draw(st.sampled_from([0.0, 0.2, 0.5])),
                           feature_dim=feature_dim,
                           target=draw(st.integers(0, num_classes - 1)))
              for _ in range(draw(st.integers(1, 6)))]
    return Dataset("RAND", tuple(graphs), num_classes=num_classes, feature_dim=feature_dim)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(tu_datasets())
def test_save_load_round_trip(dataset):
    """Loading keeps only the feature columns and classes in use, in
    their sorted order; everything else comes back exactly."""
    columns = sorted({int(c) for g in dataset.graphs for c in g.features.argmax(axis=1)})
    classes = sorted({g.target for g in dataset.graphs})
    with tempfile.TemporaryDirectory() as tmp:
        save_tu_dataset(dataset, tmp)
        loaded = load_tu_dataset(tmp, dataset.name)
    assert loaded.feature_dim == len(columns)
    assert loaded.num_classes == len(classes)
    assert len(loaded) == len(dataset)
    for a, b in zip(dataset.graphs, loaded.graphs):
        assert b.node_count == a.node_count
        assert b.edges == a.edges
        assert np.array_equal(b.features, a.features[:, columns])
        assert b.target == classes.index(a.target)


def _saved_files() -> dict[str, bytes]:
    rng = np.random.default_rng(11)
    graphs = (Graph(1, frozenset(), np.eye(3)[[1]], 0),
              random_graph(rng, n=6, edge_prob=0.4, target=1),
              random_graph(rng, n=5, edge_prob=0.2, target=0))
    with tempfile.TemporaryDirectory() as tmp:
        save_tu_dataset(Dataset("FUZZ", graphs, num_classes=2, feature_dim=3), tmp)
        return {path.name: path.read_bytes() for path in Path(tmp).iterdir()}


SAVED = _saved_files()
NON_UTF8 = [b"\xff", b"\xfe\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]


@st.composite
def corruptions(draw, data: bytes) -> bytes:
    """``data`` truncated, with one byte flipped, or with a byte sequence
    that is not UTF-8 inserted."""
    pos = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    if kind == "truncate":
        return data[:pos]
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1:]
    return data[:pos] + draw(st.sampled_from(NON_UTF8)) + data[pos:]


@pytest.mark.parametrize("file_name", sorted(SAVED))
@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.data())
def test_malformed_file_raises_only_dataset_error(file_name, data):
    corrupted = data.draw(corruptions(SAVED[file_name]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in SAVED.items():
            (Path(tmp) / name).write_bytes(corrupted if name == file_name else content)
        try:
            load_tu_dataset(tmp, "FUZZ")
        except DatasetError:
            pass


class TestDegreeFeatures:
    def test_path_graph_degrees(self):
        ds = Dataset("P", (path_graph(3, 0),), num_classes=1, feature_dim=1)
        encoded = encode_degree_features(ds)
        # Degrees (1, 2, 1) over alphabet {1, 2}.
        assert encoded.feature_dim == 2
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(encoded.graphs[0].features, expected)

    def test_isolated_node(self):
        g = Graph(1, frozenset(), np.ones((1, 1)), 0)
        encoded = encode_degree_features(Dataset("I", (g,), 1, 1))
        assert encoded.feature_dim == 1
        assert np.array_equal(encoded.graphs[0].features, np.ones((1, 1)))

    def test_rows_remain_one_hot(self, toy_dataset):
        for g in toy_dataset.graphs:
            sums = g.features.sum(axis=1)
            assert np.array_equal(sums, np.ones(g.node_count))
            assert np.all((g.features == 0) | (g.features == 1))


def _uniform_dataset(sizes_by_class):
    graphs = []
    for cls, count in enumerate(sizes_by_class):
        graphs.extend(path_graph(3 + (i % 4), target=cls) for i in range(count))
    return Dataset("SYN", tuple(graphs), num_classes=len(sizes_by_class), feature_dim=1)


class TestStratifiedFolds:
    def test_fold_sizes_188_over_10(self):
        ds = _uniform_dataset([125, 63])
        splits = stratified_folds(ds, folds=10, seed=3)
        test_blocks = [t for _, _, t in splits]
        sizes = {len(t) for t in test_blocks}
        assert sizes <= {18, 19}
        all_test = np.concatenate(test_blocks)
        assert len(all_test) == 188
        assert len(np.unique(all_test)) == 188

    def test_two_folds_of_four(self):
        ds = _uniform_dataset([2, 2])
        splits = stratified_folds(ds, folds=2, seed=0)
        targets = ds.targets()
        for _, _, test in splits:
            assert sorted(targets[test]) == [0, 1]

    def test_each_split_is_disjoint_cover(self):
        ds = _uniform_dataset([30, 14])
        for train, val, test in stratified_folds(ds, folds=4, seed=9):
            combined = np.concatenate([train, val, test])
            assert len(combined) == len(ds)
            assert len(np.unique(combined)) == len(ds)

    def test_per_class_proportions_within_one(self):
        ds = _uniform_dataset([47, 22, 11])
        targets = ds.targets()
        for folds in (2, 5, 10):
            splits = stratified_folds(ds, folds=folds, seed=1)
            for cls, count in enumerate([47, 22, 11]):
                per_fold = [int(np.sum(targets[t] == cls)) for _, _, t in splits]
                assert max(per_fold) - min(per_fold) <= 1

    def test_determinism(self):
        ds = _uniform_dataset([20, 20])
        a = stratified_folds(ds, folds=5, seed=42)
        b = stratified_folds(ds, folds=5, seed=42)
        for (t1, v1, s1), (t2, v2, s2) in zip(a, b):
            assert np.array_equal(t1, t2)
            assert np.array_equal(v1, v2)
            assert np.array_equal(s1, s2)

    def test_seed_changes_partition(self):
        ds = _uniform_dataset([20, 20])
        a = stratified_folds(ds, folds=5, seed=1)
        b = stratified_folds(ds, folds=5, seed=2)
        assert any(not np.array_equal(s1[2], s2[2]) for s1, s2 in zip(a, b))

    def test_small_class_rejected(self):
        ds = _uniform_dataset([10, 3])
        with pytest.raises(ConfigError):
            stratified_folds(ds, folds=5, seed=0)

    def test_single_fold_rejected(self):
        ds = _uniform_dataset([4, 4])
        with pytest.raises(ConfigError):
            stratified_folds(ds, folds=1, seed=0)


def test_dataset_summary(tiny_tu_dir):
    ds = load_tu_dataset(tiny_tu_dir, "TINY")
    stats = dataset_summary(ds)
    assert stats["num_graphs"] == 2
    assert stats["max_nodes"] == 3
    assert stats["avg_nodes"] == pytest.approx(2.5)
