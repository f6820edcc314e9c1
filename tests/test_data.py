"""Data model, benchmark-file ingestion, and fold construction."""

import hashlib
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data())
    def test_edges_normalized_or_rejected(self, data):
        """A set, a list and a shuffled int32 array of the same pairs give
        the same sorted, read-only int64 edges; each kind of bad pair, in
        any of those forms that can hold it, raises DatasetError."""
        n = data.draw(st.integers(2, 9))
        features = np.ones((n, 1))
        pairs = data.draw(st.lists(st.sampled_from(
            [(i, j) for i in range(n) for j in range(i + 1, n)]), unique=True))
        shuffled = np.array(data.draw(st.permutations(pairs)), dtype=np.int32).reshape(-1, 2)
        expected = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        for form in (frozenset(pairs), list(pairs), shuffled):
            edges = Graph(n, form, features, 0).edges
            assert edges.dtype == np.int64 and edges.shape == expected.shape
            assert edges.tobytes() == expected.tobytes()
            assert not edges.flags.writeable

        base = pairs or [(0, 1)]
        i, j = data.draw(st.sampled_from(base))
        bad_rows = {
            "self-loop": base + [(i, i)],
            "reversed pair": base + [(j, i)],
            "node past n": base + [(i, n)],
            "negative node": base + [(-1, j)],
            "duplicate row": base + [(i, j)],
            "three columns": [(a, b, 0) for a, b in base],
            "float pairs": [(a + 0.5, b) for a, b in base],
            "ragged pairs": base + [(i, j, 0)],
        }
        kind = data.draw(st.sampled_from(sorted(bad_rows)))
        # A set cannot hold a duplicate row, nor an array ragged rows.
        forms = {"duplicate row": (list, np.array), "ragged pairs": (frozenset, list)}.get(
            kind, (frozenset, list, np.array))
        form = data.draw(st.sampled_from(forms))
        with pytest.raises(DatasetError):
            Graph(n, form(bad_rows[kind]), features, 0)
        with pytest.raises(DatasetError):
            Graph(n, n, features, 0)  # not an iterable of pairs

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
        assert g0.edges.tolist() == [[0, 1]]
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
        assert ds.graphs[0].edges.tolist() == [[0, 1], [1, 2]]

    def test_interleaved_graph_ids_keep_global_node_order(self, tmp_path):
        write_tu_files(
            tmp_path, "MIX",
            edges_1based=[(5, 1), (2, 4), (4, 2), (3, 5)],
            indicator=[1, 2, 1, 2, 1],
            graph_labels=[0, 1],
            node_labels=[10, 20, 30, 40, 50],
        )
        ds = load_tu_dataset(tmp_path, "MIX")
        g0, g1 = ds.graphs
        # Graph 1 holds nodes 1, 3, 5 as 0, 1, 2; graph 2 holds 2, 4 as 0, 1.
        assert g0.edges.tolist() == [[0, 2], [1, 2]]
        assert g1.edges.tolist() == [[0, 1]]
        assert g0.features.argmax(axis=1).tolist() == [0, 2, 4]
        assert g1.features.argmax(axis=1).tolist() == [1, 3]

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

    def test_bad_graph_id_reports_file_line(self, tmp_path):
        write_tu_files(tmp_path, "GID", edges_1based=[(1, 2), (2, 1)],
                       indicator=[1, 1], graph_labels=[0])
        (tmp_path / "GID_graph_indicator.txt").write_text("1\n\n7\n")
        with pytest.raises(DatasetError, match="GID_graph_indicator.txt:3: graph id 7"):
            load_tu_dataset(tmp_path, "GID")

    @pytest.mark.parametrize("suffix, line", [
        ("A", "2, 99999999999999999999999"),
        ("graph_indicator", "-9223372036854775809"),
        ("graph_labels", "12345678901234567890123"),
        ("node_labels", "9223372036854775808"),
    ])
    def test_integer_outside_int64_names_file_line(self, tiny_tu_dir, suffix, line):
        path = tiny_tu_dir / f"TINY_{suffix}.txt"
        path.write_text(path.read_text() + f"\n{line}\n")
        count = len(path.read_text().splitlines())
        with pytest.raises(DatasetError, match=f"TINY_{suffix}.txt:{count}: expected .*64-bit"):
            load_tu_dataset(tiny_tu_dir, "TINY")

    def test_int64_extremes_load_as_labels(self, tmp_path):
        write_tu_files(tmp_path, "EXT", edges_1based=[],
                       indicator=[1, 2], graph_labels=[2 ** 63 - 1, -2 ** 63],
                       node_labels=[-2 ** 63, 2 ** 63 - 1])
        ds = load_tu_dataset(tmp_path, "EXT")
        assert [g.target for g in ds.graphs] == [1, 0]
        assert np.array_equal(ds.graphs[0].features, [[1.0, 0.0]])

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
            assert np.array_equal(a.edges, b.edges)
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
        assert np.array_equal(b.edges, a.edges)
        assert np.array_equal(b.features, a.features[:, columns])
        assert b.target == classes.index(a.target)


BLANKS = ["", "  ", "\t"]


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tu_datasets(), st.data())
def test_dirty_edge_lines_load_clean(caplog, dataset, data):
    """Duplicated, self-loop and blank lines, edges listed in one direction
    only, and shuffled edge lines load to the graphs of the clean files,
    and the log counts the dropped lines."""
    offsets = np.cumsum([1] + [g.node_count for g in dataset.graphs])
    lines = []
    for g, off in zip(dataset.graphs, offsets):
        for i, j in g.edges.tolist():
            direction = data.draw(st.sampled_from(["both", "forward", "backward"]))
            if direction != "backward":
                lines.append((i + off, j + off))
            if direction != "forward":
                lines.append((j + off, i + off))
    loops = data.draw(st.lists(st.integers(1, int(offsets[-1]) - 1), max_size=4))
    lines += [(u, u) for u in loops]
    if lines:
        lines += data.draw(st.lists(st.sampled_from(lines), max_size=6))
    lines = data.draw(st.permutations(lines))
    expected_loops = len(set(loops))
    expected_duplicates = len(lines) - len(set(lines))

    def with_blanks(rows: list[str]) -> str:
        for _ in range(data.draw(st.integers(0, 3))):
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(BLANKS)))
        return "".join(f"{row}\n" for row in rows)

    with tempfile.TemporaryDirectory() as tmp:
        save_tu_dataset(dataset, tmp)
        clean = load_tu_dataset(tmp, dataset.name)
        for path in Path(tmp).iterdir():
            path.write_text(with_blanks(path.read_text().splitlines()))
        (Path(tmp) / "RAND_A.txt").write_text(with_blanks([f"{u}, {v}" for u, v in lines]))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="pathconv.data"):
            dirty = load_tu_dataset(tmp, dataset.name)
    assert (dirty.num_classes, dirty.feature_dim) == (clean.num_classes, clean.feature_dim)
    for a, b in zip(clean.graphs, dirty.graphs, strict=True):
        assert ((b.node_count, b.edges.tolist(), b.target)
                == (a.node_count, a.edges.tolist(), a.target))
        assert np.array_equal(b.features, a.features)
    dropped = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
    if expected_loops or expected_duplicates:
        assert dropped == [f"RAND: dropped {expected_loops} self-loops and "
                           f"{expected_duplicates} duplicate edge lines"]
    else:
        assert dropped == []


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

    def test_partitions_are_pinned(self):
        """Every split of mixed-class datasets hashes to the digest the
        per-graph assignment loop gave, so the partitions the experiments
        and the benchmark train on cannot move silently."""
        digest = hashlib.sha256()
        gen = np.random.default_rng(2018)
        for classes, size in ((2, 188), (2, 1000), (3, 61), (6, 600)):
            targets = gen.integers(0, classes, size=size)
            ds = Dataset("MIX", tuple(path_graph(2, target=int(t)) for t in targets),
                         num_classes=classes, feature_dim=1)
            for folds in (2, 3, 10):
                for seed in (0, 1, 7):
                    for split in stratified_folds(ds, folds, seed):
                        for part in split:
                            digest.update(part.dtype.str.encode() + part.tobytes())
        assert digest.hexdigest() == (
            "fe76bddc0eac5f36f507c0cd4a1cf71f4a7f8e7e5b27bb906c8832c4b5b2f01f")


def test_dataset_summary(tiny_tu_dir):
    ds = load_tu_dataset(tiny_tu_dir, "TINY")
    stats = dataset_summary(ds)
    assert stats["num_graphs"] == 2
    assert stats["max_nodes"] == 3
    assert stats["avg_nodes"] == pytest.approx(2.5)
