"""Whole-network behavior: shapes, invariances, determinism, checkpoints."""

import dataclasses
import io
import json
import re
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from pathconv import (
    ConfigError,
    Dataset,
    Graph,
    Model,
    ModelConfig,
    compute_sp_tensor,
    load_checkpoint,
    load_tu_dataset,
    model_forward,
    resolve_sortpool_k,
    save_checkpoint,
    save_tu_dataset,
)
from pathconv.model import MODES, distance_cutoff
from pathconv.shortest_paths import batch_sp_tensors, sp_tensors

from oracles import (
    floyd_warshall_distances,
    path_graph,
    random_graph,
    readout_probabilities,
    sortpool_block,
)

SMALL = dict(conv_layers=2, channels=4, sortpool_k=10, conv1_filters=3,
             conv2_filters=4, dense_width=8, dropout_rate=0.0)


def build(r=2, mode="parametric", feature_dim=3, num_classes=2, seed=5, **kw):
    params = {**SMALL, **kw}
    config = ModelConfig(r=r, mode=mode, seed=seed, **params)
    return Model(config, feature_dim, num_classes)


def permute_graph(graph: Graph, perm: np.ndarray) -> Graph:
    edges = frozenset(tuple(sorted((int(perm[i]), int(perm[j]))))
                      for i, j in graph.edges)
    features = np.empty_like(graph.features)
    features[perm] = graph.features
    return Graph(graph.node_count, edges, features, graph.target)


class TestForward:
    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            g = random_graph(rng, n=int(rng.integers(3, 15)), edge_prob=0.3)
            r = int(rng.integers(0, 3))
            model = build(r=r, seed=trial)
            sp = compute_sp_tensor(g, r)
            probs = model_forward(g, sp, model)
            assert probs.shape == (2,)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_zero_readout_gives_uniform(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, n=8, edge_prob=0.4)
        model = build(num_classes=4)
        for layer in (model.conv1, model.conv2, model.dense1, model.dense2):
            for _, p in layer.parameters():
                p[...] = 0.0
        sp = compute_sp_tensor(g, model.config.r)
        probs = model_forward(g, sp, model)
        assert np.allclose(probs, 0.25, rtol=0, atol=1e-15)

    def test_feature_dim_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, n=6, edge_prob=0.4, feature_dim=5)
        model = build(feature_dim=3)
        sp = compute_sp_tensor(g, model.config.r)
        with pytest.raises(ValueError, match="feature dimension"):
            model_forward(g, sp, model)

    @pytest.mark.parametrize("shape", [(1, 3), (3,), (6, 3, 1), (7, 3)])
    def test_feature_rows_not_one_per_node_rejected(self, shape):
        """At r = 0 no operator product meets the rows, so one row would
        broadcast over all six nodes; a 1-D input has no width."""
        model = build(r=0)
        sp = compute_sp_tensor(path_graph(6, target=0), 0)
        with pytest.raises(ValueError, match=r"feature shape .* does not match "
                                             r"\(nodes, feature dimension\) = \(6, 3\)"):
            model.forward(sp, np.ones(shape))

    def test_sp_tensor_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, n=6, edge_prob=0.4)
        other = random_graph(rng, n=7, edge_prob=0.4)
        model = build()
        sp = compute_sp_tensor(other, model.config.r)
        with pytest.raises(ConfigError, match="do not fit"):
            model_forward(g, sp, model)

    def test_batched_sp_tensor_rejected(self):
        """A tensor that joins two 6-node paths has the row count of one
        12-node path, but describes two graphs."""
        g = path_graph(12, target=0, feature_dim=3)
        sp = batch_sp_tensors([compute_sp_tensor(path_graph(6, target=0), 2)] * 2)
        assert sp.node_count == g.node_count
        with pytest.raises(ConfigError, match="do not fit"):
            model_forward(g, sp, build())

    @pytest.mark.parametrize("mode, r, built", [("parametric", 2, 1), ("parametric", 1, 0),
                                                ("dgcnn_baseline", 2, 0)])
    def test_tensor_short_of_cutoff_rejected(self, mode, r, built):
        """The tensor must reach the distance the model reads: r in
        parametric mode, 1 in baseline mode."""
        g = path_graph(6, target=0, feature_dim=3)
        model = build(r=r, mode=mode)
        cutoff = distance_cutoff(model.config)
        with pytest.raises(ConfigError, match=f"stop short of distance {cutoff}"):
            model_forward(g, compute_sp_tensor(g, built), model)

    def test_tensor_past_cutoff_accepted(self):
        """Baseline mode reads distance 1 alone, so an r = 2 tensor gives
        what an r = 1 tensor gives, bit for bit."""
        g = random_graph(np.random.default_rng(6), n=9, edge_prob=0.3)
        model = build(mode="dgcnn_baseline")
        assert np.array_equal(model_forward(g, compute_sp_tensor(g, 2), model),
                              model_forward(g, compute_sp_tensor(g, 1), model))

    def test_dropout_runs_only_with_rng(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, n=6, edge_prob=0.4)
        model = build(dropout_rate=0.5)
        sp = compute_sp_tensor(g, model.config.r)
        plain, cache = model.forward(sp, g.features)
        assert cache["dropout_mask"] is None
        dropped, cache = model.forward(sp, g.features, rng=rng)
        assert cache["dropout_mask"] is not None
        assert not np.array_equal(dropped, plain)

    def test_forward_backward_leave_parameters_unchanged(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, n=9, edge_prob=0.35)
        model = build()
        sp = compute_sp_tensor(g, model.config.r)
        before = [p.copy() for _, p in model.parameters()]
        model.loss_and_gradients(sp, g.features, target=1)
        for (_, p), b in zip(model.parameters(), before):
            assert np.array_equal(p, b)


@pytest.mark.parametrize("with_rng", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_forward_matches_readout_oracle(mode, with_rng):
    """Probabilities equal a plain numpy read-out of the pooled blocks, so
    the read-out layers run in the documented order.  The dropout rate is
    0, so passing a generator gives the same probabilities."""
    rng = np.random.default_rng(8)
    graphs = [random_graph(rng, n=n, edge_prob=0.3) for n in (6, 14, 11)]
    model = build(mode=mode)
    r = distance_cutoff(model.config)
    sp = batch_sp_tensors([compute_sp_tensor(g, r) for g in graphs])
    x = np.vstack([g.features for g in graphs])
    probs, _ = model.forward(sp, x, rng=rng if with_rng else None)

    hcat = np.hstack(model.conv_activations(sp, x))
    bounds = sp.offsets
    pooled = np.stack([sortpool_block(hcat[lo:hi], model.config.sortpool_k)
                       for lo, hi in zip(bounds[:-1], bounds[1:])])
    expected = readout_probabilities(pooled, dict(model.parameters()))
    assert np.allclose(probs, expected, rtol=0, atol=1e-12)


class TestWidthLaw:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_parametric_width(self, r):
        model = build(r=r)
        c = model.config.channels
        for conv in model.graph_convs:
            assert conv.out_width == (r + 1) * c
        assert model.concat_width == model.config.conv_layers * (r + 1) * c

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_baseline_width_is_r_independent(self, r):
        model = build(r=r, mode="dgcnn_baseline")
        for conv in model.graph_convs:
            assert conv.out_width == model.config.channels


class TestPermutationInvariance:
    def test_fifty_random_graphs(self):
        rng = np.random.default_rng(11)
        model = build(seed=23)
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 500:
            attempts += 1
            n = int(rng.integers(4, 16))
            g = random_graph(rng, n=n, edge_prob=0.35)
            sp = compute_sp_tensor(g, model.config.r)
            keys = np.sort(np.hstack(model.conv_activations(sp, g.features))[:, -1])
            if n > 1 and np.diff(keys).min() < 1e-8:
                continue  # invariance only promised for distinct sort keys
            perm = rng.permutation(n)
            pg = permute_graph(g, perm)
            psp = compute_sp_tensor(pg, model.config.r)
            p1 = model_forward(g, sp, model)
            p2 = model_forward(pg, psp, model)
            assert np.all(np.abs(p1 - p2) < 1e-10), (n, p1, p2)
            checked += 1
        assert checked == 50


class TestReceptiveFieldLocality:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_distant_nodes_bitwise_unchanged(self, r):
        rng = np.random.default_rng(17)
        for _ in range(6):
            n = int(rng.integers(8, 16))
            g = random_graph(rng, n=n, edge_prob=0.15)
            model = build(r=r, conv_layers=3, seed=3)
            sp = compute_sp_tensor(g, r)
            dist = floyd_warshall_distances(n, g.edges)

            u = int(rng.integers(n))
            x2 = g.features.copy()
            x2[u] += rng.normal(size=x2.shape[1])

            base = model.conv_activations(sp, g.features)
            bumped = model.conv_activations(sp, x2)
            for layer_index, (a, b) in enumerate(zip(base, bumped), start=1):
                reach = layer_index * r
                outside = [v for v in range(n) if dist[u, v] > reach]
                for v in outside:
                    assert np.array_equal(a[v], b[v]), (r, layer_index, u, v)

    def test_within_reach_changes_are_possible(self):
        # Sanity: the perturbation does propagate inside the bound.
        rng = np.random.default_rng(19)
        g = random_graph(rng, n=6, edge_prob=0.9)
        model = build(r=1, conv_layers=3, seed=3)
        sp = compute_sp_tensor(g, 1)
        x2 = g.features.copy()
        x2[0] += 1.0
        base = model.conv_activations(sp, g.features)
        bumped = model.conv_activations(sp, x2)
        assert not np.array_equal(base[0], bumped[0])


class TestDeterminism:
    def test_identical_configs_give_identical_trajectories(self):
        rng = np.random.default_rng(21)
        graphs = [random_graph(rng, n=8, edge_prob=0.4, target=i % 2) for i in range(4)]
        sps = [compute_sp_tensor(g, 2) for g in graphs]

        def run():
            model = build(seed=77)
            opt = model.make_optimizer()
            for _ in range(5):
                model.zero_gradients()
                for g, sp in zip(graphs, sps):
                    model.loss_and_gradients(sp, g.features, g.target)
                model.scale_gradients(1.0 / len(graphs))
                opt.step(model.gradients())
            return [p.copy() for _, p in model.parameters()]

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_set_state_of_wrong_length_rejected(self):
        model = build()
        state = model.get_state()
        for wrong in (state[:-1], state + state[:1]):
            with pytest.raises(ValueError, match="state does not match parameter list"):
                model.set_state(wrong)

    def test_different_seeds_differ(self):
        a = build(seed=1).parameters()
        b = build(seed=2).parameters()
        assert any(not np.array_equal(p, q) for (_, p), (_, q) in zip(a, b))


def test_training_pass_peak_memory_per_node(tmp_path):
    """One training pass over a 3000-node graph, with 89 label columns as
    the loader stores them, peaks within 6.0 KB per node traced at r = 2
    (5.65 KB measured).  A float64 copy of the one-byte rows held for the
    first convolution (712 bytes per node, 6.36 KB in all) would break it,
    and so would a gradient as wide as the concatenated layer outputs
    (2.3 KB per node)."""
    idx = np.arange(3000).reshape(60, 50)  # a triangulated grid
    edges = np.concatenate([np.stack((a.ravel(), b.ravel()), 1) for a, b in (
        (idx[:, :-1], idx[:, 1:]), (idx[:-1], idx[1:]), (idx[:-1, :-1], idx[1:, 1:]))])
    labels = np.random.default_rng(0).integers(89, size=idx.size)
    labels[:89] = np.arange(89)
    save_tu_dataset(Dataset("GRID", (Graph(idx.size, edges, np.eye(89)[labels], 0),), 1, 89),
                    tmp_path)
    (g,) = load_tu_dataset(tmp_path, "GRID").graphs
    model = Model(ModelConfig(r=2, sortpool_k=100), g.feature_dim, 2)
    sp = sp_tensors([g], 2)[0]
    tracemalloc.start()
    try:
        model.loss_and_gradients(sp, g.features, g.target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6000 * g.node_count, f"{peak / g.node_count:.0f} bytes per node"


class TestFilterViews:
    """Each graph convolution stores its filter [W_0 ... W_r] as one
    matrix; the ``gconvI.wJ`` parameters are its column blocks, so every
    writer of parameters changes ``weight`` through them."""

    @staticmethod
    def blocks(pairs, i):
        return [a for name, a in pairs if name.startswith(f"gconv{i}.")]

    @pytest.mark.parametrize("mode", MODES)
    def test_parameters_are_views_of_the_filter(self, mode):
        model = build(mode=mode)
        for i, conv in enumerate(model.graph_convs):
            params = self.blocks(model.parameters(), i)
            assert np.array_equal(np.hstack(params), conv.weight)
            assert all(np.shares_memory(p, conv.weight) for p in params)
            assert all(np.shares_memory(g, conv.grad_weight)
                       for g in self.blocks(model.gradients(), i))

    def test_adam_step_changes_the_filter(self):
        model = build()
        before = [conv.weight.copy() for conv in model.graph_convs]
        for _, g in model.gradients():
            g[...] = 1.0
        model.make_optimizer().step(model.gradients())
        # Adam's first step moves every entry by the learning rate.
        for conv, w in zip(model.graph_convs, before):
            assert np.allclose(conv.weight, w - model.config.learning_rate, rtol=0, atol=1e-10)

    def test_set_state_changes_the_filter(self):
        model = build()
        before = [conv.weight.copy() for conv in model.graph_convs]
        model.set_state([s + 1.0 for s in model.get_state()])
        for conv, w in zip(model.graph_convs, before):
            assert np.array_equal(conv.weight, w + 1.0)

    def test_load_checkpoint_changes_the_filter(self, tmp_path):
        model = build()
        for conv in model.graph_convs:
            conv.weight += 1.0
        save_checkpoint(model, tmp_path / "model.npz")
        loaded = load_checkpoint(tmp_path / "model.npz")
        for conv, fresh, saved in zip(loaded.graph_convs, build().graph_convs,
                                      model.graph_convs):
            assert np.array_equal(conv.weight, saved.weight)
            assert not np.array_equal(conv.weight, fresh.weight)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build(seed=9)
        # Perturb away from the deterministic init so the test is not vacuous.
        rng = np.random.default_rng(10)
        for _, p in model.parameters():
            p += rng.normal(scale=0.1, size=p.shape)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.num_classes == model.num_classes
        for (name, p), (name2, q) in zip(model.parameters(), loaded.parameters()):
            assert name == name2
            assert p.dtype == q.dtype
            assert np.array_equal(p, q)

    def test_baseline_round_trip_names_every_weight_w0(self, tmp_path):
        model = build(mode="dgcnn_baseline", seed=9)
        rng = np.random.default_rng(11)
        for _, p in model.parameters():
            p += rng.normal(scale=0.1, size=p.shape)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as data:
            stored = sorted(name for name in data if name.startswith("gconv"))
        assert stored == ["gconv0.w0", "gconv1.w0"]
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (name, p), (name2, q) in zip(model.parameters(), loaded.parameters()):
            assert name == name2
            assert np.array_equal(p, q)

    @staticmethod
    def rewrite(path, edit):
        """Save a checkpoint, let ``edit`` change its decoded metadata and its
        entries, write it back.  The metadata is encoded again unless
        ``edit`` replaced or removed the ``__meta__`` entry itself."""
        save_checkpoint(build(seed=9), path)
        with np.load(path) as data:
            entries = dict(data)
        stored = entries["__meta__"]
        meta = json.loads(str(stored))
        edit(meta, entries)
        if entries.get("__meta__") is stored:
            entries["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **entries)

    def test_missing_meta_entry_is_config_error(self, tmp_path):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda _, entries: entries.pop("__meta__"))
        with pytest.raises(ConfigError, match="__meta__"):
            load_checkpoint(path)

    @pytest.mark.parametrize("raw", ["{config", "[1, 2]"])
    def test_meta_not_json_object_is_config_error(self, tmp_path, raw):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda _, entries: entries.update(__meta__=np.array(raw)))
        with pytest.raises(ConfigError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config", "feature_dim", "num_classes"])
    def test_missing_meta_key_is_config_error(self, tmp_path, key):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda meta, _: meta.pop(key))
        with pytest.raises(ConfigError, match=key):
            load_checkpoint(path)

    def test_array_the_model_lacks_is_config_error(self, tmp_path):
        """Only ``__meta__`` and the model's parameters may be stored."""
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda _, entries: entries.update({"gconv0.w7": entries["gconv0.w0"]}))
        with pytest.raises(ConfigError, match=r"arrays the model lacks: gconv0\.w7$"):
            load_checkpoint(path)

    def test_unknown_config_key_is_config_error(self, tmp_path):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda meta, _: meta["config"].update(conv2_width=5))
        with pytest.raises(ConfigError, match="conv2_width"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("r", "2"), ("sortpool_k", 10.0),
                                            ("dropout_rate", "0.5"), ("mode", 1),
                                            ("epochs", True), ("seed", None)])
    def test_wrongly_typed_config_value_is_config_error(self, tmp_path, key, value):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda meta, _: meta["config"].update({key: value}))
        with pytest.raises(ConfigError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["feature_dim", "num_classes"])
    def test_wrongly_typed_dimension_is_config_error(self, tmp_path, key):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda meta, _: meta.update({key: "3"}))
        with pytest.raises(ConfigError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("config", [[], 5, "r=2", None])
    def test_config_not_json_object_is_config_error(self, tmp_path, config):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda meta, _: meta.update(config=config))
        with pytest.raises(ConfigError, match="config .* is not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [-2, 0])
    def test_non_positive_feature_dim_is_config_error(self, tmp_path, value):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda meta, _: meta.update(feature_dim=value))
        with pytest.raises(ConfigError, match="feature_dim"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [str, complex])
    def test_parameter_of_non_real_dtype_is_config_error(self, tmp_path, dtype):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda _, entries: entries.update(
            {"dense2.bias": entries["dense2.bias"].astype(dtype)}))
        with pytest.raises(ConfigError, match="dense2.bias"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.float32])
    def test_parameter_of_real_dtype_loads(self, tmp_path, dtype):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda _, entries: entries.update(
            {"dense2.bias": entries["dense2.bias"].astype(dtype)}))
        assert load_checkpoint(path).dense2.bias.dtype == np.float64

    def test_int_for_float_field_loads(self, tmp_path):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda meta, _: meta["config"].update(dropout_rate=0,
                                                                 sortpool_k=10))
        assert load_checkpoint(path).config.dropout_rate == 0

    def test_object_array_parameter_is_config_error(self, tmp_path):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda _, entries: entries.update(
            {"dense2.bias": np.array([1.0, None], dtype=object)}))
        with pytest.raises(ConfigError, match="dense2.bias"):
            load_checkpoint(path)

    @staticmethod
    def stored_span(raw: bytes, member: str) -> tuple[int, int]:
        """Start and end of the stored bytes of archive member ``member``."""
        info = zipfile.ZipFile(io.BytesIO(raw)).getinfo(member)
        header = info.header_offset
        start = header + 30 + sum(struct.unpack("<HH", raw[header + 26:header + 30]))
        return start, start + info.compress_size

    @pytest.mark.parametrize("damage", ["empty", "first half", "bad crc", "bad deflate",
                                        "text", "npy"])
    def test_unreadable_file_is_config_error(self, tmp_path, damage):
        path = tmp_path / "damaged.npz"
        save_checkpoint(build(seed=9), path)
        if damage == "bad deflate":  # a compressed copy, which np.load reads too
            with np.load(path) as data:
                np.savez_compressed(path, **dict(data))
        raw = path.read_bytes()
        start, end = self.stored_span(raw, "conv2.kernel.npy")
        if damage == "npy":
            path = tmp_path / "array.npy"
            np.save(path, np.zeros(3))
        else:
            path.write_bytes({"empty": b"",
                              "first half": raw[:len(raw) // 2],
                              "bad crc": raw[:end - 8] + bytes(8) + raw[end:],
                              "bad deflate": raw[:start] + b"\xff\xff\xff" + raw[start + 3:],
                              "text": b"not a checkpoint\n"}[damage])
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "gone.npz")

    def test_unversioned_old_layout_is_format_error(self, tmp_path):
        """A checkpoint from before the format field, whose conv1 kernel
        has the old (filters, concat_width, 1) shape, is refused for its
        format, not for the kernel shape."""
        path = tmp_path / "model.npz"

        def old_layout(meta, entries):
            meta.pop("format")
            entries["conv1.kernel"] = entries["conv1.kernel"].transpose(0, 2, 1)

        self.rewrite(path, old_layout)
        with pytest.raises(ConfigError, match="format is 'missing', expected 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("stored", ["3", 2.0, True, 1, 2])
    def test_wrong_format_is_config_error(self, tmp_path, stored):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda meta, _: meta.update(format=stored))
        with pytest.raises(ConfigError, match=f"format is {stored!r}, expected 3"):
            load_checkpoint(path)

    def test_missing_parameter_is_config_error(self, tmp_path):
        path = tmp_path / "model.npz"
        self.rewrite(path, lambda _, entries: entries.pop("dense2.bias"))
        with pytest.raises(ConfigError, match="dense2.bias"):
            load_checkpoint(path)

    def test_shape_mismatch_is_config_error(self, tmp_path):
        path = tmp_path / "model.npz"

        def truncate(_, entries):
            entries["conv1.kernel"] = entries["conv1.kernel"][:-1]

        self.rewrite(path, truncate)
        with pytest.raises(ConfigError, match="conv1.kernel"):
            load_checkpoint(path)


class TestConfigValidByConstruction:
    @pytest.mark.parametrize("key, value", [
        ("r", 2.5), ("epochs", 2.0), ("batch_size", 16.0), ("channels", 3.0),
        ("conv_layers", True), ("sortpool_k", 10.0), ("sortpool_k", 8),
        ("dropout_rate", "0.5"), ("learning_rate", "1e-3"), ("learning_rate", float("inf")),
        pytest.param("learning_rate", 2**1024, id="learning_rate-2**1024"),
        ("seed", 1.5), ("seed", -1),
        pytest.param("r", np.int64(2), id="r-np.int64"),
    ])
    def test_wrong_type_or_range_is_config_error(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})

    def test_replace_is_checked(self):
        with pytest.raises(ConfigError, match="epochs"):
            dataclasses.replace(ModelConfig(), epochs=-1.0)


class TestBuildErrors:
    def test_sortpool_k_too_small_for_readout(self):
        with pytest.raises(ConfigError, match="need sortpool_k >= 10, got sortpool_k=8"):
            build(sortpool_k=8)

    def test_unresolved_k_rejected(self):
        with pytest.raises(ConfigError, match="resolved"):
            build(sortpool_k=None)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            build(mode="spectral")

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            build(num_classes=1)

    @pytest.mark.parametrize("width", [-1, 0])
    def test_non_positive_dense_width_rejected(self, width):
        with pytest.raises(ConfigError, match="dense_width"):
            build(dense_width=width)

    @pytest.mark.parametrize("feature_dim", [-2, 0])
    def test_non_positive_feature_dim_rejected(self, feature_dim):
        with pytest.raises(ConfigError, match="feature_dim"):
            build(feature_dim=feature_dim)

    @pytest.mark.parametrize("key, value", [("feature_dim", 3.0), ("feature_dim", "3"),
                                            ("num_classes", True),
                                            ("num_classes", np.int64(2))])
    def test_dimension_not_int_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build(**{key: value})

    @pytest.mark.parametrize("rate", [-0.1, 1.0])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ConfigError, match="dropout rate"):
            build(dropout_rate=rate)


class TestResolveSortpoolK:
    def test_sixty_percent_rule(self):
        config = ModelConfig(sortpool_k=None)
        # 10 graphs: 60% of them have >= 14 nodes.
        counts = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        assert resolve_sortpool_k(config, counts) == 14

    def test_clamped_to_readout_minimum(self):
        config = ModelConfig(sortpool_k=None)
        assert resolve_sortpool_k(config, [3, 4, 5]) == 10

    def test_numpy_counts_give_int(self):
        k = resolve_sortpool_k(ModelConfig(), [np.int64(12)] * 3)
        assert type(k) is int and k == 12

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError,
                           match="cannot derive sortpool_k from an empty training set"):
            resolve_sortpool_k(ModelConfig(sortpool_k=None), [])

    def test_explicit_k_wins(self):
        config = ModelConfig(sortpool_k=31)
        assert resolve_sortpool_k(config, [3, 4, 5]) == 31
