"""Minibatch execution: a batch of graphs as one disconnected graph.

A batched pass must give every graph what a pass over that graph alone
gives, and cutting a minibatch into node-budget sub-batches must not
change the summed gradients or the dropout draws.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import pathconv.training as training
from pathconv import Dataset, Graph, NumericalError, compute_sp_tensor, train_one_fold
from pathconv.gradcheck import run_all
from pathconv.layers import SortPool
from pathconv.model import MODES, distance_cutoff
from pathconv.shortest_paths import batch_sp_tensors, propagate, propagate_transpose
from pathconv.training import (
    NODE_BUDGET,
    accumulate_gradients,
    precompute_sp_tensors,
    sub_batches,
)

from oracles import cycle_graph, random_graph, sortpool_order
from test_model import build
from test_training import TOY_CONFIG, toy_splits

TOL = 1e-12


def mixed_dataset(seed: int = 0) -> Dataset:
    """Awkward shapes side by side: a single node, isolated nodes, cycles
    whose rows tie exactly on every column, and one graph larger than
    the node budget."""
    rng = np.random.default_rng(seed)
    big = NODE_BUDGET + 44
    one_hot = np.eye(3)
    graphs = [
        Graph(1, frozenset(), one_hot[[2]], 1),
        Graph(6, frozenset({(0, 1), (1, 2)}), one_hot[rng.integers(0, 3, size=6)], 0),
        cycle_graph(8, target=0, feature_dim=3),
        random_graph(rng, n=14, edge_prob=0.3, target=1),
        random_graph(rng, n=big, edge_prob=2.5 / big, target=1),
        cycle_graph(5, target=1, feature_dim=3),
        random_graph(rng, n=11, edge_prob=0.4, target=0),
    ]
    return Dataset(name="MIXED", graphs=tuple(graphs), num_classes=2, feature_dim=3)


def gradient_copy(model):
    return [g.copy() for _, g in model.gradients()]


def assert_close(actual, expected, tol=TOL):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert float(np.abs(actual - expected).max(initial=0.0)) <= tol * scale


CASES = [(0, "parametric"), (1, "parametric"), (2, "parametric"), (3, "parametric"),
         (2, "dgcnn_baseline")]


@pytest.mark.parametrize("r, mode", CASES)
def test_batched_pass_matches_singletons(r, mode):
    dataset = mixed_dataset()
    model = build(r=r, mode=mode, conv_layers=3)
    cutoff = distance_cutoff(model.config)
    sps = precompute_sp_tensors(dataset, cutoff)
    targets = np.array([g.target for g in dataset.graphs])

    probs, losses = [], []
    summed = [np.zeros_like(g) for _, g in model.gradients()]
    for g, sp in zip(dataset.graphs, sps):
        model.zero_gradients()
        loss, p, _ = model.loss_and_gradients(sp, g.features, g.target)
        probs.append(p[0])
        losses.append(loss[0])
        for total, grad in zip(summed, gradient_copy(model)):
            total += grad

    model.zero_gradients()
    sp = batch_sp_tensors(sps)
    x = np.concatenate([g.features for g in dataset.graphs])
    batch_losses, batch_probs, _ = model.loss_and_gradients(sp, x, targets)
    assert_close(batch_probs, probs)
    assert_close(batch_losses, losses)
    for grad, total in zip(gradient_copy(model), summed):
        assert_close(grad, total)

    # The same graphs through the node budget: the large graph gets a
    # pass of its own.
    batch = np.arange(len(dataset.graphs))
    runs = sub_batches(dataset, batch)
    assert [len(run) for run in runs] == [4, 1, 2]
    model.zero_gradients()
    budget_losses = accumulate_gradients(model, dataset, sps, batch,
                                         rng=np.random.default_rng(0))
    assert_close(budget_losses, losses)
    for grad, total in zip(gradient_copy(model), summed):
        assert_close(grad, total)


@st.composite
def cut_batches(draw):
    """(graphs, cuts, r): up to six small random graphs, often with
    isolated nodes, and the positions where the batch is cut into
    sub-batches."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(1, 6))
    graphs = [random_graph(rng, n=draw(st.integers(1, 12)),
                           edge_prob=draw(st.sampled_from([0.0, 0.15, 0.4])),
                           target=int(rng.integers(2)))
              for _ in range(count)]
    cuts = sorted(draw(st.sets(st.integers(1, count - 1)))) if count > 1 else []
    return graphs, cuts, draw(st.integers(0, 3))


@pytest.mark.parametrize("mode", MODES)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(cut_batches())
def test_random_cuts_match_singletons(mode, batch):
    """Probabilities, losses, input gradients and summed parameter
    gradients of sub-batches equal those of one graph at a time."""
    graphs, cuts, r = batch
    model = build(r=r, mode=mode)
    cutoff = distance_cutoff(model.config)
    sps = [compute_sp_tensor(g, cutoff) for g in graphs]

    singles = []
    summed = [np.zeros_like(g) for _, g in model.gradients()]
    for g, sp in zip(graphs, sps):
        model.zero_gradients()
        singles.append(model.loss_and_gradients(sp, g.features, g.target, input_grad=True))
        for total, grad in zip(summed, gradient_copy(model)):
            total += grad

    model.zero_gradients()
    bounds = [0, *cuts, len(graphs)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sp = batch_sp_tensors(sps[lo:hi])
        x = np.concatenate([g.features for g in graphs[lo:hi]])
        losses, probs, dx = model.loss_and_gradients(
            sp, x, [g.target for g in graphs[lo:hi]], input_grad=True)
        rows = np.cumsum([0] + [g.node_count for g in graphs[lo:hi]])
        for i, (loss1, probs1, dx1) in enumerate(singles[lo:hi]):
            assert_close(losses[i], loss1[0])
            assert_close(probs[i], probs1[0])
            assert_close(dx[rows[i]:rows[i + 1]], dx1)
    for grad, total in zip(gradient_copy(model), summed):
        assert_close(grad, total)


def test_split_minibatch_matches_one_pass(monkeypatch):
    """Same summed gradients, losses and dropout draws wherever the
    minibatch is cut."""
    dataset = mixed_dataset(seed=1)
    dataset = dataclasses.replace(dataset, graphs=dataset.graphs[:4] + dataset.graphs[5:])
    model = build(r=2, dropout_rate=0.5)
    sps = precompute_sp_tensors(dataset, 2)
    batch = np.array([4, 0, 2, 5, 1, 3])

    def run(budget):
        monkeypatch.setattr(training, "NODE_BUDGET", budget)
        rng = np.random.default_rng(42)
        model.zero_gradients()
        losses = accumulate_gradients(model, dataset, sps, batch, rng)
        return len(sub_batches(dataset, batch)), losses, gradient_copy(model), rng.random()

    passes, losses, grads, next_draw = run(10 ** 9)
    assert passes == 1
    split_passes, split_losses, split_grads, split_next = run(15)
    assert split_passes == 4
    assert_close(split_losses, losses)
    for a, b in zip(split_grads, grads):
        assert_close(a, b)
    assert split_next == next_draw  # the generator advanced by the same draws


def test_sub_batches_respect_budget_in_order():
    dataset = mixed_dataset()
    indices = np.array([6, 4, 0, 3, 2, 1, 5])
    runs = sub_batches(dataset, indices)
    assert np.array_equal(np.concatenate(runs), indices)
    sizes = [sum(dataset.graphs[i].node_count for i in run) for run in runs]
    for run, size in zip(runs, sizes):
        assert size <= NODE_BUDGET or len(run) == 1
    assert len(runs) == 3  # 11 | 300 | 1 + 14 + 8 + 6 + 5


class TestBatchSpTensors:
    def test_block_diagonal_with_concatenated_normalizers(self):
        rng = np.random.default_rng(3)
        graphs = [random_graph(rng, n=n, edge_prob=0.3) for n in (5, 1, 9)]
        sps = [compute_sp_tensor(g, 2) for g in graphs]
        batched = batch_sp_tensors(sps)
        assert batched.node_count == 15
        assert batched.graph_sizes == (5, 1, 9)
        assert np.array_equal(batched.offsets, [0, 5, 6, 15])
        for j in range(3):
            expected = sparse.block_diag([sp.mats[j] for sp in sps]).toarray()
            assert np.array_equal(batched.mats[j].toarray(), expected)

    def test_propagation_is_bitwise_per_graph(self):
        rng = np.random.default_rng(4)
        graphs = [random_graph(rng, n=n, edge_prob=0.4) for n in (7, 3, 12)]
        sps = [compute_sp_tensor(g, 2) for g in graphs]
        batched = batch_sp_tensors(sps)
        h = rng.normal(size=(batched.node_count, 4))
        bounds = batched.offsets
        for j in range(3):
            for op in (propagate, propagate_transpose):
                whole = op(batched, j, h)
                for sp, lo, hi in zip(sps, bounds[:-1], bounds[1:]):
                    assert np.array_equal(whole[lo:hi], op(sp, j, h[lo:hi]))

    def test_one_and_several_graphs_agree_on_cutoff(self):
        """A batch holds the distances every tensor has, one graph or many."""
        g = random_graph(np.random.default_rng(5), n=6, edge_prob=0.5)
        deep, shallow = compute_sp_tensor(g, 3), compute_sp_tensor(g, 1)
        for sps, r in (([deep], 3), ([deep] * 2, 3), ([shallow], 1),
                       ([deep, shallow], 1), ([shallow, deep, deep], 1)):
            batched = batch_sp_tensors(sps)
            assert batched.r == r and len(batched.mats) == r + 1

    def test_single_graph_unchanged(self):
        sp = compute_sp_tensor(cycle_graph(4, target=0), 1)
        single = batch_sp_tensors([sp])
        assert single is sp
        assert np.array_equal(single.offsets, [0, 4])


@st.composite
def nested_joins(draw):
    """(sps, joined): up to seven random graphs' tensors, each with its own
    cutoff, and their join built as a random tree of joins."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sps = [compute_sp_tensor(random_graph(rng, n=draw(st.integers(1, 9)),
                                          edge_prob=draw(st.sampled_from([0.0, 0.3, 0.6]))),
                             draw(st.integers(0, 3)))
           for _ in range(draw(st.integers(1, 7)))]

    def join(part):
        if len(part) == 1 or draw(st.booleans()):
            return batch_sp_tensors(part)
        cuts = sorted(draw(st.sets(st.integers(1, len(part) - 1), min_size=1)))
        bounds = [0, *cuts, len(part)]
        return batch_sp_tensors([join(part[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])

    return sps, join(sps)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(nested_joins())
def test_nested_joins_equal_one_flat_join(case):
    """Any nesting of joins gives the one join of all the graphs, bitwise."""
    sps, joined = case
    flat = batch_sp_tensors(sps)
    assert joined.graph_sizes == flat.graph_sizes == tuple(sp.node_count for sp in sps)
    assert joined.r == flat.r
    for mine, theirs in zip(joined.mats, flat.mats, strict=True):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Zero, a subnormal, tiny, unit and huge values and infinity, each of
# either sign: every float class whose bits a sort key could misorder.
EDGE_MAGNITUDES = [0.0, 5e-324, 1e-300, 1.0, 1e300, np.inf]


@st.composite
def pooled_batches(draw):
    """(h, offsets, k): a batch cut into graphs at random rows.  Entries
    take a few magnitudes with random signs, so that rows tie often and
    -0.0 meets 0.0."""
    n = draw(st.integers(1, 40))
    c = draw(st.integers(1, 8))
    palette = draw(st.lists(st.sampled_from(EDGE_MAGNITUDES), min_size=1, max_size=3))
    entries = st.lists(st.sampled_from(palette), min_size=n * c, max_size=n * c)
    magnitude = np.array(draw(entries)).reshape(n, c)
    negative = np.array(draw(st.lists(st.booleans(), min_size=n * c, max_size=n * c)))
    h = np.where(negative.reshape(n, c), -magnitude, magnitude)
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    k = draw(st.integers(1, n + 2))
    return h, np.array([0, *sorted(cuts), n]), k


class TestSortPoolTies:
    @staticmethod
    def node_to_row(layer, h, offsets):
        """Output row of every node (-1 when dropped), read off the backward
        routing of a distinct gradient per output row."""
        out, record = layer.forward(h, offsets=offsets)
        dout = np.zeros(out.shape)
        flat = dout.reshape(-1, h.shape[1])
        flat[:, 0] = np.arange(flat.shape[0]) + 1
        return layer.backward(record, dout)[:, 0].astype(int) - 1

    def test_tie_order_matches_lexsort_rule(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(2, 25))
            c = int(rng.integers(2, 6))
            h = rng.integers(-1, 2, size=(n, c)).astype(float)  # tie-heavy
            h[rng.random(size=(n, c)) < 0.1] = -0.0
            rows = self.node_to_row(SortPool(n), h, np.array([0, n]))
            assert np.array_equal(rows[sortpool_order(h)], np.arange(n))

    def check_per_graph(self, h, offsets, k):
        """Every graph of the batch pooled as the oracle orders it alone."""
        layer = SortPool(k)
        rows = self.node_to_row(layer, h, offsets)
        out, _ = layer.forward(h, offsets=offsets)
        assert out.shape == (len(offsets) - 1, k, h.shape[1])
        for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            order = lo + sortpool_order(h[lo:hi])
            kept = order[:k]
            assert np.array_equal(rows[kept], b * k + np.arange(kept.size))
            assert np.all(rows[order[k:]] == -1)
            assert np.array_equal(out[b, :kept.size], h[kept])
            assert not out[b, kept.size:].any()
            # Alone, the graph is pooled identically.
            single, _ = layer.forward(h[lo:hi], offsets=np.array([0, hi - lo]))
            assert np.array_equal(single[0], out[b])

    def test_batched_order_matches_lexsort_rule_per_graph(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            sizes = rng.integers(1, 12, size=int(rng.integers(1, 6)))
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            k = int(rng.integers(1, 10))
            h = rng.integers(0, 2, size=(offsets[-1], 3)).astype(float)
            self.check_per_graph(h, offsets, k)

    @settings(derandomize=True, deadline=None)
    @given(pooled_batches())
    def test_order_matches_lexsort_rule_on_edge_values(self, batch):
        self.check_per_graph(*batch)


class TestInputGradient:
    def test_off_by_default(self):
        g = random_graph(np.random.default_rng(8), n=7, edge_prob=0.4)
        model = build(r=2)
        sp = compute_sp_tensor(g, 2)
        _, _, dx = model.loss_and_gradients(sp, g.features, g.target)
        assert dx is None
        _, _, dx = model.loss_and_gradients(sp, g.features, g.target, input_grad=True)
        assert dx.shape == g.features.shape

    def test_parameter_gradients_do_not_depend_on_it(self):
        g = random_graph(np.random.default_rng(9), n=9, edge_prob=0.4)
        model = build(r=2)
        sp = compute_sp_tensor(g, 2)
        model.loss_and_gradients(sp, g.features, g.target)
        without = gradient_copy(model)
        model.zero_gradients()
        model.loss_and_gradients(sp, g.features, g.target, input_grad=True)
        for a, b in zip(gradient_copy(model), without):
            assert np.array_equal(a, b)


def test_gradcheck_covers_batched_model():
    results = run_all()
    batched = [r for r in results if r.name.startswith("batched_model.")]
    assert any(r.name == "batched_model.input" for r in batched)
    assert len(batched) == sum(1 for r in results if r.name.startswith("model."))
    assert all(r.passed for r in batched)
    baseline = [r for r in results if r.name.startswith("baseline_model.")]
    assert any(r.name == "baseline_model.input" for r in baseline)
    assert any(r.name == "baseline_model.gconv1.w0" for r in baseline)
    assert all(r.passed for r in baseline)


def test_baseline_mode_builds_only_distance_one(toy_dataset, monkeypatch):
    seen = []
    real = training.precompute_sp_tensors

    def recording(dataset, r):
        seen.append(r)
        return real(dataset, r)

    monkeypatch.setattr(training, "precompute_sp_tensors", recording)
    config = dataclasses.replace(TOY_CONFIG, r=3, mode="dgcnn_baseline", epochs=1)
    training.run_experiment(toy_dataset, config, folds=2, repeats=1)
    train_one_fold(toy_dataset, toy_splits(toy_dataset)[0], config)
    assert seen and set(seen) == {1}


class TestBlasThreads:
    @pytest.fixture
    def blas(self):
        blas = training._openblas()
        if blas is None:
            pytest.skip("numpy does not bundle OpenBLAS")
        get, set_ = blas
        before = get()
        yield blas
        set_(before)

    def test_one_thread_during_training_and_restored(self, blas, toy_dataset,
                                                     monkeypatch):
        get, set_ = blas
        set_(2)
        seen = []
        real = training.accumulate_gradients

        def recording(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "accumulate_gradients", recording)
        config = dataclasses.replace(TOY_CONFIG, epochs=1)
        train_one_fold(toy_dataset, toy_splits(toy_dataset)[0], config)
        assert seen and set(seen) == {1}
        assert get() == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_restored_after_failure(self, blas, toy_dataset):
        get, set_ = blas
        set_(2)
        config = dataclasses.replace(TOY_CONFIG, epochs=3, learning_rate=1e200)
        with pytest.raises(NumericalError):
            train_one_fold(toy_dataset, toy_splits(toy_dataset)[0], config)
        assert get() == 2
