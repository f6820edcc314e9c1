"""Layer semantics and gradient exactness."""

import math

import numpy as np
import pytest

import pathconv
from pathconv import Graph, NumericalError, compute_sp_tensor
from pathconv.gradcheck import central_difference, run_all
from pathconv.layers import (
    Adam,
    Conv1D,
    Dense,
    DistanceConv,
    JointConv,
    MaxPool1D,
    SortPool,
    softmax_cross_entropy,
)
from pathconv.model import Model, ModelConfig
from pathconv.shortest_paths import batch_sp_tensors

from oracles import (
    block_distances,
    distance_conv_reference,
    floyd_warshall_distances,
    joint_conv_reference,
    path_graph,
    random_graph,
)
from test_batching import assert_close
from test_model import full_pass


def rng():
    return np.random.default_rng(0)


class TestDistanceConv:
    def test_r_zero_is_per_node_dense(self):
        g = path_graph(4, target=0)
        sp = compute_sp_tensor(g, r=0)
        layer = DistanceConv(r=0, c_in=2, c_out=2, rng=rng())
        dict(layer.parameters())["w0"][...] = np.eye(2)
        out, _ = layer.forward(sp, np.zeros((4, 2)))
        assert np.array_equal(out, np.zeros((4, 2)))
        h = rng().normal(size=(4, 2))
        out, _ = layer.forward(sp, h)
        assert np.allclose(out, np.tanh(h))

    def test_path_graph_hand_evaluated(self):
        # Independent scalar evaluation: node means first, tanh second.
        g = path_graph(3, target=0)
        sp = compute_sp_tensor(g, r=1)
        layer = DistanceConv(r=1, c_in=1, c_out=1, rng=rng())
        for _, w in layer.parameters():
            w[...] = np.array([[1.0]])
        out, _ = layer.forward(sp, np.array([[1.0], [2.0], [3.0]]))
        expected = np.array([
            [math.tanh(1.0), math.tanh(2.0)],
            [math.tanh(2.0), math.tanh(2.0)],
            [math.tanh(3.0), math.tanh(2.0)],
        ])
        assert out.shape == (3, 2)
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_output_width_law(self, r):
        g = path_graph(6, target=0)
        sp = compute_sp_tensor(g, r=r)
        layer = DistanceConv(r=r, c_in=3, c_out=5, rng=rng())
        out, _ = layer.forward(sp, rng().normal(size=(6, 3)))
        assert out.shape == (6, (r + 1) * 5)
        assert np.all(np.abs(out) < 1.0)  # tanh range

    def test_shape_mismatch(self):
        g = path_graph(3, target=0)
        sp = compute_sp_tensor(g, r=1)
        layer = DistanceConv(r=1, c_in=2, c_out=2, rng=rng())
        with pytest.raises(ValueError):
            layer.forward(sp, np.zeros((3, 3)))


class TestJointConv:
    def test_isolated_node_keeps_self(self):
        g = Graph(1, frozenset(), np.ones((1, 1)), 0)
        sp = compute_sp_tensor(g, r=1)
        layer = JointConv(c_in=1, c_out=1, rng=rng())
        dict(layer.parameters())["w0"][...] = np.array([[1.0]])
        for x in (0.3, -1.2, 5.0):
            out, _ = layer.forward(sp, np.array([[x]]))
            assert out[0, 0] == pytest.approx(math.tanh(x), abs=1e-15)

    def test_path_graph_hand_evaluated(self):
        g = path_graph(3, target=0)
        sp = compute_sp_tensor(g, r=1)
        layer = JointConv(c_in=1, c_out=1, rng=rng())
        dict(layer.parameters())["w0"][...] = np.array([[1.0]])
        out, _ = layer.forward(sp, np.array([[1.0], [2.0], [3.0]]))
        expected = np.array([[math.tanh(1.5)], [math.tanh(2.0)], [math.tanh(2.5)]])
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_distinct_from_parametric_by_shape(self):
        g = path_graph(3, target=0)
        sp = compute_sp_tensor(g, r=1)
        h = np.array([[1.0], [2.0], [3.0]])
        joint, _ = JointConv(1, 1, rng()).forward(sp, h)
        parametric, _ = DistanceConv(1, 1, 1, rng()).forward(sp, h)
        assert joint.shape == (3, 1)
        assert parametric.shape == (3, 2)


class TestGraphConvReference:
    """Project-first layers against dense propagate-first references:
    outputs, every weight gradient and the input gradient."""

    @staticmethod
    def cases(r):
        """(sp, dist) for single graphs and for their batch; the graphs
        include a single node, isolated nodes and an edgeless graph."""
        gen = np.random.default_rng(r)
        graphs = [random_graph(gen, n=int(gen.integers(2, 14)), edge_prob=0.3)
                  for _ in range(2)]
        graphs += [Graph(1, frozenset(), np.ones((1, 3)), 0),
                   Graph(6, frozenset({(1, 3), (3, 4)}), np.ones((6, 3)), 0),
                   Graph(3, frozenset(), np.ones((3, 3)), 0)]
        sps = [compute_sp_tensor(g, r) for g in graphs]
        dists = [floyd_warshall_distances(g.node_count, g.edges) for g in graphs]
        return list(zip(sps, dists)) + [(batch_sp_tensors(sps), block_distances(dists))]

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_distance_conv(self, r):
        gen = np.random.default_rng(10 + r)
        for sp, dist in self.cases(r):
            layer = DistanceConv(r=r, c_in=3, c_out=4, rng=gen)
            h = gen.normal(size=(sp.node_count, 3))
            dout = gen.normal(size=(sp.node_count, layer.out_width))
            out, cache = layer.forward(sp, h)
            dh = layer.backward(cache, dout)
            weights = [w for _, w in layer.parameters()]
            ref_out, ref_grads, ref_dh = distance_conv_reference(dist, h, weights, dout)
            assert_close(out, ref_out)
            for (_, g), ref in zip(layer.gradients(), ref_grads):
                assert_close(g, ref)
            assert_close(dh, ref_dh)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_joint_conv(self, r):
        # Baseline mode reads distance 1 only; a larger r adds unused operators.
        gen = np.random.default_rng(20 + r)
        for sp, dist in self.cases(max(r, 1)):
            layer = JointConv(c_in=3, c_out=4, rng=gen)
            h = gen.normal(size=(sp.node_count, 3))
            dout = gen.normal(size=(sp.node_count, 4))
            out, cache = layer.forward(sp, h)
            dh = layer.backward(cache, dout)
            weight = dict(layer.parameters())["w0"]
            ref_out, ref_grad, ref_dh = joint_conv_reference(dist, h, weight, dout)
            assert_close(out, ref_out)
            assert_close(dict(layer.gradients())["w0"], ref_grad)
            assert_close(dh, ref_dh)


def pool_one(layer, h):
    """``layer`` applied to ``h`` as a batch of one graph."""
    return layer.forward(h, offsets=np.array([0, h.shape[0]]))


class TestSortPool:
    def test_orders_and_truncates(self):
        out, _ = pool_one(SortPool(k=2), np.array([[1.0], [3.0], [2.0]]))
        assert np.array_equal(out, np.array([[[3.0], [2.0]]]))

    def test_pads_with_zero_rows(self):
        out, record = pool_one(SortPool(k=3), np.array([[5.0, 6.0]]))
        assert np.array_equal(out, np.array([[[5.0, 6.0], [0.0, 0.0], [0.0, 0.0]]]))
        assert record[0].size == 1

    def test_identical_rows_make_order_irrelevant(self):
        h = np.tile(np.array([[2.0, 7.0]]), (4, 1))
        out1, _ = pool_one(SortPool(k=3), h)
        out2, _ = pool_one(SortPool(k=3), h[::-1].copy())
        assert np.array_equal(out1, out2)

    def test_ties_break_on_earlier_columns(self):
        h = np.array([[0.0, 1.0], [5.0, 1.0], [3.0, 2.0]])
        out, _ = pool_one(SortPool(k=3), h)
        # Last column first (2.0 wins), then the earlier column descending.
        assert np.array_equal(out, np.array([[[3.0, 2.0], [5.0, 1.0], [0.0, 1.0]]]))

    def test_backward_is_permutation_when_k_equals_n(self):
        rng_ = np.random.default_rng(1)
        h = rng_.normal(size=(5, 3))
        h[:, -1] = [0.5, 0.1, 0.9, 0.3, 0.7]  # distinct keys
        layer = SortPool(k=5)
        _, record = pool_one(layer, h)
        dout = rng_.normal(size=(1, 5, 3))
        dh = layer.backward(record, dout)
        assert sorted(map(tuple, dh)) == sorted(map(tuple, dout[0]))

    def test_truncated_node_gets_zero_gradient(self):
        h = np.array([[1.0], [3.0], [2.0]])
        layer = SortPool(k=2)
        _, record = pool_one(layer, h)
        dh = layer.backward(record, np.array([[[1.0], [1.0]]]))
        assert dh[0, 0] == 0.0  # the smallest row was dropped

    @pytest.mark.parametrize("sizes", [(7,), (2,), (6,), (7, 2, 6)],
                             ids=["truncated", "zero-padded", "tied", "batch"])
    def test_backward_separates_by_column(self, sizes):
        """Routing a slice of the channels gives those columns of the full
        gradient, bitwise: for a graph cut to k rows, one padded with zero
        rows, one with rows tied on the last column and on every column,
        and all three in one batch."""
        rng_ = np.random.default_rng(8)
        blocks = {7: rng_.normal(size=(7, 3)), 2: rng_.normal(size=(2, 3)),
                  6: np.array([[1.0, 2.0, 5.0], [3.0, 2.0, 5.0], [1.0, 2.0, 5.0],
                               [0.0, 0.0, 1.0], [1.0, 2.0, 5.0], [3.0, 1.0, 5.0]])}
        h = np.concatenate([blocks[n] for n in sizes])
        layer = SortPool(k=4)
        _, record = layer.forward(h, offsets=np.cumsum([0, *sizes]))
        dout = rng_.normal(size=(len(sizes), 4, 3))
        full = layer.backward(record, dout)
        for lo, hi in [(0, 1), (1, 3), (2, 3), (0, 3)]:
            assert np.array_equal(layer.backward(record, dout[..., lo:hi]), full[:, lo:hi])
        for shape in [(len(sizes), 5, 3), (len(sizes) + 1, 4, 1), (4, 3)]:
            with pytest.raises(ValueError, match="does not match"):
                layer.backward(record, np.zeros(shape))


class TestConv1D:
    def test_width_one_identity_kernel(self):
        layer = Conv1D(c_in=1, filters=1, width=1, rng=rng())
        layer.kernel = np.ones((1, 1, 1))
        layer.bias = np.zeros(1)
        x = np.arange(6.0).reshape(6, 1)
        out, _ = layer.forward(x)
        assert np.array_equal(out, x)

    def test_width_one_equals_matmul(self):
        # Width 1 over a (k, c) block acts per node row.
        layer = Conv1D(c_in=3, filters=4, width=1, rng=rng())
        block = rng().normal(size=(5, 3))
        out, _ = layer.forward(block)
        expected = block @ layer.kernel[:, 0, :].T + layer.bias
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_too_short_signal(self):
        from pathconv.errors import ConfigError
        layer = Conv1D(c_in=1, filters=1, width=5, rng=rng())
        with pytest.raises(ConfigError):
            layer.forward(np.zeros((4, 1)))


def test_maxpool_example():
    out, _ = MaxPool1D().forward(np.array([[1.0], [3.0], [2.0], [2.0]]))
    assert np.array_equal(out, np.array([[3.0], [2.0]]))


def test_maxpool_odd_length_drops_tail():
    out, _ = MaxPool1D().forward(np.array([[1.0], [3.0], [9.0]]))
    assert np.array_equal(out, np.array([[3.0]]))


def test_maxpool_gradient_goes_to_first_maximum_and_not_to_odd_tail():
    # Two signals of five steps, two channels: pairs (0, 1) and (2, 3),
    # step 4 left over.  Ties at equal values, -0.0 against 0.0 included.
    x = np.array([[[2.0, 0.0], [2.0, -0.0], [1.0, 5.0], [4.0, 5.0], [9.0, 9.0]],
                  [[-1.0, 3.0], [-1.0, 7.0], [0.0, 6.0], [0.0, 6.0], [8.0, 8.0]]])
    layer = MaxPool1D()
    out, cache = layer.forward(x)
    assert np.array_equal(out, [[[2.0, 0.0], [4.0, 5.0]], [[-1.0, 7.0], [0.0, 6.0]]])
    dout = np.arange(1.0, 9.0).reshape(2, 2, 2)
    dx = layer.backward(cache, dout)
    expected = np.zeros_like(x)
    expected[0, 0] = [1.0, 2.0]  # both channels tied: the first step wins
    expected[0, 2, 1] = 4.0      # tied at 5.0
    expected[0, 3, 0] = 3.0
    expected[1, 0, 0] = 5.0      # tied at -1.0
    expected[1, 1, 1] = 6.0
    expected[1, 2] = [7.0, 8.0]  # both channels tied
    assert np.array_equal(dx, expected)
    assert not dx[:, 4].any()    # the odd last step gets no gradient


class TestSoftmaxCrossEntropy:
    def test_equal_logits_binary(self):
        loss, _ = softmax_cross_entropy(np.zeros(2), 0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_correct(self):
        loss, _ = softmax_cross_entropy(np.array([30.0, -30.0]), 0)
        assert 0.0 <= loss < 1e-12

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([1.0, -2.0, 0.5])
        _, grad = softmax_cross_entropy(logits, 1)
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        expected = p.copy()
        expected[1] -= 1.0
        assert np.allclose(grad, expected, rtol=0, atol=1e-15)

    def test_large_logits_stable(self):
        loss, grad = softmax_cross_entropy(np.array([1e4, -1e4]), 1)
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), 3)

    def test_exported(self):
        assert "softmax_cross_entropy" in pathconv.__all__
        assert pathconv.softmax_cross_entropy is softmax_cross_entropy


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = np.array([1.0, -2.0])
        opt = Adam([("p", p)], lr=0.1)
        opt.step([("p", np.zeros(2))])
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        p = np.zeros(3)
        opt = Adam([("p", p)], lr=1e-3, epsilon=1e-12)
        g = np.array([0.5, -2.0, 10.0])
        opt.step([("p", g.copy())])
        # Bias correction is exact at t=1: update = lr * g / |g|.
        assert np.allclose(np.abs(p), 1e-3, rtol=1e-8)
        assert np.all(np.sign(p) == -np.sign(g))

    def test_quadratic_descent_is_monotone(self):
        # Direct simulation on f(x) = (x - 3)^2 / 2.
        x = np.array([0.0])
        opt = Adam([("x", x)], lr=1e-3)
        losses = []
        for _ in range(100):
            grad = x - 3.0
            losses.append(float((x[0] - 3.0) ** 2 / 2.0))
            opt.step([("x", grad.copy())])
        losses.append(float((x[0] - 3.0) ** 2 / 2.0))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_non_finite_gradient_names_parameter(self):
        p = np.zeros(2)
        opt = Adam([("dense1.weight", p)])
        with pytest.raises(NumericalError, match="dense1.weight"):
            opt.step([("dense1.weight", np.array([np.nan, 0.0]))])

    def test_gradient_list_of_another_length_rejected(self):
        opt = Adam([("w", np.zeros(2)), ("b", np.zeros(1))])
        with pytest.raises(ValueError, match="gradient list does not match parameter list"):
            opt.step([("w", np.zeros(2))])
        assert opt.t == 0

    def test_gradient_of_another_name_rejected(self):
        opt = Adam([("w", np.zeros(2)), ("b", np.zeros(1))])
        with pytest.raises(ValueError, match="parameter/gradient mismatch: b vs bias"):
            opt.step([("w", np.zeros(2)), ("bias", np.zeros(1))])

    @pytest.mark.parametrize("bad", [
        ("bias", np.zeros(1), ValueError),
        ("b", np.array([np.nan]), NumericalError),
    ], ids=["name-mismatch", "nan"])
    def test_rejected_step_changes_nothing(self, bad):
        """A bad gradient at entry 1 is caught before entry 0 is updated:
        parameters, both moments and t stay bitwise as they were."""
        rng = np.random.default_rng(5)
        opt = Adam([("w", rng.normal(size=2)), ("b", rng.normal(size=1))], lr=1e-2)
        opt.step([("w", rng.normal(size=2)), ("b", rng.normal(size=1))])
        before = [a.tobytes() for a in [p for _, p in opt.params] + opt.m + opt.v]
        name, grad, error = bad
        with pytest.raises(error):
            opt.step([("w", rng.normal(size=2)), (name, grad)])
        assert [a.tobytes() for a in [p for _, p in opt.params] + opt.m + opt.v] == before
        assert opt.t == 1

    def test_steps_bitwise_equal_textbook_update(self):
        """The in-place moment updates round exactly like the textbook
        formula: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2."""
        rng = np.random.default_rng(4)
        params = [("w", rng.normal(size=(5, 3))), ("b", rng.normal(size=3))]
        opt = Adam([(n, p.copy()) for n, p in params], lr=1e-2)
        lr, b1, b2, eps = opt.lr, opt.beta1, opt.beta2, opt.epsilon
        ref = [p.copy() for _, p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        for t in range(1, 7):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 3) for p in ref]
            opt.step([(n, g.copy()) for (n, _), g in zip(params, grads)])
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                m_hat = m[i] / (1.0 - b1 ** t)
                v_hat = v[i] / (1.0 - b2 ** t)
                ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for (_, p), expected in zip(opt.params, ref):
                assert p.tobytes() == expected.tobytes()
            for got_m, got_v, want_m, want_v in zip(opt.m, opt.v, m, v):
                assert got_m.tobytes() == want_m.tobytes()
                assert got_v.tobytes() == want_v.tobytes()

    def test_moment_buffers_match_shapes(self):
        p = np.zeros((2, 3))
        opt = Adam([("p", p)])
        assert opt.m[0].shape == p.shape
        assert opt.v[0].shape == p.shape


def test_finite_difference_suite_passes():
    """Every layer and the composed model beat their tolerances."""
    for result in run_all():
        assert result.passed, f"{result.name}: rel_err={result.rel_error:.3e}"


READOUT_PARAMS = ["conv1.kernel", "conv1.bias", "conv2.kernel", "conv2.bias",
                  "dense1.weight", "dense1.bias", "dense2.weight", "dense2.bias", "input"]
PARAMETRIC_PARAMS = [f"gconv{i}.w{j}" for i in range(2) for j in range(3)] + READOUT_PARAMS
GRADIENT_CHECKS = [
    "distance_conv.w0", "distance_conv.w1", "distance_conv.w2", "distance_conv.input",
    "joint_conv.w0", "joint_conv.input",
    "sortpool.input",
    "conv1d[pointwise].kernel", "conv1d[pointwise].bias", "conv1d[pointwise].input",
    "conv1d[sliding].kernel", "conv1d[sliding].bias", "conv1d[sliding].input",
    "maxpool.input",
    "dense.weight", "dense.bias", "dense.input",
    "softmax_cross_entropy",
    *(f"model.{name}" for name in PARAMETRIC_PARAMS),
    *(f"batched_model.{name}" for name in PARAMETRIC_PARAMS),
    *(f"baseline_model.{name}" for name in ["gconv0.w0", "gconv1.w0"] + READOUT_PARAMS),
]


def test_finite_difference_suite_names_every_check():
    """A refactor of the suite cannot drop, rename or reorder a check."""
    assert [result.name for result in run_all()] == GRADIENT_CHECKS


def test_central_difference_steps_a_strided_view_in_place():
    """A column block of a wider array, as a graph convolution's ``wj``
    is, must be stepped where it lives: the objective reads the whole."""
    whole = np.random.default_rng(7).normal(size=(3, 6))
    before = whole.copy()
    scale = np.arange(1.0, 7.0).reshape(3, 2)
    grad = central_difference(lambda: float((whole[:, 2:4] ** 2 * scale).sum()),
                              whole[:, 2:4])
    assert np.allclose(grad, 2 * whole[:, 2:4] * scale, rtol=0, atol=1e-6)
    assert np.array_equal(whole, before)


def test_dense_and_relu_chain_matches_manual():
    layer = Dense(c_in=3, c_out=2, rng=rng())
    x = np.array([1.0, -1.0, 2.0])
    out, _ = layer.forward(x)
    assert np.allclose(out, x @ layer.weight + layer.bias, rtol=0, atol=1e-15)


class TestDenseDeferredGradient:
    """``Dense.backward`` keeps its (rows, dout) pairs; ``gradients()``
    folds them into the weight gradient."""

    # One row (B = 1), several rows, and a (graphs, steps, channels) signal.
    SHAPES = [(1, 12), (5, 12), (3, 4, 3), (1, 12)]

    def run_calls(self, layer, read_between=False):
        """Backward over every input shape; returns the expected weight
        and bias gradients, summed call by call."""
        gen = np.random.default_rng(1)
        weight = np.zeros_like(layer.weight)
        bias = np.zeros_like(layer.bias)
        for shape in self.SHAPES:
            x = gen.normal(size=shape)
            out, cache = layer.forward(x)
            dout = gen.normal(size=out.shape)
            dx = layer.backward(cache, dout)
            # The input gradient does not wait for the fold.
            assert_close(dx, (dout @ layer.weight.T).reshape(shape))
            rows = x.reshape(-1, layer.weight.shape[0])
            weight += rows.T @ dout
            bias += dout.sum(axis=0)
            if read_between:
                layer.gradients()
        return weight, bias

    def test_fold_equals_sum_of_outer_products(self):
        layer = Dense(c_in=12, c_out=5, rng=rng())
        weight, bias = self.run_calls(layer)
        grads = dict(layer.gradients())
        assert_close(grads["weight"], weight)
        assert_close(grads["bias"], bias)

    def test_second_read_adds_nothing(self):
        layer = Dense(c_in=12, c_out=5, rng=rng())
        self.run_calls(layer)
        first = [g.copy() for _, g in layer.gradients()]
        for (_, g), before in zip(layer.gradients(), first):
            assert np.array_equal(g, before)

    def test_reads_between_calls_give_the_same_sum(self):
        layer = Dense(c_in=12, c_out=5, rng=rng())
        weight, bias = self.run_calls(layer, read_between=True)
        grads = dict(layer.gradients())
        assert_close(grads["weight"], weight)
        assert_close(grads["bias"], bias)

    def test_model_zero_gradients_discards_kept_pairs(self):
        config = ModelConfig(r=1, conv_layers=1, channels=3, sortpool_k=10,
                             conv1_filters=2, conv2_filters=3, dense_width=4,
                             dropout_rate=0.0)
        model = Model(config, feature_dim=1, num_classes=2)
        graph = path_graph(12, target=1)
        sp = compute_sp_tensor(graph, r=1)
        full_pass(model, sp, graph.features, graph.target)
        model.zero_gradients()
        for name, g in model.gradients():
            assert not g.any(), name
