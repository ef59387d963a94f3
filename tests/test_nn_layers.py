"""Tests for repro.nn layers, the autograd RNN and attention references,
the loss, and optimizers."""

import numpy as np
import pytest

from repro.errors import ShapeError, TrainingError
from repro.nn import (
    LSTM,
    SGD,
    Adam,
    Conv1d,
    Dropout,
    Linear,
    LSTMCell,
    NodeAwareAttention,
    ReLU,
    ResourceAwareAttention,
    Sequential,
    StepLR,
    Tensor,
    clip_grad_norm,
    load_model,
    mse_loss,
    save_model,
)
from tests.oracles import (conv1d, lstm_cell_step, lstm_initial_state,
                           lstm_sequence, masked_mean, node_attention,
                           resource_attention)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng)
        out = layer(Tensor(rng.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_reach_parameters(self, rng):
        layer = Linear(4, 2, rng)
        out = layer(Tensor(rng.normal(size=(3, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_learns_identity_map(self, rng):
        layer = Linear(2, 2, rng)
        opt = Adam(layer.parameters(), lr=0.05)
        x = rng.normal(size=(64, 2))
        for _ in range(200):
            opt.zero_grad()
            loss = mse_loss(layer(Tensor(x)), Tensor(x))
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3


class TestModuleProtocol:
    def test_named_parameters_nested(self, rng):
        model = Sequential(Linear(3, 4, rng), ReLU(), Linear(4, 1, rng))
        names = [n for n, _ in model.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.2.bias" in names
        assert len(names) == 4

    def test_num_parameters(self, rng):
        layer = Linear(3, 4, rng)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_zero_grad_clears(self, rng):
        layer = Linear(2, 2, rng)
        layer(Tensor(np.ones((1, 2)))).sum().backward()
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(2, 2, rng), Dropout(0.5, rng))
        model.eval()
        assert not model.layers[1].training
        model.train()
        assert model.layers[1].training

    def test_state_dict_roundtrip(self, rng):
        a = Linear(3, 3, rng)
        b = Linear(3, 3, np.random.default_rng(7))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_rejects_mismatch(self, rng):
        a = Linear(3, 3, rng)
        with pytest.raises(ShapeError):
            a.load_state_dict({"weight": np.zeros((3, 3))})  # missing bias

    def test_save_load_file(self, rng, tmp_path):
        model = Sequential(Linear(3, 4, rng), Linear(4, 2, rng))
        path = tmp_path / "model.npz"
        save_model(model, path)
        clone = Sequential(Linear(3, 4, np.random.default_rng(1)), Linear(4, 2, np.random.default_rng(2)))
        load_model(clone, path)
        x = Tensor(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(model(x).numpy(), clone(x).numpy())


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng)
        layer.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        np.testing.assert_allclose(layer(x).numpy(), x.numpy())

    def test_training_zeroes_roughly_p_fraction(self, rng):
        layer = Dropout(0.3, rng)
        out = layer(Tensor(np.ones((200, 200)))).numpy()
        zero_frac = (out == 0).mean()
        assert 0.25 < zero_frac < 0.35

    def test_inverted_scaling_preserves_mean(self, rng):
        layer = Dropout(0.4, rng)
        out = layer(Tensor(np.ones((500, 500)))).numpy()
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_probability(self, rng):
        with pytest.raises(ShapeError):
            Dropout(1.0, rng)


class TestConv1d:
    def test_output_shape(self, rng):
        conv = Conv1d(6, 8, 3, rng)
        out = conv1d(conv, Tensor(rng.normal(size=(2, 10, 6))))
        assert out.shape == (2, 8, 8)

    def test_wrong_channels_raises(self, rng):
        conv = Conv1d(6, 8, 3, rng)
        with pytest.raises(ShapeError):
            conv1d(conv, Tensor(rng.normal(size=(2, 10, 5))))

    def test_too_short_sequence_raises(self, rng):
        conv = Conv1d(4, 2, 5, rng)
        with pytest.raises(ShapeError):
            conv1d(conv, Tensor(rng.normal(size=(1, 3, 4))))

    def test_matches_manual_convolution(self, rng):
        conv = Conv1d(1, 1, 2, rng)
        x = np.arange(5.0).reshape(1, 5, 1)
        out = conv1d(conv, Tensor(x)).numpy().ravel()
        w = conv.weight.data.ravel()
        b = conv.bias.data[0]
        expected = [x[0, t, 0] * w[0] + x[0, t + 1, 0] * w[1] + b for t in range(4)]
        np.testing.assert_allclose(out, expected)


class TestLSTM:
    def test_cell_step_shapes(self, rng):
        cell = LSTMCell(3, 6, rng)
        h, c = lstm_initial_state(cell, 4)
        h2, c2 = lstm_cell_step(cell, Tensor(rng.normal(size=(4, 3))), (h, c))
        assert h2.shape == (4, 6)
        assert c2.shape == (4, 6)

    def test_cell_rejects_bad_input_size(self, rng):
        cell = LSTMCell(3, 6, rng)
        with pytest.raises(ShapeError):
            lstm_cell_step(cell, Tensor(rng.normal(size=(4, 5))),
                           lstm_initial_state(cell, 4))

    def test_sequence_output_shape(self, rng):
        lstm = LSTM(3, 6, rng)
        out, (h, c) = lstm_sequence(lstm, Tensor(rng.normal(size=(2, 7, 3))))
        assert out.shape == (2, 7, 6)
        assert h.shape == (2, 6)

    def test_rejects_non_3d(self, rng):
        lstm = LSTM(3, 6, rng)
        with pytest.raises(ShapeError):
            lstm_sequence(lstm, Tensor(rng.normal(size=(2, 3))))

    def test_mask_freezes_state_on_padding(self, rng):
        lstm = LSTM(2, 4, rng)
        x = rng.normal(size=(1, 5, 2))
        mask = np.array([[True, True, True, False, False]])
        _, (h_masked, _) = lstm_sequence(lstm, Tensor(x), mask=mask)
        _, (h_short, _) = lstm_sequence(lstm, Tensor(x[:, :3, :]))
        np.testing.assert_allclose(h_masked.numpy(), h_short.numpy(), atol=1e-12)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(3, 5, rng)
        np.testing.assert_allclose(cell.bias.data[5:10], np.ones(5))

    def test_learns_to_sum_sequence(self, rng):
        # An LSTM + linear head should learn to output the sum of a short
        # sequence of scalars — a basic sanity check of end-to-end training.
        lstm = LSTM(1, 16, rng)
        head = Linear(16, 1, rng)
        params = lstm.parameters() + head.parameters()
        opt = Adam(params, lr=0.01)
        data_rng = np.random.default_rng(0)
        losses = []
        for _ in range(150):
            x = data_rng.uniform(-1, 1, size=(32, 4, 1))
            y = x.sum(axis=1)
            opt.zero_grad()
            _, (h, _) = lstm_sequence(lstm, Tensor(x))
            loss = mse_loss(head(h), Tensor(y))
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-10:]) < 0.1 * np.mean(losses[:10])


class TestAttention:
    def test_node_attention_shapes(self, rng):
        attn = NodeAwareAttention(6, 4, rng)
        hidden = Tensor(rng.normal(size=(3, 5, 6)))
        child = np.zeros((3, 5, 5), dtype=bool)
        child[:, 2, 0] = child[:, 2, 1] = True
        mask = np.ones((3, 5), dtype=bool)
        assert node_attention(attn, hidden, child, mask).shape == (3, 6)

    def test_node_attention_rejects_bad_mask(self, rng):
        attn = NodeAwareAttention(6, 4, rng)
        hidden = Tensor(rng.normal(size=(3, 5, 6)))
        with pytest.raises(ShapeError):
            node_attention(attn, hidden, np.zeros((3, 4, 4), bool), np.ones((3, 5), bool))

    def test_leaf_nodes_fall_back_to_self(self, rng):
        attn = NodeAwareAttention(4, 4, rng)
        hidden_arr = rng.normal(size=(1, 3, 4))
        hidden = Tensor(hidden_arr)
        child = np.zeros((1, 3, 3), dtype=bool)  # no children anywhere
        mask = np.ones((1, 3), dtype=bool)
        out = node_attention(attn, hidden, child, mask).numpy()
        np.testing.assert_allclose(out, hidden_arr.mean(axis=1), atol=1e-9)

    def test_attention_weights_respect_children_only(self, rng):
        attn = NodeAwareAttention(4, 4, rng)
        h = rng.normal(size=(1, 4, 4))
        child = np.zeros((1, 4, 4), dtype=bool)
        child[0, 3, 0] = True  # only node 0 is a child of node 3
        mask = np.ones((1, 4), dtype=bool)
        out = node_attention(attn, Tensor(h), child, mask).numpy()
        # The context of node 3 must be exactly h[0] (softmax over one entry),
        # all other nodes contribute themselves; the pooled mean is known.
        expected = (h[0, 0] + h[0, 0] + h[0, 1] + h[0, 2]) / 4.0
        np.testing.assert_allclose(out[0], expected, atol=1e-9)

    def test_resource_attention_shapes(self, rng):
        attn = ResourceAwareAttention(6, 3, 4, rng)
        hidden = Tensor(rng.normal(size=(2, 5, 6)))
        res = Tensor(rng.random((2, 3)))
        assert resource_attention(attn, hidden, res, np.ones((2, 5), bool)).shape == (2, 6)

    def test_resource_attention_ignores_padding(self, rng):
        attn = ResourceAwareAttention(4, 2, 4, rng)
        h = rng.normal(size=(1, 4, 4))
        res = rng.random((1, 2))
        mask_full = np.array([[True, True, False, False]])
        out1 = resource_attention(attn, Tensor(h), Tensor(res), mask_full).numpy()
        h2 = h.copy()
        h2[0, 2:] = 999.0  # garbage in padded slots must not matter
        out2 = resource_attention(attn, Tensor(h2), Tensor(res), mask_full).numpy()
        np.testing.assert_allclose(out1, out2, atol=1e-9)

    def test_resource_attention_dim_check(self, rng):
        attn = ResourceAwareAttention(4, 2, 4, rng)
        with pytest.raises(ShapeError):
            resource_attention(attn, Tensor(rng.normal(size=(1, 3, 4))), Tensor(rng.random((1, 5))), np.ones((1, 3), bool))


class TestLosses:
    def test_mse_known_value(self):
        loss = mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestOptim:
    def test_sgd_quadratic_descent(self):
        x = Tensor([5.0], requires_grad=True)
        opt = SGD([x], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert abs(x.item()) < 1e-3

    def test_sgd_momentum_faster_than_plain(self):
        def run(momentum):
            x = Tensor([5.0], requires_grad=True)
            opt = SGD([x], lr=0.02, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                (x * x).sum().backward()
                opt.step()
            return abs(x.item())

        assert run(0.9) < run(0.0)

    def test_adam_rosenbrock_like(self):
        x = Tensor([0.0, 0.0], requires_grad=True)
        opt = Adam([x], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            a = x[0] - 1.0
            b = x[1] - x[0] * x[0]
            (a * a + 10.0 * b * b).backward()
            opt.step()
        np.testing.assert_allclose(x.data, [1.0, 1.0], atol=0.05)

    def test_weight_decay_shrinks_weights(self):
        x = Tensor([1.0], requires_grad=True)
        opt = SGD([x], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (x * 0.0).sum().backward()
        opt.step()
        assert x.item() < 1.0

    def test_empty_parameters_raises(self):
        with pytest.raises(TrainingError):
            SGD([], lr=0.1)

    def test_invalid_lr_raises(self):
        with pytest.raises(TrainingError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_step_lr_schedule(self):
        x = Tensor([1.0], requires_grad=True)
        opt = SGD([x], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        sched.step()
        assert opt.lr == pytest.approx(1.0)
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_clip_grad_norm(self):
        x = Tensor([3.0, 4.0], requires_grad=True)
        (x * x).sum().backward()  # grad = (6, 8), norm 10
        norm = clip_grad_norm([x], max_norm=5.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(np.linalg.norm(x.grad), 5.0)

    def test_clip_noop_when_under_limit(self):
        x = Tensor([0.1], requires_grad=True)
        (x * x).sum().backward()
        grad_before = x.grad.copy()
        clip_grad_norm([x], max_norm=100.0)
        np.testing.assert_allclose(x.grad, grad_before)


class TestFunctional:
    def test_masked_mean(self):
        x = Tensor(np.array([[[1.0], [3.0], [100.0]]]))
        mask = np.array([[True, True, False]])
        np.testing.assert_allclose(masked_mean(x, mask).numpy(), [[2.0]])
