"""Numerical gradient checks for the composite layers (the autograd LSTM,
attention and Conv1d references of ``tests/oracles.py``, TreeLSTM) —
central-difference validation of every parameter gradient."""

import numpy as np
import pytest

from repro.baselines.tlstm import TreeLSTMCell
from repro.nn import (
    LSTM,
    Conv1d,
    Linear,
    LSTMCell,
    NodeAwareAttention,
    ResourceAwareAttention,
    Tensor,
)
from tests.oracles import (conv1d, lstm_cell_step, lstm_initial_state,
                           lstm_sequence, node_attention, resource_attention)


def check_parameter_gradients(module, loss_fn, atol=2e-4, rtol=2e-3):
    """Compare autograd parameter gradients against finite differences."""
    module.zero_grad()
    loss = loss_fn()
    loss.backward()
    eps = 1e-5
    for name, param in module.named_parameters():
        analytic = param.grad if param.grad is not None else np.zeros_like(param.data)
        # Sample a handful of coordinates per parameter to keep it fast.
        rng = np.random.default_rng(0)
        count = min(6, param.data.size)
        coords = rng.choice(param.data.size, size=count, replace=False)
        for idx in coords:
            multi = np.unravel_index(idx, param.data.shape)
            original = param.data[multi]
            param.data[multi] = original + eps
            plus = loss_fn().item()
            param.data[multi] = original - eps
            minus = loss_fn().item()
            param.data[multi] = original
            numeric = (plus - minus) / (2 * eps)
            got = analytic[multi]
            assert got == pytest.approx(numeric, abs=atol, rel=rtol), (
                f"parameter {name}[{multi}]: analytic {got} vs numeric {numeric}")


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestGradcheck:
    def test_linear(self, rng):
        layer = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=(5, 4)))

        def loss():
            return (layer(x) ** 2.0).sum()

        check_parameter_gradients(layer, loss)

    def test_lstm_cell(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)))

        def loss():
            h, c = lstm_cell_step(cell, x, lstm_initial_state(cell, 2))
            return (h * h).sum() + (c * c).sum()

        check_parameter_gradients(cell, loss)

    def test_lstm_sequence(self, rng):
        lstm = LSTM(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 4, 3)))

        def loss():
            out, (h, _) = lstm_sequence(lstm, x)
            return (out * out).mean() + (h * h).sum()

        check_parameter_gradients(lstm, loss)

    def test_lstm_with_mask(self, rng):
        lstm = LSTM(2, 3, rng)
        x = Tensor(rng.normal(size=(2, 5, 2)))
        mask = np.array([[True, True, True, False, False],
                         [True, True, True, True, True]])

        def loss():
            out, _ = lstm_sequence(lstm, x, mask=mask)
            return (out * out).sum()

        check_parameter_gradients(lstm, loss)

    def test_node_attention(self, rng):
        attn = NodeAwareAttention(4, 3, rng)
        hidden = Tensor(rng.normal(size=(2, 4, 4)))
        child = np.zeros((2, 4, 4), dtype=bool)
        child[:, 2, 0] = child[:, 2, 1] = True
        child[:, 3, 2] = True
        mask = np.ones((2, 4), dtype=bool)

        def loss():
            return (node_attention(attn, hidden, child, mask) ** 2.0).sum()

        check_parameter_gradients(attn, loss)

    def test_resource_attention(self, rng):
        attn = ResourceAwareAttention(4, 3, 3, rng)
        hidden = Tensor(rng.normal(size=(2, 5, 4)))
        res = Tensor(rng.random((2, 3)))
        mask = np.ones((2, 5), dtype=bool)
        mask[0, 3:] = False

        def loss():
            return (resource_attention(attn, hidden, res, mask) ** 2.0).sum()

        check_parameter_gradients(attn, loss)

    def test_conv1d(self, rng):
        conv = Conv1d(3, 2, 2, rng)
        x = Tensor(rng.normal(size=(2, 5, 3)))

        def loss():
            return (conv1d(conv, x) ** 2.0).sum()

        check_parameter_gradients(conv, loss)

    def test_tree_lstm_cell(self, rng):
        cell = TreeLSTMCell(3, 4, rng)
        x = Tensor(rng.normal(size=3))
        child_a = (Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4)))
        child_b = (Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4)))

        def loss():
            h, c = cell(x, [child_a, child_b])
            return (h * h).sum() + (c * c).sum()

        check_parameter_gradients(cell, loss)
