"""Recurrent layers: the LSTM cell and sequence LSTM used by RAAL.

The cell implements the standard equations the paper cites (its eqs.
2-7): input gate ``i``, forget gate ``f``, output gate ``o``, candidate
cell ``g``, cell state ``c`` and hidden state ``h``:

    i_t = sigmoid(x_t W_xi + h_{t-1} W_hi + b_i)
    f_t = sigmoid(x_t W_xf + h_{t-1} W_hf + b_f)
    o_t = sigmoid(x_t W_xo + h_{t-1} W_ho + b_o)
    g_t = tanh   (x_t W_xg + h_{t-1} W_hg + b_g)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

The four gate projections are fused into single ``(input, 4*hidden)``
and ``(hidden, 4*hidden)`` matrices for speed. These modules hold the
parameters; the forward is :func:`repro.nn.inference.fused_lstm_forward`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.layers import Module
from repro.nn.tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """The fused gate parameters of one LSTM step ``(x_t, (h, c)) -> (h', c')``."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = init.xavier_uniform((input_size, 4 * hidden_size), rng)
        self.w_h = init.orthogonal((hidden_size, 4 * hidden_size), rng)
        bias = np.zeros(4 * hidden_size)
        # Forget-gate bias starts at 1 so early training keeps memory.
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Tensor(bias, requires_grad=True)


class LSTM(Module):
    """Unidirectional sequence LSTM over ``(batch, seq, input)`` inputs.

    Produces all hidden states ``(batch, seq, hidden)``; a boolean mask
    ``(batch, seq)`` freezes the state on padded steps so that
    variable-length plan sequences can be batched together.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
