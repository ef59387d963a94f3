"""A from-scratch numpy deep-learning framework.

This subpackage replaces PyTorch for the reproduction: reverse-mode
autograd (:mod:`repro.nn.tensor`), layers (:mod:`repro.nn.layers`),
the LSTM (:mod:`repro.nn.rnn`), the paper's two attention mechanisms
(:mod:`repro.nn.attention`), losses, and optimizers.
"""

from repro.nn.arena import ScratchArena, thread_local_arena
from repro.nn.attention import NodeAwareAttention, ResourceAwareAttention
from repro.nn.inference import (
    InferenceWeights,
    fused_lstm_forward,
    inference_weights,
    masked_mean_forward,
    node_attention_forward,
    raal_forward_inference,
    resource_attention_forward,
)
from repro.nn.layers import (
    Conv1d,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.loss import huber_loss, mae_loss, mse_loss, q_error
from repro.nn.optim import SGD, Adam, Optimizer, StepLR, clip_grad_norm
from repro.nn.rnn import LSTM, LSTMCell
from repro.nn.serialization import load_model, save_model
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.nn.training import (
    fused_lstm_backward,
    fused_lstm_forward_cached,
    node_attention_backward,
    raal_forward_backward,
    resource_attention_backward,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Linear",
    "Sequential",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Conv1d",
    "LSTM",
    "LSTMCell",
    "NodeAwareAttention",
    "ResourceAwareAttention",
    "mse_loss",
    "mae_loss",
    "huber_loss",
    "q_error",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "clip_grad_norm",
    "save_model",
    "load_model",
    "raal_forward_inference",
    "fused_lstm_forward",
    "node_attention_forward",
    "resource_attention_forward",
    "masked_mean_forward",
    "ScratchArena",
    "thread_local_arena",
    "InferenceWeights",
    "inference_weights",
    "raal_forward_backward",
    "fused_lstm_forward_cached",
    "fused_lstm_backward",
    "node_attention_backward",
    "resource_attention_backward",
]
