"""A from-scratch numpy deep-learning framework.

This subpackage replaces PyTorch for the reproduction: reverse-mode
autograd (:mod:`repro.nn.tensor`), layers (:mod:`repro.nn.layers`),
the parameter containers of the LSTM (:mod:`repro.nn.rnn`) and of the
paper's two attention mechanisms (:mod:`repro.nn.attention`), the MSE
loss, and optimizers. RAAL's forward runs as graph-free kernels
(:mod:`repro.nn.inference`); its training step adds their closed-form
backward (:mod:`repro.nn.training`).
"""

from repro.nn.attention import NodeAwareAttention, ResourceAwareAttention
from repro.nn.inference import inference_weights, raal_forward_inference
from repro.nn.layers import Conv1d, Dropout, Linear, Module, ReLU, Sequential
from repro.nn.loss import mse_loss
from repro.nn.optim import SGD, Adam, Optimizer, StepLR, clip_grad_norm
from repro.nn.rnn import LSTM, LSTMCell
from repro.nn.serialization import load_model, save_model
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.nn.training import raal_forward_backward

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Linear",
    "Sequential",
    "ReLU",
    "Dropout",
    "Conv1d",
    "LSTM",
    "LSTMCell",
    "NodeAwareAttention",
    "ResourceAwareAttention",
    "mse_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "clip_grad_norm",
    "save_model",
    "load_model",
    "raal_forward_inference",
    "inference_weights",
    "raal_forward_backward",
]
