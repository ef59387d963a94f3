"""Attention mechanisms used by the RAAL model (paper Sec. IV-D).

Two layers are provided:

* :class:`NodeAwareAttention` — eq. (8)/(9): for each node, a softmax
  over its *children* scores how strongly each child influences it; the
  result is a weighted sum of LSTM hidden states.
* :class:`ResourceAwareAttention` — eq. (10)/(11): a softmax over all
  plan nodes scores how strongly the *resource vector* interacts with
  each node; the result is a resource-conditioned plan summary.

Both layers learn bilinear projections into a shared latent space of
dimension ``K`` (the paper fixes ``K = 32``). These modules hold the
projections; the forwards are
:func:`repro.nn.inference.node_attention_forward` and
:func:`repro.nn.inference.resource_attention_forward`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.layers import Module

__all__ = ["NodeAwareAttention", "ResourceAwareAttention"]


class NodeAwareAttention(Module):
    """Child-structure attention over plan-node hidden states.

    For each node ``v_i`` the layer computes scores between the node's
    hidden state and every other node's, masks the scores so only
    *children* of ``v_i`` compete in the softmax (eq. 8), and sums the
    hidden states weighted by the resulting attention (eq. 9). Nodes
    without children (leaves) fall back to their own hidden state. The
    per-node context vectors are mean-pooled over real (non-padded)
    nodes into one plan-level vector ``P``.
    """

    def __init__(self, hidden_size: int, latent_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.latent_dim = latent_dim
        self.w_query = init.xavier_uniform((hidden_size, latent_dim), rng)
        self.w_key = init.xavier_uniform((hidden_size, latent_dim), rng)


class ResourceAwareAttention(Module):
    """Resource-conditioned attention over plan-node hidden states.

    The resource vector ``Re`` is projected into the latent space and
    scored against every node's hidden state; a softmax over nodes
    (eq. 10) weights the hidden states into a summary ``M`` (eq. 11)
    that reflects which operators are most sensitive to the current
    resource allocation.
    """

    def __init__(self, hidden_size: int, resource_dim: int, latent_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.resource_dim = resource_dim
        self.latent_dim = latent_dim
        self.w_resource = init.xavier_uniform((resource_dim, latent_dim), rng)
        self.w_key = init.xavier_uniform((hidden_size, latent_dim), rng)
