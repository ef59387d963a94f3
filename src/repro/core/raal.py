"""The RAAL model: Resource-Aware Attentional LSTM (paper Sec. IV-D).

Architecture (paper Fig. 5)::

    node embeddings ─ Embedding layer (dense projection)
                    ─ Plan feature layer (LSTM; CNN in the RAAC ablation)
                    ─ Node-aware attention ──┐
                    ─ Resource-aware attention ┤ concat → H*
    resources + statistical extras ──────────┘
                    ─ dense prediction layers → cost

Every piece is switchable so the paper's ablations (NA-LSTM: no
node-aware attention; RAAC: CNN feature layer; the "without
resource-aware attention" variants of Table VII) are configurations of
the same class. The NE-LSTM ablation (no structure embedding) lives in
the *encoder*, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.nn import (
    LSTM,
    Conv1d,
    Dropout,
    Linear,
    Module,
    NodeAwareAttention,
    ReLU,
    ResourceAwareAttention,
    Sequential,
)

__all__ = ["RAALConfig", "RAALBatch", "RAAL"]


@dataclass(frozen=True)
class RAALConfig:
    """Hyperparameters and ablation switches for :class:`RAAL`.

    ``latent_dim`` is the attention latent dimension K, fixed to 32 in
    the paper's experiments.
    """

    node_dim: int = 60
    resource_dim: int = 7
    extras_dim: int = 5
    embedding_dim: int = 48
    hidden_size: int = 48
    latent_dim: int = 32
    dense_sizes: tuple[int, ...] = (64, 32)
    dropout: float = 0.1
    feature_layer: str = "lstm"          # "lstm" | "cnn" (RAAC)
    cnn_kernel: int = 3
    use_node_attention: bool = True      # False → NA-LSTM
    use_resource_attention: bool = True  # False → Table VII left columns
    seed: int = 0


@dataclass
class RAALBatch:
    """A padded minibatch of encoded plans.

    Attributes
    ----------
    node_features:
        ``(B, N, node_dim)`` float array, zero-padded. ``None`` in an
        inference batch whose plan side is supplied precomputed.
    child_mask:
        ``(B, N, N)`` boolean child adjacency (``None`` with
        ``node_features``).
    node_mask:
        ``(B, N)`` boolean; True on real nodes.
    resources:
        ``(B, resource_dim)`` normalized resource vectors, or — for
        inference only — a ``(B, P, resource_dim)`` profile block that
        scores each plan under ``P`` profiles.
    extras:
        ``(B, extras_dim)`` plan-level statistics.
    targets:
        Optional ``(B,)`` regression targets (log-cost).
    """

    node_features: np.ndarray
    child_mask: np.ndarray
    node_mask: np.ndarray
    resources: np.ndarray
    extras: np.ndarray
    targets: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of samples in the batch."""
        return self.node_mask.shape[0]


class RAAL(Module):
    """Resource-Aware Attentional LSTM cost model."""

    def __init__(self, config: RAALConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        if config.feature_layer not in ("lstm", "cnn"):
            raise TrainingError(f"unknown feature layer {config.feature_layer!r}")

        self.embedding = Linear(config.node_dim, config.embedding_dim, rng)
        if config.feature_layer == "lstm":
            self.plan_feature = LSTM(config.embedding_dim, config.hidden_size, rng)
            self.cnn = None
        else:
            self.cnn = Conv1d(config.embedding_dim, config.hidden_size,
                              config.cnn_kernel, rng)
            self.plan_feature = None

        if config.use_node_attention:
            self.node_attention = NodeAwareAttention(
                config.hidden_size, config.latent_dim, rng)
        else:
            self.node_attention = None
        if config.use_resource_attention:
            self.resource_attention = ResourceAwareAttention(
                config.hidden_size, config.resource_dim, config.latent_dim, rng)
        else:
            self.resource_attention = None

        # Without resource-aware attention the model is fully resource-
        # blind (raw resource features are withheld too), matching the
        # paper's Table VII reading: the left columns are models without
        # resource information.
        joined = config.hidden_size  # P (or pooled hidden)
        if config.use_resource_attention:
            joined += config.hidden_size + config.resource_dim  # M + raw
        joined += config.extras_dim

        layers: list[Module] = []
        in_dim = joined
        for size in config.dense_sizes:
            layers.append(Linear(in_dim, size, rng))
            layers.append(ReLU())
            layers.append(Dropout(config.dropout, rng))
            in_dim = size
        layers.append(Linear(in_dim, 1, rng))
        self.dense = Sequential(*layers)

    # -- forward ---------------------------------------------------------
    def forward_inference(self, batch: RAALBatch, weights=None,
                          plan_side=None) -> np.ndarray:
        """Graph-free eval-mode forward: ``(B,)``, or ``(B, P)`` for a block.

        The model's one forward (:mod:`repro.nn.inference`), used by
        :meth:`repro.core.trainer.Trainer.predict_seconds` and every
        serving path. ``weights``
        optionally supplies the weight bundle
        (:func:`repro.nn.inference.inference_weights`) built once by a
        caller running many batches; the default is built per call.
        ``plan_side`` optionally supplies the batch's precomputed
        ``(hidden, plan_vec)``, so only the resource side runs.
        """
        from repro import obs
        from repro.nn.inference import raal_forward_inference

        with obs.span("forward_inference", batch=batch.size):
            return raal_forward_inference(self, batch, weights, plan_side)

    def forward_backward(self, batch: RAALBatch) -> tuple[float, np.ndarray]:
        """Fused training step: graph-free forward + analytic backward.

        Runs the forward :meth:`forward_inference` runs, computes the
        MSE loss against ``batch.targets`` and accumulates closed-form
        gradients into every parameter's ``.grad`` — numerically
        equivalent (≤ 1e-8 per parameter) to the autograd reference
        step in ``tests/oracles.py``, without building a graph. Returns
        ``(loss, predictions)``. The training step of
        :meth:`repro.core.trainer.Trainer.fit`.
        """
        from repro import obs
        from repro.nn.training import raal_forward_backward

        with obs.span("forward_backward", batch=batch.size):
            return raal_forward_backward(self, batch)
