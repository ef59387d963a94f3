"""Shadow scoring: re-score a served answer and measure the divergence.

The **candidate shadow** re-scores every live batch of a shard on a
deployed-but-not-promoted model; the promotion gate reads the mean
candidate-vs-incumbent q-error.

:class:`ShadowScorer` implements it: a best-effort reference call and
per-pair q-error accounting for every batch it is handed. It publishes
only under its own ``name`` (``<name>.samples_total``,
``<name>.errors_total``, ``<name>.qerror``), never into the
``quality.*`` metrics that measure the served model against ground
truth.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.obs.metrics import Histogram
from repro.obs.quality import q_error

__all__ = ["ShadowScorer"]


class ShadowScorer:
    """Shadow re-scoring with q-error accounting.

    Parameters
    ----------
    name:
        Metric prefix and event component (e.g. ``"serve.shadow"``).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._qerror = Histogram(f"{name}.qerror")
        self.samples = 0
        self.errors = 0
        self._last: float | None = None

    def score(self, served, reference: Callable[[], object]
              ) -> np.ndarray | None:
        """Compare ``served`` with ``reference()`` pair by pair.

        Returns the per-pair q-errors, or ``None`` when the reference
        raised or returned unusable costs — counted as an error and
        swallowed, since a shadow must never fail the answer it shadows.
        """
        try:
            qerrors = np.array([q_error(s, r) for s, r in
                                zip(served, reference(), strict=True)])
            if not np.all(np.isfinite(qerrors)):
                raise ReproError("shadow produced non-finite costs")
        except Exception as exc:  # best effort: never fail the served answer
            with self._lock:
                self.errors += 1
            obs.inc(f"{self.name}.errors_total",
                    help="Shadow re-scores that failed")
            obs.emit_event(self.name, "shadow_error", error=str(exc))
            return None
        for qe in qerrors:
            self._qerror.observe(qe)
            obs.observe(f"{self.name}.qerror", qe,
                        help="Q-error of served answers vs their shadow")
        with self._lock:
            self.samples += 1
            self._last = float(qerrors.max()) if qerrors.size else None
        obs.inc(f"{self.name}.samples_total",
                help="Served answers re-scored in shadow")
        return qerrors

    def snapshot(self) -> dict:
        """Samples, errors, the last sample's worst q-error, and the mean
        and p95 q-error over every scored pair (``None`` before any)."""
        scored = self._qerror.count > 0
        with self._lock:
            return {"samples": self.samples, "errors": self.errors,
                    "last": self._last,
                    "mean": self._qerror.mean if scored else None,
                    "p95": self._qerror.quantile(0.95) if scored else None}
