"""Deterministic fault injection for reliability testing.

Importable as ``tests.faults`` with the repository root on the path
(the test suite and the benchmarks both run that way).

Every injector method is seeded (NumPy ``default_rng``) so a test that
corrupts 5% of the model weights corrupts the *same* 5% on every run.
Methods that monkey-patch behaviour return a zero-argument restore
callable, so tests can re-arm the healthy path and exercise breaker
recovery (half-open probe succeeding) without rebuilding fixtures.

The injector only ever touches objects handed to it — it has no global
state and is safe to use against module-scoped fixtures as long as the
restore callables are invoked.
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Callable

import numpy as np

from repro.errors import EncodingError, ReproError, TrainingError
from repro.nn.layers import Module

__all__ = ["FaultInjector"]


class FaultInjector:
    """Seeded injector of the failure modes the reliability layer guards.

    Parameters
    ----------
    seed:
        Seed of the injector's private RNG; identical seeds reproduce
        identical corruption patterns.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    # -- model faults ------------------------------------------------------
    def corrupt_weights(self, model: Module, fraction: float = 0.05,
                        value: float = float("nan")) -> list[str]:
        """Overwrite a random ``fraction`` of each parameter with ``value``.

        Returns the names of the corrupted parameters. With the default
        NaN value every forward pass through a touched parameter yields
        non-finite outputs — the "bad checkpoint reached serving"
        scenario.
        """
        if not 0.0 < fraction <= 1.0:
            raise ReproError(f"fraction must be in (0, 1], got {fraction}")
        corrupted = []
        for name, param in model.named_parameters():
            flat = param.data.reshape(-1)
            count = max(1, int(flat.size * fraction))
            idx = self.rng.choice(flat.size, size=count, replace=False)
            flat[idx] = value
            corrupted.append(name)
        return corrupted

    def poison_vocabulary(self, encoder, fraction: float = 0.25,
                          value: float = float("nan")) -> int:
        """Poison rows of the plan encoder's word2vec embedding table.

        Returns the number of poisoned rows. The encoder's plan-side
        cache is cleared so poisoned features cannot be masked by
        earlier clean cache entries.
        """
        semantic = getattr(encoder, "semantic", None)
        if semantic is None or semantic.word2vec is None:
            raise ReproError("encoder has no word2vec vocabulary to poison")
        emb = semantic.word2vec._in_emb
        if emb is None:
            raise ReproError("word2vec model is untrained")
        rows = max(1, int(emb.shape[0] * fraction))
        idx = self.rng.choice(emb.shape[0], size=rows, replace=False)
        emb[idx, :] = value
        if hasattr(encoder, "cache_clear"):
            encoder.cache_clear()
        return int(rows)

    # -- behavioural faults ------------------------------------------------
    def force_encode_errors(self, encoder,
                            message: str = "injected encode fault") -> Callable[[], None]:
        """Make ``encoder.encode``/``encode_many`` raise :class:`EncodingError`.

        Returns a restore callable that re-arms the healthy methods.
        """
        def _boom(*args, **kwargs):
            raise EncodingError(message)

        encoder.encode = _boom
        encoder.encode_many = _boom

        def _restore() -> None:
            encoder.__dict__.pop("encode", None)
            encoder.__dict__.pop("encode_many", None)

        return _restore

    def force_forward_errors(self, model: Module,
                             message: str = "injected forward fault") -> Callable[[], None]:
        """Make the model's graph-free ``forward_inference`` raise
        :class:`TrainingError`. Returns a restore callable."""
        def _boom(*args, **kwargs):
            raise TrainingError(message)

        model.forward_inference = _boom

        def _restore() -> None:
            model.__dict__.pop("forward_inference", None)

        return _restore

    def force_bucket_hang(self, model: Module, seconds: float,
                          sleep: Callable[[float], None] = time.sleep,
                          ) -> Callable[[], None]:
        """Stall every inference bucket forward by ``seconds``.

        Wraps the model's fast-path ``forward_inference`` with a sleep
        before delegating — the "slow worker" scenario that the deadline
        watchdog and the learned-stage gate must absorb. The hang runs
        *inside* the bucket forward, so a deadline-carrying call to a
        :class:`~repro.core.execution.BucketExecutor` sees a genuinely
        stuck pool task, not a slow submit. Returns a restore callable
        that re-arms the healthy forward.
        """
        if seconds < 0:
            raise ReproError(f"hang seconds must be >= 0, got {seconds}")
        if not hasattr(model, "forward_inference"):
            raise ReproError("model has no inference fast path to stall")
        original = model.forward_inference

        def _stalled(*args, **kwargs):
            sleep(seconds)
            return original(*args, **kwargs)

        model.forward_inference = _stalled

        def _restore() -> None:
            model.__dict__.pop("forward_inference", None)

        return _restore

    def force_queue_saturation(self, admission) -> Callable[[], None]:
        """Occupy every admission slot, so real requests queue or shed.

        Acquires ``max_in_flight`` slots on the controller and holds
        them — the "stuck fleet" scenario. Returns a restore callable
        that releases the held slots (idempotent).
        """
        held = 0
        try:
            for _ in range(admission.config.max_in_flight):
                admission.acquire()
                held += 1
        except Exception:
            for _ in range(held):
                admission.release()
            raise

        state = {"held": held}

        def _restore() -> None:
            while state["held"] > 0:
                admission.release()
                state["held"] -= 1

        return _restore

    # -- file faults -------------------------------------------------------
    def truncate_file(self, path: str | os.PathLike,
                      keep_fraction: float = 0.5) -> int:
        """Truncate a file to ``keep_fraction`` of its size (a torn write).

        Returns the new size in bytes. ``keep_fraction=0`` leaves an
        empty file.
        """
        if not 0.0 <= keep_fraction < 1.0:
            raise ReproError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
        p = pathlib.Path(path)
        size = p.stat().st_size
        keep = int(size * keep_fraction)
        with open(p, "rb+") as fh:
            fh.truncate(keep)
        return keep

    def flip_bytes(self, path: str | os.PathLike, count: int = 16) -> list[int]:
        """XOR ``count`` random bytes of a file (silent bit-rot).

        Returns the corrupted offsets. Unlike :meth:`truncate_file` the
        file keeps its size, so only checksum verification catches it.
        """
        p = pathlib.Path(path)
        data = bytearray(p.read_bytes())
        if not data:
            raise ReproError(f"cannot corrupt empty file {p}")
        count = min(count, len(data))
        offsets = sorted(int(i) for i in
                         self.rng.choice(len(data), size=count, replace=False))
        for off in offsets:
            data[off] ^= 0xFF
        p.write_bytes(bytes(data))
        return offsets
