"""Save/load a trained cost predictor (model + encoder) to a directory.

A persisted predictor is a directory of up to four files:

* ``meta.json`` — model config, trainer config, encoder switches;
* ``model.npz`` — the RAAL parameter state dict;
* ``word2vec.npz`` — the node-semantic embedding model (absent when the
  encoder uses one-hot node semantics);
* ``manifest.json`` — schema version plus the SHA-256 of every other
  file, written *last* so a torn save is always detectable.

Writes are atomic (temp file + ``os.replace``) so a crash mid-save
leaves either the previous file or the new one, never a torn hybrid.
On load the manifest is verified; :class:`~repro.errors.CheckpointError`
names exactly which files are missing or corrupt. ``strict=False``
downgrades manifest/schema problems to warnings and attempts a
best-effort load of whatever is intact — the recovery path for
operators with a damaged but salvageable checkpoint.

This is what a deployment stores after the (re)training phase and loads
into the query optimizer.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import types
import typing
import warnings
from dataclasses import asdict, dataclass, field

from repro.core.predictor import CostPredictor
from repro.core.raal import RAAL, RAALConfig
from repro.core.trainer import Trainer, TrainerConfig
from repro.encoding.node_semantic import NodeSemanticEncoder
from repro.encoding.plan_encoder import PlanEncoder
from repro.encoding.structure import DEFAULT_MAX_NODES, StructureEncoder
from repro.errors import CheckpointError, TrainingError
from repro.nn.serialization import load_model, save_model
from repro.text.word2vec import Word2Vec

__all__ = [
    "save_predictor",
    "load_predictor",
    "verify_checkpoint",
    "checkpoint_fingerprint",
    "CheckpointReport",
    "CHECKPOINT_SCHEMA_VERSION",
]

_META_FILE = "meta.json"
_MODEL_FILE = "model.npz"
_W2V_FILE = "word2vec.npz"
_MANIFEST_FILE = "manifest.json"

#: Bump when the checkpoint layout changes incompatibly.
CHECKPOINT_SCHEMA_VERSION = 2


def _sha256(path: pathlib.Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _atomic_replace(tmp: pathlib.Path, final: pathlib.Path) -> None:
    os.replace(tmp, final)


def _write_text_atomic(path: pathlib.Path, text: str) -> None:
    tmp = path.parent / f".tmp-{path.name}"
    tmp.write_text(text)
    _atomic_replace(tmp, path)


@dataclass
class CheckpointReport:
    """Outcome of verifying one checkpoint directory."""

    directory: str
    schema_version: int | None = None
    missing: list[str] = field(default_factory=list)
    corrupt: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def stale_schema(self) -> bool:
        """Whether the manifest declares an unsupported schema version."""
        return (self.schema_version is not None
                and self.schema_version != CHECKPOINT_SCHEMA_VERSION)

    @property
    def ok(self) -> bool:
        """Whether the checkpoint verified clean."""
        return not (self.missing or self.corrupt or self.stale_schema)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return f"checkpoint {self.directory} OK (schema v{self.schema_version})"
        problems = []
        if self.missing:
            problems.append(f"missing: {', '.join(self.missing)}")
        if self.corrupt:
            problems.append(f"corrupt: {', '.join(self.corrupt)}")
        if self.stale_schema:
            problems.append(
                f"schema v{self.schema_version} != supported "
                f"v{CHECKPOINT_SCHEMA_VERSION}")
        problems.extend(self.notes)
        return f"checkpoint {self.directory} FAILED — " + "; ".join(problems)


def save_predictor(predictor: CostPredictor, directory: str | os.PathLike) -> None:
    """Persist a trained predictor under ``directory`` (created if needed).

    Every file is written atomically and the manifest (schema version +
    per-file SHA-256) goes last, so an interrupted save never leaves a
    directory that passes verification.
    """
    model = predictor.trainer.model
    if not isinstance(model, RAAL):
        raise TrainingError(
            f"only RAAL-family predictors can be persisted, got {type(model).__name__}")
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    encoder = predictor.encoder
    meta = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "model_config": _jsonable(asdict(model.config)),
        "trainer_config": _jsonable(asdict(predictor.trainer.config)),
        "encoder": {
            "use_structure": encoder.use_structure,
            "use_onehot": encoder.use_onehot,
            # Persisted even when the encoder carries no structure /
            # semantic component, so a restored predictor agrees with
            # the saved one on plan capacity and feature widths.
            "max_nodes": (encoder.structure.max_nodes
                          if encoder.structure is not None else DEFAULT_MAX_NODES),
            "include_cardinality": (
                encoder.semantic.include_cardinality
                if encoder.semantic is not None else True),
        },
    }
    _write_text_atomic(path / _META_FILE, json.dumps(meta, indent=2))

    # np.savez appends ".npz" to extension-less names, so temp files
    # must already end in .npz for os.replace to target the right path.
    model_tmp = path / f".tmp-{_MODEL_FILE}"
    save_model(model, model_tmp)
    _atomic_replace(model_tmp, path / _MODEL_FILE)

    files = [_META_FILE, _MODEL_FILE]
    if encoder.semantic is not None:
        w2v_tmp = path / f".tmp-{_W2V_FILE}"
        encoder.semantic.word2vec.save(w2v_tmp)
        _atomic_replace(w2v_tmp, path / _W2V_FILE)
        files.append(_W2V_FILE)
    else:
        # A stale embedding file from a previous save under the same
        # directory would fail verification; drop it.
        (path / _W2V_FILE).unlink(missing_ok=True)

    manifest = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "files": {name: _sha256(path / name) for name in files},
    }
    _write_text_atomic(path / _MANIFEST_FILE, json.dumps(manifest, indent=2))


def verify_checkpoint(directory: str | os.PathLike) -> CheckpointReport:
    """Check a checkpoint directory against its manifest.

    Reports missing files, SHA-256 mismatches (bit-rot, torn writes),
    and schema-version drift. Never raises for content problems — the
    report carries them; used by :func:`load_predictor` and the
    ``repro doctor`` CLI command.
    """
    path = pathlib.Path(directory)
    report = CheckpointReport(directory=str(path))
    if not path.is_dir():
        report.missing.append(str(path))
        report.notes.append("directory does not exist")
        return report
    manifest_path = path / _MANIFEST_FILE
    if not manifest_path.exists():
        report.missing.append(_MANIFEST_FILE)
        report.notes.append("no manifest — legacy checkpoint or torn save")
        return report
    try:
        manifest = json.loads(manifest_path.read_text())
        declared = dict(manifest["files"])
        report.schema_version = int(manifest["schema_version"])
    except (ValueError, KeyError, TypeError) as exc:
        report.corrupt.append(_MANIFEST_FILE)
        report.notes.append(f"manifest unreadable: {exc}")
        return report
    for name, expected_sha in declared.items():
        file_path = path / name
        if not file_path.exists():
            report.missing.append(name)
            continue
        if _sha256(file_path) != expected_sha:
            report.corrupt.append(name)
    return report


def checkpoint_fingerprint(directory: str | os.PathLike) -> str:
    """SHA-256 identity of a checkpoint (hash of its manifest).

    The manifest already pins every artifact's digest, so hashing the
    manifest alone identifies the whole checkpoint's content. The
    serving layer embeds a prefix of this in model version strings
    (``g3-1f2e3d4c5b6a``) so provenance in responses and audit records
    maps back to exact bytes on disk. Raises
    :class:`~repro.errors.CheckpointError` when there is no manifest.
    """
    manifest_path = pathlib.Path(directory) / _MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(
            f"cannot fingerprint {directory}: no {_MANIFEST_FILE}")
    return _sha256(manifest_path)


def load_predictor(directory: str | os.PathLike,
                   strict: bool = True) -> CostPredictor:
    """Restore a predictor saved by :func:`save_predictor`.

    ``strict=True`` (the default, the serving path) verifies the
    manifest first and raises :class:`~repro.errors.CheckpointError`
    naming every missing/corrupt file before touching any of them.
    ``strict=False`` (the recovery path) downgrades manifest and
    schema-version problems to warnings and loads whatever is intact;
    it still raises :class:`CheckpointError` — naming the file — when
    an essential artifact cannot actually be parsed.
    """
    path = pathlib.Path(directory)
    meta_path = path / _META_FILE
    if not meta_path.exists():
        raise CheckpointError(f"no persisted predictor at {path}")

    report = verify_checkpoint(path)
    if not report.ok:
        if strict:
            raise CheckpointError(report.summary())
        warnings.warn(f"loading despite verification failure: {report.summary()}",
                      stacklevel=2)

    try:
        meta = json.loads(meta_path.read_text())
        model_cfg = dict(meta["model_config"])
        model_cfg["dense_sizes"] = tuple(model_cfg["dense_sizes"])
        enc_meta = dict(meta["encoder"])
        trainer_cfg = dict(meta["trainer_config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{_META_FILE} is corrupt: {exc}") from exc
    # Retired switch: checkpoints written before the autograd training
    # path was removed still carry it.
    trainer_cfg.pop("fast_path", None)
    trainer_config = _config(TrainerConfig, trainer_cfg, "trainer_config")
    model_config = _config(RAALConfig, model_cfg, "model_config")
    try:
        model = RAAL(model_config)
    except TrainingError as exc:
        raise CheckpointError(f"{_META_FILE} model_config: {exc}") from exc
    try:
        load_model(model, path / _MODEL_FILE)
    except FileNotFoundError as exc:
        raise CheckpointError(f"{_MODEL_FILE} is missing") from exc
    except Exception as exc:
        # Truncated/garbled archives surface as zipfile/numpy errors,
        # shape mismatches as ShapeError — all mean the same thing here.
        raise CheckpointError(f"{_MODEL_FILE} is corrupt: {exc}") from exc
    model.eval()

    semantic = None
    if not enc_meta["use_onehot"]:
        try:
            word2vec = Word2Vec.load(path / _W2V_FILE)
        except FileNotFoundError as exc:
            raise CheckpointError(
                f"{_W2V_FILE} is missing but the encoder needs word2vec "
                "node semantics") from exc
        except Exception as exc:
            raise CheckpointError(f"{_W2V_FILE} is corrupt: {exc}") from exc
        semantic = NodeSemanticEncoder(
            word2vec, include_cardinality=enc_meta["include_cardinality"])
    encoder = PlanEncoder(
        semantic=semantic,
        structure=StructureEncoder(max_nodes=enc_meta["max_nodes"]),
        use_structure=enc_meta["use_structure"],
        use_onehot=enc_meta["use_onehot"],
    )
    return CostPredictor(encoder, Trainer(model, trainer_config))


def _config(cls, values: dict, section: str):
    """Build config dataclass ``cls`` from one ``meta.json`` section.

    An unknown key or a value of the wrong type raises
    :class:`CheckpointError` naming the file, instead of escaping from
    the constructor as a raw ``TypeError``.
    """
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        if key not in hints:
            raise CheckpointError(
                f"{_META_FILE} {section} has unknown key {key!r}")
        hint = hints[key]
        if not _has_type(value, hint):
            raise CheckpointError(
                f"{_META_FILE} {section}.{key} = {value!r} is not of type "
                f"{getattr(hint, '__name__', hint)}")
    return cls(**values)


def _has_type(value, hint) -> bool:
    """``isinstance`` for the annotation shapes config fields use."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if origin is not None:
        hint = origin  # tuple[int, ...] -> tuple
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _jsonable(mapping: dict) -> dict:
    out = {}
    for key, value in mapping.items():
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out
