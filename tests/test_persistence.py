"""Tests for model persistence: word2vec, the full cost predictor, and
checkpoint integrity (manifest verification under fault injection)."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import (
    CostPredictor,
    load_predictor,
    save_predictor,
    variant,
    verify_checkpoint,
)
from repro.core.persistence import CHECKPOINT_SCHEMA_VERSION
from repro.errors import CheckpointError, TrainingError
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.text import Word2Vec, Word2VecConfig
from tests.faults import FaultInjector


@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def trained(pipeline):
    return pipeline.train_variant("RAAL", epochs=3)


class TestWord2VecPersistence:
    @pytest.fixture(scope="class")
    def model(self):
        sentences = [["filter", "x", ">", "<num:1e2>"],
                     ["scan", "table_b", "bytes"]] * 30
        return Word2Vec(Word2VecConfig(dim=8, epochs=2, seed=1)).train(sentences)

    def test_roundtrip_vectors(self, model, tmp_path):
        path = tmp_path / "w2v.npz"
        model.save(path)
        restored = Word2Vec.load(path)
        for token in ("filter", "scan", "<num:1e2>"):
            np.testing.assert_array_equal(model.vector(token), restored.vector(token))

    def test_roundtrip_vocab_ids(self, model, tmp_path):
        path = tmp_path / "w2v.npz"
        model.save(path)
        restored = Word2Vec.load(path)
        assert restored.vocab.id_of("filter") == model.vocab.id_of("filter")
        assert restored.vocab.id_of("never_seen") == 0

    def test_roundtrip_config(self, model, tmp_path):
        path = tmp_path / "w2v.npz"
        model.save(path)
        restored = Word2Vec.load(path)
        assert restored.config == model.config

    def test_untrained_save_rejected(self, tmp_path):
        with pytest.raises(TrainingError):
            Word2Vec().save(tmp_path / "x.npz")


class TestPredictorPersistence:
    def test_roundtrip_predictions(self, pipeline, trained, tmp_path):
        predictor = CostPredictor(trained.encoder, trained.trainer)
        record = pipeline.records[0]
        before = predictor.predict(record.plan, record.resources)
        save_predictor(predictor, tmp_path / "model")
        restored = load_predictor(tmp_path / "model")
        after = restored.predict(record.plan, record.resources)
        assert before == pytest.approx(after, abs=1e-9)

    def test_roundtrip_many(self, pipeline, trained, tmp_path):
        predictor = CostPredictor(trained.encoder, trained.trainer)
        pairs = [(r.plan, r.resources) for r in pipeline.records[:6]]
        before = predictor.predict_many(pairs)
        save_predictor(predictor, tmp_path / "model")
        after = load_predictor(tmp_path / "model").predict_many(pairs)
        np.testing.assert_allclose(before, after, atol=1e-9)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(TrainingError):
            load_predictor(tmp_path / "nope")

    def test_persisted_files_exist(self, trained, tmp_path):
        predictor = CostPredictor(trained.encoder, trained.trainer)
        save_predictor(predictor, tmp_path / "model")
        assert (tmp_path / "model" / "meta.json").exists()
        assert (tmp_path / "model" / "model.npz").exists()
        assert (tmp_path / "model" / "word2vec.npz").exists()

    def test_onehot_predictor_roundtrip(self, pipeline, tmp_path):
        tv = pipeline.train_variant("OH-LSTM", epochs=2)
        predictor = CostPredictor(tv.encoder, tv.trainer)
        record = pipeline.records[0]
        before = predictor.predict(record.plan, record.resources)
        save_predictor(predictor, tmp_path / "oh")
        assert not (tmp_path / "oh" / "word2vec.npz").exists()
        after = load_predictor(tmp_path / "oh").predict(record.plan, record.resources)
        assert before == pytest.approx(after, abs=1e-9)


def rewrite_meta(directory, edit) -> None:
    """Apply ``edit`` to a checkpoint's meta.json and re-seal the manifest,
    as if the checkpoint had been saved with that meta in the first place."""
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta, indent=2))
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["meta.json"] = hashlib.sha256(
        meta_path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest, indent=2))


@pytest.fixture()
def saved_dir(pipeline, trained, tmp_path):
    """A freshly saved checkpoint directory, private to each test."""
    predictor = CostPredictor(trained.encoder, trained.trainer)
    path = tmp_path / "model"
    save_predictor(predictor, path)
    return path


class TestCheckpointIntegrity:
    def test_manifest_written_and_verifies(self, saved_dir):
        manifest = json.loads((saved_dir / "manifest.json").read_text())
        assert manifest["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        assert set(manifest["files"]) == {"meta.json", "model.npz", "word2vec.npz"}
        report = verify_checkpoint(saved_dir)
        assert report.ok
        assert "OK" in report.summary()

    def test_no_temp_files_left_behind(self, saved_dir):
        leftovers = [p.name for p in saved_dir.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_truncated_model_detected_and_named(self, saved_dir):
        FaultInjector().truncate_file(saved_dir / "model.npz", keep_fraction=0.5)
        report = verify_checkpoint(saved_dir)
        assert not report.ok
        assert "model.npz" in report.corrupt
        with pytest.raises(CheckpointError, match="model.npz"):
            load_predictor(saved_dir)

    def test_truncated_model_fails_even_non_strict(self, saved_dir):
        FaultInjector().truncate_file(saved_dir / "model.npz", keep_fraction=0.3)
        with pytest.raises(CheckpointError, match="model.npz"):
            with pytest.warns(UserWarning):
                load_predictor(saved_dir, strict=False)

    def test_bit_rot_caught_by_checksum(self, saved_dir):
        FaultInjector(seed=5).flip_bytes(saved_dir / "word2vec.npz", count=8)
        report = verify_checkpoint(saved_dir)
        assert "word2vec.npz" in report.corrupt

    def test_missing_word2vec_named_in_error(self, saved_dir):
        (saved_dir / "word2vec.npz").unlink()
        report = verify_checkpoint(saved_dir)
        assert report.missing == ["word2vec.npz"]
        with pytest.raises(CheckpointError, match="word2vec.npz"):
            load_predictor(saved_dir)

    def test_missing_manifest_strict_rejected_non_strict_recovers(
            self, saved_dir, pipeline):
        (saved_dir / "manifest.json").unlink()
        with pytest.raises(CheckpointError, match="manifest"):
            load_predictor(saved_dir)
        with pytest.warns(UserWarning, match="manifest"):
            restored = load_predictor(saved_dir, strict=False)
        record = pipeline.records[0]
        assert np.isfinite(restored.predict(record.plan, record.resources))

    def test_stale_schema_strict_rejected_non_strict_recovers(
            self, saved_dir, pipeline):
        manifest_path = saved_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="schema"):
            load_predictor(saved_dir)
        with pytest.warns(UserWarning, match="schema"):
            restored = load_predictor(saved_dir, strict=False)
        record = pipeline.records[0]
        assert np.isfinite(restored.predict(record.plan, record.resources))

    def test_garbled_manifest_reported(self, saved_dir):
        (saved_dir / "manifest.json").write_text("{not json")
        report = verify_checkpoint(saved_dir)
        assert "manifest.json" in report.corrupt

    def test_corrupt_meta_named(self, saved_dir):
        (saved_dir / "meta.json").write_text('{"model_config": {}}')
        with pytest.raises(CheckpointError, match="meta.json"):
            with pytest.warns(UserWarning):
                load_predictor(saved_dir, strict=False)

    def test_missing_directory_reports_cleanly(self, tmp_path):
        report = verify_checkpoint(tmp_path / "never-saved")
        assert not report.ok
        assert "does not exist" in " ".join(report.notes)

    def test_resave_refreshes_manifest(self, saved_dir, pipeline, trained):
        # Saving again over the same directory keeps verification green.
        predictor = CostPredictor(trained.encoder, trained.trainer)
        save_predictor(predictor, saved_dir)
        assert verify_checkpoint(saved_dir).ok

    def test_roundtrip_after_recovery_matches_strict_load(
            self, saved_dir, pipeline):
        strict = load_predictor(saved_dir)
        (saved_dir / "manifest.json").unlink()
        with pytest.warns(UserWarning):
            recovered = load_predictor(saved_dir, strict=False)
        record = pipeline.records[0]
        assert strict.predict(record.plan, record.resources) == pytest.approx(
            recovered.predict(record.plan, record.resources), abs=1e-9)


class TestCheckpointConfigKeys:
    def test_checkpoint_with_retired_fast_path_key_predicts_identically(
            self, saved_dir, pipeline):
        """Checkpoints saved before the autograd switches were removed
        carry ``"fast_path": true`` in their trainer config."""
        pairs = [(r.plan, r.resources) for r in pipeline.records[:6]]
        expected = load_predictor(saved_dir).predict_many(pairs)
        rewrite_meta(saved_dir,
                     lambda meta: meta["trainer_config"].update(fast_path=True))
        assert verify_checkpoint(saved_dir).ok
        restored = load_predictor(saved_dir)
        assert not hasattr(restored.trainer.config, "fast_path")
        np.testing.assert_array_equal(restored.predict_many(pairs), expected)

    @pytest.mark.parametrize("section", ["trainer_config", "model_config"])
    def test_unknown_config_key_is_a_checkpoint_error(self, saved_dir,
                                                      section):
        rewrite_meta(saved_dir, lambda meta: meta[section].update(turbo=1))
        with pytest.raises(CheckpointError, match="meta.json.*'turbo'"):
            load_predictor(saved_dir)

    @pytest.mark.parametrize("section,key,value", [
        ("model_config", "hidden_size", "48"),
        ("model_config", "use_node_attention", 1),
        ("trainer_config", "batch_size", 32.5),
        ("trainer_config", "lr_decay_epochs", True),
    ])
    def test_ill_typed_config_value_is_a_checkpoint_error(
            self, saved_dir, section, key, value):
        rewrite_meta(saved_dir, lambda meta: meta[section].update({key: value}))
        with pytest.raises(CheckpointError, match=f"meta.json {section}.{key}"):
            load_predictor(saved_dir)

    def test_invalid_model_config_value_is_a_checkpoint_error(self, saved_dir):
        rewrite_meta(saved_dir, lambda meta: meta["model_config"].update(
            feature_layer="gru"))
        with pytest.raises(CheckpointError, match="meta.json"):
            load_predictor(saved_dir)
