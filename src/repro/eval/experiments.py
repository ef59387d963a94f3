"""Shared experiment harness used by the benchmark suite.

One :class:`ExperimentPipeline` wires the full reproduction pipeline —
catalog → workload → plan collection → encoding → model training →
metrics — with every stage cached on the instance so the per-table
benchmarks can share the expensive steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.baselines.gpsj import GPSJCostModel
from repro.baselines.tlstm import TLSTM, TLSTMConfig, TLSTMTrainer
from repro.cluster.resources import ResourceProfile, ResourceSampler
from repro.cluster.simulator import SimulatorParams, SparkSimulator
from repro.core.raal import RAALConfig
from repro.core.trainer import Trainer, TrainerConfig, TrainingSample
from repro.core.variants import VariantSpec, make_model, variant
from repro.data.imdb import build_imdb_catalog
from repro.data.tpch import build_tpch_catalog
from repro.encoding.plan_encoder import PlanEncoder
from repro.errors import DatasetError
from repro.eval.metrics import Metrics, compute_metrics
from repro.text.word2vec import Word2VecConfig
from repro.workload.collection import CollectionConfig, DataCollector, PlanRecord
from repro.workload.dataset import SplitRecords, split_by_query
from repro.workload.generator import QueryGenerator, WorkloadConfig

__all__ = ["ExperimentScale", "SMOKE", "BENCH", "ExperimentPipeline", "TrainedVariant"]


@dataclass(frozen=True)
class ExperimentScale:
    """Size preset for one experiment run.

    The paper's full scale (6,000 queries → 63,000 records, 50k-record
    training runs) is reachable by raising these numbers; defaults are
    sized so the full benchmark suite runs on one CPU box.
    """

    catalog_scale: float = 0.15
    num_queries: int = 150
    plans_per_query: int = 3
    resource_states_per_plan: int = 5
    word2vec_dim: int = 24
    word2vec_epochs: int = 2
    hidden_size: int = 48
    embedding_dim: int = 48
    epochs: int = 60
    batch_size: int = 32
    max_joins: int = 5
    seed: int = 0


SMOKE = ExperimentScale(
    catalog_scale=0.08, num_queries=24, resource_states_per_plan=2,
    word2vec_dim=12, word2vec_epochs=1, hidden_size=24, embedding_dim=24,
    epochs=8, max_joins=3,
)

BENCH = ExperimentScale()


@dataclass
class TrainedVariant:
    """A trained model variant plus its evaluation artifacts.

    ``train_seconds`` / ``epoch_seconds`` come from the trainer's own
    (injectable) clock, so they include divergence-recovery overhead
    instead of being re-timed around :meth:`Trainer.fit`.
    """

    name: str
    resource_aware: bool
    trainer: Trainer
    encoder: PlanEncoder
    metrics: Metrics
    train_losses: list[float]
    train_seconds: float
    actual: np.ndarray
    estimated: np.ndarray
    epoch_seconds: list[float] = None


class ExperimentPipeline:
    """End-to-end pipeline with per-stage caching.

    Parameters
    ----------
    dataset:
        ``"imdb"`` or ``"tpch"``.
    scale:
        Size preset (:data:`SMOKE` for tests, :data:`BENCH` default).
    workload:
        Predicate class (``"numeric"``, ``"string"``, ``"mixed"``).
    fixed_resources:
        When set, all records use this single resource state (the
        "local Spark / relational-database setting" of Table V/VI).
    """

    def __init__(self, dataset: str = "imdb", scale: ExperimentScale = BENCH,
                 workload: str = "mixed",
                 fixed_resources: ResourceProfile | None = None,
                 simulator_params: SimulatorParams | None = None) -> None:
        if dataset not in ("imdb", "tpch"):
            raise DatasetError(f"unknown dataset {dataset!r}")
        self.dataset = dataset
        self.scale = scale
        self.workload = workload
        self.fixed_resources = fixed_resources
        self.simulator = SparkSimulator(params=simulator_params, seed=scale.seed)
        self._encoders: dict[tuple[bool, bool], PlanEncoder] = {}
        self._samples: dict[tuple[bool, bool, str], list[TrainingSample]] = {}

    # -- pipeline stages ------------------------------------------------------
    @cached_property
    def catalog(self):
        """The synthetic database."""
        if self.dataset == "imdb":
            return build_imdb_catalog(scale=self.scale.catalog_scale,
                                      seed=self.scale.seed + 7)
        return build_tpch_catalog(scale=self.scale.catalog_scale,
                                  seed=self.scale.seed + 11)

    @cached_property
    def queries(self) -> list[str]:
        """Generated workload SQL."""
        generator = QueryGenerator(
            self.catalog,
            WorkloadConfig(max_joins=self.scale.max_joins, workload=self.workload),
            seed=self.scale.seed + 13,
        )
        return generator.generate(self.scale.num_queries)

    @cached_property
    def collector(self) -> DataCollector:
        """The data collector (exposes skip diagnostics)."""
        return DataCollector(
            self.catalog,
            self.simulator,
            sampler=ResourceSampler(),
            config=CollectionConfig(
                plans_per_query=self.scale.plans_per_query,
                resource_states_per_plan=self.scale.resource_states_per_plan,
                fixed_resources=self.fixed_resources,
            ),
            seed=self.scale.seed + 17,
        )

    @cached_property
    def records(self) -> list[PlanRecord]:
        """Collected (plan, resources, cost) records."""
        records = self.collector.collect(self.queries)
        if not records:
            raise DatasetError("data collection produced no records")
        return records

    @cached_property
    def split(self) -> SplitRecords:
        """80/20 query-level train/test split."""
        return split_by_query(self.records, train_fraction=0.8,
                              seed=self.scale.seed + 19)

    def encoder_for(self, spec: VariantSpec) -> PlanEncoder:
        """Fitted plan encoder for a variant (cached by switches)."""
        key = (spec.use_structure, spec.use_onehot)
        if key not in self._encoders:
            train_plans = list({id(r.plan): r.plan for r in self.split.train}.values())
            self._encoders[key] = PlanEncoder.fit(
                train_plans,
                word2vec_config=Word2VecConfig(
                    dim=self.scale.word2vec_dim,
                    epochs=self.scale.word2vec_epochs,
                    seed=self.scale.seed,
                ),
                use_structure=spec.use_structure,
                use_onehot=spec.use_onehot,
            )
        return self._encoders[key]

    def samples_for(self, spec: VariantSpec, part: str) -> list[TrainingSample]:
        """Encoded train/test samples for a variant (cached)."""
        if part not in ("train", "test"):
            raise DatasetError(f"part must be 'train' or 'test', got {part!r}")
        key = (spec.use_structure, spec.use_onehot, part)
        if key not in self._samples:
            encoder = self.encoder_for(spec)
            records = self.split.train if part == "train" else self.split.test
            self._samples[key] = DataCollector.to_samples(records, encoder)
        return self._samples[key]

    # -- model training ---------------------------------------------------------
    def base_model_config(self, spec: VariantSpec) -> RAALConfig:
        """RAAL config sized to this pipeline's encoder output."""
        encoder = self.encoder_for(spec)
        return RAALConfig(
            node_dim=encoder.node_dim,
            extras_dim=encoder.extras_dim,
            embedding_dim=self.scale.embedding_dim,
            hidden_size=self.scale.hidden_size,
            seed=self.scale.seed,
        )

    def train_variant(self, name: str, resource_aware: bool = True,
                      epochs: int | None = None,
                      train_samples: list[TrainingSample] | None = None,
                      seed: int | None = None) -> TrainedVariant:
        """Train one variant and evaluate it on the test split.

        ``seed`` overrides the model/trainer initialization seed (the
        data pipeline's seed is untouched), letting callers average
        metrics over repeated training runs.
        """
        spec = variant(name)
        encoder = self.encoder_for(spec)
        run_seed = self.scale.seed if seed is None else seed
        from dataclasses import replace as _replace
        model = make_model(spec,
                           _replace(self.base_model_config(spec), seed=run_seed),
                           use_resource_attention=resource_aware)
        trainer = Trainer(model, TrainerConfig(
            epochs=epochs if epochs is not None else self.scale.epochs,
            batch_size=self.scale.batch_size,
            seed=run_seed,
        ))
        samples = train_samples if train_samples is not None \
            else self.samples_for(spec, "train")
        result = trainer.fit(samples)
        test = self.samples_for(spec, "test")
        actual = np.array([s.cost_seconds for s in test])
        estimated = trainer.predict_seconds([s.encoded for s in test])
        return TrainedVariant(
            name=name,
            resource_aware=resource_aware,
            trainer=trainer,
            encoder=encoder,
            metrics=compute_metrics(actual, estimated),
            train_losses=result.train_losses,
            train_seconds=result.train_seconds,
            actual=actual,
            estimated=estimated,
            epoch_seconds=list(result.epoch_seconds),
        )

    # -- baselines -------------------------------------------------------------------
    def train_tlstm(self, epochs: int | None = None) -> tuple[TLSTMTrainer, Metrics, np.ndarray, np.ndarray]:
        """Train the TLSTM baseline and evaluate on the test split."""
        spec = variant("RAAL")
        encoder = self.encoder_for(spec)
        model = TLSTM(TLSTMConfig(
            node_dim=encoder.node_dim,
            hidden_size=self.scale.hidden_size,
            seed=self.scale.seed,
        ))
        trainer = TLSTMTrainer(model, epochs=epochs if epochs is not None
                               else self.scale.epochs,
                               seed=self.scale.seed)
        train_records = self.split.train
        trainer.fit(train_records, encoder)
        test_records = self.split.test
        actual = np.array([r.cost_seconds for r in test_records])
        estimated = trainer.predict_seconds(test_records, encoder)
        return trainer, compute_metrics(actual, estimated), actual, estimated

    def evaluate_gpsj(self) -> tuple[Metrics, np.ndarray, np.ndarray]:
        """Evaluate the analytic GPSJ baseline on the test split."""
        model = GPSJCostModel(self.catalog)
        model.calibrate(self.split.train)
        test_records = self.split.test
        actual = np.array([r.cost_seconds for r in test_records])
        estimated = np.array([
            model.estimate(r.plan, r.resources) for r in test_records])
        return compute_metrics(actual, estimated), actual, estimated
