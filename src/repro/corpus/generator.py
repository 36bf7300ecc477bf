"""Corpus generation: simulate every pipeline's life on a shared store.

For each pipeline: sample an archetype and schema, then walk its lifespan
on a simulated clock — every tick ingests one span (``ingest`` run) and
every ``train_every``-th tick triggers a full training run whose outcome
hints come from the pipeline's :class:`~repro.corpus.mechanism.PushMechanism`.
The result is a single :class:`~repro.mlmd.MetadataStore` holding every
trace, exactly the shape of the corpus the paper analyzes (Section 2.2),
plus per-pipeline records for ground-truth-aware benches.

The paper's corpus filter — pipelines with at least one trained and one
deployed model — is applied by :attr:`Corpus.production_records`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..data.drift import DriftConfig, DriftProcess
from ..data.generators import (
    CATEGORICAL_FRACTION,
    random_schema,
    sample_feature_count,
    synthetic_span,
)
from ..mlmd import MetadataStore
from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from ..obs.tracing import span
from ..tfx.runtime import PipelineRunner
from .archetypes import PipelineArchetype, build_pipeline, sample_archetype
from .config import CorpusConfig
from .mechanism import PushMechanism

_log = get_logger("corpus.generator")

#: Called after each pipeline with ``(done, total, store)``.
ProgressCallback = Callable[[int, int, MetadataStore], None]


def print_progress_every(every: int = 50) -> ProgressCallback:
    """The classic CLI progress line, printed every ``every`` pipelines."""
    def callback(done: int, total: int, store: MetadataStore) -> None:
        if done % every == 0:
            print(f"generated {done}/{total} pipelines; "
                  f"store: {store.num_executions} executions")
    return callback


@dataclass
class PipelineRecord:
    """One generated pipeline: its archetype, trace handle, and tallies."""

    archetype: PipelineArchetype
    context_id: int
    n_runs: int = 0
    n_train_runs: int = 0
    n_models: int = 0
    n_pushes: int = 0

    @property
    def is_production(self) -> bool:
        """The paper's corpus filter: >= 1 model and >= 1 deployment."""
        return self.n_models >= 1 and self.n_pushes >= 1


@dataclass
class Corpus:
    """A generated corpus: the shared store plus per-pipeline records."""

    store: MetadataStore
    records: list[PipelineRecord] = field(default_factory=list)
    config: CorpusConfig | None = None

    @property
    def production_records(self) -> list[PipelineRecord]:
        """Records passing the production filter (Section 2.2)."""
        return [r for r in self.records if r.is_production]

    @property
    def production_context_ids(self) -> list[int]:
        """Context ids of production pipelines.

        When the corpus was reloaded from disk (no generator records),
        the filter is derived from the trace itself, exactly as the
        paper selects its corpus: pipelines with at least one trained
        model and at least one deployed model.
        """
        if self.records:
            return [r.context_id for r in self.production_records]
        return production_context_ids_from_store(self.store)

    @property
    def client(self):
        """The shared :class:`repro.query.MetadataClient` over the store."""
        from ..query import as_client
        return as_client(self.store)

    @classmethod
    def from_store(cls, store: MetadataStore) -> "Corpus":
        """Wrap a (possibly reloaded) trace store as a corpus."""
        return cls(store=store)


def production_context_ids_from_store(store: MetadataStore) -> list[int]:
    """The paper's corpus filter applied to a bare trace store."""
    from ..query import as_client
    client = as_client(store)
    out = []
    for context in client.contexts("Pipeline"):
        has_model = False
        has_push = False
        for artifact in client.get_artifacts_by_context(context.id):
            if artifact.type_name == "Model":
                has_model = True
            elif artifact.type_name == "PushedModel":
                has_push = True
            if has_model and has_push:
                out.append(context.id)
                break
    return out


def sample_pipeline_plan(rng: np.random.Generator, config: CorpusConfig,
                         index: int) -> tuple[PipelineArchetype, float]:
    """Sample one pipeline's archetype and corpus start time.

    This is the exact per-pipeline draw sequence of the sequential
    generator (feature count, categorical fraction, archetype, start
    time), factored out so sharded generation (:mod:`repro.fleet`) can
    replay it against a per-pipeline derived rng. Keep the draw order
    stable: both paths' determinism depends on it.
    """
    n_features = sample_feature_count(rng)
    categorical_fraction = float(np.clip(
        rng.normal(CATEGORICAL_FRACTION, 0.15), 0.05, 0.95))
    archetype = sample_archetype(rng, config, index, n_features,
                                 categorical_fraction)
    corpus_span_hours = config.corpus_span_days * 24.0
    latest_start = max(corpus_span_hours
                       - archetype.lifespan_days * 24.0, 0.0)
    start_time = float(rng.uniform(0.0, latest_start)) \
        if latest_start > 0 else 0.0
    return archetype, start_time


def _simulate_pipeline(store: MetadataStore, config: CorpusConfig,
                       archetype: PipelineArchetype,
                       rng: np.random.Generator,
                       start_time: float,
                       execution_cache=None,
                       fault_injector=None,
                       retry_policy=None) -> PipelineRecord:
    pipeline = build_pipeline(archetype)
    runner = PipelineRunner(
        pipeline, store, rng, simulation=True,
        cost_model=config.cost_model,
        pipeline_cost_scale=archetype.pipeline_cost_scale,
        execution_cache=execution_cache,
        fault_injector=fault_injector,
        retry_policy=retry_policy)
    schema = random_schema(
        rng, n_features=archetype.n_features,
        categorical_fraction=archetype.categorical_fraction,
        domain_scale=archetype.domain_scale)
    base = config.drift
    m = archetype.drift_multiplier
    drift_config = DriftConfig(
        numeric_mean_step=base.numeric_mean_step * m,
        numeric_scale_step=base.numeric_scale_step * m,
        numeric_weight_step=base.numeric_weight_step * m,
        numeric_offset_step=base.numeric_offset_step * m,
        zipf_step=base.zipf_step * m,
        shock_probability=base.shock_probability,
        shock_scale=base.shock_scale)
    drift = DriftProcess(schema, rng, drift_config)
    mechanism = PushMechanism(archetype, config, rng)
    record = PipelineRecord(archetype=archetype,
                            context_id=runner.context_id)

    now = start_time
    end_time = start_time + archetype.lifespan_days * 24.0
    span_id = 0
    # Cap span statistics to a fixed-size feature subset for the tail of
    # huge-feature pipelines; the recorded feature_count property stays
    # truthful via the 'true_feature_count' hint below.
    capped = len(schema) > 256

    while (now < end_time
           and record.n_train_runs < config.max_graphlets_per_pipeline):
        num_examples = max(int(rng.lognormal(
            np.log(config.span_examples_median),
            config.span_examples_sigma)), 100)
        drifted = drift.step()
        mechanism.note_drift(drift)
        if capped:
            drifted = _truncate(drifted, 256)
        span = synthetic_span(drifted, span_id, num_examples, rng,
                              ingest_time=now,
                              noise=config.statistics_noise)
        # Train only on full windows: continuous pipelines warm up their
        # rolling window before the first model (otherwise early graphlets
        # would share truncated, near-identical span sequences).
        is_train = ((span_id + 1) % archetype.train_every == 0
                    and span_id + 1 >= archetype.window_spans)
        kind = "train" if is_train else "ingest"
        hints = mechanism.begin_run(now, kind, drift)
        hints["new_span"] = span
        hints["true_feature_count"] = archetype.n_features
        report = runner.run(now, kind=kind, hints=hints)
        record.n_runs += 1
        if is_train:
            record.n_train_runs += 1
            mechanism.observe(report, now)
            _tally(record, report)
        # Author-driven retrains on the same window, spread across the
        # remainder of the span period.
        n_retrains = archetype.retrains_per_trigger - 1 if is_train else 0
        retrain_gap = archetype.span_period_hours / max(
            archetype.retrains_per_trigger, 1)
        for retrain_index in range(n_retrains):
            if record.n_train_runs >= config.max_graphlets_per_pipeline:
                break
            retrain_now = now + retrain_gap * (retrain_index + 1)
            hints = mechanism.begin_run(retrain_now, "retrain", drift)
            report = runner.run(retrain_now, kind="retrain", hints=hints)
            record.n_runs += 1
            record.n_train_runs += 1
            mechanism.observe(report, retrain_now)
            _tally(record, report)
        span_id += 1
        now += archetype.span_period_hours
    return record


def _tally(record: PipelineRecord, report) -> None:
    # Teacher trainers (distillation chains) also produce models — each
    # is its own graphlet per the segmentation's Trainer cut.
    record.n_models += sum(
        1 for node_id, ids in report.output_artifact_ids.items()
        if (node_id.startswith("trainer") or node_id.startswith("teacher"))
        and ids)
    record.n_pushes += sum(
        1 for node_id, ids in report.output_artifact_ids.items()
        if node_id.startswith("pusher") and ids)


def _truncate(schema, n: int):
    from ..data.schema import Schema
    return Schema.from_columns(schema.columns().head(n))


def generate_corpus(config: CorpusConfig | None = None,
                    progress: bool = False,
                    progress_callback: ProgressCallback | None = None,
                    telemetry: bool = False,
                    fault_plan=None,
                    retry_policy=None,
                    store: MetadataStore | None = None) -> Corpus:
    """Generate a full corpus per the configuration.

    Deterministic given ``config.seed``. With ``progress=True`` (and no
    explicit callback) the classic line is printed every 50 pipelines
    (corpus generation at bench scale takes tens of seconds). Pass
    ``progress_callback`` for custom reporting; it is invoked after
    every pipeline with the metrics-derived completion count.

    With ``telemetry=True`` a provenance-aware sink is attached to the
    store before simulation, so every execution gains a joinable
    telemetry row and a final metrics snapshot is persisted — the
    input ``repro diagnose`` / ``repro dashboard`` query.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects
    seeded operator faults per pipeline; ``retry_policy`` (a
    :class:`repro.faults.RetryPolicy`) lets the runner re-attempt
    failures, persisting every attempt as provenance.

    ``store`` supplies the (empty) destination store; the default is a
    fresh in-memory store. Passing one lets callers pre-subscribe a
    :class:`repro.query.MetadataClient` so its indexes are maintained
    incrementally *during* generation (the query-scaling bench measures
    that maintenance overhead).
    """
    config = config or CorpusConfig()
    rng = np.random.default_rng(config.seed)
    store = store if store is not None else MetadataStore()
    sink = None
    if telemetry:
        from ..obs.provenance import attach_sink
        sink = attach_sink(store)
    corpus = Corpus(store=store, config=config)
    if progress_callback is None and progress:
        progress_callback = print_progress_every(50)
    registry = get_registry()
    pipelines_done = registry.counter("corpus.pipelines_generated")
    done_base = pipelines_done.value
    _log.info("corpus_generation_started", pipelines=config.n_pipelines,
              seed=config.seed)
    with span("corpus.generate", n_pipelines=config.n_pipelines,
              seed=config.seed):
        for index in range(config.n_pipelines):
            archetype, start_time = sample_pipeline_plan(rng, config,
                                                         index)
            injector = (fault_plan.injector(index)
                        if fault_plan is not None else None)
            with span("corpus.pipeline", index=index,
                      archetype=archetype.name), \
                    registry.timer("corpus.pipeline_seconds") as timer:
                record = _simulate_pipeline(store, config, archetype, rng,
                                            start_time,
                                            fault_injector=injector,
                                            retry_policy=retry_policy)
            pipelines_done.value += 1
            corpus.records.append(record)
            _log.debug("pipeline_generated", index=index,
                       archetype=archetype.name, runs=record.n_runs,
                       train_runs=record.n_train_runs,
                       seconds=timer.elapsed)
            if progress_callback is not None:
                progress_callback(int(pipelines_done.value - done_base),
                                  config.n_pipelines, store)
    if sink is not None:
        # Persist the fleet-level instrument snapshot so dashboards can
        # read op counts and wall-time histograms out of the corpus
        # database instead of a side-channel JSONL file.
        sink.record_registry(registry)
    _log.info("corpus_generated", pipelines=len(corpus.records),
              executions=store.num_executions,
              artifacts=store.num_artifacts, events=store.num_events,
              telemetry=store.num_telemetry)
    return corpus
