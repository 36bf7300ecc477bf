"""Runtime fault-injection and retry tests.

Covers the tentpole semantics: every attempt is its own MLMD execution
with ``retry_of`` / ``attempt`` / ``failure_kind`` provenance, corrupted
artifacts poison consumers, and a cache hit never masks a failure.
"""

import pytest

from repro.data import random_schema, synthetic_span
from repro.faults import FaultPlan, RetryPolicy
from repro.fleet import ExecutionCache
from repro.mlmd import ExecutionState, MetadataStore
from repro.obs.metrics import get_registry
from repro.tfx import (
    BLOCKED,
    CACHED,
    FAILED,
    RAN,
    ExampleGen,
    ExampleValidator,
    Evaluator,
    ModelValidator,
    NodeInput,
    PipelineDef,
    PipelineNode,
    PipelineRunner,
    Pusher,
    SchemaGen,
    StatisticsGen,
    Trainer,
)


def _pipeline():
    return PipelineDef("test", [
        PipelineNode("gen", ExampleGen(), stage="ingest"),
        PipelineNode("stats", StatisticsGen(),
                     inputs={"spans": NodeInput("gen", "span")},
                     stage="ingest"),
        PipelineNode("schema", SchemaGen(),
                     inputs={"statistics": NodeInput("stats",
                                                     "statistics")},
                     stage="ingest"),
        PipelineNode("validator", ExampleValidator(),
                     inputs={"statistics": NodeInput("stats",
                                                     "statistics"),
                             "schema": NodeInput("schema", "schema")},
                     stage="ingest"),
        PipelineNode("trainer", Trainer(),
                     inputs={"spans": NodeInput("gen", "span", window=2)},
                     gates=["validator"]),
        PipelineNode("evaluator", Evaluator(),
                     inputs={"model": NodeInput("trainer", "model"),
                             "spans": NodeInput("gen", "span")}),
        PipelineNode("mvalidator", ModelValidator(),
                     inputs={"evaluation": NodeInput("evaluator",
                                                     "evaluation"),
                             "model": NodeInput("trainer", "model")}),
        PipelineNode("pusher", Pusher(),
                     inputs={"model": NodeInput("trainer", "model"),
                             "blessing": NodeInput("mvalidator",
                                                   "blessing")},
                     gates=["mvalidator"]),
    ])


def _hints(schema, rng, span_id, now=0.0, **overrides):
    hints = {
        "new_span": synthetic_span(schema, span_id, 1000, rng,
                                   ingest_time=now),
        "data_validation_ok": True,
        "model_quality": 0.8,
        "model_blessed": True,
        "push_throttled": False,
    }
    hints.update(overrides)
    return hints


def _runner(rng, store=None, **kwargs):
    store = store or MetadataStore()
    runner = PipelineRunner(_pipeline(), store, rng, simulation=True,
                            **kwargs)
    return store, runner


def _executions_of(store, type_name):
    return [e for e in store.get_executions()
            if e.type_name == type_name]


class TestTransientRetry:
    def test_retry_succeeds_with_provenance(self, rng):
        plan = FaultPlan.parse("transient:Trainer:1.0:1", seed=5)
        store, runner = _runner(
            rng, fault_injector=plan.injector(0),
            retry_policy=RetryPolicy(max_attempts=2))
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0))
        assert report.node_status["trainer"] == RAN
        attempts = _executions_of(store, "Trainer")
        assert len(attempts) == 2
        failed, final = attempts
        assert failed.state is ExecutionState.FAILED
        assert failed.get("failure_kind") == "transient"
        assert failed.get("failed_node") == "trainer"
        assert failed.get("failed_operator") == "Trainer"
        assert failed.get("attempt") is None  # first attempts untagged
        assert final.state is ExecutionState.COMPLETE
        assert final.get("attempt") == 2
        assert final.get("retry_of") == failed.id
        # The report points at the attempt that stuck.
        assert report.execution_ids["trainer"] == final.id
        # Downstream saw a healthy trainer.
        assert report.node_status["evaluator"] == RAN

    def test_retry_attempt_starts_after_backoff(self, rng):
        plan = FaultPlan.parse("transient:Trainer:1.0:1", seed=5)
        store, runner = _runner(
            rng, fault_injector=plan.injector(0),
            retry_policy=RetryPolicy(max_attempts=2,
                                     backoff_base_hours=0.5))
        schema = random_schema(rng, n_features=4)
        runner.run(0.0, kind="train", hints=_hints(schema, rng, 0))
        failed, final = _executions_of(store, "Trainer")
        assert final.start_time >= failed.end_time + 0.5

    def test_retries_counted(self, rng):
        counter = get_registry().counter("runtime.retry_attempts")
        before = counter.value
        plan = FaultPlan.parse("transient:Trainer:1.0:1", seed=5)
        store, runner = _runner(
            rng, fault_injector=plan.injector(0),
            retry_policy=RetryPolicy(max_attempts=2))
        schema = random_schema(rng, n_features=4)
        runner.run(0.0, kind="train", hints=_hints(schema, rng, 0))
        assert counter.value == before + 1

    def test_failed_attempt_cost_counted(self, rng):
        plan = FaultPlan.parse("transient:Trainer:1.0:1", seed=5)
        store, runner = _runner(
            rng, fault_injector=plan.injector(0),
            retry_policy=RetryPolicy(max_attempts=2))
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0))
        per_execution = sum(
            float(e.get("cpu_hours", 0.0))
            for e in store.get_executions())
        assert report.total_cpu_hours == pytest.approx(per_execution)


class TestPermanentFailure:
    def test_budget_exhausted(self, rng):
        plan = FaultPlan.parse("permanent:Trainer:1.0:1", seed=5)
        store, runner = _runner(
            rng, fault_injector=plan.injector(0),
            retry_policy=RetryPolicy(max_attempts=3))
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0))
        assert report.node_status["trainer"] == FAILED
        attempts = _executions_of(store, "Trainer")
        assert len(attempts) == 3
        assert all(e.state is ExecutionState.FAILED for e in attempts)
        assert [e.get("attempt") for e in attempts] == [None, 2, 3]
        assert [e.get("retry_of") for e in attempts[1:]] == \
            [attempts[0].id, attempts[1].id]
        assert report.node_status["evaluator"] == BLOCKED

    def test_without_policy_single_attempt(self, rng):
        plan = FaultPlan.parse("transient:Trainer:1.0:1", seed=5)
        store, runner = _runner(rng, fault_injector=plan.injector(0))
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0))
        assert report.node_status["trainer"] == FAILED
        assert len(_executions_of(store, "Trainer")) == 1


class TestCorruption:
    def test_corrupt_output_poisons_consumer(self, rng):
        plan = FaultPlan.parse("artifact_corruption:ExampleGen:1.0:1",
                               seed=5)
        store, runner = _runner(rng, fault_injector=plan.injector(0))
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0))
        # The producer itself completes — corruption is silent.
        assert report.node_status["gen"] == RAN
        gen_execution = store.get_execution(report.execution_ids["gen"])
        assert gen_execution.state is ExecutionState.COMPLETE
        spans = [a for a in store.get_artifacts()
                 if a.type_name == "DataSpan"]
        assert all(a.get("corrupted") is True for a in spans)
        # The consumer fails permanently: retrying cannot fix its input.
        assert report.node_status["stats"] == FAILED
        stats = _executions_of(store, "StatisticsGen")[0]
        assert stats.get("failure_kind") == "corrupt_input"
        assert report.node_status["schema"] == BLOCKED

    def test_store_write_fault_charges_compute(self, rng):
        plan = FaultPlan.parse("store_write:StatisticsGen:1.0:1", seed=5)
        store, runner = _runner(rng, fault_injector=plan.injector(0))
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0))
        assert report.node_status["stats"] == FAILED
        stats = _executions_of(store, "StatisticsGen")[0]
        assert stats.get("failure_kind") == "store_write"
        assert stats.get("cpu_hours") > 0  # work ran, write failed


def _cache_pipeline():
    # StatisticsGen is cache-safe; keeping it in the train stage means
    # a retrain re-runs it on the identical window — a genuine hit.
    return PipelineDef("cache", [
        PipelineNode("gen", ExampleGen(), stage="ingest"),
        PipelineNode("stats", StatisticsGen(),
                     inputs={"spans": NodeInput("gen", "span", window=2)}),
    ])


class TestCacheNeverMasksFailure:
    def _cache_runner(self, rng, **kwargs):
        store = MetadataStore()
        runner = PipelineRunner(_cache_pipeline(), store, rng,
                                simulation=True, **kwargs)
        return store, runner

    def test_hint_failure_beats_cache_hit(self, rng):
        store, runner = self._cache_runner(
            rng, execution_cache=ExecutionCache())
        schema = random_schema(rng, n_features=4)
        runner.run(0.0, kind="train", hints=_hints(schema, rng, 0))
        # Control: a retrain on the same window is served from cache.
        control = runner.run(1.0, kind="retrain",
                             hints=_hints(schema, rng, 1))
        assert control.node_status["stats"] == CACHED
        report = runner.run(2.0, kind="retrain",
                            hints=_hints(schema, rng, 2,
                                         fail_nodes={"stats"}))
        assert report.node_status["stats"] == FAILED
        execution = store.get_execution(report.execution_ids["stats"])
        assert execution.get("failure_kind") == "injected"

    def test_injector_failure_beats_cache_hit(self, rng):
        store, runner = self._cache_runner(
            rng, execution_cache=ExecutionCache())
        schema = random_schema(rng, n_features=4)
        runner.run(0.0, kind="train", hints=_hints(schema, rng, 0))
        plan = FaultPlan.parse("transient:StatisticsGen:1.0", seed=5)
        runner.fault_injector = plan.injector(0)
        report = runner.run(1.0, kind="retrain",
                            hints=_hints(schema, rng, 1))
        assert report.node_status["stats"] == FAILED

    def test_faulted_execution_never_consults_cache(self, rng):
        plan = FaultPlan.parse("artifact_corruption:ExampleGen:1.0:1",
                               seed=5)
        cache = ExecutionCache()
        store, runner = self._cache_runner(
            rng, execution_cache=cache, fault_injector=plan.injector(0))
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0))
        assert report.node_status["stats"] == FAILED
        # A faulted execution must never touch the cache: no lookup (a
        # hit would mask the failure) and no store (replaying it later
        # would resurrect the corruption as a "clean" hit).
        assert cache.hits == 0
        assert cache.misses == 0


class TestFailureProvenance:
    def test_exception_message_persisted(self, rng):
        class Exploding(Trainer):
            def run(self, ctx, inputs):
                raise RuntimeError("gpu fell off the bus")

        store = MetadataStore()
        pipeline = PipelineDef("p", [
            PipelineNode("gen", ExampleGen(), stage="ingest"),
            PipelineNode("trainer", Exploding(),
                         inputs={"spans": NodeInput("gen", "span")}),
        ])
        runner = PipelineRunner(pipeline, store, rng, simulation=True)
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0))
        execution = store.get_execution(report.execution_ids["trainer"])
        assert execution.get("error") == "RuntimeError"
        assert "gpu fell off the bus" in execution.get("error_message")
        assert execution.get("failed_node") == "trainer"
        assert execution.get("failure_kind") == "operator_error"

    def test_singular_fail_node_hint_removed(self, rng):
        """The deprecation window is closed: the singular alias fails
        loudly, naming its replacement, instead of being ignored."""
        _, runner = _runner(rng)
        schema = random_schema(rng, n_features=4)
        with pytest.raises(TypeError, match="fail_nodes"):
            runner.run(0.0, kind="train",
                       hints=_hints(schema, rng, 0, fail_node="trainer"))

    def test_fail_nodes_hint_warning_free(self, rng, recwarn):
        store, runner = _runner(rng)
        schema = random_schema(rng, n_features=4)
        report = runner.run(0.0, kind="train",
                            hints=_hints(schema, rng, 0,
                                         fail_nodes={"trainer"}))
        assert report.node_status["trainer"] == FAILED
        execution = store.get_execution(report.execution_ids["trainer"])
        assert execution.get("failure_kind") == "injected"
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
