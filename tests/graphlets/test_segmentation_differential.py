"""Worklist segmentation against the fixpoint oracle.

Every graphlet :func:`repro.graphlets.segment_pipeline` produces must
hold exactly the executions and artifacts the rule-(b) fixpoint in
:mod:`tests.graphlets.segmentation_oracle` collects for the same
Trainer. Corpora are drawn small but with the shapes that stress rule
(b) and the foreign-Model cut: warm starts, trainer chaining and A/B
trainers, failed trainers, and injected faults with retries (every
attempt is its own execution). Example counts come from the loaded
Hypothesis profile (``HYPOTHESIS_PROFILE=ci`` runs a deeper search).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusConfig, generate_corpus
from repro.corpus.config import MechanismConfig
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.plan import FaultKind, FaultSpec
from repro.graphlets import segment_pipeline
from repro.mlmd import MetadataStore
from repro.mlmd.types import (Artifact, Context, Event, EventType,
                              Execution, ExecutionState)
from repro.query import as_client

from . import segmentation_oracle

FAULT_OPERATORS = ("*", "Trainer", "StatisticsGen", "SchemaGen",
                   "ExampleValidator", "ExampleGen")
OPERATOR_FAULTS = (FaultKind.TRANSIENT, FaultKind.PERMANENT,
                   FaultKind.STORE_WRITE, FaultKind.ARTIFACT_CORRUPTION)


@st.composite
def corpora(draw):
    """(corpus config, fault plan or None, retry policy or None)."""
    config = CorpusConfig(
        n_pipelines=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31 - 1)),
        max_graphlets_per_pipeline=draw(st.integers(2, 8)),
        max_window_spans=draw(st.integers(1, 6)),
        span_examples_median=200.0,
        warmstart_fraction=draw(st.sampled_from([0.0, 0.06, 1.0])),
        p_distillation=draw(st.sampled_from([0.0, 0.08, 1.0])),
        p_ab_testing=draw(st.sampled_from([0.0, 0.5])),
        p_data_validation=draw(st.sampled_from([0.0, 0.5, 1.0])),
        mechanism=MechanismConfig(
            trainer_fail_base=draw(st.sampled_from([0.03, 0.5])),
            stats_fail_base=draw(st.sampled_from([0.03, 0.3]))),
    )
    if not draw(st.booleans()):
        return config, None, None
    spec = FaultSpec(kind=draw(st.sampled_from(OPERATOR_FAULTS)),
                     operator=draw(st.sampled_from(FAULT_OPERATORS)),
                     probability=draw(st.sampled_from([0.2, 0.6, 1.0])),
                     fail_attempts=draw(st.integers(1, 2)))
    plan = FaultPlan(specs=(spec,), seed=draw(st.integers(0, 1000)))
    retries = RetryPolicy(max_attempts=draw(st.integers(1, 3)))
    return config, plan, retries


class TestWorklistMatchesFixpoint:
    @given(drawn=corpora())
    @settings(deadline=None)
    def test_graphlets_equal_oracle(self, drawn):
        config, plan, retries = drawn
        corpus = generate_corpus(config, fault_plan=plan,
                                 retry_policy=retries)
        client = as_client(corpus.store)
        for context in client.contexts("Pipeline"):
            for graphlet in segment_pipeline(client, context.id):
                oracle = segmentation_oracle.segment_trainer(
                    client, graphlet.trainer_execution_id, context.id)
                assert graphlet.execution_ids == oracle.execution_ids
                assert graphlet.artifact_ids == oracle.artifact_ids


class TestForeignModelCut:
    def test_excluded_model_admitted_when_its_producer_joins(self):
        """A Model first seen as foreign joins once its producer does.

        The Evaluator (rule c) consumes a Model whose producer, a
        StatisticsGen, is not yet in the graphlet, so the Model starts
        out cut; rule (b) then pulls the StatisticsGen in through the
        span, and the Model must follow. The warm-start Model of an
        earlier Trainer stays cut.
        """
        store = MetadataStore()

        def execution(type_name, start):
            return store.put_execution(Execution(
                type_name=type_name, state=ExecutionState.COMPLETE,
                start_time=start))

        def edge(artifact, execution_id, kind):
            store.put_event(Event(artifact, execution_id, kind))

        span = store.put_artifact(Artifact(type_name="DataSpan"))
        earlier = execution("Trainer", 0.0)
        warm = store.put_artifact(Artifact(type_name="Model"))
        edge(warm, earlier, EventType.OUTPUT)
        trainer = execution("Trainer", 1.0)
        edge(span, trainer, EventType.INPUT)
        edge(warm, trainer, EventType.INPUT)
        model = store.put_artifact(Artifact(type_name="Model"))
        edge(model, trainer, EventType.OUTPUT)
        stats = execution("StatisticsGen", 2.0)
        edge(span, stats, EventType.INPUT)
        late = store.put_artifact(Artifact(type_name="Model"))
        edge(late, stats, EventType.OUTPUT)
        evaluator = execution("Evaluator", 3.0)
        edge(model, evaluator, EventType.INPUT)
        edge(late, evaluator, EventType.INPUT)
        context = store.put_context(Context(type_name="Pipeline", name="p"))
        for execution_id in (earlier, trainer, stats, evaluator):
            store.put_association(context, execution_id)

        client = as_client(store)
        graphlet = segment_pipeline(client, context)[1]
        oracle = segmentation_oracle.segment_trainer(client, trainer,
                                                     context)
        assert graphlet.execution_ids == oracle.execution_ids \
            == {trainer, stats, evaluator}
        assert graphlet.artifact_ids == oracle.artifact_ids \
            == {span, model, late}
