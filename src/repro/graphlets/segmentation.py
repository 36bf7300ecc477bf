"""Graphlet segmentation of pipeline traces (Section 4.1, Appendix A).

Given a Trainer execution ``n``, its graphlet comprises:

  (a) all ancestor executions of ``n`` (and their input/output artifacts),
      where ancestor traversal *cuts* at other Trainer executions — a
      warm-start or model-chaining edge is a boundary between graphlets
      (the paper's Figure 8 cut);
  (b) all data-analysis/-validation executions performed on data spans
      (or artifacts) already collected by rule (a), plus their
      input/output artifacts — these validators gate training without
      being data ancestors of the Trainer;
  (c) all descendant executions of ``n`` that are not on paths to other
      Trainer executions — implemented per Appendix A with the stop
      predicate ``sc`` = {Trainer, Transform} executions.

The imperative implementation here is the production path;
:mod:`repro.graphlets.datalog_rules` runs the same queries on the
Datalog engine and the test-suite checks equivalence.

Entry points accept a raw store or a :class:`~repro.query.MetadataClient`.
Raw stores are routed through :func:`repro.query.as_client`, so
:func:`segment_pipeline` / :func:`segment_corpus` always run over the
client's adjacency indexes and hit its LRU segmentation cache (keyed on
context id + index version) on repeated calls.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..mlmd import MetadataStore
from ..mlmd.errors import InvalidQueryError
from ..obs.metrics import get_registry
from ..obs.tracing import span
from .graphlet import DATA_ANALYSIS_TYPES, STOP_TYPES, Graphlet

if TYPE_CHECKING:
    from ..query import MetadataClient


def _ancestor_executions(store: MetadataStore, trainer_id: int) -> set[int]:
    """Rule (a) executions: ancestors, cutting at other Trainers."""
    seen: set[int] = set()
    frontier = deque([trainer_id])
    while frontier:
        current = frontier.popleft()
        for artifact_id in store.get_input_artifact_ids(current):
            for producer in store.get_producer_execution_ids(artifact_id):
                if producer in seen or producer == trainer_id:
                    continue
                if store.get_execution(producer).type_name == "Trainer":
                    continue  # Warm-start / chaining cut.
                seen.add(producer)
                frontier.append(producer)
    return seen


def _descendant_executions(store: MetadataStore, trainer_id: int
                           ) -> set[int]:
    """Rule (c) executions: descendants, stopping at sc nodes."""
    seen: set[int] = set()
    frontier = deque([trainer_id])
    while frontier:
        current = frontier.popleft()
        for artifact_id in store.get_output_artifact_ids(current):
            for consumer in store.get_consumer_execution_ids(artifact_id):
                if consumer in seen or consumer == trainer_id:
                    continue
                if store.get_execution(consumer).type_name in STOP_TYPES:
                    continue
                seen.add(consumer)
                frontier.append(consumer)
    return seen


def _foreign_model(store: MetadataStore, artifact_id: int,
                   execution_ids: set[int]) -> bool:
    """True for a Model/PushedModel produced only outside the executions.

    Such an artifact is a cut warm-start input belonging to the
    neighboring graphlet.
    """
    if store.get_artifact(artifact_id).type_name not in ("Model",
                                                         "PushedModel"):
        return False
    producers = store.get_producer_execution_ids(artifact_id)
    return bool(producers) and execution_ids.isdisjoint(producers)


def _analysis_closure(store: MetadataClient,
                      executions: set[int]) -> set[int]:
    """Rule (b): add data-analysis consumers; return the graphlet artifacts.

    A worklist over artifacts. Each execution that joins ``executions``
    (grown in place) admits its input/output artifacts, minus foreign
    Models; each admitted artifact has its consumers scanned exactly
    once, and the data-analysis ones join in turn. That captures whole
    analysis chains (span → statistics → schema → validation). An
    excluded Model is admitted later if its producer joins, because it
    is among that producer's outputs. The result is the least fixpoint
    of "every data-analysis consumer of a graphlet artifact is in the
    graphlet", and the admitted artifacts are exactly the I/O artifacts
    of the final executions minus foreign Models.
    """
    by_type = store.indexes.executions_by_type
    analysis = [by_type.get(t, {}) for t in DATA_ANALYSIS_TYPES]
    artifacts: set[int] = set()
    frontier: list[int] = []

    def admit(execution_id: int) -> None:
        for artifact_ids in (store.get_input_artifact_ids(execution_id),
                             store.get_output_artifact_ids(execution_id)):
            for artifact_id in artifact_ids:
                if artifact_id in artifacts or _foreign_model(
                        store, artifact_id, executions):
                    continue
                artifacts.add(artifact_id)
                frontier.append(artifact_id)

    for execution_id in list(executions):
        admit(execution_id)
    # Consumers whose membership is decided: a span's consumers recur
    # across the graphlet's artifacts (every trainer of a rolling window).
    decided = set(executions)
    while frontier:
        for consumer in store.get_consumer_execution_ids(frontier.pop()):
            if consumer in decided:
                continue
            decided.add(consumer)
            if any(consumer in ids for ids in analysis):
                executions.add(consumer)
                admit(consumer)
    return artifacts


def segment_trainer(store: MetadataStore, trainer_id: int,
                    pipeline_context_id: int) -> Graphlet:
    """Extract the graphlet of one Trainer execution."""
    from ..query import as_client
    store = as_client(store)
    trainer = store.get_execution(trainer_id)
    if trainer.type_name != "Trainer":
        raise InvalidQueryError(
            f"execution {trainer_id} is a {trainer.type_name}, not a Trainer")
    executions = {trainer_id}
    executions |= _ancestor_executions(store, trainer_id)
    executions |= _descendant_executions(store, trainer_id)
    # Rule (b): data-analysis/validation executions over collected
    # artifacts (per-span statistics, schema inference, and validation
    # runs), one consumer scan per artifact.
    artifacts = _analysis_closure(store, executions)
    return Graphlet(store=store, pipeline_context_id=pipeline_context_id,
                    trainer_execution_id=trainer_id,
                    execution_ids=executions, artifact_ids=artifacts)


def segment_pipeline(store: MetadataStore,
                     pipeline_context_id: int) -> list[Graphlet]:
    """All graphlets of one pipeline, in chronological trainer order.

    Chronological order is what defines *consecutive graphlets*
    (Section 4.2) for the similarity and cadence analyses.

    Raw stores are routed through the client's LRU-cached segmenter;
    the computation below runs on cache misses (the client calls back
    in with itself as ``store``).
    """
    from ..query import MetadataClient, as_client
    if not isinstance(store, MetadataClient):
        return as_client(store).segment_pipeline(pipeline_context_id)
    registry = get_registry()
    with span("graphlets.segment_pipeline",
              context_id=pipeline_context_id), \
            registry.timer("graphlets.segment_pipeline_seconds"):
        trainers = [
            e for e in store.get_executions_by_context(pipeline_context_id)
            if e.type_name == "Trainer"
        ]
        trainers.sort(key=lambda e: (e.start_time, e.id))
        graphlets = [segment_trainer(store, t.id, pipeline_context_id)
                     for t in trainers]
    registry.counter("graphlets.segmented").inc(len(graphlets))
    return graphlets


def segment_corpus(store: MetadataStore) -> dict[int, list[Graphlet]]:
    """Graphlets of every pipeline in the store, keyed by context id."""
    from ..query import as_client
    client = as_client(store)
    return {context.id: client.segment_pipeline(context.id)
            for context in client.contexts("Pipeline")}


def consecutive_pairs(graphlets: list[Graphlet]
                      ) -> list[tuple[Graphlet, Graphlet]]:
    """Adjacent-in-time graphlet pairs of one pipeline (Section 4.2)."""
    return list(zip(graphlets, graphlets[1:]))
