"""The rule-(b) fixpoint segmentation, kept as the worklist's oracle.

This is the segmenter :mod:`repro.graphlets.segmentation` ran before
rule (b) became a worklist: every round recomputes the input/output
artifacts of the whole graphlet and re-scans every consumer of every
artifact until no data-analysis execution joins. Rules (a) and (c) are
shared with the production code; only rule (b) and the final artifact
collection live here. ``tests/graphlets/test_segmentation_differential.py``
checks that both segmenters produce the same graphlets.
"""

from __future__ import annotations

from repro.graphlets.graphlet import DATA_ANALYSIS_TYPES, Graphlet
from repro.graphlets.segmentation import (_ancestor_executions,
                                          _descendant_executions)
from repro.mlmd.errors import InvalidQueryError
from repro.query import as_client


def io_artifacts(store, execution_ids: set[int],
                 exclude_foreign_models: bool) -> set[int]:
    """Input/output artifacts of the executions.

    When ``exclude_foreign_models`` is set, Model artifacts produced by
    executions outside the set are dropped — they are the cut warm-start
    inputs belonging to the neighboring graphlet.
    """
    artifact_ids: set[int] = set()
    for execution_id in execution_ids:
        artifact_ids.update(store.get_input_artifact_ids(execution_id))
        artifact_ids.update(store.get_output_artifact_ids(execution_id))
    if not exclude_foreign_models:
        return artifact_ids
    kept: set[int] = set()
    for artifact_id in artifact_ids:
        artifact = store.get_artifact(artifact_id)
        if artifact.type_name in ("Model", "PushedModel"):
            producers = set(store.get_producer_execution_ids(artifact_id))
            if producers and not (producers & execution_ids):
                continue
        kept.add(artifact_id)
    return kept


def segment_trainer(store, trainer_id: int,
                    pipeline_context_id: int) -> Graphlet:
    """Extract the graphlet of one Trainer execution (fixpoint rule b)."""
    store = as_client(store)
    trainer = store.get_execution(trainer_id)
    if trainer.type_name != "Trainer":
        raise InvalidQueryError(
            f"execution {trainer_id} is a {trainer.type_name}, not a Trainer")
    executions = {trainer_id}
    executions |= _ancestor_executions(store, trainer_id)
    executions |= _descendant_executions(store, trainer_id)
    artifacts = io_artifacts(store, executions, exclude_foreign_models=True)
    changed = True
    while changed:
        changed = False
        artifacts = io_artifacts(store, executions,
                                 exclude_foreign_models=True)
        for artifact_id in artifacts:
            for consumer in store.get_consumer_execution_ids(artifact_id):
                if consumer in executions:
                    continue
                if store.get_execution(consumer).type_name \
                        not in DATA_ANALYSIS_TYPES:
                    continue
                executions.add(consumer)
                changed = True
    artifacts = io_artifacts(store, executions, exclude_foreign_models=True)
    return Graphlet(store=store, pipeline_context_id=pipeline_context_id,
                    trainer_execution_id=trainer_id,
                    execution_ids=executions, artifact_ids=artifacts)
