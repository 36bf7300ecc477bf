"""The model graphlet: a per-model sub-trace (Section 4.1).

A graphlet is the subgraph of a pipeline trace capturing one end-to-end
logical pipeline run around a single Trainer execution: its data
ancestors (rule a), associated data-analysis/validation executions
(rule b), and its post-training descendants up to the next Trainer
(rule c). This class is a lightweight view over the metadata store; the
segmentation algorithms in :mod:`repro.graphlets.segmentation` produce
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mlmd import Execution, ExecutionState, MetadataStore
from ..similarity.feature_metric import SpanDigest
from ..tfx import artifacts as A

#: Execution type names counted as data analysis / validation (rule b).
DATA_ANALYSIS_TYPES = frozenset({
    "StatisticsGen", "SchemaGen", "ExampleValidator",
})

#: Execution type names that stop descendant traversal (Appendix A's sc).
STOP_TYPES = frozenset({"Trainer", "Transform"})


@dataclass
class Graphlet:
    """One model graphlet.

    Attributes:
        store: The metadata store the ids refer to.
        pipeline_context_id: The owning pipeline's Context id.
        trainer_execution_id: The central Trainer execution.
        execution_ids: All executions in the graphlet (trainer included).
        artifact_ids: All artifacts in the graphlet.
    """

    store: MetadataStore
    pipeline_context_id: int
    trainer_execution_id: int
    execution_ids: set[int] = field(default_factory=set)
    artifact_ids: set[int] = field(default_factory=set)

    # ------------------------------------------------------------ nodes

    @property
    def trainer(self) -> Execution:
        """The central Trainer execution."""
        return self.store.get_execution(self.trainer_execution_id)

    def executions(self) -> list[Execution]:
        """All executions, ordered by start time."""
        rows = [self.store.get_execution(i) for i in self.execution_ids]
        return sorted(rows, key=lambda e: (e.start_time, e.id))

    @property
    def node_count(self) -> int:
        """Total executions + artifacts in the graphlet."""
        return len(self.execution_ids) + len(self.artifact_ids)

    # ------------------------------------------------------------ model

    @property
    def model_artifact_id(self) -> int | None:
        """The Model artifact produced by the trainer (None if it failed)."""
        for artifact_id in self.store.get_output_artifact_ids(
                self.trainer_execution_id):
            if self.store.get_artifact(artifact_id).type_name == A.MODEL:
                return artifact_id
        return None

    @property
    def model_type(self) -> str:
        """The trained model's type ('unknown' when training failed)."""
        model_id = self.model_artifact_id
        if model_id is None:
            return "unknown"
        return str(self.store.get_artifact(model_id).get("model_type",
                                                         "unknown"))

    @property
    def architecture(self) -> str:
        """DNN architecture label (empty for non-DNN models)."""
        model_id = self.model_artifact_id
        if model_id is None:
            return ""
        return str(self.store.get_artifact(model_id).get("architecture", ""))

    @property
    def code_version(self) -> str:
        """Trainer code version (recorded even when training failed)."""
        version = self.trainer.get("code_version")
        if version:
            return str(version)
        model_id = self.model_artifact_id
        if model_id is None:
            return ""
        return str(self.store.get_artifact(model_id).get("code_version", ""))

    @property
    def warm_started(self) -> bool:
        """True if the trainer was warm-started from a previous model."""
        model_id = self.model_artifact_id
        if model_id is None:
            return False
        return bool(self.store.get_artifact(model_id).get("warm_started",
                                                          False))

    @property
    def trainer_failed(self) -> bool:
        """True when the Trainer execution itself failed."""
        return self.trainer.state is ExecutionState.FAILED

    # ------------------------------------------------------------- push

    @property
    def pushed(self) -> bool:
        """True when the graphlet deployed its model (Section 4.3.1)."""
        return any(
            self.store.get_artifact(a).type_name == A.PUSHED_MODEL
            for a in self.artifact_ids)

    # ------------------------------------------------------------- data

    def input_span_artifact_ids(self) -> list[int]:
        """DataSpan artifacts consumed by the trainer, in event order."""
        return [
            a for a in self.store.get_input_artifact_ids(
                self.trainer_execution_id)
            if self.store.get_artifact(a).type_name == A.DATA_SPAN
        ]

    def span_sequence(self) -> list[SpanDigest]:
        """Span digests of the trainer's inputs, ordered by ingestion."""
        return self.span_sequence_with_ids()[1]

    def span_sequence_with_ids(self) -> tuple[list[int], list[SpanDigest]]:
        """(artifact ids, digests) of the input spans, ingestion order.

        The ids key the corpus-wide span-pair similarity cache. Digests
        come from the client's decode-once memo
        (:meth:`~repro.query.MetadataClient.span_digest`), so graphlets
        whose windows share a span share one decoded digest; the pair of
        lists is also cached on the graphlet.
        """
        cached = getattr(self, "_span_seq_cache", None)
        if cached is not None:
            return cached
        from ..query import as_client
        client = as_client(self.store)
        spans = [client.get_artifact(a)
                 for a in self.input_span_artifact_ids()]
        spans.sort(key=lambda a: (a.get("span_id", 0), a.id))
        result = ([a.id for a in spans],
                  [client.span_digest(a.id) for a in spans])
        self._span_seq_cache = result
        return result

    def span_id_set(self) -> set[int]:
        """The I(g) of Section 4.2.1: identities of the input spans."""
        return set(self.input_span_artifact_ids())

    # ------------------------------------------------------------- time

    @property
    def start_time(self) -> float:
        """Earliest node timestamp in the graphlet."""
        times = [self.store.get_execution(e).start_time
                 for e in self.execution_ids]
        times += [self.store.get_artifact(a).create_time
                  for a in self.artifact_ids]
        return min(times) if times else 0.0

    @property
    def end_time(self) -> float:
        """Latest node timestamp in the graphlet."""
        times = []
        for e in self.execution_ids:
            execution = self.store.get_execution(e)
            times.append(execution.end_time or execution.start_time)
        times += [self.store.get_artifact(a).create_time
                  for a in self.artifact_ids]
        return max(times) if times else 0.0

    @property
    def duration_hours(self) -> float:
        """End-to-end graphlet duration (Figure 9(e))."""
        return max(self.end_time - self.start_time, 0.0)

    # ------------------------------------------------------------- cost

    def _cpu_of(self, execution_id: int) -> float:
        return float(self.store.get_execution(execution_id).get(
            "cpu_hours", 0.0))

    @property
    def total_cpu_hours(self) -> float:
        """Total compute of the graphlet's executions."""
        return sum(self._cpu_of(e) for e in self.execution_ids)

    @property
    def training_cpu_hours(self) -> float:
        """The trainer execution's compute (Figure 9(d))."""
        return self._cpu_of(self.trainer_execution_id)

    def cpu_hours_by_group(self) -> dict[str, float]:
        """Compute broken down by operator group."""
        out: dict[str, float] = {}
        for execution_id in self.execution_ids:
            execution = self.store.get_execution(execution_id)
            group = str(execution.get("group", "custom"))
            out[group] = out.get(group, 0.0) + float(
                execution.get("cpu_hours", 0.0))
        return out
