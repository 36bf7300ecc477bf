"""Pipeline-level (coarse-grained) analysis — Section 3.

Each function consumes a metadata store plus the pipeline context ids to
analyze and produces the data behind one of the paper's artifacts:

* :func:`lifespans`, :func:`models_per_day` — Figure 3(a)/(b)
* :func:`lifespan_by_model_type`, :func:`cadence_by_model_type` — 3(d)/(e)
* :func:`feature_counts`, :func:`feature_profile` — Figure 3(c)/(f) and
  the categorical-share / domain-size findings of Section 3.2
* :func:`analyzer_usage` — Figure 4
* :func:`model_mix` — Figure 5
* :func:`operator_presence` — Figure 6
* :func:`cost_breakdown` — Figure 7

All derive exclusively from the trace (artifacts, executions, events,
properties) — never from generator ground truth — exactly as the paper
derives them from MLMD.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable

import numpy as np

from ..mlmd import MetadataStore, trace_lifespan_days, trace_node_count
from ..query import as_client
from ..tfx import artifacts as A
from ..tfx.cost import OperatorGroup
from ..tfx.model_types import ModelType, coarse_family

#: Operator type → functional group, for trace-derived presence/cost.
OPERATOR_GROUPS = {
    "ExampleGen": OperatorGroup.DATA_INGESTION,
    "StatisticsGen": OperatorGroup.DATA_ANALYSIS_VALIDATION,
    "SchemaGen": OperatorGroup.DATA_ANALYSIS_VALIDATION,
    "ExampleValidator": OperatorGroup.DATA_ANALYSIS_VALIDATION,
    "Transform": OperatorGroup.DATA_PREPROCESSING,
    "Tuner": OperatorGroup.TRAINING,
    "Trainer": OperatorGroup.TRAINING,
    "Evaluator": OperatorGroup.MODEL_ANALYSIS_VALIDATION,
    "ModelValidator": OperatorGroup.MODEL_ANALYSIS_VALIDATION,
    "InfraValidator": OperatorGroup.MODEL_ANALYSIS_VALIDATION,
    "Pusher": OperatorGroup.MODEL_DEPLOYMENT,
    "CustomOperator": OperatorGroup.CUSTOM,
}


def pipeline_model_family(store: MetadataStore, context_id: int) -> str:
    """Dominant coarse model family (DNN / Linear / Rest) of a pipeline."""
    store = as_client(store)
    counts: Counter = Counter()
    for artifact in store.get_artifacts_by_context(context_id):
        if artifact.type_name != A.MODEL:
            continue
        type_name = str(artifact.get("model_type", ""))
        try:
            counts[coarse_family(ModelType(type_name))] += 1
        except ValueError:
            continue
    if not counts:
        return "Rest"
    return counts.most_common(1)[0][0]


# ----------------------------------------------------------- Figure 3(a/b)

def lifespans(store: MetadataStore,
              context_ids: Iterable[int]) -> list[float]:
    """Per-pipeline lifespan in days (Figure 3(a))."""
    store = as_client(store)
    return [trace_lifespan_days(store, cid) for cid in context_ids]


def models_per_day(store: MetadataStore,
                   context_ids: Iterable[int]) -> list[float]:
    """Average trained models per active day, per pipeline (Figure 3(b))."""
    store = as_client(store)
    out = []
    for cid in context_ids:
        n_models = sum(
            1 for a in store.get_artifacts_by_context(cid)
            if a.type_name == A.MODEL)
        days = max(trace_lifespan_days(store, cid), 1e-3)
        out.append(n_models / days)
    return out


def lifespan_by_model_type(store: MetadataStore,
                           context_ids: Iterable[int]
                           ) -> dict[str, list[float]]:
    """Lifespans split by coarse model family (Figure 3(d))."""
    store = as_client(store)
    out: dict[str, list[float]] = defaultdict(list)
    for cid in context_ids:
        out[pipeline_model_family(store, cid)].append(
            trace_lifespan_days(store, cid))
    return dict(out)


def cadence_by_model_type(store: MetadataStore,
                          context_ids: Iterable[int]
                          ) -> dict[str, list[float]]:
    """Models/day split by coarse model family (Figure 3(e))."""
    store = as_client(store)
    out: dict[str, list[float]] = defaultdict(list)
    for cid in context_ids:
        family = pipeline_model_family(store, cid)
        n_models = sum(
            1 for a in store.get_artifacts_by_context(cid)
            if a.type_name == A.MODEL)
        days = max(trace_lifespan_days(store, cid), 1e-3)
        out[family].append(n_models / days)
    return dict(out)


def trace_sizes(store: MetadataStore,
                context_ids: Iterable[int]) -> list[int]:
    """Trace node counts (the paper's max is 6953 nodes)."""
    store = as_client(store)
    return [trace_node_count(store, cid) for cid in context_ids]


# ----------------------------------------------------------- Figure 3(c/f)

def feature_counts(store: MetadataStore,
                   context_ids: Iterable[int]) -> list[int]:
    """Per-pipeline input feature count (Figure 3(c)).

    Uses the span artifacts' recorded feature counts, taking the
    per-pipeline maximum (spans of one pipeline share a schema).
    """
    store = as_client(store)
    out = []
    for cid in context_ids:
        counts = [int(a.get("feature_count", 0))
                  for a in store.get_artifacts_by_context(cid)
                  if a.type_name == A.DATA_SPAN]
        if counts:
            out.append(max(counts))
    return out


def feature_profile(store: MetadataStore,
                    context_ids: Iterable[int]) -> dict:
    """Categorical share and domain sizes (Section 3.2, Figure 3(f)).

    Returns overall categorical fraction, mean categorical domain size,
    and mean domain size split by coarse model family.
    """
    store = as_client(store)
    cat_fractions = []
    domain_by_family: dict[str, list[float]] = defaultdict(list)
    domains_all = []
    for cid in context_ids:
        spans = [a for a in store.get_artifacts_by_context(cid)
                 if a.type_name == A.DATA_SPAN]
        if not spans:
            continue
        span = spans[-1]
        cat_fractions.append(float(span.get("categorical_fraction", 0.0)))
        domain = float(span.get("mean_domain_size", 0.0))
        if domain > 0:
            domains_all.append(domain)
            domain_by_family[pipeline_model_family(store, cid)].append(
                domain)
    return {
        "categorical_fraction_mean": float(np.mean(cat_fractions))
        if cat_fractions else 0.0,
        "mean_domain_size": float(np.mean(domains_all))
        if domains_all else 0.0,
        "mean_domain_by_family": {
            family: float(np.mean(values))
            for family, values in domain_by_family.items()
        },
    }


# --------------------------------------------------------------- Figure 4

def analyzer_usage(store: MetadataStore,
                   context_ids: Iterable[int]) -> dict[str, dict[str, float]]:
    """Analyzer usage (Figure 4): per-pipeline presence and total usage.

    Returns ``{"presence": {analyzer: fraction of pipelines}, "usage":
    {analyzer: share of total invocations}}``, read from the
    ``analyzer_*`` properties recorded on TransformGraph artifacts.
    """
    store = as_client(store)
    presence: Counter = Counter()
    usage: Counter = Counter()
    n_pipelines = 0
    for cid in context_ids:
        n_pipelines += 1
        seen: set[str] = set()
        for artifact in store.get_artifacts_by_context(cid):
            if artifact.type_name != A.TRANSFORM_GRAPH:
                continue
            for key, value in artifact.properties.items():
                if not key.startswith("analyzer_") or \
                        key == "analyzer_invocations":
                    continue
                name = key[len("analyzer_"):]
                seen.add(name)
                usage[name] += int(value)
        for name in seen:
            presence[name] += 1
    total_usage = sum(usage.values())
    # Sorted keys: set iteration order varies with PYTHONHASHSEED.
    return {
        "presence": {name: count / n_pipelines
                     for name, count in sorted(presence.items())}
        if n_pipelines else {},
        "usage": {name: count / total_usage
                  for name, count in sorted(usage.items())}
        if total_usage else {},
    }


# --------------------------------------------------------------- Figure 5

def model_mix(store: MetadataStore,
              context_ids: Iterable[int]) -> dict[str, float]:
    """Fraction of Trainer runs per model type (Figure 5)."""
    store = as_client(store)
    counts: Counter = Counter()
    for cid in context_ids:
        for artifact in store.get_artifacts_by_context(cid):
            if artifact.type_name == A.MODEL:
                counts[str(artifact.get("model_type", "unknown"))] += 1
    total = sum(counts.values())
    return {name: count / total for name, count in counts.items()} \
        if total else {}


# --------------------------------------------------------------- Figure 6

def operator_presence(store: MetadataStore,
                      context_ids: Iterable[int]) -> dict[str, float]:
    """Fraction of pipelines containing each operator group (Figure 6)."""
    store = as_client(store)
    group_counts: Counter = Counter()
    n_pipelines = 0
    for cid in context_ids:
        n_pipelines += 1
        groups = set()
        for execution in store.get_executions_by_context(cid):
            group = OPERATOR_GROUPS.get(execution.type_name)
            if group is not None:
                groups.add(group.value)
        for group in groups:
            group_counts[group] += 1
    if not n_pipelines:
        return {}
    return {group: count / n_pipelines
            for group, count in sorted(group_counts.items())}


def operator_type_presence(store: MetadataStore,
                           context_ids: Iterable[int]) -> dict[str, float]:
    """Fraction of pipelines containing each operator *type* (Figure 6).

    Finer-grained than the group view: the paper's observation that
    "about half of the pipelines employ data- and model-validation
    operators" is about the validator operators specifically, not the
    whole analysis group (statistics generation is near-universal).
    """
    store = as_client(store)
    type_counts: Counter = Counter()
    n_pipelines = 0
    for cid in context_ids:
        n_pipelines += 1
        types = {e.type_name for e in store.get_executions_by_context(cid)}
        for type_name in types:
            type_counts[type_name] += 1
    if not n_pipelines:
        return {}
    return {name: count / n_pipelines
            for name, count in sorted(type_counts.items())}


# --------------------------------------------------------------- Figure 7

def cost_breakdown(store: MetadataStore,
                   context_ids: Iterable[int]) -> dict[str, float]:
    """Share of total compute per operator group (Figure 7)."""
    store = as_client(store)
    costs: dict[str, float] = defaultdict(float)
    for cid in context_ids:
        for execution in store.get_executions_by_context(cid):
            group = str(execution.get(
                "group",
                OPERATOR_GROUPS.get(execution.type_name,
                                    OperatorGroup.CUSTOM).value))
            costs[group] += float(execution.get("cpu_hours", 0.0))
    total = sum(costs.values())
    if total <= 0:
        return {}
    return {group: cost / total for group, cost in costs.items()}


def cached_execution_stats(store: MetadataStore,
                           context_ids: Iterable[int]) -> dict[str, float]:
    """Cache-served execution share and saved compute (Section 5).

    The paper reports cached executions fleet-wide as the measurable
    form of its redundancy claim; with the execution cache enabled
    (``repro generate --exec-cache``) the trace records them as
    ``CACHED`` executions carrying a ``saved_cpu_hours`` property, and
    this aggregate is the fleet-wide roll-up. All zeros on corpora
    generated without the cache.
    """
    store = as_client(store)
    cached = 0
    total = 0
    saved = 0.0
    for cid in context_ids:
        for execution in store.get_executions_by_context(cid):
            total += 1
            if execution.state.value == "cached":
                cached += 1
                saved += float(execution.get("saved_cpu_hours", 0.0))
    return {
        "cached_executions": cached,
        "total_executions": total,
        "cached_fraction": cached / total if total else 0.0,
        "saved_cpu_hours": saved,
    }


def failure_cost(store: MetadataStore,
                 context_ids: Iterable[int]) -> dict[str, float]:
    """Compute spent on failed executions, and upstream-of-failure cost.

    Section 3.3: "failures are not cheap" — each failure wastes its own
    cost plus everything its run's upstream already spent.
    """
    store = as_client(store)
    failed_cost = 0.0
    total_cost = 0.0
    for cid in context_ids:
        for execution in store.get_executions_by_context(cid):
            cost = float(execution.get("cpu_hours", 0.0))
            total_cost += cost
            if execution.state.value == "failed":
                failed_cost += cost
    return {
        "failed_cpu_hours": failed_cost,
        "total_cpu_hours": total_cost,
        "failed_fraction": failed_cost / total_cost if total_cost else 0.0,
    }


def retry_stats(store: MetadataStore,
                context_ids: Iterable[int]) -> dict[str, float]:
    """Retry-waste accounting from retry provenance (repro.faults).

    Every attempt is its own execution; an execution referenced by a
    later attempt's ``retry_of`` property is *superseded*. Compute then
    partitions exactly into three buckets:

    * ``useful`` — final non-FAILED attempts (the work that stuck),
    * ``wasted`` — final FAILED attempts (the retry budget ran out, or
      no policy was in force),
    * ``retried`` — superseded attempts (paid again by a retry).

    ``total_cpu_hours == useful + wasted + retried`` holds to the float
    digit, so ``repro report`` can print a reconciling waste line. On a
    corpus with no retries, ``retried`` buckets are zero and ``wasted``
    equals :func:`failure_cost`'s failed compute.
    """
    store = as_client(store)
    superseded: set[int] = set()
    executions = []
    for cid in context_ids:
        for execution in store.get_executions_by_context(cid):
            executions.append(execution)
            prior = execution.get("retry_of")
            if prior is not None:
                superseded.add(int(prior))
    useful = wasted = retried = 0.0
    n_useful = n_wasted = n_retried = 0
    max_attempt = 1
    for execution in executions:
        cost = float(execution.get("cpu_hours", 0.0))
        max_attempt = max(max_attempt, int(execution.get("attempt", 1)))
        if execution.id in superseded:
            retried += cost
            n_retried += 1
        elif execution.state.value == "failed":
            wasted += cost
            n_wasted += 1
        else:
            useful += cost
            n_useful += 1
    total = useful + wasted + retried
    return {
        "total_cpu_hours": total,
        "useful_cpu_hours": useful,
        "wasted_cpu_hours": wasted,
        "retried_cpu_hours": retried,
        "retried_executions": n_retried,
        "failed_executions": n_wasted,
        "useful_executions": n_useful,
        "max_attempt": max_attempt,
        "retry_amplification": (retried + useful) / useful
        if useful else 0.0,
    }
