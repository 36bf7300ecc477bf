"""The per-call tiered transport, kept as the production solver's oracle.

This is :func:`repro.similarity.span_similarity` as it was before each
digest's name map and hash buckets were built once and cached: it
rebuilds them on every call and routes mass through numpy scalars.
``tests/similarity/test_transport_differential.py`` checks that the
production solver returns the same float, bit for bit, on every pair of
distinct digests.
"""

from __future__ import annotations

import numpy as np

from repro.similarity.feature_metric import ALPHA, BETA, SpanDigest


def span_similarity(d1: SpanDigest, d2: SpanDigest, alpha: float = ALPHA,
                    beta: float = BETA) -> float:
    """Fast tiered transport solving the same problem as the exact LP.

    Exploits the 4-valued similarity: route mass through pairs in
    descending similarity tier. Names are unique within a span, so
    name-tier matches form a partial matching; hash-tier matches are
    resolved greedily within hash buckets. On the instances arising from
    span digests this matches the LP optimum (tested); in adversarial
    generals it is a lower bound.
    """
    n, m = d1.feature_count, d2.feature_count
    if n == 0 or m == 0:
        return 0.0
    supply = np.full(n, 1.0 / n)
    demand = np.full(m, 1.0 / m)
    total = 0.0

    name_to_j = {f.name: j for j, f in enumerate(d2.features)}

    def _route(i: int, j: int, tier_value: float) -> float:
        amount = min(supply[i], demand[j])
        if amount <= 0:
            return 0.0
        supply[i] -= amount
        demand[j] -= amount
        return amount * tier_value

    # Tier 1: name + hash match (alpha + beta).
    pending_name_only: list[tuple[int, int]] = []
    for i, f1 in enumerate(d1.features):
        j = name_to_j.get(f1.name)
        if j is None:
            continue
        f2 = d2.features[j]
        if f1.is_categorical != f2.is_categorical:
            continue
        if f1.dist_hash == f2.dist_hash:
            total += _route(i, j, alpha + beta)
        else:
            pending_name_only.append((i, j))
    # Tier 2: the larger of the single-indicator tiers first.
    first_tier, second_tier = ((beta, "name"), (alpha, "hash"))
    if alpha > beta:
        first_tier, second_tier = (alpha, "hash"), (beta, "name")
    for value, kind in (first_tier, second_tier):
        if value <= 0:
            continue
        if kind == "name":
            for i, j in pending_name_only:
                total += _route(i, j, value)
        else:
            buckets: dict[tuple[int, bool], list[int]] = {}
            for j, f2 in enumerate(d2.features):
                buckets.setdefault((f2.dist_hash, f2.is_categorical),
                                   []).append(j)
            for i, f1 in enumerate(d1.features):
                if supply[i] <= 0:
                    continue
                for j in buckets.get((f1.dist_hash, f1.is_categorical), ()):
                    if f1.name == d2.features[j].name:
                        continue  # Already handled at tier 1/name tier.
                    if supply[i] <= 0:
                        break
                    total += _route(i, j, value)
    # Clamp away float-summation overshoot; the metric is in [0, 1].
    return float(min(max(total, 0.0), 1.0))
