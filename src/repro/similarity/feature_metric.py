"""Feature- and span-level similarity (Appendix B, Eq. 2 and the EMD).

A *span digest* is the privacy-preserving view the similarity metric
needs: per-feature (name, type, LSH hash of the standardized
distribution). Feature similarity is

    s(f1, f2) = alpha * 1[h(f1) = h(f2)] + beta * 1[name1 = name2]

restricted to features of the same type. Span similarity S(D1, D2) is an
Earth Mover's Distance-style optimal transport where features are
equal-weight clusters and the ground "distance" is the feature
similarity (the transport *maximizes* total similarity). The metric is
symmetric, lands in [0, 1], S(D, D) = 1, and S(empty, D) = 0.

Two solvers are provided: an exact LP (scipy linprog) and a tiered greedy
matcher exploiting the fact that s takes only four values; they agree on
the structured instances that arise here (names are unique within a
span), which the test-suite and an ablation bench check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ..data.schema import FeatureType
from ..data.statistics import SpanStatistics
from .lsh import DEFAULT_HASHER, S2JSDHasher

#: Weight on distribution-hash equality in Eq. 2. The paper leaves the
#: weights unspecified; with per-span anonymized feature names the name
#: indicator fires only for literally shared span artifacts, so BETA
#: carries the "same data" signal and ALPHA the graded content signal.
#: This split lands Table 1's dataset-similarity row near its targets.
ALPHA = 0.15
#: Weight on feature-name equality in Eq. 2.
BETA = 0.85


@dataclass(frozen=True)
class FeatureDigest:
    """Digest of one feature: name, kind, and distribution hash."""

    name: str
    is_categorical: bool
    dist_hash: int


@dataclass
class SpanDigest:
    """Digest of one span: its feature digests, hashable and comparable.

    This is what the corpus records on DataSpan artifacts — it is
    sufficient for the Appendix-B metric and orders of magnitude smaller
    than the statistics themselves.
    """

    features: list[FeatureDigest] = field(default_factory=list)

    @property
    def feature_count(self) -> int:
        """Number of features in the digest."""
        return len(self.features)

    def to_properties(self) -> dict:
        """Flatten to MLMD-compatible list properties."""
        return {
            "digest_names": [f.name for f in self.features],
            "digest_categorical": [f.is_categorical for f in self.features],
            "digest_hashes": [f.dist_hash for f in self.features],
        }

    @classmethod
    def from_properties(cls, properties: dict) -> "SpanDigest":
        """Rebuild a digest from artifact properties."""
        names = properties.get("digest_names", [])
        cats = properties.get("digest_categorical", [])
        hashes = properties.get("digest_hashes", [])
        return cls(features=[
            FeatureDigest(name=n, is_categorical=bool(c), dist_hash=int(h))
            for n, c, h in zip(names, cats, hashes)
        ])


def digest_span(statistics: SpanStatistics,
                hasher: S2JSDHasher = DEFAULT_HASHER) -> SpanDigest:
    """Digest a span's summary statistics.

    All distributions are standardized as one matrix and hashed with one
    ``hash_many`` call.
    """
    hashes = hasher.hash_many(statistics.distributions()).tolist()
    return SpanDigest(features=[
        FeatureDigest(name=name,
                      is_categorical=stats.type is FeatureType.CATEGORICAL,
                      dist_hash=h)
        for (name, stats), h in zip(statistics.features.items(), hashes)
    ])


def feature_similarity(f1: FeatureDigest, f2: FeatureDigest,
                       alpha: float = ALPHA, beta: float = BETA) -> float:
    """Eq. 2: weighted indicators of hash and name equality.

    Similarity between a numerical and a categorical feature is 0.
    """
    if f1.is_categorical != f2.is_categorical:
        return 0.0
    score = 0.0
    if f1.dist_hash == f2.dist_hash:
        score += alpha
    if f1.name == f2.name:
        score += beta
    return score


def _similarity_matrix(d1: SpanDigest, d2: SpanDigest, alpha: float,
                       beta: float) -> np.ndarray:
    n, m = d1.feature_count, d2.feature_count
    matrix = np.zeros((n, m))
    for i, f1 in enumerate(d1.features):
        for j, f2 in enumerate(d2.features):
            matrix[i, j] = feature_similarity(f1, f2, alpha, beta)
    return matrix


def span_similarity_exact(d1: SpanDigest, d2: SpanDigest,
                          alpha: float = ALPHA,
                          beta: float = BETA) -> float:
    """Exact EMD-style span similarity via the transportation LP.

    Maximize sum(flow * similarity) with uniform supplies 1/n and demands
    1/m. O(n*m) variables — use only for modest feature counts; the
    greedy solver below is the production path.
    """
    n, m = d1.feature_count, d2.feature_count
    if n == 0 or m == 0:
        return 0.0
    sim = _similarity_matrix(d1, d2, alpha, beta)
    c = -sim.reshape(-1)  # linprog minimizes.
    a_eq = np.zeros((n + m, n * m))
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    # Total supply must equal total demand for equality constraints; both
    # sum to 1 by construction.
    result = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                     method="highs")
    if not result.success:
        raise RuntimeError(f"transportation LP failed: {result.message}")
    return float(min(max(-result.fun, 0.0), 1.0))


class _TierIndex:
    """A digest's lookup tables for the tiered transport.

    Built the first time the digest is compared and kept on it
    (:func:`_tier_index`): its name → position map (the last position
    wins for a repeated name) and its positions bucketed by
    ``(dist_hash, is_categorical)``.
    """

    __slots__ = ("features", "size", "names", "name_to_j", "keys",
                 "buckets")

    def __init__(self, features: list[FeatureDigest]) -> None:
        self.features = features
        self.size = len(features)
        self.names = [f.name for f in features]
        self.name_to_j = {name: j for j, name in enumerate(self.names)}
        self.keys = [(f.dist_hash, f.is_categorical) for f in features]
        self.buckets: dict[tuple[int, bool], list[int]] = {}
        for j, key in enumerate(self.keys):
            self.buckets.setdefault(key, []).append(j)


def _tier_index(digest: SpanDigest) -> _TierIndex:
    """The digest's :class:`_TierIndex`, rebuilt if its features changed.

    Stored in the instance ``__dict__``, outside the dataclass fields, so
    equality and repr are unaffected.
    """
    index = digest.__dict__.get("_tier_index")
    if index is None or index.features is not digest.features \
            or index.size != len(digest.features):
        index = digest.__dict__["_tier_index"] = _TierIndex(digest.features)
    return index


def _route_pairs(pairs: list[tuple[int, int]], value: float,
                 supply: list[float], demand: list[float],
                 total: float) -> float:
    """Route mass through ``pairs`` in order; returns the running total."""
    for i, j in pairs:
        amount = min(supply[i], demand[j])
        if amount > 0:
            supply[i] -= amount
            demand[j] -= amount
            total += amount * value
    return total


def span_similarity(d1: SpanDigest, d2: SpanDigest, alpha: float = ALPHA,
                    beta: float = BETA) -> float:
    """Fast tiered transport solving the same problem as the exact LP.

    Exploits the 4-valued similarity: route mass through pairs in
    descending similarity tier. Names are unique within a span, so
    name-tier matches form a partial matching; hash-tier matches are
    resolved greedily within hash buckets. On the instances arising from
    span digests this matches the LP optimum (tested); in adversarial
    generals it is a lower bound. Equal digests score the LP optimum
    ``alpha + beta`` (clamped to [0, 1]) directly, so S(D, D) = 1 holds
    exactly rather than up to summation error.

    Each digest's name map and hash buckets are built once
    (:func:`_tier_index`). Supply and demand are Python floats, and mass
    moves in the same order through the same float operations as the
    transport always has, so results are bit-stable; the name tiers are
    skipped when the digests share no feature name, which is the case
    for any two distinct spans of a corpus (names are anonymized per
    span).
    """
    n, m = d1.feature_count, d2.feature_count
    if n == 0 or m == 0:
        return 0.0
    if d1 is d2 or d1 == d2:
        return float(min(max(alpha + beta, 0.0), 1.0))
    index1, index2 = _tier_index(d1), _tier_index(d2)
    supply = [1.0 / n] * n
    demand = [1.0 / m] * m
    shared_names = not index1.name_to_j.keys().isdisjoint(index2.name_to_j)

    # Name matches of the same type: with equal hashes (alpha + beta),
    # and name-only.
    both_pairs: list[tuple[int, int]] = []
    name_pairs: list[tuple[int, int]] = []
    if shared_names:
        features2 = d2.features
        for i, f1 in enumerate(d1.features):
            j = index2.name_to_j.get(f1.name)
            if j is None:
                continue
            f2 = features2[j]
            if f1.is_categorical != f2.is_categorical:
                continue
            pairs = both_pairs if f1.dist_hash == f2.dist_hash else name_pairs
            pairs.append((i, j))
    # Tier 1: name + hash match (alpha + beta).
    total = _route_pairs(both_pairs, alpha + beta, supply, demand, 0.0)
    # Tier 2: the larger of the single-indicator tiers first.
    first_tier, second_tier = ((beta, "name"), (alpha, "hash"))
    if alpha > beta:
        first_tier, second_tier = (alpha, "hash"), (beta, "name")
    for value, kind in (first_tier, second_tier):
        if value <= 0:
            continue
        if kind == "name":
            total = _route_pairs(name_pairs, value, supply, demand, total)
            continue
        names1, names2 = index1.names, index2.names
        for i, key in enumerate(index1.keys):
            bucket = index2.buckets.get(key)
            left = supply[i]
            if bucket is None or left <= 0:
                continue
            for j in bucket:
                if shared_names and names1[i] == names2[j]:
                    continue  # Already handled at tier 1/name tier.
                if left <= 0:
                    break
                amount = min(left, demand[j])
                if amount > 0:
                    left -= amount
                    demand[j] -= amount
                    total += amount * value
            supply[i] = left
    # Clamp away float-summation overshoot; the metric is in [0, 1].
    return float(min(max(total, 0.0), 1.0))
