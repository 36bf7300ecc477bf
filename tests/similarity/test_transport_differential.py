"""The tiered transport against its per-call oracle, bit for bit.

:func:`repro.similarity.span_similarity` builds each digest's name map
and hash buckets once and routes mass through Python floats; the oracle
in :mod:`tests.similarity.similarity_oracle` rebuilds them per call and
routes through numpy scalars. On every pair of distinct digests both
must return the same float (compared by its bits, not approximately).
Equal digests are the exception by design: production returns the LP
optimum ``alpha + beta`` (clamped) exactly, where the oracle's summation
can fall short of it by a few ulps. Example counts come from the loaded
Hypothesis profile (``HYPOTHESIS_PROFILE=ci`` runs a deeper search).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import (FeatureDigest, SpanDigest, SpanPairCache,
                              bipartite_similarity, sequence_similarity,
                              span_similarity)

from . import similarity_oracle

#: Small pools, so names overlap across digests and hashes collide
#: within a digest, across digests and across feature types.
NAMES = [f"f{i}" for i in range(8)]
HASHES = st.integers(0, 4)
WEIGHTS = st.one_of(
    st.sampled_from([(0.15, 0.85), (0.85, 0.15), (0.0, 0.85), (0.15, 0.0),
                     (0.0, 0.0), (0.5, 0.5), (1.0, 0.0)]),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))


def _bits(value: float) -> str:
    return float(value).hex()


@st.composite
def digests(draw, unique_names: bool = False, max_features: int = 12):
    """Digests with overlapping names, colliding hashes and mixed types."""
    if unique_names:
        names = draw(st.lists(st.sampled_from(NAMES), unique=True,
                              max_size=min(max_features, len(NAMES))))
    else:
        names = draw(st.lists(st.sampled_from(NAMES),
                              max_size=max_features))
    return SpanDigest(features=[
        FeatureDigest(name=name, is_categorical=draw(st.booleans()),
                      dist_hash=draw(HASHES))
        for name in names])


def _same_digest(digest: SpanDigest) -> SpanDigest:
    """A mostly-equal neighbour: same names, some hashes/types changed."""
    return SpanDigest(features=[
        FeatureDigest(f.name, f.is_categorical ^ (i % 5 == 4),
                      f.dist_hash + (i % 3 == 1))
        for i, f in enumerate(digest.features)])


def assert_matches_oracle(d1: SpanDigest, d2: SpanDigest, alpha: float,
                          beta: float) -> None:
    value = span_similarity(d1, d2, alpha, beta)
    if d1 == d2 and d1.features:
        assert value == float(min(max(alpha + beta, 0.0), 1.0))
    else:
        expected = similarity_oracle.span_similarity(d1, d2, alpha, beta)
        assert _bits(value) == _bits(expected)


class TestTransportMatchesOracle:
    @given(d1=digests(), d2=digests(), weights=WEIGHTS)
    @settings(deadline=None)
    def test_both_orientations(self, d1, d2, weights):
        alpha, beta = weights
        assert_matches_oracle(d1, d2, alpha, beta)
        assert_matches_oracle(d2, d1, alpha, beta)

    @given(d1=digests(unique_names=True), weights=WEIGHTS)
    @settings(deadline=None)
    def test_shared_names_with_changed_hashes_and_types(self, d1, weights):
        """Name overlap with equal and unequal hashes, same name
        with a different type."""
        d2 = _same_digest(d1)
        alpha, beta = weights
        assert_matches_oracle(d1, d2, alpha, beta)
        assert_matches_oracle(d2, d1, alpha, beta)

    @given(pool=st.lists(digests(), min_size=1, max_size=6),
           weights=WEIGHTS)
    @settings(deadline=None)
    def test_reused_digests(self, pool, weights):
        """The same digest objects across many calls (cached indexes),
        self-pairs included."""
        alpha, beta = weights
        for _ in range(2):
            for d1 in pool:
                for d2 in pool:
                    assert_matches_oracle(d1, d2, alpha, beta)

    @given(d1=digests(), d2=digests(), extra=digests(max_features=3))
    @settings(deadline=None)
    def test_growing_a_digest_after_use(self, d1, d2, extra):
        span_similarity(d1, d2)
        d1.features.extend(extra.features)
        assert_matches_oracle(d1, d2, 0.15, 0.85)

    def test_empty_digests(self):
        empty, one = SpanDigest(), SpanDigest([FeatureDigest("a", False, 1)])
        for d1, d2 in ((empty, empty), (empty, one), (one, empty)):
            assert span_similarity(d1, d2) == 0.0
            assert similarity_oracle.span_similarity(d1, d2) == 0.0


def _distinct_digest(n_features: int) -> SpanDigest:
    return SpanDigest(features=[
        FeatureDigest(name=f"f{i}", is_categorical=i % 3 == 0, dist_hash=i)
        for i in range(n_features)])


class TestSelfSimilarityIsOne:
    def test_every_feature_count(self):
        for n_features in range(1, 201):
            digest = _distinct_digest(n_features)
            twin = _distinct_digest(n_features)
            assert span_similarity(digest, digest) == 1.0
            assert span_similarity(digest, twin) == 1.0

    def test_the_oracle_falls_short(self):
        """The per-call summation misses 1.0 (why equal digests return
        the LP value directly)."""
        short = [n for n in range(1, 201)
                 if similarity_oracle.span_similarity(
                     _distinct_digest(n), _distinct_digest(n)) != 1.0]
        assert 33 in short

    def test_sequence_metrics_agree_with_the_pair_cache(self):
        for n_features in (1, 33, 97, 200):
            seq = [_distinct_digest(n_features),
                   _distinct_digest(n_features + 1)]
            ids = [1, 2]
            cached = SpanPairCache().sequence_similarity(ids, seq, ids, seq)
            assert cached == 1.0
            assert sequence_similarity(seq, seq) == cached
            assert bipartite_similarity(seq, seq) == cached

    def test_weights_are_clamped(self):
        digest = _distinct_digest(5)
        assert span_similarity(digest, digest, 0.3, 0.4) == 0.3 + 0.4
        assert span_similarity(digest, digest, 0.9, 0.9) == 1.0
        assert span_similarity(digest, digest, 0.0, 0.0) == 0.0
