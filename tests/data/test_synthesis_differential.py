"""The columnar span kernels against the per-feature oracles.

Span synthesis, the drift walk and the span digest must equal, bit for
bit, what the per-feature code in :mod:`tests.data.synthesis_oracle`
computes from the same inputs, and they must leave the rng in the same
state (which proves the draws happen in the same order). Example counts
come from the loaded Hypothesis profile (``HYPOTHESIS_PROFILE=ci`` runs
a deeper search).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (CategoricalDomain, CategoricalStatistics, DriftConfig,
                        DriftProcess, FeatureSpec, FeatureStatistics,
                        FeatureType, NumericDomain, NumericStatistics, Schema,
                        SpanStatistics, materialize_span, random_schema,
                        synthesize_span_statistics, synthetic_span)
from repro.similarity import digest_span
from repro.tfx.operators import MAX_DIGEST_FEATURES, anonymized_digest

from . import synthesis_oracle as oracle

SEEDS = st.integers(0, 2 ** 32 - 1)
NOISE = st.one_of(st.just(0.0), st.floats(1e-3, 0.5))
NUM_EXAMPLES = st.integers(100, 2_000_000)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


numeric_domains = st.builds(
    NumericDomain,
    mean=st.floats(-1e3, 1e3),
    stddev=st.one_of(st.sampled_from([1e-12, 1e-9, 1e-6]),
                     st.floats(1e-6, 50.0)),
    mode_weight=st.floats(0.0, 0.5),
    mode_offset=st.floats(0.0, 6.0))

categorical_domains = st.builds(
    CategoricalDomain,
    # 11-100 terms put the ten top terms past the first bin, which takes
    # distribution()'s general path instead of the huge-domain one.
    unique_values=st.one_of(st.integers(11, 100), st.integers(101, 10 ** 9)),
    zipf_s=st.one_of(st.sampled_from([0.2, 1.0]), st.floats(0.2, 3.0)))


@st.composite
def schemas(draw, max_features: int = 12) -> Schema:
    kinds = draw(st.lists(st.booleans(), max_size=max_features))
    features = []
    for index, categorical in enumerate(kinds):
        name = f"f{index:05d}"
        if categorical:
            features.append(FeatureSpec(
                name=name, type=FeatureType.CATEGORICAL,
                categorical=draw(categorical_domains)))
        else:
            features.append(FeatureSpec(
                name=name, type=FeatureType.NUMERIC,
                numeric=draw(numeric_domains)))
    return Schema(features=features)


drift_configs = st.builds(
    DriftConfig,
    numeric_mean_step=st.floats(0.0, 0.5),
    numeric_scale_step=st.floats(0.0, 0.5),
    numeric_weight_step=st.floats(0.0, 0.5),
    numeric_offset_step=st.floats(0.0, 0.5),
    zipf_step=st.floats(0.0, 0.5),
    # 1.0 makes every step a shock step.
    shock_probability=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    shock_scale=st.sampled_from([1.0, 20.0]))


def assert_same_schema(a: Schema, b: Schema) -> None:
    assert a.feature_names == b.feature_names
    for fa, fb in zip(a, b):
        assert fa.type is fb.type
        if fa.type is FeatureType.NUMERIC:
            for attr in ("mean", "stddev", "mode_weight", "mode_offset"):
                assert (_bits(getattr(fa.numeric, attr))
                        == _bits(getattr(fb.numeric, attr))), attr
        else:
            assert (fa.categorical.unique_values
                    == fb.categorical.unique_values)
            assert (_bits(fa.categorical.zipf_s)
                    == _bits(fb.categorical.zipf_s))


def assert_same_statistics(a: SpanStatistics, b: SpanStatistics) -> None:
    assert a.num_examples == b.num_examples
    assert list(a.features) == list(b.features)
    for name, fa in a.features.items():
        fb = b.features[name]
        assert fa.type is fb.type
        if fa.type is FeatureType.NUMERIC:
            assert (fa.numeric.histogram.tobytes()
                    == fb.numeric.histogram.tobytes())
            assert _bits(fa.numeric.low) == _bits(fb.numeric.low)
            assert _bits(fa.numeric.high) == _bits(fb.numeric.high)
            assert fa.numeric.count == fb.numeric.count
        else:
            ca, cb = fa.categorical, fb.categorical
            assert ca.top_counts == cb.top_counts
            assert all(type(c) is int for c in ca.top_counts)
            assert ca.unique_count == cb.unique_count
            assert ca.total_count == cb.total_count
            assert ca.domain_size == cb.domain_size


def assert_same_digest(a, b) -> None:
    assert ([(f.name, f.is_categorical, f.dist_hash) for f in a.features]
            == [(f.name, f.is_categorical, f.dist_hash) for f in b.features])
    assert all(type(f.dist_hash) is int for f in a.features)


def assert_same_distributions(statistics: SpanStatistics) -> None:
    matrix = statistics.distributions()
    assert matrix.shape == (statistics.feature_count, 10)
    for row, feature in zip(matrix, statistics.features.values()):
        assert row.tobytes() == feature.distribution().tobytes()


def assert_same_offsets(process: DriftProcess,
                        reference: oracle.DriftProcess) -> None:
    """The walk state, in the order ``drift_magnitude`` averages it."""
    offsets = np.concatenate([process._numeric_offsets.ravel(),
                              process._zipf_offsets])
    expected = np.array([*reference._mean_offsets.values(),
                         *reference._scale_offsets.values(),
                         *reference._weight_offsets.values(),
                         *reference._modepos_offsets.values(),
                         *reference._zipf_offsets.values()], dtype=float)
    assert offsets.tobytes() == expected.tobytes()


def _rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestSpanSynthesis:
    @given(schema=schemas(), num_examples=NUM_EXAMPLES, noise=NOISE,
           seed=SEEDS)
    @settings(deadline=None)
    def test_statistics_and_rng_state(self, schema, num_examples, noise,
                                      seed):
        rng, oracle_rng = _rngs(seed)
        for _ in range(2):
            stats = synthesize_span_statistics(schema, num_examples, rng,
                                               noise)
            expected = oracle.synthesize_span_statistics(
                schema, num_examples, oracle_rng, noise)
            assert_same_statistics(stats, expected)
            assert (rng.bit_generator.state
                    == oracle_rng.bit_generator.state)

    @pytest.mark.parametrize("n_numeric,n_categorical",
                             [(0, 0), (1, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_tiny_schemas(self, n_numeric, n_categorical, noise):
        schema = Schema(features=[
            FeatureSpec(name=f"n{i}", type=FeatureType.NUMERIC)
            for i in range(n_numeric)] + [
            FeatureSpec(name=f"c{i}", type=FeatureType.CATEGORICAL)
            for i in range(n_categorical)])
        rng, oracle_rng = _rngs(3)
        span = synthetic_span(schema, 4, 1000, rng, ingest_time=2.0,
                              noise=noise)
        expected = oracle.synthetic_span(schema, 4, 1000, oracle_rng,
                                         ingest_time=2.0, noise=noise)
        assert (span.span_id, span.ingest_time) == (4, 2.0)
        assert_same_statistics(span.statistics, expected.statistics)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert_same_digest(anonymized_digest(span),
                           oracle.anonymized_digest(expected))


class TestDrift:
    @given(schema=schemas(), config=drift_configs,
           steps=st.integers(1, 4), seed=SEEDS)
    @settings(deadline=None)
    def test_offsets_magnitude_and_rng_state(self, schema, config, steps,
                                             seed):
        rng, oracle_rng = _rngs(seed)
        process = DriftProcess(schema, rng, config)
        reference = oracle.DriftProcess(schema, oracle_rng, config)
        assert_same_schema(process.current(), reference.current())
        assert process.drift_magnitude == reference.drift_magnitude
        for _ in range(steps):
            assert_same_schema(process.step(), reference.step())
            assert_same_offsets(process, reference)
            assert (_bits(process.drift_magnitude)
                    == _bits(reference.drift_magnitude))
            assert process.shock_count == reference.shock_count
            assert (rng.bit_generator.state
                    == oracle_rng.bit_generator.state)

    def test_shock_steps_match(self):
        schema = random_schema(np.random.default_rng(2), n_features=30)
        rng, oracle_rng = _rngs(9)
        config = DriftConfig(shock_probability=0.5)
        process = DriftProcess(schema, rng, config)
        reference = oracle.DriftProcess(schema, oracle_rng, config)
        for _ in range(20):
            assert_same_schema(process.step(), reference.step())
            assert_same_offsets(process, reference)
            assert (_bits(process.drift_magnitude)
                    == _bits(reference.drift_magnitude))
        assert process.shock_count == reference.shock_count > 0


class TestDigest:
    @given(schema=schemas(), num_examples=NUM_EXAMPLES, noise=NOISE,
           seed=SEEDS, max_features=st.integers(0, 14))
    @settings(deadline=None)
    def test_synthesized_span_digests(self, schema, num_examples, noise,
                                      seed, max_features):
        span = synthetic_span(schema, 7, num_examples,
                              np.random.default_rng(seed), noise=noise)
        assert_same_distributions(span.statistics)
        assert_same_digest(digest_span(span.statistics),
                           oracle.digest_span(span.statistics))
        assert_same_digest(anonymized_digest(span, max_features),
                           oracle.anonymized_digest(span, max_features))

    @given(schema=schemas(max_features=6), num_examples=st.integers(1, 300),
           seed=SEEDS)
    @settings(deadline=None)
    def test_materialized_span_digests(self, schema, num_examples, seed):
        span = materialize_span(schema, 1, num_examples,
                                np.random.default_rng(seed))
        assert_same_distributions(span.statistics)
        assert_same_digest(digest_span(span.statistics),
                           oracle.digest_span(span.statistics))

    @given(data=st.data())
    @settings(deadline=None)
    def test_hand_built_statistics(self, data):
        """Empty histograms, short or empty top lists, zero totals."""
        features = {}
        for index in range(data.draw(st.integers(0, 8))):
            name = f"f{index}"
            if data.draw(st.booleans()):
                histogram = data.draw(st.lists(
                    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e6),
                    min_size=10, max_size=10))
                features[name] = FeatureStatistics(
                    name=name, type=FeatureType.NUMERIC,
                    numeric=NumericStatistics(histogram=histogram))
            else:
                features[name] = FeatureStatistics(
                    name=name, type=FeatureType.CATEGORICAL,
                    categorical=CategoricalStatistics(
                        top_counts=data.draw(st.lists(
                            st.integers(0, 10 ** 6), max_size=12)),
                        unique_count=data.draw(st.integers(0, 10 ** 9)),
                        total_count=data.draw(st.integers(0, 10 ** 7))))
        statistics = SpanStatistics(features=features)
        assert_same_distributions(statistics)
        assert_same_digest(digest_span(statistics),
                           oracle.digest_span(statistics))

    def test_missing_statistics_still_raise(self):
        statistics = SpanStatistics(features={"f": FeatureStatistics(
            name="f", type=FeatureType.NUMERIC)})
        with pytest.raises(ValueError, match="missing numeric stats"):
            digest_span(statistics)


class TestCappedPipelineSpan:
    """The generator's per-span chain for a >256-feature pipeline: drift
    every feature, truncate the schema, synthesize, digest."""

    @given(n_features=st.integers(257, 300), schema_seed=SEEDS, seed=SEEDS,
           noise=NOISE)
    @settings(deadline=None)
    def test_chain_matches_oracle(self, n_features, schema_seed, seed,
                                  noise):
        schema = random_schema(np.random.default_rng(schema_seed),
                               n_features=n_features)
        rng, oracle_rng = _rngs(seed)
        drifted = DriftProcess(schema, rng).step()
        expected_schema = oracle.DriftProcess(schema, oracle_rng).step()
        assert_same_schema(drifted, expected_schema)
        span = synthetic_span(
            Schema(features=drifted.features[:MAX_DIGEST_FEATURES]), 0,
            5000, rng, noise=noise)
        expected = oracle.synthetic_span(
            Schema(features=expected_schema.features[:MAX_DIGEST_FEATURES]),
            0, 5000, oracle_rng, noise=noise)
        assert_same_statistics(span.statistics, expected.statistics)
        assert_same_digest(anonymized_digest(span),
                           oracle.anonymized_digest(expected))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
