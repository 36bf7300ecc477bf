"""Additional generator tests: domain sizes, noise, analytic stats."""

import numpy as np
import pytest

from repro.data import (
    CategoricalDomain,
    FeatureSpec,
    FeatureType,
    Schema,
    sample_domain_size,
    synthesize_span_statistics,
    random_schema,
)


def _analytic_top_counts(domain, num_examples, rng, noise):
    """One categorical feature's statistics from the span kernel."""
    schema = Schema(features=[FeatureSpec(
        name="f", type=FeatureType.CATEGORICAL, categorical=domain)])
    stats = synthesize_span_statistics(schema, num_examples, rng, noise)
    return stats.features["f"].categorical


class TestDomainSizes:
    def test_mean_matches_paper_order(self, rng):
        sizes = [sample_domain_size(rng) for _ in range(3000)]
        mean = float(np.mean(sizes))
        # Section 3.2: ~10.6M average. Lognormal tails make the sample
        # mean noisy; demand the right order of magnitude.
        assert 2e6 < mean < 6e7

    def test_scale_shifts_distribution(self, rng):
        base = np.median([sample_domain_size(rng, 1.0)
                          for _ in range(500)])
        scaled = np.median([sample_domain_size(rng, 4.0)
                            for _ in range(500)])
        assert scaled > 2 * base

    def test_floor(self, rng):
        assert all(sample_domain_size(rng, 1e-12) >= 11
                   for _ in range(50))


class TestAnalyticTopCounts:
    def test_counts_descend(self, rng):
        domain = CategoricalDomain(unique_values=10 ** 6, zipf_s=1.3)
        stats = _analytic_top_counts(domain, 50_000, rng, noise=0.05)
        assert stats.top_counts == sorted(stats.top_counts, reverse=True)
        assert stats.total_count == 50_000
        assert stats.domain_size == 10 ** 6

    def test_unique_capped_by_examples(self, rng):
        domain = CategoricalDomain(unique_values=10 ** 6, zipf_s=1.2)
        stats = _analytic_top_counts(domain, 100, rng, noise=0.0)
        assert stats.unique_count <= 100

    def test_steeper_zipf_concentrates_head(self, rng):
        flat = _analytic_top_counts(
            CategoricalDomain(unique_values=10 ** 5, zipf_s=1.05),
            100_000, rng, noise=0.0)
        steep = _analytic_top_counts(
            CategoricalDomain(unique_values=10 ** 5, zipf_s=1.8),
            100_000, rng, noise=0.0)
        assert sum(steep.top_counts) > sum(flat.top_counts)


class TestSpanStatisticsNoise:
    def test_noise_perturbs_histograms(self, rng):
        schema = random_schema(rng, n_features=6,
                               categorical_fraction=0.0)
        clean = synthesize_span_statistics(schema, 1000, rng, noise=0.0)
        noisy = synthesize_span_statistics(schema, 1000, rng, noise=0.2)
        name = schema.feature_names[0]
        assert not np.allclose(clean.features[name].distribution(),
                               noisy.features[name].distribution())

    def test_feature_count_preserved(self, rng):
        schema = random_schema(rng, n_features=9)
        stats = synthesize_span_statistics(schema, 500, rng)
        assert stats.feature_count == 9
        assert set(stats.feature_names()) == set(schema.feature_names)
