"""Summary-statistics tests, including the Appendix-B standardization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    NUM_BINS,
    CategoricalStatistics,
    NumericStatistics,
    categorical_statistics_from_values,
    numeric_statistics_from_values,
)


class TestNumericStatistics:
    def test_histogram_shape_enforced(self):
        with pytest.raises(ValueError):
            NumericStatistics(histogram=np.ones(5))

    def test_distribution_normalizes(self):
        stats = NumericStatistics(histogram=np.full(NUM_BINS, 2.0))
        assert stats.distribution().sum() == pytest.approx(1.0)

    def test_empty_histogram_uniform(self):
        stats = NumericStatistics(histogram=np.zeros(NUM_BINS))
        assert np.allclose(stats.distribution(), 1.0 / NUM_BINS)

    def test_from_values_counts_all(self):
        values = np.linspace(0, 1, 100)
        stats = numeric_statistics_from_values(values)
        assert stats.histogram.sum() == pytest.approx(100)
        assert stats.count == 100
        assert stats.low == pytest.approx(0.0)
        assert stats.high == pytest.approx(1.0)

    def test_from_constant_values(self):
        stats = numeric_statistics_from_values(np.full(10, 3.0))
        assert stats.histogram[0] == pytest.approx(10)

    def test_from_empty_values(self):
        stats = numeric_statistics_from_values(np.array([]))
        assert stats.count == 0


class TestCategoricalStatistics:
    def test_counts_sorted_descending(self):
        stats = CategoricalStatistics(top_counts=[1, 5, 3],
                                      unique_count=3, total_count=9)
        assert stats.top_counts == [5, 3, 1]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CategoricalStatistics(top_counts=[-1])

    def test_distribution_sums_to_one(self):
        stats = CategoricalStatistics(top_counts=[50, 30, 20],
                                      unique_count=1000, total_count=1000)
        dist = stats.distribution()
        assert dist.sum() == pytest.approx(1.0)
        assert dist.shape == (NUM_BINS,)

    def test_huge_domain_head_lands_in_first_bin(self):
        stats = CategoricalStatistics(top_counts=[400, 200, 100],
                                      unique_count=10 ** 7,
                                      total_count=1400)
        dist = stats.distribution()
        # Top terms carry half the mass and occupy a sliver of [0, 1].
        assert dist[0] > dist[1]
        assert np.allclose(dist[1:], dist[1], rtol=1e-6)

    def test_small_domain_general_path(self):
        stats = CategoricalStatistics(top_counts=[6, 3, 1],
                                      unique_count=3, total_count=10)
        dist = stats.distribution()
        assert dist.sum() == pytest.approx(1.0)
        assert dist[0] >= dist[-1]

    def test_fast_and_general_paths_agree(self):
        # A domain just past the fast-path boundary should give nearly the
        # same distribution through both code paths.
        counts = [100, 80, 60, 40, 30, 20, 15, 10, 8, 5]
        near = CategoricalStatistics(top_counts=counts, unique_count=120,
                                     total_count=1000).distribution()
        far = CategoricalStatistics(top_counts=counts, unique_count=101,
                                    total_count=1000).distribution()
        assert np.abs(near - far).max() < 0.05

    def test_from_values(self):
        stats = categorical_statistics_from_values(
            ["a"] * 5 + ["b"] * 3 + ["c"])
        assert stats.top_counts == [5, 3, 1]
        assert stats.unique_count == 3
        assert stats.total_count == 9

    def test_from_empty_values(self):
        stats = categorical_statistics_from_values([])
        assert stats.total_count == 0


class TestDistributionProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    min_size=1, max_size=10),
           st.integers(min_value=1, max_value=10 ** 8))
    @settings(max_examples=80, deadline=None)
    def test_categorical_distribution_is_probability(self, counts, extra):
        total = sum(counts) + extra
        unique = max(len(counts), min(extra, 10 ** 7))
        stats = CategoricalStatistics(top_counts=counts,
                                      unique_count=unique,
                                      total_count=total)
        dist = stats.distribution()
        assert dist.shape == (NUM_BINS,)
        assert (dist >= -1e-12).all()
        assert dist.sum() == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False),
                    min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_numeric_histogram_counts_everything(self, values):
        stats = numeric_statistics_from_values(np.asarray(values))
        assert stats.histogram.sum() == pytest.approx(len(values))

    def test_numeric_histogram_on_range_few_ulps_wide(self):
        # linspace over two adjacent floats repeats edges; every value
        # must still land in a bin, the extremes in the outer ones.
        values = np.array([-1e6, np.nextafter(-1e6, 0.0)])
        stats = numeric_statistics_from_values(values)
        assert stats.histogram.sum() == 2.0
        assert stats.histogram[-1] == 1.0
        assert (stats.low, stats.high) == (values[0], values[1])
