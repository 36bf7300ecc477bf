"""Privacy-preserving summary statistics for data spans.

These are exactly the summaries the paper's corpus carries (Appendix B):

* numeric feature → a discrete distribution over **10 equi-width bins**,
  with the value range rescaled to [0, 1];
* categorical feature → counts of the **top-10 most frequent terms**, the
  count of unique terms, and the total number of datapoints, with terms
  anonymized.

Both forms can be *standardized* into a probability distribution on
[0, 1] (Appendix B's construction), which is what the similarity metric
and the S2JSD-LSH hashing consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schema import FeatureType

#: Number of histogram bins for numeric features (fixed by the paper).
NUM_BINS = 10

#: Number of retained most-frequent terms for categorical features.
TOP_K_TERMS = 10


@dataclass
class NumericStatistics:
    """Histogram summary of a numeric feature.

    Attributes:
        histogram: Probability mass over :data:`NUM_BINS` equi-width bins
            of the rescaled [0, 1] range; sums to 1 for non-empty data.
        low / high: The original (pre-rescale) value range.
        count: Number of datapoints summarized.
    """

    histogram: np.ndarray
    low: float = 0.0
    high: float = 1.0
    count: int = 0

    def __post_init__(self) -> None:
        self.histogram = np.asarray(self.histogram, dtype=float)
        if self.histogram.shape != (NUM_BINS,):
            raise ValueError(
                f"numeric histogram must have {NUM_BINS} bins, got "
                f"{self.histogram.shape}")

    def distribution(self) -> np.ndarray:
        """The standardized probability distribution over [0, 1]."""
        total = self.histogram.sum()
        if total <= 0:
            return np.full(NUM_BINS, 1.0 / NUM_BINS)
        return self.histogram / total


@dataclass
class CategoricalStatistics:
    """Anonymized term-frequency summary of a categorical feature.

    Attributes:
        top_counts: Counts of the 10 most frequent terms, descending.
            Shorter when the domain has fewer than 10 terms.
        unique_count: Number of distinct terms (the feature's domain size).
        total_count: Total number of datapoints.
    """

    top_counts: list[int] = field(default_factory=list)
    unique_count: int = 0
    total_count: int = 0
    #: Estimated size of the feature's full domain (production systems
    #: estimate this with sketches over the whole stream; a single span
    #: can only *observe* min(domain, span size) unique terms). 0 means
    #: "unknown — fall back to unique_count".
    domain_size: int = 0

    def __post_init__(self) -> None:
        self.top_counts = [int(c) for c in self.top_counts]
        if self.top_counts and min(self.top_counts) < 0:
            raise ValueError("term counts must be non-negative")
        if sorted(self.top_counts, reverse=True) != self.top_counts:
            self.top_counts = sorted(self.top_counts, reverse=True)

    def distribution(self, num_bins: int = NUM_BINS) -> np.ndarray:
        """Standardize into a discrete distribution over [0, 1].

        Appendix B's construction: sort normalized term frequencies
        descending; give each of the N unique terms a bin of width 1/N;
        spread the non-top-10 residual mass evenly over the remaining
        N - 10 bins; then re-aggregate onto ``num_bins`` equi-width bins
        of [0, 1] so distributions of different domain sizes are
        comparable (and hashable by the LSH scheme).
        """
        n_unique = max(self.unique_count, len(self.top_counts), 1)
        total = max(self.total_count, sum(self.top_counts), 1)
        top = np.asarray(self.top_counts, dtype=float) / total
        residual = max(0.0, 1.0 - top.sum())
        n_rest = max(n_unique - len(top), 0)

        # Fast path for the common huge-domain case: all top terms fall
        # inside the first bin (term width 1/N < bin width), and the
        # residual mass is uniform over the remainder of [0, 1].
        head_width = len(top) / n_unique
        bin_width = 1.0 / num_bins
        if n_rest and head_width <= bin_width:
            out = np.empty(num_bins)
            rest_width = 1.0 - head_width
            density = residual / rest_width if rest_width > 0 else 0.0
            out[:] = density * bin_width
            out[0] = float(top.sum()) + density * (bin_width - head_width)
            s = out.sum()
            return out / s if s > 0 else np.full(num_bins, 1.0 / num_bins)

        # General path: build the implied per-term distribution as (probability, width)
        # segments over [0, 1], then integrate onto num_bins bins.
        out = np.zeros(num_bins)
        term_width = 1.0 / n_unique
        position = 0.0
        per_rest = residual / n_rest if n_rest else 0.0
        segments = [(p, term_width) for p in top]
        if n_rest:
            segments.append((per_rest * n_rest, term_width * n_rest))
        for mass, width in segments:
            if width <= 0:
                continue
            density = mass / width
            start, end = position, position + width
            first = int(start * num_bins)
            last = min(int(np.ceil(end * num_bins)), num_bins)
            for b in range(first, last):
                lo = max(start, b / num_bins)
                hi = min(end, (b + 1) / num_bins)
                if hi > lo:
                    out[b] += density * (hi - lo)
            position = end
        s = out.sum()
        if s > 0:
            out /= s
        else:
            out[:] = 1.0 / num_bins
        return out


@dataclass
class FeatureStatistics:
    """Summary of one feature in one span (tagged union by type)."""

    name: str
    type: FeatureType
    numeric: NumericStatistics | None = None
    categorical: CategoricalStatistics | None = None

    def distribution(self) -> np.ndarray:
        """The standardized distribution, regardless of feature type."""
        if self.type is FeatureType.NUMERIC:
            if self.numeric is None:
                raise ValueError(f"feature {self.name!r} missing numeric stats")
            return self.numeric.distribution()
        if self.categorical is None:
            raise ValueError(f"feature {self.name!r} missing categorical stats")
        return self.categorical.distribution()


@dataclass
class SpanStatistics:
    """Summary statistics of an entire data span.

    This is the only data-derived payload recorded in the corpus for a
    span (Section 2.2): features present, their types, and type-specific
    statistics.
    """

    features: dict[str, FeatureStatistics] = field(default_factory=dict)
    num_examples: int = 0

    @property
    def feature_count(self) -> int:
        """Number of features present in the span."""
        return len(self.features)

    @property
    def categorical_fraction(self) -> float:
        """Fraction of the span's features that are categorical."""
        if not self.features:
            return 0.0
        n_cat = sum(1 for f in self.features.values()
                    if f.type is FeatureType.CATEGORICAL)
        return n_cat / len(self.features)

    def feature_names(self) -> list[str]:
        """Names of all summarized features."""
        return list(self.features)

    def distributions(self) -> np.ndarray:
        """Every feature's standardized distribution as one matrix.

        Row i equals the i-th feature's ``distribution()`` bit for bit.
        Numeric rows and the common huge-domain categorical rows (all ten
        top terms inside the first bin) are standardized as matrices,
        with reductions along the contiguous last axis, where numpy
        rounds exactly as on a 1-D row. Any other row comes from its
        feature's own ``distribution()``.
        """
        stats = list(self.features.values())
        out = np.empty((len(stats), NUM_BINS))
        done = np.zeros(len(stats), dtype=bool)
        numeric = [i for i, f in enumerate(stats)
                   if f.type is FeatureType.NUMERIC and f.numeric is not None]
        if numeric:
            histograms = np.array([stats[i].numeric.histogram
                                   for i in numeric])
            totals = histograms.sum(axis=-1, keepdims=True)
            filled = ~(totals <= 0)
            out[numeric] = np.where(
                filled, histograms / np.where(filled, totals, 1.0),
                1.0 / NUM_BINS)
            done[numeric] = True
        categorical = np.array(
            [i for i, f in enumerate(stats)
             if f.type is FeatureType.CATEGORICAL and f.categorical is not None
             and len(f.categorical.top_counts) == TOP_K_TERMS], dtype=int)
        if categorical.size:
            fast, rows = _huge_domain_distributions(
                [stats[i].categorical for i in categorical])
            out[categorical[fast]] = rows
            done[categorical[fast]] = True
        for i in np.flatnonzero(~done):
            out[i] = stats[i].distribution()
        return out


def _huge_domain_distributions(features: list[CategoricalStatistics]
                               ) -> tuple[np.ndarray, np.ndarray]:
    """``CategoricalStatistics.distribution``'s fast path as a matrix.

    Every feature holds :data:`TOP_K_TERMS` top counts. Returns the mask
    of features on the fast path (more unique terms than top terms, and
    the top terms no wider than the first bin) and their distributions.
    """
    unique = np.array([f.unique_count for f in features], dtype=np.int64)
    n_unique = np.maximum(unique, TOP_K_TERMS)
    head_width = TOP_K_TERMS / n_unique
    bin_width = 1.0 / NUM_BINS
    fast = (n_unique > TOP_K_TERMS) & (head_width <= bin_width)
    picked = [f for f, keep in zip(features, fast.tolist()) if keep]
    if not picked:
        return fast, np.empty((0, NUM_BINS))
    head_width = head_width[fast][:, None]
    counts = np.array([f.top_counts for f in picked], dtype=np.int64)
    total = np.maximum(np.array([f.total_count for f in picked],
                                dtype=np.int64), counts.sum(axis=-1))
    top = counts.astype(float) / np.maximum(total, 1)[:, None]
    top_mass = top.sum(axis=-1, keepdims=True)
    density = np.maximum(0.0, 1.0 - top_mass) / (1.0 - head_width)
    rows = np.repeat(density * bin_width, NUM_BINS, axis=1)
    rows[:, :1] = top_mass + density * (bin_width - head_width)
    mass = rows.sum(axis=-1, keepdims=True)
    positive = mass > 0
    return fast, np.where(positive, rows / np.where(positive, mass, 1.0),
                          1.0 / NUM_BINS)


def numeric_statistics_from_values(values: np.ndarray) -> NumericStatistics:
    """Compute a :class:`NumericStatistics` from materialized values."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return NumericStatistics(histogram=np.zeros(NUM_BINS), count=0)
    low = float(values.min())
    high = float(values.max())
    if high <= low:
        histogram = np.zeros(NUM_BINS)
        histogram[0] = float(values.size)
    else:
        edges = np.linspace(low, high, NUM_BINS + 1)
        if np.all(edges[:-1] < edges[1:]):
            histogram, _ = np.histogram(values, bins=NUM_BINS,
                                        range=(low, high))
        else:
            # A range only a few ulps wide has repeated edges, which numpy
            # refuses as equal-width bins; count against the edges instead.
            histogram, _ = np.histogram(values, bins=edges)
        histogram = histogram.astype(float)
    return NumericStatistics(histogram=histogram, low=low, high=high,
                             count=int(values.size))


def categorical_statistics_from_values(values) -> CategoricalStatistics:
    """Compute a :class:`CategoricalStatistics` from materialized terms."""
    values = list(values)
    if not values:
        return CategoricalStatistics()
    unique, counts = np.unique(np.asarray(values), return_counts=True)
    order = np.argsort(-counts)
    top = counts[order][:TOP_K_TERMS].tolist()
    return CategoricalStatistics(top_counts=top,
                                 unique_count=int(unique.size),
                                 total_count=len(values))
