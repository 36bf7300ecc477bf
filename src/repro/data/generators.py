"""Random schema and statistics-only span generation.

:func:`synthesize_span_statistics` computes a span's summary statistics
*analytically* from the schema's generative domains (plus sampling
noise); the corpus generator uses it because it must emit hundreds of
thousands of spans quickly. :func:`repro.data.spans.materialize_span`
instead samples actual rows, for the real-execution path (examples,
operator tests). Both produce the same
:class:`~repro.data.statistics.SpanStatistics` shape, and a test checks
that they agree in distribution.

Synthesis is columnar: one kernel per span computes every numeric
histogram from the ``(n_numeric, NUM_BINS + 1)`` bin edges and every
categorical top-10 from the ``(n_categorical, TOP_K_TERMS)`` Zipf head,
and the span's sampling noise is one ``(n_features, 10)`` lognormal draw
whose row i perturbs feature i. The kernel reads the schema's
:meth:`~repro.data.schema.Schema.columns`; the per-feature statistics
objects are built from its rows.

Schema generation is calibrated to Section 3.2: the majority of pipelines
use up to 100 features with a heavy tail to tens of thousands; ~53% of
features are categorical; categorical domains average ~10.6M unique
values (lognormal across features).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .schema import (
    CategoricalDomain,
    DomainColumns,
    FeatureSpec,
    FeatureType,
    NumericDomain,
    Schema,
)
from .spans import DataSpan
from .statistics import (
    NUM_BINS,
    TOP_K_TERMS,
    CategoricalStatistics,
    FeatureStatistics,
    NumericStatistics,
    SpanStatistics,
)

#: Average fraction of categorical features (paper: 53%).
CATEGORICAL_FRACTION = 0.53

#: Median of the lognormal categorical domain-size distribution; chosen so
#: the mean is ~10.6M (Section 3.2) given the sigma below.
DOMAIN_SIZE_MEDIAN = 2.0e6
DOMAIN_SIZE_SIGMA = 1.83


def sample_feature_count(rng: np.random.Generator) -> int:
    """Draw a pipeline's feature count.

    Lognormal body (mode ~20, majority <= 100) with a small power-law tail
    reaching tens of thousands — Figure 3(c)/(f).
    """
    if rng.random() < 0.03:
        # Tail: pareto over [300, ~50k].
        count = int(300 * (1.0 + rng.pareto(1.1)))
        return min(count, 50_000)
    return max(1, int(rng.lognormal(mean=3.2, sigma=1.0)))


def sample_domain_size(rng: np.random.Generator,
                       scale: float = 1.0) -> int:
    """Draw a categorical feature's unique-value count.

    ``scale`` lets archetypes shift the distribution (the paper reports
    13.6M average for DNN pipelines and >20M for linear pipelines).
    """
    size = rng.lognormal(mean=math.log(DOMAIN_SIZE_MEDIAN * scale),
                         sigma=DOMAIN_SIZE_SIGMA)
    return max(11, int(size))


def random_schema(rng: np.random.Generator,
                  n_features: int | None = None,
                  categorical_fraction: float = CATEGORICAL_FRACTION,
                  domain_scale: float = 1.0) -> Schema:
    """Generate a random pipeline schema.

    Args:
        rng: Source of randomness (corpus generation is seed-stable).
        n_features: Fixed feature count, or None to sample per the paper's
            distribution.
        categorical_fraction: Expected fraction of categorical features.
        domain_scale: Multiplier on categorical domain sizes.
    """
    if n_features is None:
        n_features = sample_feature_count(rng)
    features = []
    for index in range(n_features):
        if rng.random() < categorical_fraction:
            features.append(FeatureSpec(
                name=f"f{index:05d}",
                type=FeatureType.CATEGORICAL,
                categorical=CategoricalDomain(
                    unique_values=sample_domain_size(rng, domain_scale),
                    zipf_s=float(rng.uniform(1.05, 1.6)))))
        else:
            features.append(FeatureSpec(
                name=f"f{index:05d}",
                type=FeatureType.NUMERIC,
                numeric=NumericDomain(
                    mean=float(rng.normal(0.0, 5.0)),
                    stddev=float(rng.lognormal(0.0, 0.5)),
                    mode_weight=float(rng.uniform(0.0, 0.35)),
                    mode_offset=float(rng.uniform(1.0, 5.0)))))
    return Schema(features=features)


#: Zipf ranks of the retained head terms.
_RANKS = np.arange(1, TOP_K_TERMS + 1, dtype=float)


def _numeric_histograms(columns: DomainColumns, noise: np.ndarray | None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each numeric feature's normal-mixture histogram, 10 bins over its
    range: one ``(n_numeric, NUM_BINS)`` mass matrix, lows and highs."""
    mean, stddev = columns.mean, np.maximum(columns.stddev, 1e-9)
    second_mean = mean + columns.mode_offset * stddev
    low = np.minimum(mean, second_mean) - 3.0 * stddev
    high = np.maximum(mean, second_mean) + 3.0 * stddev
    # linspace lays rows out column-major; the row sums below must run
    # along a contiguous last axis to round as the 1-D sum does.
    edges = np.ascontiguousarray(
        np.linspace(low, high, NUM_BINS + 1, axis=-1))
    weight = columns.mode_weight[:, None]
    cdf = ((1.0 - weight) * ndtr((edges - mean[:, None]) / stddev[:, None])
           + weight * ndtr((edges - second_mean[:, None])
                           / stddev[:, None]))
    mass = np.diff(cdf, axis=-1)
    if noise is not None:
        mass = mass * noise
    mass = np.clip(mass, 1e-12, None)
    return mass / mass.sum(axis=-1, keepdims=True), low, high


def _zipf_tail(n: int, s: float) -> float:
    """Zipf mass beyond the head terms, as an integral (Python floats:
    ``n ** (1 - s)`` must round as the scalar ``pow`` does)."""
    cap = float(TOP_K_TERMS)
    if abs(s - 1.0) < 1e-9:
        return math.log(n / cap) if n > cap else 0.0
    return max((n ** (1 - s) - cap ** (1 - s)) / (1 - s), 0.0)


def _top_counts(columns: DomainColumns, num_examples: int,
                noise: np.ndarray | None) -> np.ndarray:
    """Each categorical feature's top-10 Zipf term counts, descending,
    without sampling the (huge) term space: ``(n_categorical, 10)``."""
    head = _RANKS ** -columns.zipf_s[:, None]
    tail = [_zipf_tail(n, s) for n, s in zip(columns.unique_values.tolist(),
                                             columns.zipf_s.tolist())]
    # Total mass approximated by head sum + integral tail.
    total_mass = head.sum(axis=-1) + np.array(tail, dtype=float)
    counts = head / total_mass[:, None] * num_examples
    if noise is not None:
        counts = counts * noise
    counts = np.maximum(np.sort(counts, axis=-1)[:, ::-1], 0.0)
    return np.rint(counts).astype(np.int64)


def synthesize_span_statistics(schema: Schema, num_examples: int,
                               rng: np.random.Generator,
                               noise: float = 0.05) -> SpanStatistics:
    """Compute a span's summary statistics analytically from the schema.

    ``noise`` injects lognormal multiplicative noise on bin masses and
    term counts to emulate finite-sample variation; with ``noise=0`` the
    statistics are the exact expectations.
    """
    columns = schema.columns()
    kinds = columns.is_categorical
    numeric_noise = categorical_noise = None
    if noise > 0:
        # NUM_BINS == TOP_K_TERMS: every feature takes one noise row.
        draws = rng.lognormal(0.0, noise, size=(len(kinds), NUM_BINS))
        numeric_noise, categorical_noise = draws[~kinds], draws[kinds]
    histograms, lows, highs = _numeric_histograms(columns, numeric_noise)
    numeric = zip(histograms, lows.tolist(), highs.tolist())
    categorical = zip(
        _top_counts(columns, num_examples, categorical_noise).tolist(),
        np.minimum(columns.unique_values, num_examples).tolist(),
        columns.unique_values.tolist())
    features: dict[str, FeatureStatistics] = {}
    for name, is_categorical in zip(columns.names, kinds.tolist()):
        if is_categorical:
            top_counts, unique, domain_size = next(categorical)
            features[name] = FeatureStatistics(
                name=name, type=FeatureType.CATEGORICAL,
                categorical=CategoricalStatistics(
                    top_counts=top_counts, unique_count=unique,
                    total_count=num_examples, domain_size=domain_size))
        else:
            histogram, low, high = next(numeric)
            features[name] = FeatureStatistics(
                name=name, type=FeatureType.NUMERIC,
                numeric=NumericStatistics(histogram=histogram, low=low,
                                          high=high, count=0))
    return SpanStatistics(features=features, num_examples=num_examples)


def synthetic_span(schema: Schema, span_id: int, num_examples: int,
                   rng: np.random.Generator, ingest_time: float = 0.0,
                   noise: float = 0.05) -> DataSpan:
    """A statistics-only span (no materialized rows)."""
    return DataSpan(
        span_id=span_id, ingest_time=ingest_time,
        statistics=synthesize_span_statistics(schema, num_examples, rng,
                                              noise))
