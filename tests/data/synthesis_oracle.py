"""Slow reference span synthesis: the per-feature loops.

:mod:`repro.data.generators`, :mod:`repro.data.drift` and
:meth:`repro.data.statistics.SpanStatistics.distributions` work on a
whole span at once. The functions here keep the code those kernels
replaced: one histogram or top-10 computation per feature, a drift walk
held in per-feature dicts, and a digest built from one ``distribution()``
call per feature. Given the same inputs and rng state, the production
kernels and these oracles must agree bit for bit, draw the same random
numbers in the same order, and leave the rng in the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from repro.data.drift import DriftConfig
from repro.data.schema import (CategoricalDomain, FeatureType, NumericDomain,
                               Schema)
from repro.data.spans import DataSpan
from repro.data.statistics import (NUM_BINS, TOP_K_TERMS,
                                   CategoricalStatistics, FeatureStatistics,
                                   NumericStatistics, SpanStatistics)
from repro.similarity.feature_metric import FeatureDigest, SpanDigest
from repro.similarity.lsh import DEFAULT_HASHER, S2JSDHasher
from repro.tfx.operators.ingest import MAX_DIGEST_FEATURES


def analytic_numeric_histogram(domain: NumericDomain,
                               rng: np.random.Generator,
                               noise: float) -> NumericStatistics:
    """Histogram of the domain's normal mixture, 10 bins over its range."""
    mean, stddev = domain.mean, max(domain.stddev, 1e-9)
    second_mean = mean + domain.mode_offset * stddev
    low = min(mean, second_mean) - 3.0 * stddev
    high = max(mean, second_mean) + 3.0 * stddev
    edges = np.linspace(low, high, NUM_BINS + 1)
    weight = domain.mode_weight
    cdf = ((1.0 - weight) * ndtr((edges - mean) / stddev)
           + weight * ndtr((edges - second_mean) / stddev))
    mass = np.diff(cdf)
    if noise > 0:
        mass = mass * rng.lognormal(0.0, noise, size=NUM_BINS)
    mass = np.clip(mass, 1e-12, None)
    mass = mass / mass.sum()
    return NumericStatistics(histogram=mass, low=low, high=high, count=0)


def analytic_top_counts(domain: CategoricalDomain, num_examples: int,
                        rng: np.random.Generator,
                        noise: float) -> CategoricalStatistics:
    """Top-10 Zipf term counts without sampling the (huge) term space."""
    n = domain.unique_values
    s = domain.zipf_s
    ranks = np.arange(1, TOP_K_TERMS + 1, dtype=float)
    head = ranks ** (-s)
    # Total mass approximated by head sum + integral tail.
    cap = float(TOP_K_TERMS)
    if abs(s - 1.0) < 1e-9:
        tail = math.log(n / cap) if n > cap else 0.0
    else:
        tail = max((n ** (1 - s) - cap ** (1 - s)) / (1 - s), 0.0)
    total_mass = head.sum() + tail
    probs = head / total_mass
    counts = probs * num_examples
    if noise > 0:
        counts = counts * rng.lognormal(0.0, noise, size=TOP_K_TERMS)
    counts = np.maximum(np.sort(counts)[::-1], 0.0)
    unique = min(n, num_examples)
    return CategoricalStatistics(
        top_counts=[int(round(c)) for c in counts],
        unique_count=int(unique),
        total_count=num_examples,
        domain_size=int(n))


def synthesize_span_statistics(schema: Schema, num_examples: int,
                               rng: np.random.Generator,
                               noise: float = 0.05) -> SpanStatistics:
    """A span's statistics, one feature at a time in schema order."""
    features: dict[str, FeatureStatistics] = {}
    for spec in schema:
        if spec.type is FeatureType.NUMERIC:
            features[spec.name] = FeatureStatistics(
                name=spec.name, type=spec.type,
                numeric=analytic_numeric_histogram(spec.numeric, rng, noise))
        else:
            features[spec.name] = FeatureStatistics(
                name=spec.name, type=spec.type,
                categorical=analytic_top_counts(
                    spec.categorical, num_examples, rng, noise))
    return SpanStatistics(features=features, num_examples=num_examples)


def synthetic_span(schema: Schema, span_id: int, num_examples: int,
                   rng: np.random.Generator, ingest_time: float = 0.0,
                   noise: float = 0.05) -> DataSpan:
    """A statistics-only span built by the per-feature oracle."""
    return DataSpan(
        span_id=span_id, ingest_time=ingest_time,
        statistics=synthesize_span_statistics(schema, num_examples, rng,
                                              noise))


@dataclass
class DriftProcess:
    """The drift walk with its offsets in per-feature dicts."""

    schema: Schema
    rng: np.random.Generator
    config: DriftConfig = field(default_factory=DriftConfig)
    _mean_offsets: dict[str, float] = field(default_factory=dict)
    _scale_offsets: dict[str, float] = field(default_factory=dict)
    _weight_offsets: dict[str, float] = field(default_factory=dict)
    _modepos_offsets: dict[str, float] = field(default_factory=dict)
    _zipf_offsets: dict[str, float] = field(default_factory=dict)
    _steps: int = 0
    _shocks: int = 0

    def step(self) -> Schema:
        shock = self.rng.random() < self.config.shock_probability
        scale = self.config.shock_scale if shock else 1.0
        if shock:
            self._shocks += 1
        self._steps += 1
        for spec in self.schema:
            if spec.type is FeatureType.NUMERIC:
                self._mean_offsets[spec.name] = (
                    self._mean_offsets.get(spec.name, 0.0)
                    + self.rng.normal(
                        0.0, self.config.numeric_mean_step * scale)
                    * spec.numeric.stddev)
                self._scale_offsets[spec.name] = (
                    self._scale_offsets.get(spec.name, 0.0)
                    + self.rng.normal(
                        0.0, self.config.numeric_scale_step * scale))
                self._weight_offsets[spec.name] = (
                    self._weight_offsets.get(spec.name, 0.0)
                    + self.rng.normal(
                        0.0, self.config.numeric_weight_step * scale))
                self._modepos_offsets[spec.name] = (
                    self._modepos_offsets.get(spec.name, 0.0)
                    + self.rng.normal(
                        0.0, self.config.numeric_offset_step * scale))
            else:
                self._zipf_offsets[spec.name] = (
                    self._zipf_offsets.get(spec.name, 0.0)
                    + self.rng.normal(0.0, self.config.zipf_step * scale))
        return self.current()

    def current(self) -> Schema:
        drifted = []
        for spec in self.schema:
            if spec.type is FeatureType.NUMERIC:
                domain = spec.numeric.shifted(
                    self._mean_offsets.get(spec.name, 0.0),
                    float(np.exp(self._scale_offsets.get(spec.name, 0.0))),
                    weight_delta=self._weight_offsets.get(spec.name, 0.0),
                    offset_delta=self._modepos_offsets.get(spec.name, 0.0))
                drifted.append(type(spec)(name=spec.name, type=spec.type,
                                          numeric=domain))
            else:
                domain = spec.categorical.shifted(
                    self._zipf_offsets.get(spec.name, 0.0), 1.0)
                drifted.append(type(spec)(name=spec.name, type=spec.type,
                                          categorical=domain))
        return Schema(features=drifted)

    @property
    def drift_magnitude(self) -> float:
        offsets = (list(self._mean_offsets.values())
                   + list(self._scale_offsets.values())
                   + list(self._weight_offsets.values())
                   + list(self._modepos_offsets.values())
                   + list(self._zipf_offsets.values()))
        if not offsets:
            return 0.0
        return float(np.mean(np.abs(offsets)))

    @property
    def shock_count(self) -> int:
        return self._shocks


def digest_span(statistics: SpanStatistics,
                hasher: S2JSDHasher = DEFAULT_HASHER) -> SpanDigest:
    """One ``distribution()`` call per feature, then one ``hash_many``."""
    names: list[str] = []
    cats: list[bool] = []
    rows: list[np.ndarray] = []
    for name, stats in statistics.features.items():
        names.append(name)
        cats.append(stats.type is FeatureType.CATEGORICAL)
        rows.append(stats.distribution())
    if not rows:
        return SpanDigest(features=[])
    hashes = hasher.hash_many(np.vstack(rows))
    return SpanDigest(features=[
        FeatureDigest(name=name, is_categorical=cat, dist_hash=int(h))
        for name, cat, h in zip(names, cats, hashes)
    ])


def anonymized_digest(span: DataSpan,
                      max_features: int = MAX_DIGEST_FEATURES) -> SpanDigest:
    """The oracle digest, truncated and renamed per span."""
    truncated = digest_span(span.statistics).features[:max_features]
    return SpanDigest(features=[
        FeatureDigest(name=f"s{span.span_id}:{index}",
                      is_categorical=f.is_categorical, dist_hash=f.dist_hash)
        for index, f in enumerate(truncated)
    ])
