"""Feature schemas for pipeline input data.

The paper distinguishes two feature kinds (Section 3.2): *numerical*
(e.g. length of a video) and *categorical/sparse* (e.g. video id, query
text), with ~53% of features categorical on average and categorical
domains averaging 10.6M unique values. A :class:`Schema` captures a
pipeline's feature space; data spans are generated against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class FeatureType(enum.Enum):
    """Kind of a feature as treated in training (not its encoding)."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass
class NumericDomain:
    """Generative parameters of a numeric feature.

    Values are modeled as a two-component normal mixture: a main component
    at ``mean`` and a secondary component offset by ``mode_offset``
    standard deviations carrying ``mode_weight`` of the mass. With
    ``mode_weight == 0`` this is a plain normal. The mixture matters for
    drift realism: span statistics rescale the value range to [0, 1]
    (Appendix B), so a pure location/scale walk leaves the standardized
    histogram unchanged — only *shape* changes (here: the mixture weight
    and separation) are observable, exactly as with real drifting data.
    """

    mean: float = 0.0
    stddev: float = 1.0
    mode_weight: float = 0.0
    mode_offset: float = 0.0

    def shifted(self, mean_delta: float, stddev_scale: float,
                weight_delta: float = 0.0,
                offset_delta: float = 0.0) -> "NumericDomain":
        """Return a drifted copy of this domain."""
        return NumericDomain(
            mean=self.mean + mean_delta,
            stddev=max(1e-6, self.stddev * stddev_scale),
            mode_weight=float(min(max(self.mode_weight + weight_delta, 0.0),
                                  0.5)),
            mode_offset=self.mode_offset + offset_delta)


@dataclass
class CategoricalDomain:
    """Generative parameters of a categorical/sparse feature.

    Term frequencies follow a Zipf law with exponent ``zipf_s`` over
    ``unique_values`` terms — the standard model for id-like and text-token
    features, and the regime in which the paper's vocabulary (top-K)
    analysis is expensive.
    """

    unique_values: int = 1000
    zipf_s: float = 1.2

    def shifted(self, zipf_delta: float, unique_scale: float
                ) -> "CategoricalDomain":
        """Return a drifted copy of this domain."""
        return CategoricalDomain(
            unique_values=max(11, int(self.unique_values * unique_scale)),
            zipf_s=max(0.2, self.zipf_s + zipf_delta))


@dataclass
class FeatureSpec:
    """One feature: a name, a kind, and a generative domain."""

    name: str
    type: FeatureType
    numeric: NumericDomain | None = None
    categorical: CategoricalDomain | None = None

    def __post_init__(self) -> None:
        if self.type is FeatureType.NUMERIC and self.numeric is None:
            self.numeric = NumericDomain()
        if self.type is FeatureType.CATEGORICAL and self.categorical is None:
            self.categorical = CategoricalDomain()

    @property
    def is_categorical(self) -> bool:
        """True for categorical/sparse features."""
        return self.type is FeatureType.CATEGORICAL


class Schema:
    """The feature space of a pipeline's input data.

    A schema built by :meth:`from_columns` keeps its domains as arrays
    and builds the specs only when ``features`` is first read; from then
    on the specs are authoritative. The span kernels read
    :meth:`columns`, so a drifted schema never builds its specs.

    Attributes:
        features: Ordered feature specs; order is stable across spans.
    """

    def __init__(self, features: list[FeatureSpec] | None = None) -> None:
        self._features = [] if features is None else features
        self._columns: DomainColumns | None = None

    @classmethod
    def from_columns(cls, columns: "DomainColumns") -> "Schema":
        """A schema whose domains are ``columns``."""
        schema = cls()
        schema._features, schema._columns = None, columns
        return schema

    @property
    def features(self) -> list[FeatureSpec]:
        if self._features is None:
            self._features = self._columns.specs()
            self._columns = None
        return self._features

    @features.setter
    def features(self, features: list[FeatureSpec]) -> None:
        self._features, self._columns = features, None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.features == other.features

    def __repr__(self) -> str:
        return f"Schema(features={self.features!r})"

    def __len__(self) -> int:
        if self._features is None:
            return len(self._columns.names)
        return len(self._features)

    def __iter__(self):
        return iter(self.features)

    @property
    def feature_names(self) -> list[str]:
        """Names of all features, in schema order."""
        return [f.name for f in self.features]

    @property
    def num_categorical(self) -> int:
        """Count of categorical features."""
        return sum(1 for f in self.features if f.is_categorical)

    @property
    def num_numeric(self) -> int:
        """Count of numeric features."""
        return len(self.features) - self.num_categorical

    @property
    def categorical_fraction(self) -> float:
        """Fraction of features that are categorical (paper avg: 0.53)."""
        if not self.features:
            return 0.0
        return self.num_categorical / len(self.features)

    @property
    def mean_domain_size(self) -> float:
        """Mean unique-value count across categorical features.

        The paper reports 10.6M on average (13.6M for DNN pipelines,
        >20M for linear pipelines).
        """
        sizes = [f.categorical.unique_values for f in self.features
                 if f.is_categorical]
        if not sizes:
            return 0.0
        return sum(sizes) / len(sizes)

    def columns(self) -> "DomainColumns":
        """The generative domains as arrays, in schema order."""
        if self._features is None:
            return self._columns
        numeric = [f.numeric for f in self.features if not f.is_categorical]
        categorical = [f.categorical for f in self.features
                       if f.is_categorical]
        return DomainColumns(
            names=[f.name for f in self.features],
            is_categorical=np.array([f.is_categorical for f in self.features],
                                    dtype=bool),
            mean=np.array([d.mean for d in numeric], dtype=float),
            stddev=np.array([d.stddev for d in numeric], dtype=float),
            mode_weight=np.array([d.mode_weight for d in numeric],
                                 dtype=float),
            mode_offset=np.array([d.mode_offset for d in numeric],
                                 dtype=float),
            unique_values=np.array([d.unique_values for d in categorical],
                                   dtype=np.int64),
            zipf_s=np.array([d.zipf_s for d in categorical], dtype=float))

    def feature(self, name: str) -> FeatureSpec:
        """Return the feature spec with the given name."""
        for spec in self.features:
            if spec.name == name:
                return spec
        raise KeyError(f"no feature named {name!r}")


@dataclass(frozen=True, eq=False)
class DomainColumns:
    """A schema's generative domains as arrays (the columnar view).

    ``names`` and ``is_categorical`` have one entry per feature. Each
    numeric array has one entry per numeric feature and each categorical
    array one per categorical feature, in schema order within the kind.
    """

    names: list[str]
    is_categorical: np.ndarray
    mean: np.ndarray
    stddev: np.ndarray
    mode_weight: np.ndarray
    mode_offset: np.ndarray
    unique_values: np.ndarray
    zipf_s: np.ndarray

    def head(self, n: int) -> "DomainColumns":
        """The columns of the first ``n`` features."""
        kinds = self.is_categorical[:n]
        n_categorical = int(kinds.sum())
        n_numeric = len(kinds) - n_categorical
        return DomainColumns(
            names=self.names[:n], is_categorical=kinds,
            mean=self.mean[:n_numeric], stddev=self.stddev[:n_numeric],
            mode_weight=self.mode_weight[:n_numeric],
            mode_offset=self.mode_offset[:n_numeric],
            unique_values=self.unique_values[:n_categorical],
            zipf_s=self.zipf_s[:n_categorical])

    def specs(self) -> list[FeatureSpec]:
        """One feature spec per feature, in schema order."""
        numeric = zip(self.mean.tolist(), self.stddev.tolist(),
                      self.mode_weight.tolist(), self.mode_offset.tolist())
        categorical = zip(self.unique_values.tolist(), self.zipf_s.tolist())
        specs = []
        for name, is_categorical in zip(self.names,
                                        self.is_categorical.tolist()):
            if is_categorical:
                specs.append(FeatureSpec(
                    name=name, type=FeatureType.CATEGORICAL,
                    categorical=CategoricalDomain(*next(categorical))))
            else:
                specs.append(FeatureSpec(
                    name=name, type=FeatureType.NUMERIC,
                    numeric=NumericDomain(*next(numeric))))
        return specs
