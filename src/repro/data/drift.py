"""Data drift processes.

Section 4.2 of the paper finds that consecutive model updates see large
span overlap but meaningfully shifting content distributions, and that
long-running pipelines show higher data volatility. This module supplies
the drift machinery the corpus generator uses to reproduce that: a
slowly-varying random-walk state per feature, with occasional shocks
(schema-change-like events) that data validation would flag.

The walk state is columnar. Numeric features carry four offsets (mean,
log-scale, mixture weight, mode position) and categorical features one
(the Zipf exponent), each held as an array in schema order. A step makes
one normal draw with one standard deviation per offset, laid out feature
by feature in schema order, so the rng stream is the same as drawing the
offsets one at a time. The drifted schema it returns is built from
arrays (:meth:`Schema.from_columns`), so its feature specs are only
built if a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schema import DomainColumns, Schema


@dataclass
class DriftConfig:
    """Parameters of the per-feature drift random walk.

    Attributes:
        numeric_mean_step: Std-dev of the per-step additive walk on a
            numeric feature's mean (in units of the feature's stddev).
        numeric_scale_step: Std-dev of the per-step multiplicative walk on
            a numeric feature's stddev (log-space).
        zipf_step: Std-dev of the per-step additive walk on a categorical
            feature's Zipf exponent.
        shock_probability: Per-step probability of a distribution shock
            (a large jump, modeling upstream data bugs / seasonality).
        shock_scale: Multiplier applied to step sizes during a shock.
    """

    numeric_mean_step: float = 0.02
    numeric_scale_step: float = 0.01
    numeric_weight_step: float = 0.06
    numeric_offset_step: float = 0.12
    zipf_step: float = 0.05
    shock_probability: float = 0.01
    shock_scale: float = 20.0


@dataclass
class DriftProcess:
    """Evolves a schema's generative domains over simulated time.

    The process is deterministic given the seed, so corpora are exactly
    reproducible. ``step()`` advances the walk and returns the drifted
    schema; the original schema is never mutated.

    Example:
        >>> from repro.data.generators import random_schema
        >>> rng = np.random.default_rng(0)
        >>> process = DriftProcess(random_schema(rng, n_features=4), rng)
        >>> drifted = process.step()
        >>> len(drifted) == 4
        True
    """

    schema: Schema
    rng: np.random.Generator
    config: DriftConfig = field(default_factory=DriftConfig)
    _steps: int = 0
    _shocks: int = 0

    def __post_init__(self) -> None:
        self._base = self.schema.columns()
        kinds = self._base.is_categorical
        # Draw slots per feature in schema order: numeric features take
        # four (mean, scale, weight, mode position), categorical ones one
        # (Zipf). _slot_param maps each slot to its DriftConfig step size.
        widths = np.where(kinds, 1, 4)
        starts = np.cumsum(widths) - widths
        self._numeric_slots = starts[~kinds] + np.arange(4)[:, None]
        self._zipf_slots = starts[kinds]
        self._slot_param = np.full(int(widths.sum()), 4)
        self._slot_param[self._numeric_slots] = np.arange(4)[:, None]
        #: Rows: mean, log-scale, mixture weight, mode position.
        self._numeric_offsets = np.zeros((4, int((~kinds).sum())))
        self._zipf_offsets = np.zeros(int(kinds.sum()))

    def step(self) -> Schema:
        """Advance one drift step; return the drifted schema snapshot."""
        shock = self.rng.random() < self.config.shock_probability
        scale = self.config.shock_scale if shock else 1.0
        if shock:
            self._shocks += 1
        self._steps += 1
        config = self.config
        step_sizes = np.array([
            config.numeric_mean_step, config.numeric_scale_step,
            config.numeric_weight_step, config.numeric_offset_step,
            config.zipf_step]) * scale
        draws = self.rng.normal(0.0, step_sizes[self._slot_param])
        numeric = draws[self._numeric_slots]
        numeric[0] *= self._base.stddev
        self._numeric_offsets += numeric
        self._zipf_offsets += draws[self._zipf_slots]
        return self.current()

    def current(self) -> Schema:
        """The drifted schema at the current step (no state change)."""
        base = self._base
        mean, log_scale, weight, mode_offset = self._numeric_offsets
        return Schema.from_columns(DomainColumns(
            names=base.names, is_categorical=base.is_categorical,
            mean=base.mean + mean,
            stddev=np.maximum(1e-6, base.stddev * np.exp(log_scale)),
            mode_weight=np.minimum(
                np.maximum(base.mode_weight + weight, 0.0), 0.5),
            mode_offset=base.mode_offset + mode_offset,
            unique_values=np.maximum(11, base.unique_values),
            zipf_s=np.maximum(0.2, base.zipf_s + self._zipf_offsets)))

    @property
    def drift_magnitude(self) -> float:
        """Aggregate drift distance from the base schema.

        Mean absolute offset across features, in native walk units; the
        corpus generator uses this as the latent "data quality" signal
        feeding the push mechanism.
        """
        offsets = np.concatenate([self._numeric_offsets.ravel(),
                                  self._zipf_offsets])
        if not offsets.size:
            return 0.0
        return float(np.mean(np.abs(offsets)))

    @property
    def shock_count(self) -> int:
        """Number of shocks the process has experienced."""
        return self._shocks
