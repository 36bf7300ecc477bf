"""Shared fixtures and the Hypothesis profiles.

The small corpus and its segmentation are expensive (~10 s), so they are
session-scoped and shared by every analysis/waste test.

``HYPOTHESIS_PROFILE=ci`` loads a deeper profile (1000 examples, no
deadline); without the variable Hypothesis keeps its usual profile.
Tests that pin their own ``max_examples`` keep it under either profile.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.analysis import segment_production_pipelines
from repro.corpus import CorpusConfig, generate_corpus

# Hypothesis already loads its own "ci" profile on CI hosts; the deeper
# one replaces it only when asked for, so plain runs stay as they were.
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.register_profile("ci", settings.get_profile("ci"),
                              max_examples=1000, deadline=None)
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(scope="session")
def small_corpus():
    """A deterministic small corpus (30 pipelines)."""
    return generate_corpus(CorpusConfig.small(seed=13))


@pytest.fixture(scope="session")
def small_graphlets(small_corpus):
    """Segmented graphlets of the small corpus, by pipeline context."""
    return segment_production_pipelines(small_corpus)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(42)
