"""The columnar span kernels leave a generated store byte-identical.

A small fixed-seed corpus is generated twice in-process: on the
production path, and with the per-feature oracles of
:mod:`tests.data.synthesis_oracle` patched in for span synthesis, the
drift walk and the ExampleGen digest. The two sqlite dumps must be equal
line for line, telemetry rows (measured seconds) aside.
"""

from __future__ import annotations

import sqlite3

from repro.corpus import CorpusConfig, generate_corpus
from repro.data import DriftConfig
from repro.mlmd import save_store

from . import synthesis_oracle as oracle

#: Seed 20 at four pipelines draws one 403-feature pipeline, whose spans
#: are capped at 256 features; the raised shock probability makes shock
#: steps near-certain over the corpus's couple of dozen drift steps.
CONFIG = dict(n_pipelines=4, seed=20, max_graphlets_per_pipeline=3,
              max_window_spans=4, drift=DriftConfig(shock_probability=0.2))


def _dump(corpus, path) -> list[str]:
    save_store(corpus.store, path)
    conn = sqlite3.connect(path)
    try:
        return [line for line in conn.iterdump()
                if not line.startswith('INSERT INTO "telemetry"')]
    finally:
        conn.close()


def test_store_matches_per_feature_oracles(tmp_path, monkeypatch):
    production = generate_corpus(CorpusConfig(**CONFIG), telemetry=True)
    assert max(r.archetype.n_features for r in production.records) > 256

    processes: list[oracle.DriftProcess] = []

    class RecordingDrift(oracle.DriftProcess):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            processes.append(self)

    monkeypatch.setattr("repro.corpus.generator.DriftProcess",
                        RecordingDrift)
    monkeypatch.setattr("repro.corpus.generator.synthetic_span",
                        oracle.synthetic_span)
    monkeypatch.setattr("repro.tfx.operators.ingest.anonymized_digest",
                        oracle.anonymized_digest)
    reference = generate_corpus(CorpusConfig(**CONFIG), telemetry=True)
    assert len(processes) == CONFIG["n_pipelines"]
    assert sum(p.shock_count for p in processes) > 0

    assert (_dump(production, tmp_path / "production.db")
            == _dump(reference, tmp_path / "oracle.db"))
