"""Span digests are decoded once per artifact, and re-decoded when stale."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import segment_production_pipelines
from repro.analysis.graphlet_level import similarity_table
from repro.corpus import CorpusConfig, generate_corpus
from repro.query import as_client
from repro.similarity import SpanDigest


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(n_pipelines=3, seed=5,
                                        max_graphlets_per_pipeline=8,
                                        max_window_spans=5))


@pytest.fixture()
def decoded(monkeypatch):
    """Ids of the property dicts ``SpanDigest.from_properties`` decodes."""
    calls: list[int] = []
    decode = SpanDigest.from_properties.__func__

    def counting(cls, properties):
        calls.append(id(properties))
        return decode(cls, properties)

    monkeypatch.setattr(SpanDigest, "from_properties",
                        classmethod(counting))
    return calls


def _spans_read(graphlets_by_pipeline) -> set[int]:
    return {span_id for graphlets in graphlets_by_pipeline.values()
            for graphlet in graphlets
            for span_id in graphlet.input_span_artifact_ids()}


def test_table_one_decodes_each_span_once(corpus, decoded):
    graphlets = segment_production_pipelines(corpus)
    similarity_table(graphlets)
    similarity_table(graphlets)
    spans = _spans_read(graphlets)
    windows = sum(len(graphlet.span_sequence())
                  for pipeline in graphlets.values() for graphlet in pipeline)
    assert windows > len(spans) > 0  # Windows share spans.
    assert len(decoded) == len(set(decoded)) == len(spans)


def test_rewritten_digest_is_seen_after_resegmentation(corpus, decoded):
    client = as_client(corpus.store)
    context_id = corpus.production_context_ids[0]
    graphlet = next(g for g in client.segment_pipeline(context_id)
                    if g.input_span_artifact_ids())
    ids, before = graphlet.span_sequence_with_ids()
    span = client.get_artifact(ids[0])
    hashes = [h + 1 for h in span.properties["digest_hashes"]]
    corpus.store.put_artifact(dataclasses.replace(
        span, properties={**span.properties, "digest_hashes": hashes}))

    fresh = next(g for g in client.segment_pipeline(context_id)
                 if g.trainer_execution_id == graphlet.trainer_execution_id)
    fresh_ids, after = fresh.span_sequence_with_ids()
    assert fresh_ids == ids
    assert [f.dist_hash for f in after[0].features] == hashes
    assert after[0] != before[0]
    assert after[1:] == before[1:]
    assert client.span_digest(ids[0]) is after[0]
