"""Data-ingestion operators.

``ExampleGen`` imports one data span per pipeline trigger (Section 2.1).
Per Section 3.3, ingestion performs a "hermetic" copy plus shuffling and
splitting, which is why it carries a significant compute cost (~22% of
total in Figure 7) — the cost model charges ingestion accordingly.
"""

from __future__ import annotations

from ...data.schema import FeatureType
from ...data.spans import DataSpan
from ...similarity.feature_metric import FeatureDigest, SpanDigest
from ...similarity.lsh import DEFAULT_HASHER
from .. import artifacts as A
from ..cost import OperatorGroup
from .base import Operator, OperatorContext, OperatorResult, OutputArtifact

#: Digests are truncated to this many features; similarity over a fixed
#: deterministic subset is unbiased, and this bounds trace memory for the
#: tail pipelines with tens of thousands of features.
MAX_DIGEST_FEATURES = 256


def anonymized_digest(span: DataSpan,
                      max_features: int = MAX_DIGEST_FEATURES) -> SpanDigest:
    """Digest a span with per-span anonymized feature names.

    The corpus anonymizes feature names (Appendix B), so names never
    match across *different* spans — the similarity metric's name term
    only fires when two graphlets literally share a span artifact. We
    replicate that by salting names with the span id. All of the span's
    distributions are hashed with one ``hash_many`` call, as in
    :func:`~repro.similarity.feature_metric.digest_span`.
    """
    stats = span.statistics
    hashes = DEFAULT_HASHER.hash_many(stats.distributions())[:max_features]
    return SpanDigest(features=[
        FeatureDigest(name=f"s{span.span_id}:{index}",
                      is_categorical=f.type is FeatureType.CATEGORICAL,
                      dist_hash=h)
        for index, (f, h) in enumerate(zip(stats.features.values(),
                                           hashes.tolist()))
    ])


class ExampleGen(Operator):
    """Imports the trigger's new data span into the pipeline.

    The trigger (or the corpus generator) places the incoming
    :class:`~repro.data.spans.DataSpan` in ``ctx.hints["new_span"]``.
    Outputs one ``DataSpan`` artifact whose properties carry the span id,
    example count, feature profile, and the anonymized similarity digest.
    """

    name = "ExampleGen"
    group = OperatorGroup.DATA_INGESTION
    input_types: dict[str, str] = {}
    output_types = {"span": A.DATA_SPAN}

    def run(self, ctx: OperatorContext, inputs) -> OperatorResult:
        span: DataSpan | None = ctx.hints.get("new_span")
        if span is None:
            raise ValueError("ExampleGen requires a 'new_span' hint")
        stats = span.statistics
        domain_sizes = [
            f.categorical.domain_size or f.categorical.unique_count
            for f in stats.features.values()
            if f.categorical is not None
        ]
        mean_domain = (sum(domain_sizes) / len(domain_sizes)
                       if domain_sizes else 0.0)
        properties = {
            "span_id": span.span_id,
            "num_examples": span.num_examples,
            "feature_count": int(ctx.hints.get("true_feature_count",
                                               stats.feature_count)),
            "categorical_fraction": stats.categorical_fraction,
            "mean_domain_size": float(mean_domain),
        }
        properties.update(anonymized_digest(span).to_properties())
        output = OutputArtifact(type_name=A.DATA_SPAN,
                                properties=properties, payload=span)
        # Ingestion cost scales with span volume.
        scale = max(span.num_examples / 10_000.0, 0.05)
        return OperatorResult(outputs={"span": [output]}, cost_scale=scale)
