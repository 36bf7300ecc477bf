"""Spans recorded by the benchmark around each layer of the flow.

The traced pass needs per-layer time without touching ``src/``: the
benchmark opens spans around its own calls into a layer
(:meth:`Recorder.span`) and, for layers that the flow reaches from
inside the package, temporarily wraps the layer's public function or
method (:data:`LAYERS`, installed by :func:`instrument`).

Spans are aggregated in memory per name as they close: calls, total
(inclusive) seconds and self seconds, where self time is the span's
duration minus the time its child spans cover. A span whose name is
already open further up the stack (recursion, ``put_events`` calling
``put_event``) is counted but not timed again, so totals never count
the same interval twice. Counting layers (``COUNT``) only bump a call
counter: they sit on paths hot enough that a clock read per call would
distort the timed layers around them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter

SPAN = "span"
COUNT = "count"

#: (layer name, "module" or "module:Class", attribute or "prefix*",
#: kind). Module attributes are patched where the caller looks them up,
#: e.g. ``synthetic_span`` as :mod:`repro.corpus.generator` imported it.
LAYERS = (
    ("tfx.run", "repro.tfx.runtime:PipelineRunner", "run", SPAN),
    ("data.span_synth", "repro.corpus.generator", "synthetic_span", SPAN),
    ("data.drift_step", "repro.data.drift:DriftProcess", "step", SPAN),
    ("mlmd.put", "repro.mlmd.store:MetadataStore", "put_*", SPAN),
    ("mlmd.get_execution", "repro.mlmd.store:MetadataStore",
     "get_execution", COUNT),
    ("mlmd.get_execution", "repro.query.client:MetadataClient",
     "get_execution", COUNT),
    ("query.index_build", "repro.query.client:MetadataClient", "__init__",
     SPAN),
    ("graphlets.segment", "repro.query.client:MetadataClient",
     "segment_pipeline", SPAN),
    ("similarity.span_pair", "repro.similarity.span_metric:SpanPairCache",
     "span_pair", COUNT),
    ("similarity.span_similarity", "repro.similarity.span_metric",
     "span_similarity", SPAN),
    ("similarity.digest_decode",
     "repro.similarity.feature_metric:SpanDigest", "from_properties", SPAN),
    ("ml.forest_fit", "repro.ml.forest:RandomForestClassifier", "fit", SPAN),
    ("ml.tree_fit", "repro.ml.tree:DecisionTreeClassifier", "fit", SPAN),
    ("ml.predict", "repro.ml.forest:RandomForestClassifier",
     "predict_proba", SPAN),
    ("fleet.merge", "repro.fleet.workers", "merge_snapshot", SPAN),
)


class Recorder:
    """Aggregates spans per name: ``stats[name] = [calls, total, self]``.

    It also adds up how much of the root spans' time lies in spans that
    feed a reported metric (:meth:`coverage`): all of a span named in
    ``whole``, the self time of a span named in ``own``.
    """

    def __init__(self, whole: set[str], own: set[str]) -> None:
        self.stats: dict[str, list] = {}
        self.whole, self.own = whole, own
        self.root_seconds = 0.0
        self.covered_seconds = 0.0
        # [name, start, child seconds, covered child seconds]
        self._stack: list[list] = []
        self._open: dict[str, int] = {}   # name -> 1 while a span is open

    def _entry(self, name: str) -> list:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        return entry

    def _enter(self, name: str) -> bool:
        entry = self._entry(name)
        entry[0] += 1
        if self._open.get(name):
            return False
        self._open[name] = 1
        self._stack.append([name, perf_counter(), 0.0, 0.0])
        return True

    def _exit(self) -> None:
        name, start, child, covered = self._stack.pop()
        self._open[name] = 0
        self._close(name, perf_counter() - start, child, covered)

    def _close(self, name: str, duration: float, child: float,
               covered: float) -> None:
        entry = self.stats[name]
        entry[1] += duration
        entry[2] += duration - child
        if name in self.whole:
            covered = duration
        elif name in self.own:
            covered += duration - child
        if self._stack:
            self._stack[-1][2] += duration
            self._stack[-1][3] += covered
        else:
            self.root_seconds += duration
            self.covered_seconds += covered

    def cover(self, name: str, seconds: float) -> None:
        """Record a child span of ``seconds`` timed outside the recorder.

        For work the recorder cannot wrap, such as a phase the fleet
        coordinator times itself.
        """
        self._entry(name)[0] += 1
        self._close(name, seconds, 0.0, 0.0)

    def coverage(self) -> float:
        """Share of the root spans' time covered by reported spans."""
        return (self.covered_seconds / self.root_seconds
                if self.root_seconds else 0.0)

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span of ``name``."""
        timed = self._enter(name)
        try:
            yield
        finally:
            if timed:
                self._exit()

    def wrap(self, name: str, kind: str, func):
        """``func`` wrapped to record a span (or a count) per call."""
        if kind == COUNT:
            entry = self._entry(name)

            @functools.wraps(func)
            def counted(*args, **kwargs):
                entry[0] += 1
                return func(*args, **kwargs)
            return counted

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            timed = self._enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                if timed:
                    self._exit()
        return spanned

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Install every :data:`LAYERS` wrapper for the enclosed block.

    Raises ``AttributeError`` when a listed layer no longer exists, so a
    renamed layer fails the traced run instead of silently reading 0.
    """
    restore: list[tuple[object, str, object]] = []
    try:
        for name, target, attr, kind in LAYERS:
            owner = _resolve(target)
            if attr.endswith("*"):
                attrs = sorted(a for a in vars(owner)
                               if a.startswith(attr[:-1]))
                if not attrs:
                    raise AttributeError(f"{target} has no {attr}")
            else:
                attrs = [attr]
            for one in attrs:
                raw = vars(owner).get(one)   # None when inherited
                current = getattr(owner, one)
                if isinstance(raw, classmethod):
                    patched = classmethod(
                        recorder.wrap(name, kind, raw.__func__))
                else:
                    patched = recorder.wrap(name, kind, current)
                restore.append((owner, one, raw))
                setattr(owner, one, patched)
        yield recorder
    finally:
        for owner, one, raw in reversed(restore):
            if raw is None:
                delattr(owner, one)
            else:
                setattr(owner, one, raw)
