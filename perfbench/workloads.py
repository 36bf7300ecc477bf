"""The benchmark's workloads: set-up, the timed flow and its output checks.

Each workload reproduces one user-facing command sequence through the
public functions the CLI calls (``repro generate``, ``repro report``,
``repro waste``), in one process with one client. ``run`` performs one
timed pass and returns an :class:`Outcome`; when given a
:class:`~layers.Recorder` it also opens a span around every call into a
layer, so the same code serves the untraced and the traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import sqlite3
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: BENCH_scale's breadth-heavy shape (many pipelines, short histories)
#: and ``benchmarks/conftest.py``'s depth-heavy one.
INGEST_SHAPE = {"max_graphlets_per_pipeline": 40, "max_window_spans": 20}
STUDY_SHAPE = {"max_graphlets_per_pipeline": 80, "max_window_spans": 30}
#: One reference corpus per workload, whatever the seed (see README):
#: per-pipeline cost is heavy-tailed, so taking the seed as the corpus
#: seed would make the corpus, not the code, set the spread. The ingest
#: corpus (fleet runs the same one) has two shards of equal planned
#: work, so the fleet's wall time is not one shard's.
INGEST_CORPUS = {"n_pipelines": 16, "seed": 105, **INGEST_SHAPE}
STUDY_CORPUS = {"n_pipelines": 4, "seed": 7, **STUDY_SHAPE}
FLEET_WORKERS = 2
#: ``repro waste``'s default forest size.
STUDY_TREES = 60
#: ``repro waste`` refuses datasets smaller than this.
MIN_WASTE_ROWS = 20


def corpus_config(corpus: dict):
    from repro.corpus import CorpusConfig
    return CorpusConfig(**corpus)


@dataclass
class Outcome:
    """One timed pass: wall time, work units and check results."""

    wall_s: float = 0.0
    executions: int = 0
    db_bytes: int = 0
    dataset_rows: int = 0
    fleet: object | None = None
    #: (check name, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    commands: int = 0


def _spans(recorder):
    if recorder is None:
        return lambda name: contextlib.nullcontext()
    return recorder.span


@contextlib.contextmanager
def _timed(outcome: Outcome):
    """Add the enclosed block's wall time to ``outcome.wall_s``."""
    started = perf_counter()
    yield
    outcome.wall_s += perf_counter() - started


def store_counts(store) -> tuple[int, int, int]:
    return store.num_executions, store.num_artifacts, store.num_events


def provenance_digest(db_path: Path) -> str:
    """Digest of the db's ``iterdump`` minus the telemetry table.

    Telemetry rows carry measured seconds, so they differ between any
    two runs; every other row is covered by the fleet's determinism
    contract.
    """
    digest = hashlib.sha256()
    conn = sqlite3.connect(db_path)
    try:
        for line in conn.iterdump():
            if not line.startswith('INSERT INTO "telemetry"'):
                digest.update(line.encode())
                digest.update(b"\n")
    finally:
        conn.close()
    return digest.hexdigest()


def prepare(name: str, workdir: str) -> None:
    """Set-up of workload ``name``: writes its inputs under ``workdir``.

    Runs in a fresh interpreter (see ``run.py``), so neither its time nor
    its memory mixes with the timed passes.
    """
    WORKLOADS[name](Path(workdir)).prepare()


class Ingest:
    """``repro generate``: the sequential generator, then ``save_store``."""

    name = "ingest"
    corpus = INGEST_CORPUS

    def __init__(self, workdir: Path) -> None:
        self.db = workdir / f"{self.name}.db"
        self.reference_db = workdir / f"{self.name}-reference.db"
        self.digest_file = workdir / f"{self.name}-reference.sha256"
        self.reference = ""

    def reference_corpus(self):
        from repro.corpus import generate_corpus
        return generate_corpus(corpus_config(self.corpus), telemetry=True)

    def prepare(self) -> None:
        """Build the reference store every pass is compared with."""
        from repro.mlmd import save_store

        save_store(self.reference_corpus().store, self.reference_db)
        self.digest_file.write_text(provenance_digest(self.reference_db))

    def load_setup(self) -> None:
        self.reference = self.digest_file.read_text()

    def params(self) -> dict:
        return {"generator": "generate_corpus", "telemetry": True,
                "corpus": self.corpus}

    def run(self, recorder=None) -> Outcome:
        from repro.corpus import generate_corpus
        from repro.mlmd import save_store

        span = _spans(recorder)
        outcome = Outcome(commands=1)
        with _timed(outcome), span("cmd.generate"):
            with span("corpus.generate"):
                corpus = generate_corpus(corpus_config(self.corpus),
                                         telemetry=True)
            with span("mlmd.save"):
                save_store(corpus.store, self.db)
        outcome.executions = corpus.store.num_executions
        outcome.db_bytes = self.db.stat().st_size
        self._check(corpus, outcome)
        return outcome

    def _check(self, corpus, outcome: Outcome) -> None:
        from repro.mlmd import load_store

        saved = store_counts(corpus.store)
        loaded = store_counts(load_store(self.db))
        outcome.checks.append((
            "save_load_roundtrip", saved == loaded,
            f"executions/artifacts/events {saved} -> {loaded}"))
        outcome.checks.append((
            "matches_reference", provenance_digest(self.db) == self.reference,
            "iterdump (without telemetry) of the store vs the one set-up "
            "built from the same corpus config"))


class Fleet(Ingest):
    """``repro generate --workers 2 --out``: sharded generation, merge, save.

    Its reference is the ``workers=1`` store: the merged store must not
    depend on the worker count.
    """

    name = "fleet"

    def reference_corpus(self):
        from repro.fleet import generate_corpus_fleet
        return generate_corpus_fleet(corpus_config(self.corpus), workers=1,
                                     telemetry=True)[0]

    def params(self) -> dict:
        return {**super().params(), "generator": "generate_corpus_fleet",
                "workers": FLEET_WORKERS}

    def run(self, recorder=None) -> Outcome:
        from repro.faults.journal import ShardJournal, journal_dir_for
        from repro.fleet import generate_corpus_fleet
        from repro.mlmd import save_store

        span = _spans(recorder)
        outcome = Outcome(commands=1)
        journal = journal_dir_for(self.db)
        with _timed(outcome), span("cmd.generate"):
            with span("fleet.generate"):
                corpus, report = generate_corpus_fleet(
                    corpus_config(self.corpus), workers=FLEET_WORKERS,
                    telemetry=True, journal_dir=journal)
                if recorder is not None:
                    # The simulate phase is timed by the coordinator and
                    # reported as fleet.simulate_s.
                    recorder.cover("fleet.simulate",
                                   report.phase_seconds.get("simulate", 0.0))
            with span("mlmd.save"):
                save_store(corpus.store, self.db)
            ShardJournal(journal, fingerprint="").cleanup()
        outcome.executions = corpus.store.num_executions
        outcome.db_bytes = self.db.stat().st_size
        outcome.fleet = report
        outcome.checks.append((
            "fleet_complete_in_workers",
            report.complete and report.used_processes,
            f"complete={report.complete} "
            f"used_processes={report.used_processes}"))
        outcome.checks.append((
            "matches_workers_1", provenance_digest(self.db) == self.reference,
            "iterdump (without telemetry) of the workers=2 store vs the "
            "workers=1 reference"))
        return outcome


def _report_digest(report: dict) -> str:
    return hashlib.sha256(repr(report).encode()).hexdigest()


def _waste_digest(policies: dict, evaluation) -> str:
    digest = hashlib.sha256()
    for name, policy in policies.items():
        digest.update(repr((name, policy.balanced_accuracy,
                            policy.decision_threshold)).encode())
        digest.update(policy.test_scores.tobytes())
        curve = evaluation.curves[name]
        for array in (curve.thresholds, curve.freshness,
                      curve.wasted_fraction):
            digest.update(array.tobytes())
    digest.update(repr(sorted(evaluation.feature_cost.items())).encode())
    return digest.hexdigest()


class Study:
    """``repro report`` then ``repro waste``, each from ``load_store``."""

    name = "study"

    def __init__(self, workdir: Path) -> None:
        self.db = workdir / "study.db"
        self.digests: tuple[str, str] | None = None

    def prepare(self) -> None:
        """Generate and save the corpus both commands read."""
        from repro.corpus import generate_corpus
        from repro.mlmd import save_store

        corpus = generate_corpus(corpus_config(STUDY_CORPUS), telemetry=True)
        save_store(corpus.store, self.db)

    def load_setup(self) -> None:
        pass

    def params(self) -> dict:
        return {"generator": "generate_corpus", "telemetry": True,
                "corpus": STUDY_CORPUS, "trees": STUDY_TREES}

    def _load(self, span):
        from repro.corpus import Corpus
        from repro.mlmd import load_store

        with span("mlmd.load"):
            return Corpus.from_store(load_store(self.db))

    def run(self, recorder=None) -> Outcome:
        import gc

        from repro.analysis import full_report, segment_production_pipelines
        from repro.waste import (build_waste_dataset, evaluate_policies,
                                 feature_cost_index, train_all_variants)
        from repro.waste.dataset import pipeline_uses_warmstart

        span = _spans(recorder)
        outcome = Outcome(commands=2)
        with _timed(outcome), span("cmd.report"):
            corpus = self._load(span)
            with span("analysis.segment"):
                graphlets = segment_production_pipelines(corpus)
            with span("analysis.full_report"):
                report = full_report(corpus, graphlets)
        report_digest = _report_digest(report)
        del corpus, graphlets, report
        gc.collect()
        with _timed(outcome), span("cmd.waste"):
            corpus = self._load(span)
            with span("analysis.segment"):
                graphlets = segment_production_pipelines(corpus)
            with span("waste.dataset"):
                dataset = build_waste_dataset(graphlets)
            if dataset.n_rows < MIN_WASTE_ROWS:
                raise RuntimeError(f"corpus too small for repro waste: "
                                   f"{dataset.n_rows} rows")
            with span("waste.train"):
                policies = train_all_variants(dataset,
                                              n_estimators=STUDY_TREES)
            with span("waste.evaluate"):
                evaluation = evaluate_policies(policies,
                                               feature_cost_index(dataset))
        outcome.dataset_rows = dataset.n_rows
        kept = sum(len(g) for g in graphlets.values()
                   if not pipeline_uses_warmstart(g))
        outcome.checks.append((
            "dataset_rows_match_graphlets", dataset.n_rows == kept,
            f"{dataset.n_rows} rows vs {kept} graphlets after the "
            "warm-start filter"))
        digests = (report_digest, _waste_digest(policies, evaluation))
        if self.digests is None:
            self.digests = digests
        else:
            outcome.checks.append((
                "outputs_repeat", digests == self.digests,
                "report and waste outputs identical to the first pass"))
        return outcome


WORKLOADS = {cls.name: cls for cls in (Ingest, Study, Fleet)}


#: Per-layer metrics read straight off one span name:
#: metric -> (span, "calls" | "total" | "self").
SPAN_METRICS = {
    "cmd.generate_s": ("cmd.generate", "total"),
    "cmd.report_s": ("cmd.report", "total"),
    "cmd.waste_s": ("cmd.waste", "total"),
    "corpus.generate_self_s": ("corpus.generate", "self"),
    "tfx.run_s": ("tfx.run", "total"),
    "tfx.run_calls": ("tfx.run", "calls"),
    "data.span_synth_s": ("data.span_synth", "total"),
    "data.span_synth_calls": ("data.span_synth", "calls"),
    "data.drift_step_s": ("data.drift_step", "total"),
    "mlmd.put_s": ("mlmd.put", "total"),
    "mlmd.put_calls": ("mlmd.put", "calls"),
    "mlmd.save_s": ("mlmd.save", "total"),
    "mlmd.load_s": ("mlmd.load", "total"),
    "query.index_build_s": ("query.index_build", "total"),
    "mlmd.get_execution_calls": ("mlmd.get_execution", "calls"),
    "graphlets.segment_s": ("graphlets.segment", "total"),
    "graphlets.segment_calls": ("graphlets.segment", "calls"),
    "similarity.span_pair_calls": ("similarity.span_pair", "calls"),
    "similarity.span_similarity_calls":
        ("similarity.span_similarity", "calls"),
    "similarity.span_similarity_s": ("similarity.span_similarity", "total"),
    "similarity.digest_decode_calls": ("similarity.digest_decode", "calls"),
    "similarity.digest_decode_s": ("similarity.digest_decode", "total"),
    "analysis.full_report_self_s": ("analysis.full_report", "self"),
    "waste.dataset_self_s": ("waste.dataset", "self"),
    "waste.evaluate_s": ("waste.evaluate", "total"),
    "ml.forest_fit_s": ("ml.forest_fit", "total"),
    "ml.tree_fit_calls": ("ml.tree_fit", "calls"),
    "ml.predict_s": ("ml.predict", "total"),
    "fleet.simulate_s": ("fleet.simulate", "total"),
    "fleet.merge_s": ("fleet.merge", "total"),
    "fleet.coordinator_self_s": ("fleet.generate", "self"),
}


def covered_spans(reported) -> tuple[set[str], set[str]]:
    """(spans covered whole, spans covered in their self time).

    A span's time counts towards ``trace.coverage`` only when a
    ``reported`` metric reads it; the ``cmd.*`` command spans are what
    coverage is a share of, so they never count.
    """
    whole, own = set(), set()
    for metric, (span, stat) in SPAN_METRICS.items():
        if metric in reported and not span.startswith("cmd."):
            {"total": whole, "self": own}.get(stat, set()).add(span)
    return whole, own


def layer_metrics(recorder, outcome: Outcome) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 for idle layers)."""
    r = recorder
    read = {"calls": r.calls, "total": r.total, "self": r.self_time}
    metrics = {metric: read[stat](span)
               for metric, (span, stat) in SPAN_METRICS.items()}
    generate_s = metrics["cmd.generate_s"]
    metrics["cmd.exec_per_s"] = (outcome.executions / generate_s
                                 if generate_s else 0.0)
    metrics["mlmd.db_bytes"] = outcome.db_bytes
    pairs = metrics["similarity.span_pair_calls"]
    # Pair lookups that computed no similarity were served by the cache.
    metrics["similarity.pair_cache_hit_ratio"] = (
        1.0 - metrics["similarity.span_similarity_calls"] / pairs
        if pairs else 0.0)
    dataset_s = r.total("waste.dataset")
    metrics["waste.dataset_rows_per_s"] = (
        outcome.dataset_rows / dataset_s if dataset_s else 0.0)
    report = outcome.fleet
    metrics["fleet.snapshot_bytes"] = report.snapshot_bytes if report else 0
    metrics["fleet.merge_rows_per_s"] = (
        report.merge_rows / metrics["fleet.merge_s"]
        if report and metrics["fleet.merge_s"] else 0.0)
    shard_seconds = report.shard_seconds if report else []
    metrics["fleet.shard_skew"] = (
        max(shard_seconds) / statistics.median(shard_seconds)
        if shard_seconds else 0.0)
    metrics["trace.coverage"] = r.coverage()
    return metrics
