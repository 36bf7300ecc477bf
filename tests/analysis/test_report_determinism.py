"""``full_report`` does not depend on the interpreter's hash seed.

String hashing is salted per process (``PYTHONHASHSEED``), so anything
that takes its order from a set of strings changes between runs of
``repro report``. The report is computed on one store in two fresh
interpreters with different seeds, and the two ``repr`` must be equal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.corpus import CorpusConfig, generate_corpus
from repro.mlmd import save_store

REPORT_SCRIPT = """
import sys
from repro.analysis import full_report, segment_production_pipelines
from repro.corpus import Corpus
from repro.mlmd import load_store
corpus = Corpus.from_store(load_store(sys.argv[1]))
print(repr(full_report(corpus, segment_production_pipelines(corpus))))
"""


def _report_repr(db: Path, hash_seed: int) -> str:
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [package_root,
                                 os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", REPORT_SCRIPT, str(db)],
                            env=env, capture_output=True, text=True,
                            timeout=300, check=True)
    return result.stdout


def test_report_repr_is_hash_seed_independent(tmp_path):
    corpus = generate_corpus(CorpusConfig(
        n_pipelines=8, seed=3, max_graphlets_per_pipeline=6,
        max_window_spans=6))
    db = tmp_path / "corpus.db"
    save_store(corpus.store, db)
    first = _report_repr(db, 1)
    assert "fig4_analyzer_usage" in first
    assert first == _report_repr(db, 2)
