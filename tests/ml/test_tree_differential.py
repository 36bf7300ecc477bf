"""The node-level split kernel against the per-column oracle.

Every tree grown by :mod:`repro.ml.tree` must equal, bit for bit, the
tree the per-column search in :mod:`tests.ml.tree_oracle` grows from
the same data and seed: the same nodes (feature, threshold, children,
sizes, impurity and value bytes), the same importances and the same
predictions. Example counts come from the loaded Hypothesis profile
(``HYPOTHESIS_PROFILE=ci`` runs a deeper search).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml import (DecisionTreeClassifier, DecisionTreeRegressor,
                      GradientBoostingClassifier, RandomForestClassifier)

from .tree_oracle import OracleClassifier, OracleRegressor

#: A small value pool: columns drawn from it are full of ties.
TIED_VALUES = [-1.0, 0.0, 0.5, 2.0]


def _node_record(node) -> tuple:
    return (node.feature, np.float64(node.threshold).tobytes(), node.left,
            node.right, node.n_samples, np.float64(node.impurity).tobytes(),
            np.asarray(node.value, dtype=float).tobytes())


def assert_same_tree(tree, oracle) -> None:
    assert ([_node_record(n) for n in tree._nodes]
            == [_node_record(n) for n in oracle._nodes])
    assert (tree.feature_importances_.tobytes()
            == oracle.feature_importances_.tobytes())


@st.composite
def feature_matrices(draw, max_rows: int = 40, max_cols: int = 8):
    """(n, d) features with ties, duplicate rows and constant columns."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, max_cols))
    if draw(st.booleans()):
        elements = st.sampled_from(TIED_VALUES)
    else:
        elements = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    x = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    for column in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        x[:, column] = 1.5
    duplicates = draw(st.integers(0, n))
    return np.vstack([x, x[:duplicates]])


tree_params = st.fixed_dictionaries({
    "min_samples_leaf": st.sampled_from([1, 2, 5]),
    "max_features": st.sampled_from([None, "sqrt", 0.4]),
    "max_depth": st.sampled_from([None, 3, 12]),
    "random_state": st.integers(0, 2 ** 31 - 1),
})


@st.composite
def class_labels(draw, n: int, n_classes: int):
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
    present = min(n, n_classes)
    y[:present] = np.arange(present)
    return y


class TestClassifierMatchesOracle:
    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    @given(data=st.data(), params=tree_params)
    @settings(deadline=None)
    def test_nodes_importances_and_proba(self, n_classes, data, params):
        x = data.draw(feature_matrices())
        y = data.draw(class_labels(len(x), n_classes))
        tree = DecisionTreeClassifier(**params).fit(x, y)
        oracle = OracleClassifier(**params).fit(x, y)
        assert_same_tree(tree, oracle)
        probe = np.vstack([x, x[::-1] + 0.25])
        assert (tree.predict_proba(probe).tobytes()
                == oracle.predict_proba(probe).tobytes())

    @given(x=feature_matrices(), params=tree_params)
    @settings(deadline=None)
    def test_duplicate_rows_with_conflicting_labels(self, x, params):
        """Identical rows carrying different labels cannot be split; the
        kernel must give up exactly where the oracle does."""
        doubled = np.vstack([x, x])
        y = np.r_[np.zeros(len(x), dtype=int), np.ones(len(x), dtype=int)]
        tree = DecisionTreeClassifier(**params).fit(doubled, y)
        oracle = OracleClassifier(**params).fit(doubled, y)
        assert_same_tree(tree, oracle)


class TestRegressorMatchesOracle:
    @given(data=st.data(), params=tree_params)
    @settings(deadline=None)
    def test_nodes_importances_and_predictions(self, data, params):
        x = data.draw(feature_matrices())
        if data.draw(st.booleans()):
            targets = st.sampled_from(TIED_VALUES)
        else:
            targets = st.floats(-1e3, 1e3, allow_nan=False, width=64)
        y = data.draw(hnp.arrays(np.float64, len(x), elements=targets))
        tree = DecisionTreeRegressor(**params).fit(x, y)
        oracle = OracleRegressor(**params).fit(x, y)
        assert_same_tree(tree, oracle)
        assert tree.predict(x).tobytes() == oracle.predict(x).tobytes()

    @given(seed=st.integers(0, 2 ** 31 - 1), params=tree_params)
    @settings(deadline=None)
    def test_continuous_targets_on_wide_nodes(self, seed, params):
        """Long rows of distinct sums: where a column-major variance would
        round differently from the 1-D one."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(64, 6))
        y = rng.normal(size=64) * 10.0 ** rng.integers(-3, 4)
        tree = DecisionTreeRegressor(**params).fit(x, y)
        oracle = OracleRegressor(**params).fit(x, y)
        assert_same_tree(tree, oracle)


def waste_shaped(seed: int, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """~96 rows like the waste dataset: flags, counts, similarities and
    costs, an imbalanced pushed/not-pushed label."""
    rng = np.random.default_rng(seed)
    n = 96
    columns = []
    for j in range(n_features):
        kind = j % 4
        if kind == 0:
            columns.append(rng.integers(0, 2, n).astype(float))
        elif kind == 1:
            columns.append(rng.poisson(3.0, n).astype(float))
        elif kind == 2:
            columns.append(np.round(rng.uniform(0, 1, n), 2))
        else:
            columns.append(rng.lognormal(0.0, 1.0, n))
    x = np.column_stack(columns)
    score = x[:, 2] + 0.3 * x[:, 1] - x[:, 0] + rng.normal(0, 0.5, n)
    y = (score > np.quantile(score, 0.7)).astype(int)
    return x, y


class TestEnsemblesMatchOracle:
    @pytest.mark.parametrize("seed,n_features", [(0, 24), (1, 37), (2, 53)])
    def test_waste_shaped_forest(self, monkeypatch, seed, n_features):
        x, y = waste_shaped(seed, n_features)
        params = dict(n_estimators=20, max_depth=12, max_features=0.4,
                      min_samples_leaf=2, oob_score=True, random_state=seed)
        forest = RandomForestClassifier(**params).fit(x, y)
        monkeypatch.setattr("repro.ml.forest.DecisionTreeClassifier",
                            OracleClassifier)
        oracle = RandomForestClassifier(**params).fit(x, y)
        assert all(isinstance(t, OracleClassifier) for t in oracle.trees_)
        for tree, oracle_tree in zip(forest.trees_, oracle.trees_):
            assert_same_tree(tree, oracle_tree)
        assert (forest.oob_decision_function_.tobytes()
                == oracle.oob_decision_function_.tobytes())
        assert (forest.predict_proba(x).tobytes()
                == oracle.predict_proba(x).tobytes())
        assert (forest.feature_importances_.tobytes()
                == oracle.feature_importances_.tobytes())

    def test_gradient_boosting(self, monkeypatch):
        x, y = waste_shaped(3, 24)
        params = dict(n_estimators=15, max_depth=3, subsample=0.8,
                      random_state=3)
        model = GradientBoostingClassifier(**params).fit(x, y)
        monkeypatch.setattr("repro.ml.boosting.DecisionTreeRegressor",
                            OracleRegressor)
        oracle = GradientBoostingClassifier(**params).fit(x, y)
        assert all(isinstance(t, OracleRegressor) for t in oracle.trees_)
        assert (model.decision_function(x).tobytes()
                == oracle.decision_function(x).tobytes())


def test_no_rows_predict_empty():
    x = np.array([[0.0], [1.0]])
    tree = DecisionTreeClassifier().fit(x, np.array([0, 1]))
    assert tree.predict_proba(np.zeros((0, 1))).shape == (0, 2)
    regressor = DecisionTreeRegressor().fit(x, np.array([0.0, 1.0]))
    assert regressor.predict(np.zeros((0, 1))).shape == (0,)
