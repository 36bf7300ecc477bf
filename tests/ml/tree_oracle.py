"""Slow reference trees: the per-column CART split search.

:mod:`repro.ml.tree` finds every candidate column's best split in one
kernel per node. The trees here keep the search that kernel replaced,
one ``_best_split`` call per candidate column, together with its Gini
and node statistics and the row-by-row leaf routing it used for
inference. They share the rest with the production trees (the per-node
candidate draw, the recursion order), so a production tree and its
oracle grown on the same data must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import (DecisionTreeClassifier, DecisionTreeRegressor,
                           _Node)


def _gini(class_counts: np.ndarray) -> np.ndarray:
    """Gini impurity for rows of class counts, row sums computed here."""
    totals = class_counts.sum(axis=-1, keepdims=True)
    safe = np.where(totals > 0, totals, 1)
    proportions = class_counts / safe
    return 1.0 - (proportions ** 2).sum(axis=-1)


def classifier_best_split(x_col: np.ndarray, y: np.ndarray, n_classes: int,
                          min_leaf: int) -> tuple[float, float]:
    """(gain, threshold) of the best Gini split on one column."""
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    ys = y[order]
    n = len(ys)
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), ys] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    total = prefix[-1]
    # Valid split positions: after index i (left = [0..i]), where the
    # value changes and both sides satisfy min_samples_leaf.
    positions = np.arange(min_leaf - 1, n - min_leaf)
    if positions.size == 0:
        return -1.0, 0.0
    valid = xs[positions] < xs[positions + 1]
    positions = positions[valid]
    if positions.size == 0:
        return -1.0, 0.0
    left_counts = prefix[positions]
    right_counts = total - left_counts
    left_sizes = positions + 1
    right_sizes = n - left_sizes
    parent_impurity = float(_gini(total))
    child = (left_sizes * _gini(left_counts)
             + right_sizes * _gini(right_counts)) / n
    gains = parent_impurity - child
    best = int(np.argmax(gains))
    if gains[best] < 0:
        return -1.0, 0.0
    pos = positions[best]
    threshold = (xs[pos] + xs[pos + 1]) / 2.0
    return float(max(gains[best], 0.0)), float(threshold)


def regressor_best_split(x_col: np.ndarray, y: np.ndarray,
                         min_leaf: int) -> tuple[float, float]:
    """(gain, threshold) of the best variance-reduction split on one
    column."""
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    ys = y[order]
    n = len(ys)
    prefix_sum = np.cumsum(ys)
    prefix_sq = np.cumsum(ys ** 2)
    positions = np.arange(min_leaf - 1, n - min_leaf)
    if positions.size == 0:
        return -1.0, 0.0
    valid = xs[positions] < xs[positions + 1]
    positions = positions[valid]
    if positions.size == 0:
        return -1.0, 0.0
    left_n = positions + 1
    right_n = n - left_n
    left_sum = prefix_sum[positions]
    right_sum = prefix_sum[-1] - left_sum
    left_sq = prefix_sq[positions]
    right_sq = prefix_sq[-1] - left_sq
    left_var = left_sq / left_n - (left_sum / left_n) ** 2
    right_var = right_sq / right_n - (right_sum / right_n) ** 2
    parent_var = float(ys.var())
    child = (left_n * left_var + right_n * right_var) / n
    gains = parent_var - child
    best = int(np.argmax(gains))
    if gains[best] <= 1e-15:
        return -1.0, 0.0
    pos = positions[best]
    threshold = (xs[pos] + xs[pos + 1]) / 2.0
    return float(gains[best]), float(threshold)


class _OracleTree:
    """Per-column ``_grow`` and row-by-row ``_leaf_values``."""

    def _best_split(self, x_col, y, min_leaf):
        raise NotImplementedError

    def _grow(self, columns, target, depth, importance):
        features = columns.T
        value, impurity = self._node_stats(target)
        node = _Node(value=value, n_samples=len(target), impurity=impurity)
        index = len(self._nodes)
        self._nodes.append(node)

        if (impurity <= 1e-12
                or len(target) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)):
            return index

        k = self._n_candidate_features()
        if k < self._n_features:
            candidates = self._rng.choice(self._n_features, size=k,
                                          replace=False)
        else:
            candidates = np.arange(self._n_features)

        best_gain, best_feature, best_threshold = -1.0, -1, 0.0
        for feature_idx in candidates:
            gain, threshold = self._best_split(
                features[:, feature_idx], target, self.min_samples_leaf)
            if gain > best_gain + 1e-15:
                best_gain, best_feature, best_threshold = (
                    gain, int(feature_idx), threshold)
        if best_feature < 0 or best_gain < 0:
            return index

        mask = features[:, best_feature] <= best_threshold
        if mask.all() or not mask.any():
            return index
        node.feature = best_feature
        node.threshold = best_threshold
        importance[best_feature] += best_gain * len(target)
        node.left = self._grow(columns[:, mask], target[mask], depth + 1,
                               importance)
        node.right = self._grow(columns[:, ~mask], target[~mask],
                                depth + 1, importance)
        return index

    def _leaf_values(self, features):
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self._n_features:
            raise ValueError(
                f"expected (n, {self._n_features}) features")
        out = [None] * len(features)
        stack = [(0, np.arange(len(features)))]
        while stack:
            node_index, rows = stack.pop()
            node = self._nodes[node_index]
            if node.feature < 0:
                for r in rows:
                    out[r] = node.value
                continue
            mask = features[rows, node.feature] <= node.threshold
            left_rows = rows[mask]
            right_rows = rows[~mask]
            if left_rows.size:
                stack.append((node.left, left_rows))
            if right_rows.size:
                stack.append((node.right, right_rows))
        return np.asarray(out)


class OracleClassifier(_OracleTree, DecisionTreeClassifier):
    """Gini tree grown by the per-column search."""

    def _node_stats(self, y):
        counts = np.bincount(y, minlength=len(self.classes_)).astype(float)
        total = counts.sum()
        value = counts / total if total else counts
        return value, float(_gini(counts))

    def _best_split(self, x_col, y, min_leaf):
        return classifier_best_split(x_col, y, len(self.classes_), min_leaf)

    def predict_proba(self, features):
        return np.vstack(self._leaf_values(features))


class OracleRegressor(_OracleTree, DecisionTreeRegressor):
    """Variance-reduction tree grown by the per-column search."""

    def _best_split(self, x_col, y, min_leaf):
        return regressor_best_split(x_col, y, min_leaf)

    def predict(self, features):
        return self._leaf_values(features).astype(float)
