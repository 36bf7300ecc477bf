"""CART decision trees (classification and regression).

A from-scratch replacement for the scikit-learn trees the paper uses via
its Random Forest / GBDT experiments (Section 5.2.2); scikit-learn is not
available in this environment. Split search is one numpy kernel per
node: the node's candidate columns are laid out features x rows, sorted
together, and the impurity of every threshold of every candidate comes
from one prefix count per column; a masked argmax picks each column's
best threshold. ``tests/ml/tree_oracle.py`` holds a per-column search
as the oracle these trees are checked against, bit for bit.

Supports ``max_features`` (random feature subsampling per node) so the
forest in :mod:`repro.ml.forest` is a proper Random Forest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: np.ndarray | float = 0.0
    n_samples: int = 0
    impurity: float = 0.0


def _gini(class_counts: np.ndarray,
          sizes: np.ndarray | int) -> np.ndarray:
    """Gini impurity for rows of class counts (vectorized); ``sizes``
    are the row sums, never zero (every node and side has a row)."""
    return 1.0 - ((class_counts / sizes) ** 2).sum(axis=-1)


class _BaseTree:
    """Shared recursive builder; subclasses define leaf values/impurity."""

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features: int | float | str | None = None,
                 random_state: int | None = None) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._nodes: list[_Node] = []
        self._n_features = 0
        self.feature_importances_: np.ndarray | None = None

    # ---- subclass hooks ------------------------------------------------

    def _node_stats(self, y: np.ndarray):
        """Return (value, impurity) summarizing the target at a node."""
        raise NotImplementedError

    def _split_gains(self, ys: np.ndarray,
                     positions: np.ndarray) -> np.ndarray:
        """Gain of splitting each row of ``ys`` after each of the sorted
        ``positions``, as a (k, len(positions)) array; -1.0 where the
        gain is too small to split on.

        ``ys`` is (k, n) and C-contiguous: row j holds the node's target
        ordered by candidate column j.
        """
        raise NotImplementedError

    def _best_splits(self, columns: np.ndarray, y: np.ndarray,
                     min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (gains[k], thresholds[k]): the best split of each of
        the k candidate columns of a C-contiguous (k, n) block.

        A gain of -1.0 means the column has no admissible split.
        """
        k, n = columns.shape
        # Split after sorted position p: left = [0..p], both sides
        # satisfying min_samples_leaf.
        positions = np.arange(min_leaf - 1, n - min_leaf)
        if positions.size == 0:
            return np.full(k, -1.0), np.zeros(k)
        order = columns.argsort(axis=1, kind="stable")
        rows = np.arange(k)
        xs = columns[rows[:, None], order]
        # Only where the value changes is a position a threshold.
        gains = np.where(xs[:, positions] < xs[:, positions + 1],
                         self._split_gains(y[order], positions), -1.0)
        best = gains.argmax(axis=1)
        at = positions[best]
        return gains[rows, best], (xs[rows, at] + xs[rows, at + 1]) / 2.0

    # ---- fitting -------------------------------------------------------

    def fit(self, features: np.ndarray, target: np.ndarray):
        """Grow the tree on a dense (n, d) feature matrix."""
        features = np.asarray(features, dtype=float)
        target = np.asarray(target)
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if len(features) != len(target):
            raise ValueError("features and target length mismatch")
        if len(features) == 0:
            raise ValueError("cannot fit on empty data")
        self._n_features = features.shape[1]
        self._nodes = []
        self._rng = np.random.default_rng(self.random_state)
        importance = np.zeros(self._n_features)
        self._prepare_target(target)
        # Features x rows, so each candidate column is one contiguous row
        # and reductions run along the last axis (see _best_splits).
        self._grow(np.ascontiguousarray(features.T), self._encoded_target,
                   depth=0, importance=importance)
        total = importance.sum()
        self.feature_importances_ = (importance / total if total > 0
                                     else importance)
        return self

    def _prepare_target(self, target: np.ndarray) -> None:
        self._encoded_target = np.asarray(target, dtype=float)

    def _n_candidate_features(self) -> int:
        spec = self.max_features
        d = self._n_features
        if spec is None:
            return d
        if spec == "sqrt":
            return max(1, int(np.sqrt(d)))
        if spec == "log2":
            return max(1, int(np.log2(d))) if d > 1 else 1
        if isinstance(spec, float):
            return max(1, int(spec * d))
        return max(1, min(int(spec), d))

    def _grow(self, columns: np.ndarray, target: np.ndarray, depth: int,
              importance: np.ndarray) -> int:
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

        gains, thresholds = self._best_splits(
            columns[candidates], target, self.min_samples_leaf)
        best_gain, best_feature, best_threshold = -1.0, -1, 0.0
        for feature_idx, gain, threshold in zip(
                candidates.tolist(), gains.tolist(), thresholds.tolist()):
            if gain > best_gain + 1e-15:
                best_gain, best_feature, best_threshold = (
                    gain, feature_idx, threshold)
        if best_feature < 0 or best_gain < 0:
            return index

        mask = columns[best_feature] <= best_threshold
        if mask.all() or not mask.any():
            return index
        node.feature = best_feature
        node.threshold = best_threshold
        importance[best_feature] += best_gain * len(target)
        node.left = self._grow(columns[:, mask], target[mask], depth + 1,
                               importance)
        node.right = self._grow(columns[:, ~mask], target[~mask], depth + 1,
                                importance)
        return index

    # ---- inference -----------------------------------------------------

    def _leaf_values(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self._n_features:
            raise ValueError(
                f"expected (n, {self._n_features}) features")
        out = np.empty((len(features),) + np.shape(self._nodes[0].value))
        # Iterative routing, one node at a time, vectorized by partition.
        stack = [(0, np.arange(len(features)))]
        while stack:
            node_index, rows = stack.pop()
            node = self._nodes[node_index]
            if node.feature < 0:
                out[rows] = node.value
                continue
            mask = features[rows, node.feature] <= node.threshold
            left_rows = rows[mask]
            right_rows = rows[~mask]
            if left_rows.size:
                stack.append((node.left, left_rows))
            if right_rows.size:
                stack.append((node.right, right_rows))
        return out

    @property
    def node_count(self) -> int:
        """Number of nodes in the grown tree."""
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Maximum depth of the grown tree."""
        def _depth(index: int) -> int:
            node = self._nodes[index]
            if node.feature < 0:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))
        return _depth(0) if self._nodes else 0


class DecisionTreeClassifier(_BaseTree):
    """CART classifier with Gini impurity.

    Example:
        >>> x = np.array([[0.0], [1.0], [2.0], [3.0]])
        >>> y = np.array([0, 0, 1, 1])
        >>> DecisionTreeClassifier().fit(x, y).predict(x).tolist()
        [0, 0, 1, 1]
    """

    def _prepare_target(self, target: np.ndarray) -> None:
        self.classes_, encoded = np.unique(target, return_inverse=True)
        self._encoded_target = encoded

    def _node_stats(self, y: np.ndarray):
        counts = np.bincount(y, minlength=len(self.classes_)).astype(float)
        return counts / len(y), float(_gini(counts, len(y)))

    def _split_gains(self, ys: np.ndarray,
                     positions: np.ndarray) -> np.ndarray:
        n = ys.shape[1]
        one_hot = (ys[..., None] == np.arange(len(self.classes_))).astype(
            float)
        prefix = one_hot.cumsum(axis=1)
        total = prefix[0, -1]
        left_counts = prefix[:, positions]
        left_sizes = positions + 1
        right_sizes = n - left_sizes
        child = (left_sizes * _gini(left_counts, left_sizes[:, None])
                 + right_sizes * _gini(total - left_counts,
                                       right_sizes[:, None])) / n
        gains = float(_gini(total, n)) - child
        # Zero-gain splits are allowed (ties still shrink the node), so
        # parity-style targets like XOR remain learnable.
        return np.where(gains < 0, -1.0, gains)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-probability estimates (leaf class frequencies)."""
        return self._leaf_values(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        probabilities = self.predict_proba(features)
        return self.classes_[np.argmax(probabilities, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor with variance reduction."""

    def _node_stats(self, y: np.ndarray):
        return float(y.mean()), float(y.var())

    def _split_gains(self, ys: np.ndarray,
                     positions: np.ndarray) -> np.ndarray:
        n = ys.shape[1]
        prefix_sum = ys.cumsum(axis=1)
        prefix_sq = (ys ** 2).cumsum(axis=1)
        left_n = positions + 1
        right_n = n - left_n
        left_sum = prefix_sum[:, positions]
        right_sum = prefix_sum[:, -1:] - left_sum
        left_sq = prefix_sq[:, positions]
        right_sq = prefix_sq[:, -1:] - left_sq
        left_var = left_sq / left_n - (left_sum / left_n) ** 2
        right_var = right_sq / right_n - (right_sum / right_n) ** 2
        child = (left_n * left_var + right_n * right_var) / n
        # Along the contiguous last axis, var rounds exactly like the
        # 1-D var of each sorted column (along axis 0 it would not).
        gains = ys.var(axis=1)[:, None] - child
        return np.where(gains <= 1e-15, -1.0, gains)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted regression values."""
        return self._leaf_values(features)
