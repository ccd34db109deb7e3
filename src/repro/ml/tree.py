"""CART regression tree.

Standard variance-reduction splitting with sorted-scan split search: for each
candidate feature the samples are scanned in sorted order and prefix sums of
``y`` and ``y²`` give every split's SSE in O(n). Supports per-node feature
subsampling (``max_features``) for random-forest use.

Two fast paths, both bitwise-equivalent to the textbook per-node-argsort
CART with node-walk prediction (the oracle in ``tests/oracles/cart.py``):

- **presorted fitting** — features are stable-argsorted once per tree;
  every node filters the parent's sorted index columns instead of
  re-sorting, and the SSE scan runs over all candidate features in one
  2-D NumPy pass instead of a Python loop,
- **flattened prediction** — the fitted node graph is flattened into
  struct-of-arrays form (``feature/threshold/left/right/value``) and
  batches of rows descend the tree level-synchronously with vectorized
  gathers instead of walking node objects row-by-row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import make_rng
from repro.ml.base import Estimator, check_Xy


@dataclass
class _Node:
    """Tree node: either a leaf (``value``) or an internal split."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class FlatTree:
    """Struct-of-arrays form of a fitted tree (preorder node layout).

    Leaves carry ``feature == -1`` and ``left == right == -1``; internal
    nodes index their children into the same arrays.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.value.shape[0])


def _flatten_tree(root: _Node) -> FlatTree:
    """Flatten a node graph into preorder arrays."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def add(node: _Node) -> int:
        i = len(value)
        value.append(node.value)
        feature.append(node.feature if not node.is_leaf else -1)
        threshold.append(node.threshold)
        left.append(-1)
        right.append(-1)
        if not node.is_leaf:
            assert node.left is not None and node.right is not None
            left[i] = add(node.left)
            right[i] = add(node.right)
        return i

    add(root)
    return FlatTree(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.intp),
        right=np.asarray(right, dtype=np.intp),
        value=np.asarray(value, dtype=float),
    )


def _flat_predict(flat: FlatTree, X: np.ndarray) -> np.ndarray:
    """Vectorized batched descent over a flattened tree."""
    nodes = np.zeros(X.shape[0], dtype=np.intp)
    active = np.flatnonzero(flat.feature[nodes] >= 0)
    while active.size:
        cur = nodes[active]
        go_left = X[active, flat.feature[cur]] <= flat.threshold[cur]
        nxt = np.where(go_left, flat.left[cur], flat.right[cur])
        nodes[active] = nxt
        active = active[flat.feature[nxt] >= 0]
    return flat.value[nodes]


def _best_split_presorted(
    X: np.ndarray,
    y: np.ndarray,
    sorted_cols: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
    total_sum: float,
    total_sq: float,
) -> tuple[int, float] | None:
    """Vectorized best split over all candidate features in one pass.

    ``sorted_cols`` has shape ``(p, m)``: row ``j`` holds the node's row
    indices sorted (stably) by feature ``j`` (row-major so per-feature
    scans run over contiguous memory). Produces the identical
    ``(feature, threshold)`` choice as a per-node, per-feature argsort
    scan — same elementwise arithmetic, same first-wins tie-breaking —
    without a per-node argsort or a Python loop over features.

    The SSE scan is restricted to the band of split positions that can
    satisfy the leaf-size constraint (left part size in
    ``[min_leaf, m - min_leaf]``); positions outside the band are invalid
    for every feature, so the restriction cannot change the selected
    first-minimum position.
    """
    m = sorted_cols.shape[1]
    lo = min_leaf - 1                            # band of positions i where
    hi = m - min_leaf                            # left size i+1 is feasible
    if hi <= lo:
        return None
    parent_sse = total_sq - total_sum**2 / m

    order = sorted_cols[features]                # (k, m)
    xs = X[order, features[:, None]]             # node values, sorted per row
    ys = y[order]
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys**2, axis=1)
    counts = np.arange(lo + 1, hi + 1)           # left sizes inside the band
    valid = xs[:, lo + 1 : hi + 1] != xs[:, lo:hi]
    left_sum = csum[:, lo:hi]
    left_sq = csq[:, lo:hi]
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    sse = (
        left_sq
        - left_sum**2 / counts
        + right_sq
        - right_sum**2 / (m - counts)
    )
    sse = np.where(valid, sse, np.inf)
    pos = np.argmin(sse, axis=1)                 # first minimum per feature
    best_sse = sse[np.arange(features.shape[0]), pos]
    gains = np.where(np.isfinite(best_sse), parent_sse - best_sse, -np.inf)
    j = int(np.argmax(gains))                    # first maximum wins ties
    if gains[j] <= 1e-12:
        return None
    split_at = int(pos[j]) + lo + 1
    threshold = float((xs[j, split_at - 1] + xs[j, split_at]) / 2.0)
    return int(features[j]), threshold


class DecisionTreeRegressor(Estimator):
    """Binary regression tree minimizing within-leaf variance."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | None = None,
        seed: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1 ({max_depth!r})")
        if min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2 ({min_samples_split!r})"
            )
        if min_samples_leaf < 1:
            raise ValidationError(
                f"min_samples_leaf must be >= 1 ({min_samples_leaf!r})"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._flat: FlatTree | None = None
        self.n_features_: int | None = None

    def _n_candidate_features(self, p: int) -> int:
        if self.max_features is None:
            return p
        if isinstance(self.max_features, float):
            if not 0.0 < self.max_features <= 1.0:
                raise ValidationError(
                    f"fractional max_features must be in (0, 1] "
                    f"({self.max_features!r})"
                )
            return max(1, int(round(self.max_features * p)))
        if self.max_features < 1:
            raise ValidationError(f"max_features must be >= 1 ({self.max_features!r})")
        return min(int(self.max_features), p)

    def fit(self, X, y) -> "DecisionTreeRegressor":
        """Fit from presorted index columns (one stable argsort per tree)."""
        X, y = check_Xy(X, y)
        assert y is not None
        self.n_features_ = X.shape[1]
        rng = make_rng(self.seed)
        k = self._n_candidate_features(X.shape[1])
        rows = np.arange(X.shape[0], dtype=np.intp)
        sorted_cols = np.ascontiguousarray(
            np.argsort(X, axis=0, kind="stable").T
        )
        scratch = np.zeros(X.shape[0], dtype=bool)
        self._root = self._grow(
            X, y, rows, sorted_cols, 0, rng, k, scratch
        )
        self._flat = _flatten_tree(self._root)
        return self

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rows: np.ndarray,
        sorted_cols: np.ndarray,
        depth: int,
        rng,
        k_features: int,
        scratch: np.ndarray,
    ) -> _Node:
        """Grow one node and its subtree from presorted index columns.

        ``rows`` holds the node's sample indices in original row order (so
        all reductions see the operand order of a mask-recursive grower);
        ``sorted_cols`` carries one stably-sorted index row per feature,
        maintained by mask-filtering the parent's rows — which preserves
        stable order, so every split scan sees the exact sequences the
        per-node argsort would have produced. ``scratch`` is a shared
        full-length boolean buffer (always all-False between calls) that
        avoids an O(n) allocation at every node.
        """
        y_node = y[rows]
        total_sum = float(y_node.sum())
        m = rows.shape[0]
        node = _Node(value=total_sum / m)
        p = X.shape[1]
        if (
            m < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.all(y_node == y_node[0])
        ):
            return node
        if k_features < p:
            features = rng.choice(p, size=k_features, replace=False)
        else:
            features = np.arange(p)
        split = _best_split_presorted(
            X,
            y,
            sorted_cols,
            np.asarray(features, dtype=np.intp),
            self.min_samples_leaf,
            total_sum,
            float((y_node**2).sum()),
        )
        if split is None:
            return node
        feature, threshold = split
        go_left = X[rows, feature] <= threshold
        rows_left = rows[go_left]
        rows_right = rows[~go_left]
        scratch[rows_left] = True
        sel = scratch[sorted_cols]                  # (p, m)
        sorted_left = sorted_cols[sel].reshape(p, rows_left.shape[0])
        sorted_right = sorted_cols[~sel].reshape(p, rows_right.shape[0])
        scratch[rows_left] = False
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(
            X, y, rows_left, sorted_left, depth + 1, rng, k_features, scratch
        )
        node.right = self._grow(
            X, y, rows_right, sorted_right, depth + 1, rng, k_features, scratch
        )
        return node

    def flat_tree(self) -> FlatTree:
        """The flattened array form of the fitted tree (built lazily)."""
        self._check_fitted("_root")
        assert self._root is not None
        if self._flat is None:
            self._flat = _flatten_tree(self._root)
        return self._flat

    def _check_predict_input(self, X) -> np.ndarray:
        X, _ = check_Xy(X)
        assert self.n_features_ is not None
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"feature count mismatch: fitted {self.n_features_}, "
                f"got {X.shape[1]}"
            )
        return X

    def predict(self, X) -> np.ndarray:
        """Vectorized batched prediction over the flattened tree."""
        self._check_fitted("_root")
        X = self._check_predict_input(X)
        return _flat_predict(self.flat_tree(), X)

    def depth(self) -> int:
        """Actual depth of the fitted tree (a root-only tree has depth 0)."""
        self._check_fitted("_root")

        def _depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(_depth(node.left), _depth(node.right))

        assert self._root is not None
        return _depth(self._root)

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        self._check_fitted("_root")

        def _count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            assert node.left is not None and node.right is not None
            return _count(node.left) + _count(node.right)

        assert self._root is not None
        return _count(self._root)
