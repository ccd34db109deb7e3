"""Reference CART: per-node argsort growth and node-walk prediction.

The equivalence oracle for :mod:`repro.ml.tree` and
:mod:`repro.ml.forest`. ``DecisionTreeRegressor.fit`` grows trees from
presorted index columns with one vectorized SSE scan per node, and
``predict`` descends a flattened struct-of-arrays form; both must give
exactly the trees and predictions of this straightforward version:

- :func:`fit_tree` re-sorts every candidate feature at every node
  (:func:`_best_split`) and recurses on boolean masks (:func:`_grow`),
- :func:`predict_tree` walks the node objects row by row,
- :func:`fit_forest` / :func:`predict_forest` apply the same to every
  forest member, drawing bootstraps and tree seeds exactly as
  ``RandomForestRegressor.fit`` does.

The fitters fill the estimator passed in, so results compare with
``serialize_estimator`` and ``predict`` like any fitted model.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_seed, make_rng
from repro.ml.base import check_Xy
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, _Node


def _best_split(
    X: np.ndarray, y: np.ndarray, features: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Reference best ``(feature, threshold, sse_gain)`` (argsort per node).

    Returns ``None`` when no split satisfies the leaf-size constraint or
    improves the SSE.
    """
    n = y.shape[0]
    total_sum = float(y.sum())
    total_sq = float((y**2).sum())
    parent_sse = total_sq - total_sum**2 / n

    best: tuple[int, float, float] | None = None
    for j in features:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        # Candidate split positions: between distinct consecutive x values,
        # honouring the minimum leaf size on both sides.
        csum = np.cumsum(ys)
        csq = np.cumsum(ys**2)
        idx = np.arange(1, n)  # left part has idx samples
        valid = (xs[1:] != xs[:-1]) & (idx >= min_leaf) & (n - idx >= min_leaf)
        if not np.any(valid):
            continue
        k = idx[valid]
        left_sum, left_sq = csum[k - 1], csq[k - 1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        sse = (
            left_sq
            - left_sum**2 / k
            + right_sq
            - right_sum**2 / (n - k)
        )
        i = int(np.argmin(sse))
        gain = parent_sse - float(sse[i])
        if gain <= 1e-12:
            continue
        split_at = k[i]
        threshold = float((xs[split_at - 1] + xs[split_at]) / 2.0)
        if best is None or gain > best[2]:
            best = (int(j), threshold, gain)
    return best


def _grow(
    tree: DecisionTreeRegressor,
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    rng,
    k_features: int,
) -> _Node:
    node = _Node(value=float(y.mean()))
    n, p = X.shape
    if (
        n < tree.min_samples_split
        or (tree.max_depth is not None and depth >= tree.max_depth)
        or np.all(y == y[0])
    ):
        return node
    if k_features < p:
        features = rng.choice(p, size=k_features, replace=False)
    else:
        features = np.arange(p)
    split = _best_split(X, y, features, tree.min_samples_leaf)
    if split is None:
        return node
    feature, threshold, _gain = split
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _grow(tree, X[mask], y[mask], depth + 1, rng, k_features)
    node.right = _grow(tree, X[~mask], y[~mask], depth + 1, rng, k_features)
    return node


def fit_tree(tree: DecisionTreeRegressor, X, y) -> DecisionTreeRegressor:
    """Fit ``tree`` in place by per-node argsort; no flat form is built."""
    X, y = check_Xy(X, y)
    assert y is not None
    tree.n_features_ = X.shape[1]
    rng = make_rng(tree.seed)
    k = tree._n_candidate_features(X.shape[1])
    tree._root = _grow(tree, X, y, depth=0, rng=rng, k_features=k)
    tree._flat = None
    return tree


def predict_tree(tree: DecisionTreeRegressor, X) -> np.ndarray:
    """Row-by-row node walk over the fitted node graph."""
    tree._check_fitted("_root")
    X = tree._check_predict_input(X)
    out = np.empty(X.shape[0], dtype=float)
    for i, row in enumerate(X):
        node = tree._root
        assert node is not None
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
            assert node is not None
        out[i] = node.value
    return out


def fit_forest(forest: RandomForestRegressor, X, y) -> RandomForestRegressor:
    """Fit every member with :func:`fit_tree`, in index order."""
    X, y = check_Xy(X, y)
    assert y is not None
    trees: list[DecisionTreeRegressor] = []
    for i, idx in enumerate(forest._bootstrap_indices(X.shape[0])):
        Xb, yb = (X, y) if idx is None else (X[idx], y[idx])
        tree = DecisionTreeRegressor(
            seed=derive_seed(forest.seed, "tree", i), **forest._tree_params()
        )
        trees.append(fit_tree(tree, Xb, yb))
    forest.trees_ = trees
    forest._stacked = None
    forest.refresh_generation_ = 0
    return forest


def predict_forest(forest: RandomForestRegressor, X) -> np.ndarray:
    """Mean of the members' node-walk predictions."""
    forest._check_fitted("trees_")
    assert forest.trees_ is not None
    X, _ = check_Xy(X)
    predictions = np.stack([predict_tree(tree, X) for tree in forest.trees_])
    return predictions.mean(axis=0)
