"""Random-forest regression used to track predictive accuracy.

Plain CART regression trees: variance-reduction splits, midpoint
thresholds between sorted unique values, bootstrap rows and sqrt(d)
feature subsampling per split. Everything is seeded, so refits are
bit-identical; trees may fit in parallel without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FeatureTable
from .errors import ConfigError, DegenerateTarget, EmptyTable, MissingColumn
from .util import fmt, parallel_map

DEFAULT_N_TREES = 100
DEFAULT_MAX_DEPTH = 12
DEFAULT_MIN_LEAF = 2


@dataclass
class _TreeNode:
    feature: int = -1          # -1 marks a leaf
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    value: float = 0.0


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[_TreeNode, ...]
    n_trees: int
    max_depth: int
    min_leaf: int
    feature_names: tuple[str, ...]
    target: str
    seed: int


def _build_tree(x, y, max_depth, min_leaf, mtry, rng) -> _TreeNode:
    """Grow one CART tree on the bootstrap rows `x`, `y`.

    Each feature is argsorted once, stably, so tied values keep bootstrap
    order; a split partitions those orders and the node's row list with
    one boolean gather each instead of sorting again (SLIQ presorting).
    Nodes are built depth-first from an explicit stack, left child first,
    so `rng` draws each node's candidate features in the same preorder as
    a recursive builder and the trees are the same bit for bit.
    """
    xt = np.ascontiguousarray(x.T)
    d, n = xt.shape
    lo = max(min_leaf, 1)  # smallest child a cut may leave
    counts = np.arange(n + 1, dtype=np.float64)
    root = _TreeNode()
    grows = max_depth > 0 and n >= 2 * min_leaf
    order = np.argsort(xt, axis=1, kind="stable") if grows else None
    # (node, its rows in bootstrap order, per-feature sorted rows or None at a leaf, depth)
    stack = [(root, np.arange(n), order, 0)]
    while stack:
        node, rows, order, depth = stack.pop()
        ys = y[rows]
        m = ys.size
        total = ys.sum()
        node.value = float(total / m)  # bit-equal to ys.mean()
        if order is None or (ys == ys[0]).all():
            continue

        feats = rng.choice(d, size=mtry, replace=False)
        feats.sort()
        hi = m - lo  # >= lo, because m >= 2 * min_leaf and m >= 2
        total_sq = float((ys * ys).sum())
        parent_sse = total_sq - total * total / m
        # all candidate features at once: row r is feature feats[r], sorted
        k = feats.size
        idx = order.take(feats, axis=0)
        vk = xt[feats[:, None], idx]
        yk = np.empty((2 * k, m))  # sorted y, then its squares
        y.take(idx, out=yk[:k])
        np.multiply(yk[:k], yk[:k], out=yk[k:])
        cum = yk.cumsum(axis=1)[:, lo - 1 : hi]  # row-wise, so sequential as in 1-D
        left_sum, left_sq = cum[:k], cum[k:]
        left_n = counts[lo : hi + 1]
        right_n = counts[hi : lo - 1 : -1]  # m - left_n
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        sse = (left_sq - left_sum**2 / left_n) + (right_sq - right_sum**2 / right_n)
        gains = parent_sse - sse
        # a cut after position c is a split only where the value changes there
        gains[~(vk[:, lo - 1 : hi] < vk[:, lo : hi + 1])] = -np.inf
        cuts = gains.argmax(axis=1).tolist()
        best, best_gain = -1, 0.0
        for r, j in enumerate(cuts):
            if gains[r, j] > best_gain:
                best, best_gain = r, gains[r, j]
        if best < 0:
            continue

        c = lo + cuts[best]
        node.feature = int(feats[best])
        node.threshold = float(0.5 * (vk[best, c - 1] + vk[best, c]))
        col = xt[node.feature]
        go_left = col[rows] <= node.threshold
        in_left = col[order] <= node.threshold
        node.left, node.right = _TreeNode(), _TreeNode()
        # right pushed first, so the whole left subtree is built (and draws) first
        for child, rows_sel, order_sel in (
            (node.right, ~go_left, ~in_left),
            (node.left, go_left, in_left),
        ):
            child_rows = rows[rows_sel]
            grows = depth + 1 < max_depth and child_rows.size >= 2 * min_leaf
            child_order = order[order_sel].reshape(d, -1) if grows else None
            stack.append((child, child_rows, child_order, depth + 1))
    return root


def _predict_tree(node: _TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])
    idx = np.arange(x.shape[0])
    stack = [(node, idx)]
    while stack:
        nd, rows = stack.pop()
        if rows.size == 0:
            continue
        if nd.feature < 0:
            out[rows] = nd.value
            continue
        mask = x[rows, nd.feature] <= nd.threshold
        stack.append((nd.left, rows[mask]))
        stack.append((nd.right, rows[~mask]))
    return out


def fit_forest(
    train: FeatureTable,
    features,
    target: str,
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_leaf: int = DEFAULT_MIN_LEAF,
    seed: int = 0,
    jobs: int = 1,
) -> ForestModel:
    """Fit a bootstrap forest; deterministic for a fixed seed at any jobs."""
    features = tuple(features)
    if not features:
        raise ConfigError("feature list must not be empty")
    if train.n_rows == 0:
        raise EmptyTable("training table is empty")
    if target not in train.feature_names:
        raise MissingColumn(f"target {target!r} not in table")
    x = train.matrix(features)
    y = train.column(target)
    n = x.shape[0]
    mtry = max(1, int(np.sqrt(len(features))))
    seeds = np.random.SeedSequence(seed).spawn(n_trees)

    def one_tree(ss) -> _TreeNode:
        rng = np.random.default_rng(ss)
        boot = rng.integers(0, n, size=n)
        return _build_tree(x[boot], y[boot], max_depth, min_leaf, mtry, rng)

    trees = tuple(parallel_map(one_tree, seeds, jobs=jobs))
    return ForestModel(
        trees=trees,
        n_trees=n_trees,
        max_depth=max_depth,
        min_leaf=min_leaf,
        feature_names=features,
        target=target,
        seed=seed,
    )


def predict(model: ForestModel, table: FeatureTable) -> np.ndarray:
    """Forest prediction: the mean over per-tree predictions."""
    x = table.matrix(model.feature_names)
    preds = np.array([_predict_tree(t, x) for t in model.trees])
    return preds.mean(axis=0)


def tree_predictions(model: ForestModel, table: FeatureTable) -> np.ndarray:
    """Per-tree predictions, trees x rows (exposes the averaging invariant)."""
    x = table.matrix(model.feature_names)
    return np.array([_predict_tree(t, x) for t in model.trees])


def r2(model: ForestModel, test: FeatureTable) -> float:
    """Coefficient of determination about the test-set mean."""
    if test.n_rows == 0:
        raise EmptyTable("test table is empty")
    y = test.column(model.target)
    if np.all(y == y[0]):
        raise DegenerateTarget(f"test target {model.target!r} is constant")
    pred = predict(model, test)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def r2_of(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """R-squared of arbitrary predictions (same definition as `r2`)."""
    y_true = np.asarray(y_true, dtype=np.float64)
    if np.all(y_true == y_true[0]):
        raise DegenerateTarget("target is constant")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def accuracy_trace(
    run,
    pool: FeatureTable,
    test: FeatureTable,
    features,
    target: str,
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_leaf: int = DEFAULT_MIN_LEAF,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[list[float], float]:
    """Refit on each committed-dataset snapshot and score a fixed test set.

    Returns (per-iteration R2 list, all-data reference R2), the reference
    being a forest fit on the whole pool.
    """
    trace: list[float] = []
    for it in range(run.n_iter):
        snap = pool.select_by_ids(run.snapshot_ids(it))
        model = fit_forest(
            snap, features, target,
            n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
            seed=seed, jobs=jobs,
        )
        trace.append(r2(model, test))
    reference_model = fit_forest(
        pool, features, target,
        n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
        seed=seed, jobs=jobs,
    )
    return trace, r2(reference_model, test)


def write_parity_csv(path, y_true, y_pred) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("y_true,y_pred\n")
        for t, p in zip(y_true, y_pred):
            fh.write(f"{fmt(t)},{fmt(p)}\n")
