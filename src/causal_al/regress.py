"""Random-forest regression used to track predictive accuracy.

Plain CART regression trees: variance-reduction splits, midpoint
thresholds between sorted unique values, bootstrap rows and sqrt(d)
feature subsampling per split. Everything is seeded, so refits are
bit-identical. The trees of a forest grow together on one thread, one
node per tree per step (`_grow`), and are stored as flat node arrays
that all rows descend together, one level per step (`tree_predictions`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FeatureTable
from .errors import ConfigError, DegenerateTarget, EmptyTable, MissingColumn
from .util import checked_names

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


# Padded (candidate feature x cut position) values scored in one block; a
# block always takes at least one node's candidates.
_BLOCK_VALUES = 1 << 14
# Candidate-feature sets a tree draws at a time (`_feature_sets`).
_FEATURE_SETS = 64


@dataclass(frozen=True)
class ForestModel:
    """A fitted forest, its trees stored as flat node arrays.

    Node i splits on column `feature[i]` of `feature_names` at
    `threshold[i]`: rows with a value <= threshold go to `left[i]`, the
    others to `right[i]`. A leaf has feature -1 and points to itself on
    both sides. Tree t starts at node `roots[t]`.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    n_trees: int
    max_depth: int
    min_leaf: int
    feature_names: tuple[str, ...]
    target: str
    seed: int

    @property
    def trees(self) -> tuple[_TreeNode, ...]:
        """The root of each tree, as linked nodes built from the flat arrays."""
        return _linked(self.feature, self.threshold, self.left, self.right, self.value, self.roots)


def _linked(feature, threshold, left, right, value, roots) -> tuple[_TreeNode, ...]:
    nodes = [
        _TreeNode(feature=f, threshold=t, value=v)
        for f, t, v in zip(feature.tolist(), threshold.tolist(), value.tolist())
    ]
    left, right = left.tolist(), right.tolist()
    for i in np.flatnonzero(feature >= 0).tolist():
        nodes[i].left, nodes[i].right = nodes[left[i]], nodes[right[i]]
    return tuple(nodes[r] for r in roots.tolist())


def _blocks(sizes, mtry):
    """Runs (start, stop) of the nodes, widest first, scored as one block.

    A node joins a block while it is wider than a quarter of the block's
    first node and the padded block stays within `_BLOCK_VALUES`: fewer,
    more padded blocks cost less than many small ones, up to that width.
    """
    i, k = 0, len(sizes)
    while i < k:
        w = sizes[i]
        j = i + 1
        while j < k and 4 * sizes[j] > w and (j - i + 1) * mtry * w <= _BLOCK_VALUES:
            j += 1
        yield i, j
        i = j


def _feature_sets(rng, d, mtry, k):
    """k sorted draws of `rng.choice(d, mtry, replace=False)`, in one call.

    For d <= 10 000, `Generator.choice` runs Floyd's algorithm: step s
    draws an integer in [0, d - mtry + s] and keeps it, or keeps
    d - mtry + s if the draw was taken before. It then shuffles the set
    with draws in [0, mtry - 1], ..., [0, 1]. Every draw is one bounded
    integer on a closed range, as `rng.integers` makes from an array of
    bounds, so one call makes all k sets' draws in `choice`'s order and
    leaves the stream where k `choice` calls would. The shuffle's draws
    are made but not applied, since each set is sorted. Past d = 10 000,
    `choice` shuffles a tail of range(d) instead when mtry > d // 50; the
    sets are then still uniform draws, but from another stream. The
    forest's mtry = floor(sqrt(d)) never gets there.
    """
    bounds = np.concatenate((np.arange(d - mtry, d), np.arange(mtry - 1, 0, -1)))
    sets = rng.integers(0, np.tile(bounds, k), endpoint=True).reshape(k, -1)[:, :mtry]
    rows = np.arange(k)
    taken = np.zeros((k, d), dtype=bool)
    for s in range(mtry):
        pick = sets[:, s]  # a view: the draw is replaced by the value kept
        np.copyto(pick, d - mtry + s, where=taken[rows, pick])
        taken[rows, pick] = True
    sets.sort(axis=1)
    return sets


def _best_splits(pool, m, feats, total, total_sq, xt, y, boot, lo):
    """Score every candidate cut of a block of nodes at once.

    `pool` holds the nodes' (d + 1, m) blocks one after another, widest
    first; `feats` holds their sorted candidate features and `total`,
    `total_sq` their 1-D sums of y and y * y. Row r of the padded arrays
    is candidate feats.flat[r] of node r // mtry: its y in sorted order,
    padded with the value at position m - lo. Returns the nodes that
    split, with their features and thresholds.
    """
    k, mtry = feats.shape
    d, n = xt.shape
    w = int(m[0])
    m_row = m.repeat(mtry)
    start = feats * m[:, None]  # of each candidate's sorted row in the pool
    start += ((d + 1) * (np.cumsum(m) - m))[:, None]
    at = np.minimum(np.arange(w), (m_row - lo)[:, None])
    at += start.reshape(-1, 1)
    sample = boot.take(pool.take(at).astype(np.intp))
    yk = y.take(sample)
    cum = yk.cumsum(axis=1)  # row-wise, so sequential as in 1-D
    np.multiply(yk, yk, out=yk)
    np.cumsum(yk, axis=1, out=yk)
    cum, cum_sq = cum[:, lo - 1 : w - lo], yk[:, lo - 1 : w - lo]
    # gain = parent_sse - ((left_sq - left_sum**2 / left_n)
    #                      + (right_sq - right_sum**2 / right_n)), op for op
    mf = m.astype(np.float64)
    stats = np.array((mf, total, total_sq, total_sq - total * total / mf)).T.repeat(mtry, axis=0)
    left_n = np.arange(lo, w - lo + 1, dtype=np.float64)
    right_n = stats[:, :1] - left_n
    right = stats[:, 1:2] - cum
    np.square(right, out=right)
    np.divide(right, right_n, out=right)
    np.subtract(stats[:, 2:3] - cum_sq, right, out=right)
    np.square(cum, out=cum)
    np.divide(cum, left_n, out=cum)
    np.subtract(cum_sq, cum, out=cum)
    np.add(cum, right, out=cum)
    gains = np.subtract(stats[:, 3:], cum, out=cum)
    # a cut after position c is a split only where the value changes there;
    # past m - lo, where the right side would be too small, it never does
    sample += feats.reshape(-1, 1) * n
    vk = xt.ravel().take(sample)
    gains[vk[:, lo - 1 : w - lo] >= vk[:, lo : w - lo + 1]] = -np.inf
    cut = gains.argmax(axis=1)
    best = gains[np.arange(cut.size), cut].reshape(k, mtry)
    split = (best.max(axis=1) > 0.0).nonzero()[0]
    # the first candidate whose gain beats every earlier one, at its first best cut
    row = split * mtry + best[split].argmax(axis=1)
    c = lo + cut[row]
    return split, feats.ravel()[row], 0.5 * (vk[row, c - 1] + vk[row, c])


def _partition(pool, m, feature, threshold, xt, boot, goes_left):
    """Split each node's block into its children's blocks, order kept.

    Each node's positions in bootstrap order, the last row of its block,
    go left or right by value; the side is written to `goes_left` per
    position and read back for the sorted rows. Returns the left and right
    children's sizes, positions in bootstrap order and pools.
    """
    d, n = xt.shape
    ends = np.cumsum(m)
    own = pool.take(np.arange(ends[-1]) + np.repeat(d * ends, m))
    at = own.astype(np.intp)
    go_own = xt.ravel().take(boot.take(at) + np.repeat(feature * n, m)) <= np.repeat(threshold, m)
    goes_left[at] = go_own
    go = goes_left.take(pool.astype(np.intp))
    m_left = np.add.reduceat(go_own, ends - m, dtype=np.int64)
    return (m_left, m - m_left, np.compress(go_own, own), np.compress(~go_own, own),
            np.compress(go, pool), np.compress(~go, pool))


def _grow(xt, y, boots, max_depth, min_leaf, mtry, rngs):
    """Grow one CART tree per bootstrap in `boots`, all of them in lockstep.

    `xt` is the (d, n) matrix of finite feature values, one row per
    feature, and row t of `boots` lists the rows of tree t's bootstrap
    sample. Each tree builds depth-first from its own stack, left child
    first, and draws its candidate features from its own `rngs` entry in
    preorder, `_FEATURE_SETS` sets at a time (`_feature_sets`), so each
    tree is the one a recursive builder would grow. The stacks advance
    together, one node per tree per step. A step scores its nodes in
    blocks of similar size (`_best_splits`), at most `_BLOCK_VALUES`
    padded values per block, and partitions the split nodes in pools of
    about that many positions.

    A node holds bootstrap positions (tree t's sample j is t * nb + j) as
    one (d + 1, m) int32 block: per feature, its positions sorted stably
    by that feature (ties in bootstrap order, sorted once at the root and
    partitioned at each split, as in SLIQ presorting), then its positions
    in bootstrap order. Node sums are 1-D `np.add.reduce` calls over the
    positions in bootstrap order, and cumulative sums run along rows, so
    every float equals the recursive builder's.

    Returns flat arrays (feature, threshold, left, right, value, roots),
    tree by tree, each tree's nodes numbered in the order they were made.
    """
    d, n = xt.shape
    n_trees, nb = boots.shape
    width = d + 1
    lo = max(min_leaf, 1)  # smallest child a cut may leave
    boot = boots.ravel()  # bootstrap position -> row of xt and y
    goes_left = np.empty(boot.size, dtype=bool)  # per position, at its tree's current split
    stacks = [[] for _ in range(n_trees)]
    sets = np.empty((n_trees, _FEATURE_SETS, mtry), dtype=np.int64)  # drawn ahead, per tree
    used = np.full(n_trees, _FEATURE_SETS)  # sets of `sets` taken, per tree
    n_nodes = np.ones(n_trees, dtype=np.int64)
    made = []    # per batch of new nodes: trees, local ids, values
    splits = []  # per batch of split nodes: trees, local ids, features, thresholds, left ids

    def open_nodes(trees, ids, depths, own, m, block):
        """Record new nodes' values and push the ones that may split.

        `own` holds each node's positions in bootstrap order, node after
        node; `block(i, a, b)` returns the block of node i, which owns
        own[a:b].
        """
        ends = np.cumsum(m)
        starts = ends - m
        ys = y.take(boot.take(own.astype(np.intp, copy=False)))
        del own  # freed early: at the roots it spans every tree's sample
        bounds = list(zip(starts.tolist(), ends.tolist()))
        totals = np.array([np.add.reduce(ys[a:b]) for a, b in bounds])
        made.append((trees, ids, totals / m))
        # a node varies if y changes between two of its positions
        changes = np.zeros(ys.size, dtype=bool)
        np.not_equal(ys[1:], ys[:-1], out=changes[1:])
        changes = np.cumsum(changes, dtype=np.int32)
        varies = changes[ends - 1] > changes[np.minimum(starts, ys.size - 1)]
        # (at least two positions, so an empty node never reads a neighbour's count)
        grows = (depths < max_depth) & (m >= max(2 * min_leaf, 2)) & varies
        grows = np.flatnonzero(grows).tolist()
        if not grows:
            return
        sq = np.multiply(ys, ys, out=ys)
        trees, ids, depths, totals = trees.tolist(), ids.tolist(), depths.tolist(), totals.tolist()
        for i in grows:
            a, b = bounds[i]
            stacks[trees[i]].append(
                (ids[i], depths[i], block(i, a, b), b - a, totals[i], np.add.reduce(sq[a:b])))

    def open_children(parts):
        """Partition the split nodes of `parts`; number, record and open their children."""
        trees, ids, depths, feature, threshold, m, pool = (np.concatenate(c) for c in zip(*parts))
        m_left, m_right, left_own, right_own, left_pool, right_pool = _partition(
            pool, m, feature, threshold, xt, boot, goes_left)
        del pool
        left = n_nodes[trees]
        n_nodes[trees] += 2
        splits.append((trees, ids, feature, threshold, left))
        # right children come first, so each tree pushes its right child before
        # its left one and builds its left subtree first; right children wait
        # on the stack, so they copy their blocks out of the pool
        k, skip = trees.size, right_own.size

        def block(i, a, b):
            if i < k:
                return right_pool[width * a : width * b].copy()
            return left_pool[width * (a - skip) : width * (b - skip)]

        open_nodes(np.tile(trees, 2), np.concatenate((left + 1, left)), np.tile(depths + 1, 2),
                   np.concatenate((right_own, left_own)), np.concatenate((m_right, m_left)), block)

    # each feature's dense ranks: a stable sort of a tree's ranks orders its
    # positions as a stable sort of the values would, and small integers let
    # it run as a radix sort
    ranks = np.empty((d, n), dtype=np.min_scalar_type(n))
    for f in range(d):
        ranks[f] = np.unique(xt[f], return_inverse=True)[1]

    def root(t, a, b):
        block = np.empty((width, nb), dtype=np.int32)
        block[:d] = np.argsort(ranks[:, boots[t]], axis=1, kind="stable")
        block[:d] += a
        block[d] = np.arange(a, b)
        return block.ravel()

    zeros = np.zeros(n_trees, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):  # padded cuts; empty children
        open_nodes(np.arange(n_trees), zeros, zeros, np.arange(boot.size), np.full(n_trees, nb), root)

        while True:
            live = [t for t in range(n_trees) if stacks[t]]
            if not live:
                break
            live.sort(key=lambda t: stacks[t][-1][3], reverse=True)  # widest node first
            ids, depths, blocks, sizes, total, total_sq = (
                list(c) for c in zip(*[stacks[t].pop() for t in live]))
            live, ids, depths, m = np.array(live), np.array(ids), np.array(depths), np.array(sizes)
            for t in live[used[live] == _FEATURE_SETS].tolist():
                sets[t] = _feature_sets(rngs[t], d, mtry, _FEATURE_SETS)
                used[t] = 0
            feats = sets[live, used[live]]
            used[live] += 1
            total, total_sq = np.array(total), np.array(total_sq)
            parts, held = [], 0
            for i, j in _blocks(sizes, mtry):
                pool = np.concatenate(blocks[i:j])
                blocks[i:j] = [None] * (j - i)  # free each parent once it is pooled
                split, feature, threshold = _best_splits(
                    pool, m[i:j], feats[i:j], total[i:j], total_sq[i:j], xt, y, boot, lo)
                if split.size:
                    if split.size < j - i:
                        keep = np.zeros(j - i, dtype=bool)
                        keep[split] = True
                        pool = np.compress(np.repeat(keep, width * m[i:j]), pool)
                    at = i + split
                    parts.append((live[at], ids[at], depths[at], feature, threshold, m[at], pool))
                    held += pool.size
                if parts and (held >= _BLOCK_VALUES or j == len(sizes)):
                    open_children(parts)
                    parts, held = [], 0

    first = np.cumsum(n_nodes) - n_nodes
    total_nodes = int(n_nodes.sum())
    trees, ids, values = (np.concatenate(c) for c in zip(*made))
    value = np.empty(total_nodes)
    value[first[trees] + ids] = values
    feature = np.full(total_nodes, -1, dtype=np.int64)
    threshold = np.zeros(total_nodes)
    left = np.arange(total_nodes)
    right = np.arange(total_nodes)
    if splits:
        trees, ids, feats, thresholds, lefts = (np.concatenate(c) for c in zip(*splits))
        at = first[trees] + ids
        feature[at] = feats
        threshold[at] = thresholds
        left[at] = first[trees] + lefts
        right[at] = left[at] + 1
    return feature, threshold, left, right, value, first


def _build_tree(x, y, max_depth, min_leaf, mtry, rng) -> _TreeNode:
    """Grow one CART tree on the bootstrap rows `x`, `y` (see `_grow`)."""
    xt = np.ascontiguousarray(x.T, dtype=np.float64)
    flat = _grow(xt, y, np.arange(y.size)[None], max_depth, min_leaf, mtry, [rng])
    return _linked(*flat)[0]


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
    """Fit a bootstrap forest; deterministic for a fixed seed.

    Each tree draws its bootstrap and then its split features from its own
    child of `SeedSequence(seed)`, and all trees grow in one lockstep call
    of `_grow`. `jobs` is accepted and ignored: it does not change how the
    work runs.
    """
    features = tuple(features)
    if not features:
        raise ConfigError("feature list must not be empty")
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
    if train.n_rows == 0:
        raise EmptyTable("training table is empty")
    # a repeated feature, or the target among the features, is refused too
    checked_names((*features, target), train.feature_names, "features and target", MissingColumn)
    xt = np.ascontiguousarray(train.matrix(features).T)
    y = train.column(target)
    n = y.size
    mtry = max(1, int(np.sqrt(len(features))))
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n_trees)]
    boots = np.empty((n_trees, n), dtype=np.intp)
    for boot, rng in zip(boots, rngs):
        boot[:] = rng.integers(0, n, size=n)

    feature, threshold, left, right, value, roots = _grow(
        xt, y, boots, max_depth, min_leaf, mtry, rngs)
    return ForestModel(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
        roots=roots,
        n_trees=n_trees,
        max_depth=max_depth,
        min_leaf=min_leaf,
        feature_names=features,
        target=target,
        seed=seed,
    )


def tree_predictions(model: ForestModel, table: FeatureTable) -> np.ndarray:
    """Per-tree predictions, trees x rows (exposes the averaging invariant).

    All rows descend all trees together, one level per step; a row that
    reaches a leaf stays there, because a leaf points to itself.
    """
    x = table.matrix(model.feature_names)
    n, d = x.shape
    xflat = x.ravel()
    row_start = np.arange(n) * d
    node = np.repeat(model.roots[:, None], n, axis=1)
    for _ in range(model.max_depth):
        go_left = xflat[row_start + model.feature[node]] <= model.threshold[node]
        node = np.where(go_left, model.left[node], model.right[node])
    return model.value[node]


def predict(model: ForestModel, table: FeatureTable) -> np.ndarray:
    """Forest prediction: the mean over per-tree predictions."""
    return tree_predictions(model, table).mean(axis=0)


def r2(model: ForestModel, test: FeatureTable) -> float:
    """Coefficient of determination about the test-set mean."""
    if test.n_rows == 0:
        raise EmptyTable("test table is empty")
    return r2_of(test.column(model.target), predict(model, test))


def r2_of(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """R-squared of arbitrary predictions (same definition as `r2`)."""
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_true.size == 0:
        raise EmptyTable("no target values")
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
) -> tuple[list[float], float]:
    """Refit on each committed-dataset snapshot and score a fixed test set.

    Returns (per-iteration R2 list, all-data reference R2), the reference
    being a forest fit on the whole pool.
    """
    def score(train: FeatureTable) -> float:
        model = fit_forest(
            train, features, target,
            n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf, seed=seed,
        )
        return r2(model, test)

    trace = [score(pool.select_by_ids(run.snapshot_ids(it))) for it in range(run.n_iter)]
    return trace, score(pool)
