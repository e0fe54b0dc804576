"""Random-forest regression used to track predictive accuracy.

Plain CART regression trees: variance-reduction splits, midpoint
thresholds between sorted unique values, bootstrap rows and sqrt(d)
feature subsampling per split. Everything is seeded, so refits are
bit-identical. The trees of a forest grow together on one thread, one
node per tree per step, each step a fixed number of array operations
(`_grow`): each tree keeps one list of its rows that splits partition in
place, a node's rows are sorted by a candidate feature when it is scored,
and the new nodes' sums come from one call that matches numpy's own
pairwise sums bit for bit (`_segment_sums`). A forest
is stored as flat node arrays that all rows descend together, one level
per step (`tree_predictions`).
"""

from __future__ import annotations

import itertools
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
    """Runs (start, stop) of the candidates, mtry per node, scored as one block.

    The nodes come widest first. A node joins a block while it is wider
    than a quarter of the block's first node and the padded block stays
    within `_BLOCK_VALUES`: fewer, more padded blocks cost less than many
    small ones, up to that width.
    """
    i, k = 0, sizes.size
    narrow = -sizes  # ascending, so a binary search finds the first narrow node
    while i < k:
        w = int(sizes[i])
        j = min(int(np.searchsorted(narrow, -(w // 4))), i + _BLOCK_VALUES // (mtry * w), k)
        j = max(j, i + 1)
        yield mtry * i, mtry * j
        i = j


def _feature_sets(rngs, d, mtry, k):
    """k sorted draws of `rng.choice(d, mtry, replace=False)` for each of
    `rngs`, as (len(rngs), k, mtry): one call per generator, then one pass
    over all the sets.

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
    bounds = np.tile(np.concatenate((np.arange(d - mtry, d), np.arange(mtry - 1, 0, -1))), k)
    draws = np.stack([rng.integers(0, bounds, endpoint=True) for rng in rngs])
    sets = draws.reshape(len(rngs) * k, -1)[:, :mtry]
    rows = np.arange(len(sets))
    taken = np.zeros((len(sets), d), dtype=bool)
    for s in range(mtry):
        pick = sets[:, s]  # a view: the draw is replaced by the value kept
        np.copyto(pick, d - mtry + s, where=taken[rows, pick])
        taken[rows, pick] = True
    sets.sort(axis=1)
    return sets.reshape(len(rngs), k, mtry)


def _ranges(starts, lengths):
    """The ranges [start, start + length) one after another, as one array."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (starts - (ends - lengths)).repeat(lengths)


def _segment_sums(a, lengths):
    """`np.add.reduce` of each segment of 1-D `a` and of `a * a`, bit for bit.

    The segments lie one after another, `lengths` values each; row 0 holds
    their sums, row 1 their sums of squares. A sum reduction starts from
    +0.0 and adds numpy's pairwise sum of the run (8 lanes over blocks of
    up to 128 values, halves above that), while `np.add.reduceat` starts
    from a segment's first value and adds the pairwise sum of the others.
    So each segment is laid out after a +0.0 of its own, and one
    `reduceat` call gives every reduction.
    """
    k = lengths.size
    at = lengths.cumsum() - lengths + np.arange(k)  # each segment's +0.0
    padded = np.zeros(a.size + k)
    values = np.ones(padded.size, dtype=bool)
    values[at] = False
    padded[values] = a
    sums = np.add.reduceat(padded, at)
    np.multiply(padded, padded, out=padded)
    return np.stack((sums, np.add.reduceat(padded, at)))


def _best_splits(lists, start, last, stats, shift, ranks, xt, y, left_n):
    """Score every cut of a block of candidates at once; keep each one's best.

    A candidate is a node and one of its candidate features, widest node
    first. Its node's rows start at row start[r] of `lists`, a window view
    of the trees' row lists, and number last[r] + lo, lo being the
    smallest child a cut may leave; stats[r] holds its node's size, sums of
    y and y * y and sum of squared errors, and shift[r] turns a row into
    the index of its feature's value in `xt` and of its dense rank in
    `ranks`. Row r of the padded arrays is candidate r's window, as wide
    as the block's widest node: its node's rows in bootstrap order, then
    whatever the lists hold next. Every entry of the lists, and of their
    zero tail, is a row of `xt`, so every gather stays in range. A stable
    sort of the window's ranks, each position past the node's size keyed
    n, above every rank, puts the node's rows in its feature's SLIQ order
    (ties in bootstrap order) and keeps the rest behind them. `left_n`
    counts lo, lo + 1, ... as floats.
    Returns each candidate's best gain, at its first best cut (-inf where
    no cut splits), and the values on either side of that cut.
    """
    lo = int(left_n[0])
    w = int(last[0]) + lo
    sample = lists[start, :w]
    key = ranks.take(sample + shift[:, None])
    np.putmask(key, np.arange(w) >= (last + lo)[:, None], xt.shape[1])
    order = key.argsort(axis=1, kind="stable")
    order += np.arange(0, order.size, w)[:, None]  # as indices into the flat rows
    sample, key = sample.take(order), key.take(order)
    # y and y * y as the real and imaginary parts: one row-wise cumulative
    # sum adds both in order, each part as a 1-D cumsum of its own would
    z = np.empty(sample.shape, np.complex128)
    z.real = y.take(sample)
    np.multiply(z.real, z.real, out=z.imag)
    np.cumsum(z, axis=1, out=z)
    cum, cum_sq = z.real[:, lo - 1 : w - lo], z.imag[:, lo - 1 : w - lo]
    # gain = parent_sse - ((left_sq - left_sum**2 / left_n)
    #                      + (right_sq - right_sum**2 / right_n)), op for op
    left_n = left_n[: w - 2 * lo + 1]
    right_n = stats[:, :1] - left_n
    right = stats[:, 1:2] - cum
    np.square(right, out=right)
    np.divide(right, right_n, out=right)
    np.subtract(stats[:, 2:3] - cum_sq, right, out=right)
    left = np.square(cum)
    np.divide(left, left_n, out=left)
    np.subtract(cum_sq, left, out=left)
    np.add(left, right, out=left)
    gains = np.subtract(stats[:, 3:], left, out=left)
    # a cut is a split only where the value, so the rank, changes there,
    # and where the right side keeps lo values or more
    cuts = key[:, lo - 1 : w - lo] == key[:, lo : w - lo + 1]
    cuts |= left_n > last[:, None]
    np.putmask(gains, cuts, -np.inf)
    cut = gains.argmax(axis=1)
    rows = np.arange(cut.size)
    best = gains[rows, cut]
    cut += lo  # the first position right of the cut
    values = xt.ravel()
    return best, values.take(sample[rows, cut - 1] + shift), values.take(sample[rows, cut] + shift)


def _grow(xt, y, boots, max_depth, min_leaf, mtry, rngs):
    """Grow one CART tree per bootstrap in `boots`, all of them in lockstep.

    `xt` is the (d, n) matrix of finite feature values, one row per
    feature, and row t of `boots` lists the rows of tree t's bootstrap
    sample. Each tree builds depth-first from its own stack, left child
    first, and draws its candidate features from its own `rngs` entry in
    preorder, `_FEATURE_SETS` sets at a time (`_feature_sets`), so each
    tree is the one a recursive builder would grow. The stacks advance
    together, one node per tree per step, and a step is a fixed number of
    array operations over the trees it pops from, whatever their nodes:
    it scores the nodes in blocks of similar size (`_best_splits`), at
    most `_BLOCK_VALUES` padded values per block, sums the children of
    the split nodes (`_segment_sums`) and partitions the split nodes' rows.

    One int32 list per tree holds its bootstrap rows. A node owns a range
    [offset, offset + m) of its tree's list, its rows in bootstrap order,
    and a split reorders that range in place into its left child's rows
    followed by its right child's, each side in the order it had, so every
    node's range lies inside its parent's. A candidate's rows are sorted
    when it is scored, by a stable sort of its feature's dense ranks. The
    stacks are arrays too: per tree and stack slot, a node's id, depth,
    offset and size and its sums of y and y * y. Node sums are numpy's own
    pairwise sums of the node's y in bootstrap order, all children of a
    step at once, and cumulative sums run along rows, so every float
    equals the recursive builder's.

    Returns flat arrays (feature, threshold, left, right, value, roots),
    tree by tree, each tree's nodes numbered in the order they were made.
    """
    d, n = xt.shape
    n_trees, nb = boots.shape
    lo = max(min_leaf, 1)  # smallest child a cut may leave
    # drawn ahead, per tree: a tree pops one node at every step until it is
    # done, so at step s it takes set s % _FEATURE_SETS, and the live trees
    # refill together, in one `_feature_sets` call
    sets = np.empty((n_trees, _FEATURE_SETS, mtry), dtype=np.int64)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    made = []    # per batch of new nodes: trees, local ids, values
    splits = []  # per batch of split nodes: trees, local ids, features, thresholds, left ids

    # each feature's dense ranks, in an integer type that also holds n, the
    # key past a node's rows: a stable sort of small integers runs as a
    # radix sort
    ranks = np.empty((d, n), dtype=np.min_scalar_type(n))
    for f in range(d):
        ranks[f] = np.unique(xt[f], return_inverse=True)[1]
    ranks = ranks.ravel()
    # the trees' lists one after another, then a zero tail for the windows
    # that run past the last tree's list; row i of `lists` is
    # flat[i : i + nb], and indexing it reads only the rows asked for
    # (`take` would copy the whole view first)
    flat = np.zeros(n_trees * nb + nb - 1, dtype=np.int32)
    flat[: n_trees * nb] = boots.ravel()
    lists = np.ndarray((n_trees * nb, nb), flat.dtype, flat, 0, (flat.itemsize,) * 2)
    left_n = np.arange(lo, nb + 1, dtype=np.float64)  # a cut's left size, from lo up

    # only a node shallower than max_depth is pushed, none is deeper than
    # nb - 1, and a stack holds at most one waiting right child per depth
    slots = max(min(max_depth, nb), 0) + 2
    # id, depth, offset, size (all exact in float64), sum of y, sum of y * y
    stack = np.empty((n_trees, slots, 6))
    top = np.zeros(n_trees, dtype=np.int64)  # stack pointers

    def open_nodes(trees, ids, depths, offsets, m, ys, pairs):
        """Record new nodes' values and push the ones that may split.

        `ys` holds the nodes' y values, node after node, each in bootstrap
        order. With `pairs`, the first half are right children and the
        second half their left siblings, in the same tree order: a tree
        pushes its right child first, so it builds its left subtree first.
        """
        sums = _segment_sums(ys, m)
        made.append((trees, ids, sums[0] / m))
        # a node varies if y changes between two of its positions; the flag of
        # a node's first position, and one past the last node, stay unset
        starts = m.cumsum() - m
        changes = np.zeros(ys.size + 1, dtype=bool)
        np.not_equal(ys[1:], ys[:-1], out=changes[1:-1])
        changes[starts] = False
        grows = np.logical_or.reduceat(changes, starts)
        grows &= (depths < max_depth) & (m >= max(2 * min_leaf, 2))
        slot = top[trees]
        if pairs:
            half = trees.size // 2
            slot[half:] += grows[:half]
        at = np.flatnonzero(grows)
        stack[trees[at], slot[at]] = np.array((ids, depths, offsets, m, *sums)).T[at]
        top[:] += np.bincount(trees[at], minlength=n_trees)

    zeros = np.zeros(n_trees, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):  # padded cuts; empty children
        open_nodes(np.arange(n_trees), zeros, zeros, zeros, np.full(n_trees, nb),
                   y.take(boots.ravel()), pairs=False)

        for step in itertools.count():
            live = np.flatnonzero(top)
            if not live.size:
                break
            slot = top[live] - 1
            top[live] = slot
            popped = stack[live, slot]
            order = (-popped[:, 3]).argsort(kind="stable")  # widest node first
            live, popped = live[order], popped[order].T
            (ids, depths, offsets, m), (total, total_sq) = popped[:4].astype(np.int64), popped[4:]
            if step % _FEATURE_SETS == 0:
                sets[live] = _feature_sets([rngs[t] for t in live.tolist()], d, mtry, _FEATURE_SETS)
            feats = sets[live, step % _FEATURE_SETS]
            base = live * nb + offsets  # of each node's first row in `flat`
            # one row per candidate: a node and one of its features
            start = base.repeat(mtry)
            last = m.repeat(mtry) - lo
            mf = m.astype(np.float64)
            stats = np.array((mf, total, total_sq, total_sq - total * total / mf)).T
            stats = stats.repeat(mtry, axis=0)
            shift = (feats * n).ravel()  # row -> index in xt and ranks
            scored = [
                _best_splits(lists, start[i:j], last[i:j], stats[i:j], shift[i:j], ranks, xt, y,
                             left_n)
                for i, j in _blocks(m, mtry)]
            gains, below, above = (np.concatenate(c) for c in zip(*scored))
            best = gains.reshape(-1, mtry)
            at = (best.max(axis=1) > 0.0).nonzero()[0]
            if not at.size:
                continue
            # the first candidate whose gain beats every earlier one, at its first best cut
            row = at * mtry + best[at].argmax(axis=1)
            feature, threshold = feats.ravel()[row], 0.5 * (below[row] + above[row])
            trees, base, m, offsets = live[at], base[at], m[at], offsets[at]
            left = n_nodes[trees]
            n_nodes[trees] += 2
            splits.append((trees, ids[at], feature, threshold, left))
            # each split node's rows go left or right by value; the children's
            # rows, right children first, each in bootstrap order, and each
            # split node's range takes its left child's, then its right child's
            own = flat.take(_ranges(base, m))
            go = xt.ravel().take(own + (feature * n).repeat(m)) <= threshold.repeat(m)
            m_left = np.add.reduceat(go, m.cumsum() - m, dtype=np.int64)  # (m >= 2 each)
            rows = np.concatenate((own.compress(~go), own.compress(go)))
            flat[np.concatenate((_ranges(base + m_left, m - m_left), _ranges(base, m_left)))] = rows
            depths = depths[at] + 1
            open_nodes(
                np.concatenate((trees, trees)), np.concatenate((left + 1, left)),
                np.concatenate((depths, depths)), np.concatenate((offsets + m_left, offsets)),
                np.concatenate((m - m_left, m_left)), y.take(rows), pairs=True)
    del flat, lists, ranks

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
    boots = np.empty((n_trees, n), dtype=np.int32)
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

