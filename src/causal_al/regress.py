"""Random-forest regression used to track predictive accuracy.

Plain CART regression trees: variance-reduction splits, midpoint
thresholds between sorted unique values, bootstrap rows and sqrt(d)
feature subsampling per split. Everything is seeded, so refits are
bit-identical. The trees of a forest grow together on one thread, one
node per tree per step, each step a fixed number of array operations
(`_grow`): the trees' presorted (SLIQ) lists share one arena that splits
partition in place, and the new nodes' sums come from one call that
matches numpy's own pairwise sums bit for bit (`_segment_sums`). A forest
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


def _best_splits(lists, start, last, stats, shift, xt, y, left_n):
    """Score every cut of a block of candidates at once; keep each one's best.

    A candidate is a node and one of its candidate features, widest node
    first. Its sorted list starts at row start[r] of `lists`, a window
    view of the arena, and holds last[r] + lo ids, lo being the smallest
    child a cut may leave; stats[r] holds its node's size, sums of y and
    y * y and sum of squared errors, and shift[r] turns an id into the
    index of its value in `xt`. Row r of the padded arrays is candidate
    r's y in sorted order, followed by whatever the arena holds next, up
    to the block's widest node: ids of the same tree, since a candidate's
    list is never its tree's last. `left_n` counts lo, lo + 1, ... as
    floats.
    Returns each candidate's best gain, at its first best cut (-inf where
    no cut splits), and the values on either side of that cut.
    """
    lo = int(left_n[0])
    w = int(last[0]) + lo
    sample = lists[start, :w]
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
    # a cut is a split only where the value changes there, and where the
    # right side keeps lo values or more
    sample += shift[:, None]
    vk = xt.ravel().take(sample)
    cuts = vk[:, lo - 1 : w - lo] >= vk[:, lo : w - lo + 1]
    cuts |= left_n > last[:, None]
    np.putmask(gains, cuts, -np.inf)
    cut = gains.argmax(axis=1)
    rows = np.arange(cut.size)
    best = gains[rows, cut]
    cut += lo  # the first position right of the cut
    return best, vk[rows, cut - 1], vk[rows, cut]


def _pools(held):
    """Runs (start, stop) of nodes holding `_BLOCK_VALUES` entries or more.

    `held` lists each node's entries; a run closes at the first node that
    brings it to `_BLOCK_VALUES`, or at the last node.
    """
    ends = held.cumsum()
    i, k = 0, held.size
    while i < k:
        j = min(int(np.searchsorted(ends, ends[i] - held[i] + _BLOCK_VALUES)) + 1, k)
        yield i, j
        i = j


def _partition(flat, stride, width, base, m, feature, m_left, goes_left):
    """Split each node's lists in place into its children's, order kept.

    Node i's `width` lists start at flat[base[i]], `stride` apart, m[i]
    ids each, of which m_left[i] go left: those set in `goes_left`. Each
    list's range then takes its left entries followed by its right ones,
    each side in the order it had. The list of the feature a node splits
    on already has that order, so it is left as it is.
    """
    moves = np.arange(width) != feature[:, None]
    lists = (base[:, None] + stride * np.arange(width))[moves]
    sizes = m.repeat(width - 1)
    lefts = m_left.repeat(width - 1)
    moved = flat.take(_ranges(lists, sizes))
    go = goes_left.take(moved)
    flat[_ranges(lists, lefts)] = moved.compress(go)
    np.logical_not(go, out=go)
    flat[_ranges(lists + lefts, sizes - lefts)] = moved.compress(go)


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
    the split nodes (`_segment_sums`) and partitions the split nodes whose
    children may split again (`_partition`).

    One int32 arena of shape (n_trees, d + 1, nb) holds every tree's SLIQ
    lists of sample ids (row r of tree t is id t * n + r): per feature,
    the ids sorted stably by that feature (ties in bootstrap order, sorted
    once at the root), then the ids in bootstrap order. A node owns the
    same range [offset, offset + m) of each of its tree's d + 1 lists,
    and a split permutes that range in place into its left child's range
    followed by its right child's, so every node's range lies inside its
    parent's. The stacks are arrays too: per tree and stack slot, a
    node's id, depth, offset and size and its sums of y and y * y. Node
    sums are numpy's own pairwise sums of the node's y in bootstrap order,
    all children of a step at once, and cumulative sums run along rows, so
    every float equals the recursive builder's.

    Returns flat arrays (feature, threshold, left, right, value, roots),
    tree by tree, each tree's nodes numbered in the order they were made.
    """
    d, n = xt.shape
    n_trees, nb = boots.shape
    width = d + 1
    lo = max(min_leaf, 1)  # smallest child a cut may leave
    y_of = np.tile(y, n_trees)  # per sample id
    goes_left = np.empty(n_trees * n, dtype=bool)  # per sample id, at its node's last split
    # drawn ahead, per tree: a tree pops one node at every step until it is
    # done, so at step s it takes set s % _FEATURE_SETS
    sets = np.empty((n_trees, _FEATURE_SETS, mtry), dtype=np.int64)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    made = []    # per batch of new nodes: trees, local ids, values
    splits = []  # per batch of split nodes: trees, local ids, features, thresholds, left ids

    # each feature's dense ranks: a stable sort of a tree's ranks orders its
    # rows as a stable sort of the values would, and small integers let it
    # run as a radix sort
    ranks = np.empty((d, n), dtype=np.min_scalar_type(n))
    for f in range(d):
        ranks[f] = np.unique(xt[f], return_inverse=True)[1]
    flat = np.empty(n_trees * width * nb, dtype=np.int32)
    arena = flat.reshape(n_trees, width, nb)
    for t, boot in enumerate(boots):  # one tree's sort at a time keeps the temporaries small
        arena[t, :d] = boot.take(np.argsort(ranks[:, boot], axis=1, kind="stable"))
        arena[t, d] = boot
        arena[t] += t * n
    del ranks, arena
    # row i of `lists` is flat[i : i + nb]: indexing it reads only the rows
    # asked for (`take` would copy the whole view first)
    lists = np.ndarray((flat.size - nb + 1, nb), flat.dtype, flat, 0, (flat.itemsize,) * 2)
    left_n = np.arange(lo, nb + 1, dtype=np.float64)  # a cut's left size, from lo up

    # only a node shallower than max_depth is pushed, none is deeper than
    # nb - 1, and a stack holds at most one waiting right child per depth
    slots = max(min(max_depth, nb), 0) + 2
    # id, depth, offset, size (all exact in float64), sum of y, sum of y * y
    stack = np.empty((n_trees, slots, 6))
    top = np.zeros(n_trees, dtype=np.int64)  # stack pointers

    def open_nodes(trees, ids, depths, offsets, m, ys, pairs):
        """Record new nodes' values, push the ones that may split, say which.

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
        return grows

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
                for t in live.tolist():
                    sets[t] = _feature_sets(rngs[t], d, mtry, _FEATURE_SETS)
            feats = sets[live, step % _FEATURE_SETS]
            base = live * (width * nb) + offsets  # of each node's first list
            # one row per candidate: a node and one of its features
            start = (feats * nb + base[:, None]).ravel()
            last = m.repeat(mtry) - lo
            mf = m.astype(np.float64)
            stats = np.array((mf, total, total_sq, total_sq - total * total / mf)).T
            stats = stats.repeat(mtry, axis=0)
            shift = ((feats - live[:, None]) * n).ravel()  # id -> index in xt
            scored = [
                _best_splits(lists, start[i:j], last[i:j], stats[i:j], shift[i:j], xt, y_of,
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
            # each split node's rows in bootstrap order, its last list, go left
            # or right by value
            own = flat.take(_ranges(base + d * nb, m))
            go = xt.ravel().take(own + ((feature - trees) * n).repeat(m)) <= threshold.repeat(m)
            goes_left[own] = go
            m_left = np.add.reduceat(go, m.cumsum() - m, dtype=np.int64)  # (m >= 2 each)
            # the children's y in bootstrap order, right children first
            ys = y_of.take(own)
            del own
            ys = np.concatenate((ys.compress(~go), ys.compress(go)))
            depths = depths[at] + 1
            grows = open_nodes(
                np.concatenate((trees, trees)), np.concatenate((left + 1, left)),
                np.concatenate((depths, depths)), np.concatenate((offsets + m_left, offsets)),
                np.concatenate((m - m_left, m_left)), ys, pairs=True)
            del ys, go
            # only the lists of a node with a child that may split are kept up
            # to date, in pools of about `_BLOCK_VALUES` entries
            k = m.size
            keep = np.flatnonzero(grows[:k] | grows[k:])
            for i, j in _pools((width - 1) * m[keep]):
                part = keep[i:j]
                _partition(flat, nb, width, base[part], m[part], feature[part], m_left[part],
                           goes_left)
    del flat, lists, y_of

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

