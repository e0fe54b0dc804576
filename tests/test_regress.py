import hashlib
import tracemalloc

import numpy as np
import pytest

from causal_al import regress
from causal_al.active import active_learn, random_baseline
from causal_al.dataio import concat_tables
from causal_al.errors import ConfigError, DegenerateTarget, EmptyTable, MissingColumn
from causal_al.regress import fit_forest, predict, r2, tree_predictions
from causal_al.synth import SemSpec, make_heterogeneous_world
from tests.conftest import WORLD_EDGES, WORLD_NODES, make_table


def line_table(n=500, slope=3.0, seed=12, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = slope * x + (rng.normal(scale=noise, size=n) if noise else 0.0)
    return make_table(np.column_stack([x, y]), ("x", "y"), target_names=("y",))


def test_constant_target_predicts_constant():
    table = make_table(
        np.column_stack([np.arange(50.0), np.full(50, 7.5)]), ("x", "y"),
        target_names=("y",),
    )
    model = fit_forest(table, ("x",), "y", n_trees=10, seed=0)
    assert np.all(predict(model, table) == 7.5)


def test_linear_fit_high_train_r2():
    table = line_table()
    model = fit_forest(table, ("x",), "y", n_trees=30, max_depth=8, seed=5)
    score = r2(model, table)
    # frozen for this seeded oracle
    assert score == pytest.approx(0.9999941877126498, abs=1e-9)
    assert score >= 0.95


def test_same_seed_identical_predictions():
    table = line_table(noise=0.5)
    m1 = fit_forest(table, ("x",), "y", n_trees=20, seed=3)
    m2 = fit_forest(table, ("x",), "y", n_trees=20, seed=3)
    assert np.array_equal(predict(m1, table), predict(m2, table))


def test_jobs_do_not_change_predictions():
    table = line_table(noise=0.5)
    m1 = fit_forest(table, ("x",), "y", n_trees=16, seed=3, jobs=1)
    m4 = fit_forest(table, ("x",), "y", n_trees=16, seed=3, jobs=4)
    assert np.array_equal(predict(m1, table), predict(m4, table))


def test_forest_prediction_is_mean_of_trees():
    table = line_table(noise=0.5)
    model = fit_forest(table, ("x",), "y", n_trees=7, seed=1)
    per_tree = tree_predictions(model, table)
    assert per_tree.shape == (7, table.n_rows)
    assert np.array_equal(per_tree.mean(axis=0), predict(model, table))


def test_empty_feature_list():
    with pytest.raises(ConfigError):
        fit_forest(line_table(), (), "y")


def test_forest_needs_a_tree():
    with pytest.raises(ConfigError):
        fit_forest(line_table(), ("x",), "y", n_trees=0)


def test_r2_perfect_and_mean_predictor():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert regress.r2_of(y, y) == 1.0
    assert regress.r2_of(y, np.full(4, y.mean())) == 0.0


def test_r2_of_empty_target_is_empty_table():
    # like r2 on an empty test table, not an IndexError from the constancy check
    with pytest.raises(EmptyTable):
        regress.r2_of(np.array([]), np.array([]))


def test_r2_hand_computation():
    table = line_table(n=200, noise=0.3, seed=8)
    train, test = table.select_rows(range(150)), table.select_rows(range(150, 200))
    model = fit_forest(train, ("x",), "y", n_trees=25, seed=2)
    y = test.column("y")
    pred = predict(model, test)
    by_hand = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
    assert r2(model, test) == pytest.approx(by_hand, abs=1e-12)


def test_r2_constant_test_target():
    table = line_table()
    model = fit_forest(table, ("x",), "y", n_trees=5, seed=0)
    flat = make_table(
        np.column_stack([np.arange(10.0), np.ones(10)]), ("x", "y"), target_names=("y",)
    )
    with pytest.raises(DegenerateTarget):
        r2(model, flat)


def test_r2_empty_test():
    table = line_table()
    model = fit_forest(table, ("x",), "y", n_trees=5, seed=0)
    with pytest.raises(EmptyTable):
        r2(model, table.select_rows([]))


# ---------------------------------------------------------------------------
# lockstep builder vs a recursive CART that argsorts at every node
# ---------------------------------------------------------------------------


def _reference_build_tree(x, y, depth, max_depth, min_leaf, mtry, rng):
    """Frozen recursive builder: argsorts every candidate feature at every node."""
    node = regress._TreeNode()
    n = y.size
    if depth >= max_depth or n < 2 * min_leaf or np.all(y == y[0]):
        node.value = float(y.mean())
        return node

    d = x.shape[1]
    feat_ids = np.sort(rng.choice(d, size=mtry, replace=False))
    total = y.sum()
    total_sq = float((y * y).sum())
    parent_sse = total_sq - total * total / n

    best_gain = 0.0
    best_feat = -1
    best_thr = 0.0
    for f in feat_ids:
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        ys = y[order]
        cs = np.cumsum(ys)
        cs_sq = np.cumsum(ys * ys)
        vals = col[order]
        cut = np.flatnonzero(vals[:-1] < vals[1:]) + 1
        cut = cut[(cut >= min_leaf) & (n - cut >= min_leaf)]
        if cut.size == 0:
            continue
        left_n = cut.astype(np.float64)
        left_sum = cs[cut - 1]
        left_sq = cs_sq[cut - 1]
        right_n = n - left_n
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        sse = (left_sq - left_sum**2 / left_n) + (right_sq - right_sum**2 / right_n)
        gains = parent_sse - sse
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best_feat = int(f)
            best_thr = float(0.5 * (vals[cut[j] - 1] + vals[cut[j]]))

    if best_feat < 0:
        node.value = float(y.mean())
        return node

    mask = x[:, best_feat] <= best_thr
    node.feature = best_feat
    node.threshold = best_thr
    args = (depth + 1, max_depth, min_leaf, mtry, rng)
    node.left = _reference_build_tree(x[mask], y[mask], *args)
    node.right = _reference_build_tree(x[~mask], y[~mask], *args)
    node.value = float(y.mean())
    return node


def _preorder(node):
    """(feature, threshold, value) of every node, parent first, left subtree first."""
    out, stack = [], [node]
    while stack:
        nd = stack.pop()
        out.append((nd.feature, nd.threshold, nd.value))
        if nd.feature >= 0:
            stack += [nd.right, nd.left]
    return out


def _build_tree(x, y, max_depth, min_leaf, mtry, rng):
    """Grow one tree with the forest's builder on the rows `x`, `y`, as linked nodes."""
    xt = np.ascontiguousarray(x.T, dtype=np.float64)
    flat = regress._grow(xt, y, np.arange(y.size)[None], max_depth, min_leaf, mtry, [rng])
    return regress._linked(*flat)[0]


def assert_same_tree(x, y, max_depth, min_leaf, mtry, seed):
    expected = _reference_build_tree(
        x, y, 0, max_depth, min_leaf, mtry, np.random.default_rng(seed))
    got = _build_tree(x, y, max_depth, min_leaf, mtry, np.random.default_rng(seed))
    assert _preorder(got) == _preorder(expected)


@pytest.mark.parametrize("n,d", [(2, 1), (7, 3), (60, 2), (250, 9), (1000, 9)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_builder_matches_reference_on_continuous_data(n, d, seed):
    rng = np.random.default_rng(100 * n + seed)
    x = rng.normal(size=(n, d))
    y = x @ rng.normal(size=d) + rng.normal(size=n)
    mtry = max(1, int(np.sqrt(d)))
    assert_same_tree(x, y, 10, 2, mtry, seed)


@pytest.mark.parametrize("seed, rows", [
    *(pytest.param(seed, None, id=str(seed)) for seed in range(12)),
    # the largest sample whose ranks and key past a node's rows (255) are
    # uint8, and the smallest whose are uint16
    pytest.param(12, 255, id="255-rows"),
    pytest.param(13, 256, id="256-rows"),
])
def test_builder_matches_reference_on_heavy_ties(seed, rows):
    # few distinct values, duplicated columns and a small y alphabet: many
    # equal gains, so tie order and the strict gain comparison both matter
    rng = np.random.default_rng(seed)
    n = rows or int(rng.integers(20, 300))
    base = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
    x = np.column_stack([base, base[:, ::-1], rng.integers(0, 2, size=n)])
    y = rng.integers(0, 3, size=n).astype(np.float64) + base[:, 0]
    assert_same_tree(x, y, 12, int(rng.integers(1, 4)), int(rng.integers(1, 8)), seed)


def test_builder_matches_reference_on_constant_columns_and_target():
    rng = np.random.default_rng(7)
    x = np.column_stack([np.full(80, 2.5), rng.normal(size=80), np.zeros(80)])
    y = x[:, 1] ** 2
    for mtry in (1, 2, 3):
        assert_same_tree(x, y, 8, 2, mtry, mtry)
    flat = _build_tree(x, np.full(80, 4.0), 8, 2, 3, np.random.default_rng(0))
    assert _preorder(flat) == [(-1, 0.0, 4.0)]
    # only constant columns: the node draws its features but has no cut
    only_const = x[:, [0, 2]]
    assert_same_tree(only_const, y, 8, 2, 2, 0)


@pytest.mark.parametrize("max_depth", [0, 1, 2])
@pytest.mark.parametrize("mtry", [1, 4])
def test_builder_matches_reference_at_small_depths(max_depth, mtry):
    rng = np.random.default_rng(max_depth)
    x = rng.normal(size=(90, 4))
    y = x[:, 0] - 2 * x[:, 3] + 0.1 * rng.normal(size=90)
    assert_same_tree(x, y, max_depth, 2, mtry, 5)
    if max_depth == 0:
        root = _build_tree(x, y, 0, 2, mtry, np.random.default_rng(5))
        assert root.feature == -1 and root.value == float(y.mean())


@pytest.mark.parametrize("min_leaf", [1, 3, 5])
def test_builder_matches_reference_when_node_is_twice_min_leaf(min_leaf):
    # m = 2 * min_leaf leaves exactly one admissible cut position
    rng = np.random.default_rng(min_leaf)
    for seed in range(5):
        x = rng.normal(size=(2 * min_leaf, 3))
        y = rng.normal(size=2 * min_leaf)
        assert_same_tree(x, y, 5, min_leaf, 2, seed)
    x = rng.normal(size=(40 * min_leaf, 3))
    assert_same_tree(x, x[:, 0] + rng.normal(size=x.shape[0]), 10, min_leaf, 2, 9)


def test_fit_forest_trees_match_reference_builder():
    # bootstrap first, then one feature draw per splitting node, per tree stream
    table = line_table(n=150, noise=0.5, seed=21)
    rng = np.random.default_rng(4)
    extra = rng.integers(0, 5, size=(150, 3)).astype(np.float64)
    values = np.column_stack([table.values, extra])
    table = make_table(values, ("x", "y", "a", "b", "c"), target_names=("y",))
    features = ("x", "a", "b", "c")
    model = fit_forest(table, features, "y", n_trees=6, max_depth=7, min_leaf=2, seed=13)
    x, y = table.matrix(features), table.column("y")
    for tree, ss in zip(model.trees, np.random.SeedSequence(13).spawn(6)):
        tree_rng = np.random.default_rng(ss)
        boot = tree_rng.integers(0, 150, size=150)
        expected = _reference_build_tree(x[boot], y[boot], 0, 7, 2, 2, tree_rng)
        assert _preorder(tree) == _preorder(expected)


def test_jobs_do_not_change_trees(no_thread_pool):
    # `jobs` does not change how the trees grow: all of them in one lockstep call, no pool
    table = line_table(n=300, noise=0.5, seed=6)
    one = fit_forest(table, ("x",), "y", n_trees=8, max_depth=6, seed=2, jobs=1)
    for jobs in (0, 2, 4):
        got = fit_forest(table, ("x",), "y", n_trees=8, max_depth=6, seed=2, jobs=jobs)
        for name in ("feature", "threshold", "left", "right", "value", "roots"):
            assert np.array_equal(getattr(got, name), getattr(one, name)), (jobs, name)


# ---------------------------------------------------------------------------
# vectorised descent vs the node-by-node walk it replaced
# ---------------------------------------------------------------------------


def _reference_predict_tree(node, x):
    """Frozen per-tree walk: rows follow each node's test down an explicit stack."""
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


def assert_descent_matches_node_walk(model, table):
    x = table.matrix(model.feature_names)
    expected = np.array([_reference_predict_tree(t, x) for t in model.trees])
    got = tree_predictions(model, table)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # bit for bit
    assert predict(model, table).tobytes() == expected.mean(axis=0).tobytes()


def heavy_tie_table(seed, n=150):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
    y = rng.integers(0, 3, size=n) + base[:, 0]
    values = np.column_stack([base, base[:, ::-1], rng.integers(0, 2, size=n), y])
    names = ("a", "b", "c", "d", "e", "f", "g", "y")
    return make_table(values, names, target_names=("y",)), names[:-1]


@pytest.mark.parametrize("seed", range(4))
def test_descent_matches_node_walk_on_heavy_ties(seed):
    table, features = heavy_tie_table(seed)
    model = fit_forest(table, features, "y", n_trees=9, max_depth=6, min_leaf=1, seed=seed)
    assert_descent_matches_node_walk(model, table)
    other, _ = heavy_tie_table(seed + 100, n=40)
    assert_descent_matches_node_walk(model, other)


def test_descent_at_depth_zero_returns_root_means():
    table, features = heavy_tie_table(5)
    model = fit_forest(table, features, "y", n_trees=4, max_depth=0, seed=3)
    assert np.all(model.feature == -1) and model.feature.size == 4
    assert_descent_matches_node_walk(model, table)
    per_tree = tree_predictions(model, table)
    assert np.array_equal(per_tree, np.repeat(model.value[:, None], table.n_rows, axis=1))


def test_descent_sends_rows_on_a_threshold_left():
    table = line_table(n=200, noise=0.5, seed=9)
    model = fit_forest(table, ("x",), "y", n_trees=5, max_depth=5, seed=4)
    on = model.threshold[model.feature >= 0]
    probe = make_table(np.column_stack([on, np.zeros(on.size)]), ("x", "y"), target_names=("y",))
    assert_descent_matches_node_walk(model, probe)
    stumps = fit_forest(table, ("x",), "y", n_trees=3, max_depth=1, seed=4)
    for t, root in enumerate(stumps.roots):
        row = make_table([[stumps.threshold[root], 0.0]], ("x", "y"), target_names=("y",))
        assert tree_predictions(stumps, row)[t, 0] == stumps.value[stumps.left[root]]


def test_linked_trees_have_one_node_per_flat_entry():
    table, features = heavy_tie_table(2)
    model = fit_forest(table, features, "y", n_trees=6, max_depth=5, seed=8)
    assert len(model.trees) == model.n_trees == model.roots.size
    walked = sum(len(_preorder(tree)) for tree in model.trees)
    assert walked == model.feature.size == model.threshold.size == model.value.size


@pytest.mark.parametrize("block_values", [1, 500, 2**40])
def test_block_size_does_not_change_the_forest(monkeypatch, block_values):
    # one node per padded block, mixed blocks, or one block a step
    table, features = heavy_tie_table(11, n=300)
    want = fit_forest(table, features, "y", n_trees=12, max_depth=8, min_leaf=1, seed=6)
    monkeypatch.setattr(regress, "_BLOCK_VALUES", block_values)
    got = fit_forest(table, features, "y", n_trees=12, max_depth=8, min_leaf=1, seed=6)
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_windows_past_the_end_of_a_tree_list_score_as_alone():
    # one tree's list and its zero tail, laid out as `_grow` lays them out:
    # the node at the end of the list, scored in a block behind a wider node,
    # reads a window that runs past the list into the tail
    rng = np.random.default_rng(3)
    n, lo = 40, 2
    xt = rng.integers(0, 6, size=(2, n)).astype(np.float64)
    xt[:, 0] = -1.0  # the tail's row ranks first, so only its key keeps it out
    y = rng.normal(size=n)
    ranks = np.array([np.unique(row, return_inverse=True)[1] for row in xt], dtype=np.uint8)
    flat = np.zeros(2 * n - 1, dtype=np.int32)
    flat[:n] = rng.permutation(n)
    lists = np.ndarray((n, n), flat.dtype, flat, 0, (flat.itemsize,) * 2)
    left_n = np.arange(lo, n + 1, dtype=np.float64)

    def score(starts, sizes, features):
        starts, sizes = np.array(starts), np.array(sizes)
        ys = [y[flat[a : a + m]] for a, m in zip(starts, sizes)]
        sums = np.array([(v.sum(), (v * v).sum()) for v in ys])
        stats = np.column_stack((sizes, sums, sums[:, 1] - sums[:, 0] ** 2 / sizes))
        with np.errstate(divide="ignore", invalid="ignore"):
            return regress._best_splits(lists, starts, sizes - lo, stats, np.array(features) * n,
                                        ranks.ravel(), xt, y, left_n)

    together = score([0, 30], [30, 10], [0, 1])
    for i, alone in enumerate((score([0], [30], [0]), score([30], [10], [1]))):
        assert [a[i] for a in together] == [a[0] for a in alone]
    assert together[0][1] > -np.inf  # the end node has a cut to find


def test_many_trees_of_different_shapes_match_reference_builder():
    # trees of a lockstep group finish at different steps and mix depths within a step
    table, features = heavy_tie_table(13, n=220)
    model = fit_forest(table, features, "y", n_trees=25, max_depth=9, min_leaf=1, seed=21)
    x, y = table.matrix(features), table.column("y")
    for tree, ss in zip(model.trees, np.random.SeedSequence(21).spawn(25)):
        tree_rng = np.random.default_rng(ss)
        boot = tree_rng.integers(0, 220, size=220)
        expected = _reference_build_tree(x[boot], y[boot], 0, 9, 1, 2, tree_rng)
        assert _preorder(tree) == _preorder(expected)


# ---------------------------------------------------------------------------
# batched feature draws vs one `rng.choice` per splitting node
# ---------------------------------------------------------------------------


def _next_draws(rng):
    """32-bit draws, which read a buffered half of a 64-bit output, then a 64-bit one."""
    return rng.integers(0, 1000, size=3, dtype=np.uint32).tolist(), int(rng.integers(0, 1 << 40))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9, 10, 16, 50, 200, 1000])
def test_feature_sets_equal_sequential_choice_calls(d):
    # each generator of a batch of one to four gets the sets and leaves the
    # stream that k `choice` calls on it would, also when its stream starts
    # mid-way through a 64-bit output (an odd number of 32-bit draws)
    for seed in range(50):
        for mtry in sorted({1, max(1, int(np.sqrt(d))), min(3, d), d}):
            k, n_rngs = 1 + seed % 7, 1 + seed % 4
            pairs = [(np.random.default_rng(seed + 1000 * g), np.random.default_rng(seed + 1000 * g))
                     for g in range(n_rngs)]
            for g, pair in enumerate(pairs):
                for rng in pair:
                    rng.integers(0, 1000, size=2 * ((seed + g) % 3) + 1, dtype=np.uint32)
            got = regress._feature_sets([got_rng for _, got_rng in pairs], d, mtry, k)
            assert got.shape == (n_rngs, k, mtry)
            for g, (want_rng, got_rng) in enumerate(pairs):
                want = [np.sort(want_rng.choice(d, mtry, replace=False)) for _ in range(k)]
                assert np.array_equal(got[g], want), (seed, mtry, g)
                assert _next_draws(got_rng) == _next_draws(want_rng), (seed, mtry, g)


@pytest.mark.parametrize("mtry", [201, 10_001])
def test_feature_sets_stay_valid_past_floyds_range(mtry):
    # past d = 10 000 `choice` may shuffle a tail of range(d) instead, so only
    # the sets, not the stream, are checked: sorted, distinct and in range
    d = 10_001
    sets = regress._feature_sets([np.random.default_rng(3)], d, mtry, 4)[0]
    assert sets.shape == (4, mtry)
    assert np.all(np.diff(sets, axis=1) > 0)
    assert sets.min() >= 0 and sets.max() < d
    if mtry == d:
        assert np.array_equal(sets, np.tile(np.arange(d), (4, 1)))


@pytest.mark.parametrize("n_sets", [1, 2**20])
def test_feature_set_chunk_does_not_change_the_forest(monkeypatch, n_sets):
    # one set per draw call, or every tree's sets from a single call
    table, features = heavy_tie_table(11, n=300)
    want = fit_forest(table, features, "y", n_trees=3, max_depth=8, min_leaf=1, seed=6)
    monkeypatch.setattr(regress, "_FEATURE_SETS", n_sets)
    got = fit_forest(table, features, "y", n_trees=3, max_depth=8, min_leaf=1, seed=6)
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("features, target, match", [
    (("x", "x"), "y", "'x' is named twice"),
    (("x", "y"), "y", "'y' is named twice"),  # the target among the features
    (("x", "z"), "y", "'z' is not one of x,y"),
    (("x",), "z", "'z' is not one of x,y"),
])
def test_forest_columns_are_known_and_named_once(features, target, match):
    with pytest.raises(MissingColumn, match=f"^features and target: {match}$"):
        fit_forest(line_table(60), features, target, n_trees=2)


# ---------------------------------------------------------------------------
# batched node sums vs one `np.add.reduce` per segment
# ---------------------------------------------------------------------------

# lengths on both sides of numpy's 8-value lanes, its 128-value blocks and
# its halving points
SUM_LENGTHS = (*range(0, 300), 511, 512, 513, 999, 1000, 1001, 2047, 3000, 5000, 9000, 17_000)


def reduced(a, lengths):
    """One 1-D `np.add.reduce` per segment, the segments one after another."""
    ends = np.cumsum(lengths)
    return np.array([np.add.reduce(a[e - k : e]) for e, k in zip(ends, lengths)])


def assert_sums_bit_equal(a, lengths):
    with np.errstate(all="ignore"):
        want = np.array([reduced(a, lengths), reduced(a * a, lengths)])
        assert regress._segment_sums(a, lengths).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_segment_sums_equal_numpy_reductions_bit_for_bit(seed):
    # magnitudes from about 1e-26 to 1e26, so that the order of the additions shows
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.array(SUM_LENGTHS))
    a = rng.normal(size=lengths.sum()) * np.exp(rng.normal(scale=20, size=lengths.sum()))
    assert_sums_bit_equal(a, lengths)


@pytest.mark.parametrize("values", [
    (-0.0,),
    (-0.0, 0.0, 1.0),
    (np.inf, -np.inf, 1.0, -0.0),
    (np.nan, 2.0, -0.0),
    (np.nan, -np.nan, np.inf, -np.inf, 3.0),
    (5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -0.0),
    (1e300, -1e300, 1e-300, -1e-300, 1e308),
])
def test_segment_sums_of_special_values(values):
    rng = np.random.default_rng(len(values))
    for _ in range(20):
        lengths = rng.choice(np.array(SUM_LENGTHS[:300] + (511, 512, 1000, 1001)), size=24)
        a = np.array(values)[rng.integers(0, len(values), size=lengths.sum())]
        assert_sums_bit_equal(a, lengths)


def test_segment_sums_of_empty_segments_and_negative_zero():
    # a reduction of -0.0 alone is +0.0, as is one of no values
    got = regress._segment_sums(np.array([-0.0, 2.0]), np.array([0, 1, 0, 1, 0]))
    want = np.array([[0.0, 0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 4.0, 0.0]])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the benchmark's `assemble` forests, pinned
# ---------------------------------------------------------------------------

ASSEMBLE_FOREST = dict(n_trees=60, max_depth=10, min_leaf=2, seed=123)
# sha256 of (feature, threshold, left, right, value, roots) of the forest on
# each run's final dataset, recorded from the builder this one replaced
ASSEMBLE_FOREST_SHA256 = {
    "active": "1f3e0332769e1e3d8ef034a4efa660a9e4177593c9c59a81e81168e59f70995a",
    "random": "a1cc6cec8c0e47a5208250a3f81fa7c5146faf98f51405054bf27afd4ea01405",
}
# tracemalloc peak of `fit_forest` on the active run's 1000 rows: 4 769 149 B
# for this builder, one row list per tree, plus 10 %
ASSEMBLE_FOREST_PEAK_BYTES = 5_246_064


@pytest.fixture(scope="module")
def assemble_datasets():
    """Each loop's final dataset, built as the benchmark's `assemble` builds it."""
    spec = SemSpec(WORLD_NODES, WORLD_EDGES, tuple(("uniform", 0.5) for _ in WORLD_NODES))
    subsets, _, dag = make_heterogeneous_world(
        3, spec, (0.3, 1.0, 1.8), seed=11, n_rows=1000, target="y")
    pool = concat_tables(subsets)
    return {
        run.mode: pool.select_by_ids(run.selected_row_ids)
        for run in (loop(subsets, dag, "y", m=50, n_iter=20, seed=11)
                    for loop in (active_learn, random_baseline))
    }


def forest_sha256(model):
    h = hashlib.sha256()
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        h.update(np.ascontiguousarray(getattr(model, name)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", ["active", "random"])
def test_assemble_forests_are_the_recorded_ones(assemble_datasets, mode):
    model = fit_forest(assemble_datasets[mode], WORLD_NODES[:-1], "y", **ASSEMBLE_FOREST)
    assert forest_sha256(model) == ASSEMBLE_FOREST_SHA256[mode]


def test_assemble_forest_peak_memory(assemble_datasets):
    table = assemble_datasets["active"]
    assert table.n_rows == 1000
    fit_forest(table, WORLD_NODES[:-1], "y", **ASSEMBLE_FOREST)  # imports and caches first
    tracemalloc.start()
    try:
        fit_forest(table, WORLD_NODES[:-1], "y", **ASSEMBLE_FOREST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ASSEMBLE_FOREST_PEAK_BYTES
