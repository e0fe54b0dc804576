import re
import tracemalloc
import warnings

import numpy as np
import pytest

from causal_al import causal, dataio
from causal_al.causal import WeightedDag, discover_lingam
from causal_al.errors import (
    DegenerateFeature,
    InsufficientData,
    MissingColumn,
    NodeMismatch,
    SchemaError,
)
from causal_al.intervene import rank_features
from causal_al.synth import SemSpec, sample_sem
from tests.conftest import make_table

TWO_VAR = SemSpec(
    node_names=("x1", "x2"),
    edges=(("x1", "x2", 0.8),),
    noises=(("uniform", 1.0), ("uniform", 0.3)),
    seed=42,
)
CHAIN = SemSpec(
    node_names=("x1", "x2", "x3"),
    edges=(("x1", "x2", 0.7), ("x2", "x3", 0.5)),
    noises=(("uniform", 1.0), ("uniform", 0.5), ("uniform", 0.5)),
    seed=7,
)


def two_var_spec(seed):
    return SemSpec(TWO_VAR.node_names, TWO_VAR.edges, TWO_VAR.noises, seed=seed)


def chain_spec(seed):
    return SemSpec(CHAIN.node_names, CHAIN.edges, CHAIN.noises, seed=seed)


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def test_two_var_recovery_frozen_seed():
    table = sample_sem(TWO_VAR, 5000, target_names=("x2",))
    dag = discover_lingam(table, "x2", destandardize=True)
    assert [dag.node_names[i] for i in dag.causal_order] == ["x1", "x2"]
    # frozen recovered weight for this exact seeded sample
    assert dag.B[1, 0] == pytest.approx(0.8053908358786818, abs=1e-6)
    assert abs(dag.B[1, 0] - 0.8) < 0.05


def test_two_var_recovery_across_seeds():
    hits = 0
    for seed in range(10):
        table = sample_sem(two_var_spec(seed), 5000, target_names=("x2",))
        dag = discover_lingam(table, "x2", destandardize=True)
        order = [dag.node_names[i] for i in dag.causal_order]
        if order == ["x1", "x2"] and abs(dag.B[1, 0] - 0.8) < 0.05:
            hits += 1
    assert hits >= 9


def test_chain_recovery_and_pruning():
    table = sample_sem(CHAIN, 5000, target_names=("x3",))
    dag = discover_lingam(table, "x3", prune_threshold=0.05, destandardize=True)
    assert [dag.node_names[i] for i in dag.causal_order] == ["x1", "x2", "x3"]
    assert dag.B[2, 0] == 0.0  # spurious x1 -> x3 pruned
    assert abs(dag.B[1, 0] - 0.7) < 0.05
    assert abs(dag.B[2, 1] - 0.5) < 0.05


def test_sink_enforced_not_inferred():
    # generate data where the declared target drives another variable
    spec = SemSpec(
        node_names=("t", "z"),
        edges=(("t", "z", 0.9),),
        noises=(("uniform", 1.0), ("uniform", 0.3)),
        seed=4,
    )
    table = sample_sem(spec, 3000, target_names=("t",))
    dag = discover_lingam(table, "t")
    t_col = dag.node_names.index("t")
    assert np.all(dag.B[:, t_col] == 0.0)
    assert dag.causal_order[-1] == t_col


def test_insufficient_rows():
    table = sample_sem(CHAIN, 12, target_names=("x3",))
    with pytest.raises(InsufficientData):
        discover_lingam(table, "x3")


def test_constant_column_is_degenerate_naming_the_first():
    x = np.random.default_rng(9).normal(size=(100, 4))
    x[:, 2] = 1.5
    x[:, 1] = 5.0
    table = make_table(x, ("a", "b", "c", "y"), target_names=("y",))
    with pytest.raises(DegenerateFeature, match="^column 'b' is constant over 100 rows$"):
        discover_lingam(table, "y")


def test_missing_target():
    table = sample_sem(CHAIN, 100)
    with pytest.raises(MissingColumn, match="^target: 'nope' is not one of x1,x2,x3$"):
        discover_lingam(table, "nope")


def test_acyclicity_invariant_permuted_upper_triangle():
    table = sample_sem(CHAIN, 2000, target_names=("x3",))
    dag = discover_lingam(table, "x3")
    pb = dag.permuted_b()
    assert np.all(np.triu(pb) == 0.0)
    dag.validate()


def test_gaussian_noise_still_returns_valid_dag():
    # identifiability fails on Gaussian noise; only structural validity is claimed
    spec = SemSpec(
        node_names=("a", "b", "y"),
        edges=(("a", "b", 0.6), ("b", "y", 0.5)),
        noises=(("gaussian", 1.0),) * 3,
        seed=2,
    )
    table = sample_sem(spec, 2000, target_names=("y",))
    dag = discover_lingam(table, "y")
    dag.validate()
    assert np.all(dag.B[:, dag.node_names.index("y")] == 0.0)


def test_scale_equivariance_of_destandardized_weights():
    table = sample_sem(TWO_VAR, 5000, target_names=("x2",))
    base = discover_lingam(table, "x2", destandardize=True)
    c = 10.0
    scaled_values = table.values.copy()
    scaled_values[:, 0] *= c
    scaled = make_table(scaled_values, ("x1", "x2"), target_names=("x2",))
    dag = discover_lingam(scaled, "x2", destandardize=True)
    # outgoing weights of the scaled column shrink by 1/c
    assert dag.B[1, 0] == pytest.approx(base.B[1, 0] / c, rel=0.05)


def test_destandardized_weight_beyond_the_float_range_is_a_numeric_error_naming_the_edge():
    # x1 scaled by 1e-158 and x2 by 1e152: each column has a finite, nonzero
    # spread, but the x1 -> x2 weight on the raw scales is about 0.8 * 1e310
    values = sample_sem(TWO_VAR, 400, target_names=("x2",)).values * [1e-158, 1e152]
    table = make_table(values, ("x1", "x2"), target_names=("x2",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported once, by the error
        with pytest.raises(DegenerateFeature, match=r"^edge 'x2<-x1' has a weight that is not "
                                                     r"finite \(inf\) on the raw column scales$"):
            discover_lingam(table, "x2", destandardize=True)
    # on the standardized scale the same weight is finite
    assert np.isfinite(discover_lingam(table, "x2").B).all()


def test_dag_refuses_non_finite_parameters():
    b = np.array([[0.0, 0.0], [-np.inf, 0.0]])
    with pytest.raises(SchemaError, match=r"^edge 'b<-a' has a weight that is not finite \(-inf\)$"):
        WeightedDag(("a", "b"), b, (0, 1))
    for key in ("node_means", "node_stds"):
        with pytest.raises(SchemaError, match=f"^{key}: 'b' is not finite \\(nan\\)$"):
            WeightedDag(("a", "b"), np.zeros((2, 2)), (0, 1), **{key: np.array([1.0, np.nan])})


@pytest.mark.parametrize("key", ["node_means", "node_stds"])
def test_dag_refuses_column_stats_of_the_wrong_length(tmp_path, key):
    with pytest.raises(SchemaError, match=f"^{key} has 2 values for 3 nodes$"):
        WeightedDag(("a", "b", "y"), np.zeros((3, 3)), (0, 1, 2), **{key: np.ones(2)})
    # a graph file used to load, and `scale_for_rows` then returned ([1, 2], [1])
    path = tmp_path / "g.csv"
    path.write_text(
        "# causal_order = a,b,y\n# node_means = 1.0,2.0\n# node_stds = 1.0\n"
        "child,parent,weight\nb,a,0.5\n", encoding="utf-8")
    with pytest.raises(SchemaError,
                       match=f"^{re.escape(str(path))}: node_means has 2 values for 3 nodes$"):
        causal.load_dag(path)


def test_discovery_deterministic():
    table = sample_sem(CHAIN, 2000, target_names=("x3",))
    d1 = discover_lingam(table, "x3")
    d2 = discover_lingam(table, "x3")
    assert np.array_equal(d1.B, d2.B)
    assert d1.causal_order == d2.causal_order


# ---------------------------------------------------------------------------
# root search: scalar reference
# ---------------------------------------------------------------------------
# The pairwise search as one scalar loop per (candidate, other) pair, with the
# same entropy approximation, closed-form residual moments and fallbacks as
# the array search in `causal`, and weights by least squares per node. The
# kernel's matrix products round otherwise, so its weights are compared
# within WEIGHT_ATOL on the standardized scale, and its orders exactly.

WEIGHT_ATOL = 1e-10


def _ref_entropy_terms(u):
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0), u * np.exp(-(u**2) / 2.0)


def _ref_entropy(u):
    log_cosh, moment = _ref_entropy_terms(u)
    return (
        (1.0 + np.log(2.0 * np.pi)) / 2.0
        - causal._K1 * (np.mean(log_cosh) - causal._GAMMA) ** 2
        - causal._K2 * np.mean(moment) ** 2
    )


def _ref_standardize(u):
    sd = u.std()
    if sd < 1e-15:
        return np.zeros_like(u)
    return (u - u.mean()) / sd


def _ref_residual(xi, xj):
    var_j = xj.var()
    if var_j < 1e-30:
        return xi - xi.mean()
    cov = np.mean(xi * xj) - xi.mean() * xj.mean()
    return xi - (cov / var_j) * xj


def _ref_pair_residual(gi, gj):
    """The standardized residual of standardized gi on gj, from the moments of
    the two rows: gi itself when gj is flat, zeros when the residual's
    variance is at most `_FLAT` times gi's."""
    mean_i, mean_j = gi.mean(), gj.mean()
    var_j = np.mean(gj * gj) - mean_j**2
    if var_j < 1e-30:
        return gi
    var_i = np.mean(gi * gi) - mean_i**2
    cov = np.mean(gi * gj) - mean_i * mean_j
    c = cov / var_j
    var_r = var_i - 2.0 * c * cov + c * c * var_j
    if var_r <= causal._FLAT * var_i:
        return np.zeros_like(gi)
    scale = 1.0 / np.sqrt(var_r)
    return scale * gi - c * scale * gj - (mean_i - c * mean_j) * scale


def _ref_most_exogenous(xw, remaining, candidates):
    cols = {i: _ref_standardize(xw[:, i]) for i in remaining}
    ent = {i: _ref_entropy(cols[i]) for i in remaining}
    h = {(i, j): _ref_entropy(_ref_pair_residual(cols[i], cols[j]))
         for i in remaining for j in remaining if i != j}
    best_i, best_score = candidates[0], -np.inf
    for i in candidates:
        penalty = 0.0
        for j in remaining:
            if j == i:
                continue
            lr = (ent[j] + h[i, j]) - (ent[i] + h[j, i])
            penalty += min(0.0, lr) ** 2
        if -penalty > best_score:
            best_i, best_score = i, -penalty
    return best_i


def _ref_discover(x, t_idx, prune_threshold=causal.DEFAULT_PRUNE_THRESHOLD):
    """(B, causal order) from the scalar search, standardized weights."""
    d = x.shape[1]
    z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    remaining, order = list(range(d)), []
    z_work = z.copy()
    while remaining:
        candidates = [i for i in remaining if i != t_idx] or remaining
        root = candidates[0] if len(candidates) == 1 else _ref_most_exogenous(z_work, remaining, candidates)
        order.append(root)
        remaining.remove(root)
        for j in remaining:
            z_work[:, j] = _ref_residual(z_work[:, j], z_work[:, root])
    b = np.zeros((d, d))
    for pos, node in enumerate(order):
        preds = order[:pos]
        if preds:
            b[node, preds] = np.linalg.lstsq(z[:, preds], z[:, node], rcond=None)[0]
    b[np.abs(b) < prune_threshold] = 0.0
    return b, tuple(order)


def _random_lingam_table(n, d, seed):
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-1.0, 1.0, size=(n, d)) * rng.uniform(0.3, 2.0, size=d)
    b = np.tril(rng.normal(size=(d, d)) * (rng.random((d, d)) < 0.5), -1)
    x = np.linalg.solve(np.eye(d) - b, noise.T).T
    return make_table(x, [f"x{i}" for i in range(d)])


def _assert_weights_match(b, b_ref):
    """Cholesky weights within `WEIGHT_ATOL` of the reference's least squares."""
    assert np.abs(b - b_ref).max() <= WEIGHT_ATOL


@pytest.mark.parametrize("n,d", [(13, 3), (20, 10), (60, 5), (300, 8), (1000, 10)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_root_search_matches_scalar_reference(n, d, seed):
    table = _random_lingam_table(n, d, seed)
    target = table.feature_names[seed % d]
    dag = discover_lingam(table, target)
    b_ref, order_ref = _ref_discover(table.values, table.index(target))
    assert dag.causal_order == order_ref
    _assert_weights_match(dag.B, b_ref)


def test_random_tables_match_scalar_reference_orders():
    rng = np.random.default_rng(35)
    for k in range(300):
        d = int(rng.integers(3, 11))
        n = int(rng.integers(max(13, d + causal.EXTRA_ROWS), 1001))
        table = _random_lingam_table(n, d, 5000 + k)
        dag = discover_lingam(table, table.feature_names[k % d])
        b_ref, order_ref = _ref_discover(table.values, k % d)
        assert dag.causal_order == order_ref, (k, n, d)
        _assert_weights_match(dag.B, b_ref)


@pytest.mark.parametrize("seed", [5, 57, 143, 197, 209])
def test_exactly_collinear_columns_match_scalar_reference(seed):
    # x1..x3 are exact multiples of x0: flat pairwise residuals at the first
    # step, then all-zero working columns (zero-variance regressors) once one
    # of them is a root. Which duplicate goes first is decided by rounding,
    # and on some other seeds the kernel's matrix products pick another one
    # than the scalar arithmetic. The Gram matrix is singular, so the
    # weights are the least-squares ones, bit for bit.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    x0 = rng.laplace(size=n)
    z = rng.uniform(-1, 1, size=n)
    cols = [x0] + [rng.choice([2.0, -3.0, 0.7, 1.3, 5.0]) * x0 for _ in range(3)]
    cols += [z + x0, z - 0.3 * x0 + rng.uniform(-1, 1, size=n)]
    table = make_table(np.column_stack(cols), [f"x{i}" for i in range(6)])
    dag = discover_lingam(table, "x5")
    b_ref, order_ref = _ref_discover(table.values, 5)
    assert dag.causal_order == order_ref
    assert np.array_equal(dag.B, b_ref)


def test_zero_variance_regressor_matches_scalar_reference():
    rng = np.random.default_rng(8)
    w = rng.laplace(size=(5, 150))
    w[1] = 0.0  # a working column fully explained by an earlier root
    w[3] = 4.0 * w[0]  # zero residual against row 0
    remaining, candidates = [0, 1, 2, 3, 4], [0, 1, 2, 3]
    expected = _ref_most_exogenous(w.T.copy(), remaining, candidates)
    cand = np.array([[True, True, True, True, False]])
    found = causal._most_exogenous(w[None].copy(), cand, causal._workspace(1, 5, 150))
    assert found.tolist() == [expected]


def test_fused_entropy_matches_scalar_reference():
    rng = np.random.default_rng(12)
    u = rng.laplace(size=(7, 333)) * rng.uniform(1e-3, 1e3, size=(7, 1))
    u[2] = 5.0  # a flat row standardizes to zeros
    u[4] = rng.uniform(-40.0, 40.0, size=333)  # large |u|: exp(-2|u|) underflows
    expected = [_ref_entropy(_ref_standardize(row)) for row in u]
    z = u.copy()
    t1, t2 = np.empty_like(u), np.empty_like(u)
    sums = np.empty((2, 7))
    causal._standardize(z, t1)
    causal._entropy_sums(z, t1, t2, *sums)
    assert np.array_equal(z, [_ref_standardize(row) for row in u])
    terms = [_ref_entropy_terms(_ref_standardize(row)) for row in u]
    assert np.array_equal(sums, [[t.sum() for t in row_terms] for row_terms in zip(*terms)])
    assert np.array_equal(causal._entropy(*sums, 333), expected)


def test_pair_coefficients_give_the_reference_residuals():
    rng = np.random.default_rng(21)
    g = rng.laplace(size=(2, 5, 240))
    g[0, 1] = 0.0  # a flat row: every residual on it is the regressand itself
    g[0, 3] = -2.5 * g[0, 4]  # a flat residual both ways
    g[1, 2] = g[1, 0] + 1e-7 * rng.uniform(-1, 1, 240)  # residual variance ~2e-15 of its row: flat
    causal._standardize(g, np.empty_like(g))
    coef = causal._pair_coefficients(g)
    i, j = causal._pairs(5)
    gb = np.concatenate((g, np.ones((2, 1, 240))), axis=1)
    for t in range(2):
        r = coef[t] @ gb[t]
        for p in range(i.size):
            want = _ref_pair_residual(g[t, i[p]], g[t, j[p]])
            if not want.any() or np.array_equal(want, g[t, i[p]]):  # flat rules: exact
                assert np.array_equal(r[p], want), (t, i[p], j[p])
            else:
                assert np.allclose(r[p], want, rtol=0.0, atol=1e-12), (t, i[p], j[p])
    # each rule is met: the flat row, its residuals, and the flat pairs
    assert not coef[0, i == 1].any()
    assert np.array_equal(coef[0, j == 1], np.eye(6)[i[j == 1]])
    assert not coef[0, (i == 3) & (j == 4)].any() and not coef[0, (i == 4) & (j == 3)].any()
    assert not coef[1, (i == 2) & (j == 0)].any()


def test_root_step_writes_the_roots_pair_residuals_as_the_next_rows():
    rng = np.random.default_rng(38)
    n = 200
    w = rng.laplace(size=(1, 4, n))
    w[0, 1] = 2.0 * w[0, 0] + 1e-7 * rng.uniform(-1, 1, n)  # flat residual on row 0
    g = [_ref_standardize(row) for row in w[0]]
    want = np.array([_ref_pair_residual(g[i], g[0]) for i in (1, 2, 3)])
    cand = np.array([[True, False, False, False]])
    pos = causal._most_exogenous(w, cand, causal._workspace(1, 4, n))
    assert pos.tolist() == [0]
    nxt = w.reshape(-1)[: 3 * n].reshape(3, n)
    assert not want[0].any() and not nxt[0].any()
    assert np.allclose(nxt, want, rtol=0.0, atol=1e-12)


def test_weights_fall_back_to_least_squares_without_a_factor_or_below_the_pivot_floor():
    rng = np.random.default_rng(4)
    x = rng.laplace(size=(3, 200, 4))
    # 1 - R^2 of x3 on x0..x2 is about 3e-7 in table 1, under the floor, and
    # 0 in table 2
    x[1, :, 3] = x[1, :, 0] - x[1, :, 1] + 2e-3 * rng.uniform(-1, 1, 200)
    x[2, :, 3] = x[2, :, 0] - 2.0 * x[2, :, 2]
    mean, std, _ = dataio.column_stats(x)
    z = (x - mean[:, None, :]) / std[:, None, :]
    orders = np.tile(np.arange(4), (3, 1))
    b, fitted = causal._weights(np.matmul(z.transpose(0, 2, 1), z), orders)
    assert fitted.tolist() == [True, False, False]
    assert not b[1:].any()
    ls = np.zeros((3, 4, 4))
    for t in range(3):
        for p in range(1, 4):
            ls[t, p, :p] = np.linalg.lstsq(z[t, :, :p], z[t, :, p], rcond=None)[0]
    assert np.abs(b[0] - ls[0]).max() <= WEIGHT_ATOL
    # the kernel fits the tables it does not factor by least squares, bit for bit
    b, orders = _stack_discover(x, 3)
    for t in (1, 2):
        zt = (x[t] - mean[t]) / std[t]
        want = np.zeros((4, 4))
        for p in range(1, 4):
            preds = orders[t, :p]
            want[orders[t, p], preds] = np.linalg.lstsq(zt[:, preds], zt[:, orders[t, p]], rcond=None)[0]
        want[np.abs(want) < causal.DEFAULT_PRUNE_THRESHOLD] = 0.0
        assert np.array_equal(b[t], want)


def test_cholesky_of_a_stack_marks_a_matrix_without_a_factor():
    a = np.stack([[[4.0, 2.0], [2.0, 2.0]], [[1.0, 2.0], [2.0, 1.0]], np.eye(2)])
    factor = causal._cholesky(a)
    assert np.array_equal(factor[0], [[2.0, 0.0], [1.0, 1.0]])
    assert np.isnan(factor[1]).all()
    assert np.array_equal(factor[2], np.eye(2))


def _stack_discover(x, target_idx, destandardize=False):
    mean, std, _ = dataio.column_stats(x)
    return causal._discover(x, mean, std, target_idx, causal.DEFAULT_PRUNE_THRESHOLD, destandardize)


def _diverging_stack(seed):
    """3-5 random LiNGAM tables of one shape; one has columns that are exact
    multiples of another, one a column that is an exact combination of two
    others, so its working row has no variance once both are roots."""
    rng = np.random.default_rng(seed)
    s, n, d = int(rng.integers(3, 6)), int(rng.integers(20, 400)), 6
    x = np.stack([_random_lingam_table(n, d, 100 * seed + k).values for k in range(s)])
    x[0, :, 1] = 3.0 * x[0, :, 0]
    x[0, :, 2] = -0.7 * x[0, :, 0]
    x[1, :, 3] = x[1, :, 0] - 2.0 * x[1, :, 2]
    return x


@pytest.mark.parametrize("seed", range(6))
def test_stacked_search_matches_scalar_reference_per_table(seed):
    x = _diverging_stack(seed)
    b, orders = _stack_discover(x, 5)
    assert len({tuple(o) for o in orders.tolist()}) > 1  # the tables' searches diverge
    for k in range(len(x)):
        b_ref, order_ref = _ref_discover(x[k], 5)
        assert tuple(orders[k].tolist()) == order_ref
        if k < 2:  # a singular Gram matrix: least squares, bit for bit
            assert np.array_equal(b[k], b_ref)
        else:
            _assert_weights_match(b[k], b_ref)


@pytest.mark.parametrize("seed", [3, 4])
def test_root_search_block_invariance(monkeypatch, seed):
    x = _diverging_stack(seed)
    whole = _stack_discover(x, 5, destandardize=True)
    for block in (1, 2**40):  # one regressand per block; the whole stack in one block
        monkeypatch.setattr(causal, "_BLOCK_SAMPLES", block)
        blocked = _stack_discover(x, 5, destandardize=True)
        assert np.array_equal(blocked[1], whole[1])
        assert np.array_equal(blocked[0], whole[0])


def test_kernel_memory_is_bounded():
    x = np.stack([_random_lingam_table(1000, 10, k).values for k in range(3)])
    mean, std, _ = dataio.column_stats(x)
    tracemalloc.start()
    try:
        causal._discover(x, mean, std, 9, causal.DEFAULT_PRUNE_THRESHOLD, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def chain_dag():
    return WeightedDag(
        node_names=("x1", "x2", "t"),
        B=np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [0.0, 0.5, 0.0]]),
        causal_order=(0, 1, 2),
        target="t",
    )


def test_rank_features_total_effect_chain():
    assert rank_features(chain_dag(), "t") == (("x2", 0.5), ("x1", pytest.approx(0.35)))


def test_rank_features_no_path_zero_strength():
    dag = WeightedDag(
        node_names=("a", "b", "t"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.8, 0.0]]),
        causal_order=(0, 1, 2),
        target="t",
    )
    assert dict(rank_features(dag, "t"))["a"] == 0.0


def test_rank_features_tie_break_alphabetical():
    dag = WeightedDag(
        node_names=("b", "a", "t"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
        causal_order=(0, 1, 2),
        target="t",
    )
    assert [name for name, _ in rank_features(dag, "t")] == ["a", "b"]


def test_rank_features_unknown_target():
    with pytest.raises(NodeMismatch):
        rank_features(chain_dag(), "zz")


def test_nine_of_twenty_selection():
    # 20 features; exactly 9 have directed paths into the target
    rng = np.random.default_rng(6)
    names = tuple(f"f{i:02d}" for i in range(20)) + ("t",)
    b = np.zeros((21, 21))
    connected = sorted(rng.choice(20, size=9, replace=False))
    for f in connected:
        b[20, f] = rng.uniform(0.3, 1.0)
    dag = WeightedDag(node_names=names, B=b, causal_order=tuple(range(21)), target="t")
    selected = [name for name, _ in rank_features(dag, "t")[:9]]
    assert sorted(selected) == [f"f{i:02d}" for i in connected]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_dag_round_trip(tmp_path):
    table = sample_sem(CHAIN, 2000, target_names=("x3",))
    dag = discover_lingam(table, "x3", destandardize=True)
    p = tmp_path / "dag.csv"
    causal.save_dag(p, dag)
    loaded = causal.load_dag(p)
    assert loaded.node_names == tuple(dag.node_names[i] for i in dag.causal_order)
    for child in dag.node_names:
        for parent in dag.node_names:
            orig = dag.B[dag.index(child), dag.index(parent)]
            back = loaded.B[loaded.index(child), loaded.index(parent)]
            assert back == orig
    assert loaded.target == "x3"
    assert loaded.standardized == dag.standardized
    np.testing.assert_array_equal(
        loaded.node_stds, [dag.node_stds[i] for i in dag.causal_order]
    )


def test_dag_round_trip_keeps_each_nodes_column_stats_when_the_order_is_not_the_identity(
    tmp_path,
):
    # the file lists nodes in causal order (b, a, y); the statistics used to
    # be written in node order, so b was read back with a's mean and std
    dag = WeightedDag(
        node_names=("a", "b", "y"),
        B=np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]),
        causal_order=(1, 0, 2),
        target="y",
        node_means=np.array([-0.008, 48.6, 3.0]),
        node_stds=np.array([0.25, 7.0, 1.5]),
        standardized=False,
    )
    causal.save_dag(tmp_path / "dag.csv", dag)
    loaded = causal.load_dag(tmp_path / "dag.csv")
    assert loaded.node_names == ("b", "a", "y")
    for name in dag.node_names:
        assert loaded.node_means[loaded.index(name)] == dag.node_means[dag.index(name)], name
        assert loaded.node_stds[loaded.index(name)] == dag.node_stds[dag.index(name)], name
        for parent in dag.node_names:
            want = dag.B[dag.index(name), dag.index(parent)]
            assert loaded.B[loaded.index(name), loaded.index(parent)] == want


def test_adjacency_csv(tmp_path):
    dag = chain_dag()
    p = tmp_path / "adj.csv"
    causal.save_adjacency_csv(p, dag)
    lines = p.read_text().splitlines()
    assert lines[0] == "node,x1,x2,t"
    assert lines[2].startswith("x2,0.69999999999999996,0,0")


@pytest.mark.parametrize("text", [
    pytest.param("# causal_order = a,b\nchild,parent,weight\nb,a,inf\n", id="weight"),
    pytest.param("# causal_order = a,b\n# node_stds = 1.0,nan\nchild,parent,weight\nb,a,0.5\n",
                 id="node_stds"),
])
def test_graph_file_holding_a_non_finite_value_is_refused_naming_the_file(tmp_path, text):
    path = tmp_path / "g.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: .* is not finite"):
        causal.load_dag(path)


def test_dag_node_names_are_named_once(tmp_path):
    with pytest.raises(SchemaError, match="^node names: 'a' is named twice$"):
        WeightedDag(("a", "a"), np.zeros((2, 2)), (0, 1))
    path = tmp_path / "g.csv"
    path.write_text("# causal_order = a,b,a\nchild,parent,weight\nb,a,0.5\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="'a' is named twice$"):
        causal.load_dag(path)
