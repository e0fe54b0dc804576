import numpy as np
import pytest

from causal_al import causal
from causal_al.causal import (
    FeatureRanking,
    WeightedDag,
    discover_lingam,
    fit_sem_weights,
    rank_features,
    select_top_k,
)
from causal_al.errors import (
    ConfigError,
    CyclicGraph,
    InsufficientData,
    MissingColumn,
    NodeMismatch,
)
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


def test_missing_target():
    table = sample_sem(CHAIN, 100)
    with pytest.raises(MissingColumn):
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
# same entropy approximation and fallbacks as the array search in `causal`.


def _ref_entropy(u):
    return (
        (1.0 + np.log(2.0 * np.pi)) / 2.0
        - causal._K1 * (np.mean(causal._log_cosh(u)) - causal._GAMMA) ** 2
        - causal._K2 * np.mean(u * np.exp(-(u**2) / 2.0)) ** 2
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


def _ref_most_exogenous(xw, remaining, candidates):
    cols = {i: _ref_standardize(xw[:, i]) for i in remaining}
    ent = {i: _ref_entropy(cols[i]) for i in remaining}
    best_i, best_score = candidates[0], -np.inf
    for i in candidates:
        penalty = 0.0
        for j in remaining:
            if j == i:
                continue
            r_ij = _ref_standardize(_ref_residual(cols[i], cols[j]))
            r_ji = _ref_standardize(_ref_residual(cols[j], cols[i]))
            lr = (ent[j] + _ref_entropy(r_ij)) - (ent[i] + _ref_entropy(r_ji))
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


@pytest.mark.parametrize("n,d", [(13, 3), (20, 10), (60, 5), (300, 8), (1000, 10)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_root_search_matches_scalar_reference(n, d, seed):
    table = _random_lingam_table(n, d, seed)
    target = table.feature_names[seed % d]
    dag = discover_lingam(table, target)
    b_ref, order_ref = _ref_discover(table.values, table.index(target))
    assert dag.causal_order == order_ref
    assert np.array_equal(dag.B, b_ref)


@pytest.mark.parametrize("seed", [5, 57, 143, 197, 209])
def test_exactly_collinear_columns_match_scalar_reference(seed):
    # x1..x3 are exact multiples of x0: zero pairwise residuals at the first
    # step, then all-zero working columns (zero-variance regressors) once one
    # of them is a root. Which duplicate goes first is decided by rounding;
    # on these seeds a residual without the mean fallback, or covariances
    # from a matrix product, pick a different one.
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
    assert causal._most_exogenous(w, remaining, candidates) == expected


@pytest.mark.parametrize("seed", [3, 4])
def test_root_search_block_invariance(monkeypatch, seed):
    table = _random_lingam_table(200, 6, seed)
    whole = discover_lingam(table, "x5")
    monkeypatch.setattr(causal, "_BLOCK_SAMPLES", 1)  # one regressand per block
    blocked = discover_lingam(table, "x5")
    assert blocked.causal_order == whole.causal_order
    assert np.array_equal(blocked.B, whole.B)


# ---------------------------------------------------------------------------
# weight refitting
# ---------------------------------------------------------------------------


def test_fit_sem_weights_exact_noiseless_line():
    x = np.linspace(-3, 3, 50)
    table = make_table(np.column_stack([x, 2.0 * x]), ("x", "y"), target_names=("y",))
    structure = WeightedDag(
        node_names=("x", "y"),
        B=np.array([[0.0, 0.0], [1.0, 0.0]]),  # structure only: y <- x
        causal_order=(0, 1),
        target="y",
    )
    refit = fit_sem_weights(table, structure)
    assert refit.B[1, 0] == pytest.approx(2.0, abs=1e-9)
    assert refit.residual_variances[1] == pytest.approx(0.0, abs=1e-18)


def test_fit_sem_weights_parentless_node_variance():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(100, 2))
    table = make_table(vals, ("a", "b"))
    structure = WeightedDag(("a", "b"), np.zeros((2, 2)), (0, 1))
    refit = fit_sem_weights(table, structure)
    assert refit.residual_variances[0] == pytest.approx(np.var(vals[:, 0], ddof=1))
    assert refit.residual_variances[1] == pytest.approx(np.var(vals[:, 1], ddof=1))


def test_fit_sem_weights_chain_frozen():
    table = sample_sem(CHAIN, 5000, target_names=("x3",))
    structure = discover_lingam(table, "x3", prune_threshold=0.05)
    refit = fit_sem_weights(table, structure)
    assert refit.B[1, 0] == pytest.approx(0.7120521635089008, abs=1e-6)
    assert refit.B[2, 1] == pytest.approx(0.5125522092879528, abs=1e-6)
    assert abs(refit.B[1, 0] - 0.7) < 0.03
    assert abs(refit.B[2, 1] - 0.5) < 0.03


def test_fit_sem_weights_collinear_ridge_flag():
    rng = np.random.default_rng(9)
    a = rng.normal(size=200)
    table = make_table(
        np.column_stack([a, a, a + rng.normal(size=200)]), ("a", "b", "y")
    )
    structure = WeightedDag(
        node_names=("a", "b", "y"),
        B=np.array([[0, 0, 0], [0, 0, 0], [1, 1, 0]], dtype=float),
        causal_order=(0, 1, 2),
        target="y",
    )
    refit = fit_sem_weights(table, structure)
    assert refit.ridge_flagged == ("y",)
    assert np.isfinite(refit.B).all()


def test_fit_sem_weights_rejects_cycle():
    table = make_table(np.random.default_rng(0).normal(size=(30, 2)), ("a", "b"))
    cyclic = WeightedDag(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
    with pytest.raises(CyclicGraph):
        fit_sem_weights(table, cyclic)


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
    ranking = rank_features(chain_dag(), "t")
    assert ranking.entries == (("x2", 0.5), ("x1", pytest.approx(0.35)))


def test_rank_features_direct_mode():
    ranking = rank_features(chain_dag(), "t", mode="direct")
    assert ranking.entries[0] == ("x2", 0.5)
    assert ranking.entries[1][1] == 0.0  # x1 has no direct edge to t


def test_rank_features_no_path_zero_strength():
    dag = WeightedDag(
        node_names=("a", "b", "t"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.8, 0.0]]),
        causal_order=(0, 1, 2),
        target="t",
    )
    ranking = rank_features(dag, "t")
    assert dict(ranking.entries)["a"] == 0.0


def test_rank_features_tie_break_alphabetical():
    dag = WeightedDag(
        node_names=("b", "a", "t"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
        causal_order=(0, 1, 2),
        target="t",
    )
    assert rank_features(dag, "t").names() == ("a", "b")


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
    ranking = rank_features(dag, "t")
    selected = select_top_k(ranking, 9)
    assert sorted(selected) == [f"f{i:02d}" for i in connected]


def test_select_top_k_bounds():
    ranking = FeatureRanking(entries=(("a", 2.0), ("b", 1.0)))
    assert select_top_k(ranking, 2) == ("a", "b")
    with pytest.raises(ConfigError):
        select_top_k(ranking, 0)
    with pytest.raises(ConfigError):
        select_top_k(ranking, 3)


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


def test_adjacency_csv(tmp_path):
    dag = chain_dag()
    p = tmp_path / "adj.csv"
    causal.save_adjacency_csv(p, dag)
    lines = p.read_text().splitlines()
    assert lines[0] == "node,x1,x2,t"
    assert lines[2].startswith("x2,0.69999999999999996,0,0")
