import dataclasses
import re

import numpy as np
import pytest

from causal_al import cluster, dataio
from causal_al.cli import run_cli
from causal_al.cluster import assign_subsets, fit_gmm, responsibilities
from causal_al.errors import (
    DegenerateComponent,
    DegenerateFeature,
    InsufficientData,
    MissingColumn,
    SchemaError,
)
from tests.conftest import make_table


def two_cluster_table():
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(-10, 0.5, 200), rng.normal(10, 0.5, 200)])
    return make_table(pts[:, None], ("p",))


def _three_cluster_fit():
    """Converges after 41 iterations."""
    rng = np.random.default_rng(5)
    mix = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
    x = np.concatenate([rng.normal(m, 1.0, (80, 3)) for m in (-3.0, 0.0, 4.0)]) @ mix
    return fit_gmm(make_table(x, ("a", "b", "c")), ("a", "b", "c"), n_components=3, seed=2)


@pytest.fixture(scope="module")
def quick_start_fit(tmp_path_factory):
    """The `cluster` stage's fit on the README quick start's world, which
    runs to EM_MAX_ITER."""
    work = tmp_path_factory.mktemp("work")
    assert run_cli(["synth", "-o", str(work), "--seed", "7"]) == 0
    table, _ = dataio.load_feature_table(work / "features.csv",
                                         dataio.read_schema(work / "schema.cfg"))
    return fit_gmm(table, table.plain_feature_names[:3], n_components=3, seed=7)


def test_two_cluster_recovery():
    model = fit_gmm(two_cluster_table(), ("p",), n_components=2, seed=7)
    means = np.sort(model.means.ravel())
    # frozen fitted means for this seeded generator
    assert means[0] == pytest.approx(-9.97584124, abs=1e-6)
    assert means[1] == pytest.approx(10.00977749, abs=1e-6)
    assert abs(means[0] + 10.0) < 0.3 and abs(means[1] - 10.0) < 0.3


def test_single_component_is_sample_mean():
    table = make_table(np.random.default_rng(1).normal(2.5, 1.0, (300, 1)), ("p",))
    model = fit_gmm(table, ("p",), n_components=1, seed=0)
    assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert model.means[0, 0] == pytest.approx(table.values.mean(), abs=1e-8)


def test_fewer_rows_than_components():
    table = make_table([[1.0], [2.0]], ("p",))
    with pytest.raises(InsufficientData):
        fit_gmm(table, ("p",), n_components=3)


def test_missing_pivot():
    table = make_table([[1.0], [2.0], [3.0]], ("p",))
    with pytest.raises(MissingColumn):
        fit_gmm(table, ("q",), n_components=1)


def test_constant_pivot_degenerate():
    table = make_table([[1.0], [1.0], [1.0], [1.0]], ("p",))
    with pytest.raises(DegenerateFeature):
        fit_gmm(table, ("p",), n_components=1)


def test_fewer_distinct_rows_than_components_fits_and_labels_every_row():
    # k-means++ runs out of rows at any distance and seeds the third
    # component on a row already taken
    table = make_table([[0.0, 1.0]] * 50 + [[3.0, -2.0]] * 50, ("p", "q"))
    model = fit_gmm(table, ("p", "q"), n_components=3, seed=0)
    assert model.weights.tolist() == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    labels = assign_subsets(model, table)
    assert len(labels) == 100 and len(set(labels[:50])) == len(set(labels[50:])) == 1
    assert labels[0] != labels[50]


def test_log_likelihood_monotone():
    model = fit_gmm(two_cluster_table(), ("p",), n_components=2, seed=7)
    ll = np.array(model.log_likelihoods)
    assert len(ll) >= 2
    assert np.all(np.diff(ll) >= -1e-8)


def test_em_converged_tells_tolerance_stop_from_max_iter(quick_start_fit):
    stopped = _three_cluster_fit()
    assert len(stopped.log_likelihoods) == 41 and stopped.converged
    assert len(quick_start_fit.log_likelihoods) == cluster.EM_MAX_ITER
    assert not quick_start_fit.converged


def test_converged_is_judged_by_the_fits_own_tolerance(quick_start_fit):
    # EM stops at the first gain below EM_TOL, and only there
    for model in (_three_cluster_fit(), quick_start_fit):
        gains = np.diff(model.log_likelihoods)
        assert np.all(gains[:-1] >= cluster.EM_TOL)
        assert model.converged == (gains[-1] < cluster.EM_TOL)


def test_responsibilities_sum_to_one():
    table = two_cluster_table()
    model = fit_gmm(table, ("p",), n_components=2, seed=7)
    resp = responsibilities(model, table)
    assert np.all(np.abs(resp.sum(axis=1) - 1.0) < 1e-9)


def test_refit_bit_identical():
    table = two_cluster_table()
    m1 = fit_gmm(table, ("p",), n_components=2, seed=7)
    m2 = fit_gmm(table, ("p",), n_components=2, seed=7)
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(m1.covariances, m2.covariances)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.log_likelihoods == m2.log_likelihoods


def test_covariance_floor_in_standardized_space():
    table = two_cluster_table()
    model = fit_gmm(table, ("p",), n_components=2, seed=7)
    inv_scale = np.diag(1.0 / model.pivot_stds)
    for cov in model.covariances:
        std_cov = inv_scale @ cov @ inv_scale
        assert np.all(np.linalg.eigvalsh(std_cov) >= cluster.COVARIANCE_FLOOR - 1e-12)
        assert np.allclose(std_cov, std_cov.T)


def test_weights_simplex():
    model = fit_gmm(two_cluster_table(), ("p",), n_components=2, seed=7)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(model.weights >= 0.0)


def test_assignment_at_component_mean():
    table = two_cluster_table()
    model = fit_gmm(table, ("p",), n_components=2, seed=7)
    probe = make_table(model.means[1][None, :], ("p",))
    assert assign_subsets(model, probe)[0] == 1


def test_assignment_tie_breaks_to_lowest_index():
    # two identical-weight symmetric components; the midpoint is equidistant
    model = cluster.GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-1.0], [1.0]]),
        covariances=np.array([[[1.0]], [[1.0]]]),
        pivot_features=("p",),
        pivot_means=np.array([0.0]),
        pivot_stds=np.array([1.0]),
        seed=0,
        log_likelihoods=(),
        converged=False,
    )
    probe = make_table([[0.0]], ("p",))
    assert assign_subsets(model, probe)[0] == 0


def test_assignment_partitions_table():
    table = two_cluster_table()
    model = fit_gmm(table, ("p",), n_components=2, seed=7)
    labels = assign_subsets(model, table)
    assert labels.shape == (table.n_rows,)
    assert set(labels) <= {0, 1}


def test_multivariate_fit_with_correlated_pivots():
    rng = np.random.default_rng(5)
    a = rng.normal(size=500)
    b = 0.8 * a + rng.normal(scale=0.3, size=500)
    c = rng.normal(size=500) * 50.0 + 100.0  # wildly different scale
    table = make_table(np.column_stack([a, b, c]), ("p1", "p2", "p3"))
    model = fit_gmm(table, ("p1", "p2", "p3"), n_components=3, seed=1)
    ll = np.array(model.log_likelihoods)
    assert np.all(np.diff(ll) >= -1e-8)
    labels = assign_subsets(model, table)
    assert len(set(labels.tolist())) >= 2


def test_labels_round_trip(tmp_path):
    p = tmp_path / "subsets.csv"
    cluster.write_labels(p, ("a", "b", "c"), [0, 2, 1])
    assert cluster.read_labels(p) == {"a": 0, "b": 2, "c": 1}


def test_labels_naming_a_row_twice_are_refused_naming_the_file(tmp_path):
    # the last label used to win without a word
    p = tmp_path / "subsets.csv"
    p.write_text("id,subset\na,0\na,1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}: 'a' is named twice$"):
        cluster.read_labels(p)


def _ref_logsumexp_rows(a):
    # the per-row normalizer the fit used before the batched kernel,
    # identical to scipy.special.logsumexp(a, axis=1)
    a_max = np.max(a, axis=1, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=1, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        direct = np.log(np.sum(np.exp(a), axis=1, keepdims=True))
    return np.squeeze(np.where(np.isfinite(out), out, direct), axis=1)


def _ref_log_gauss(z, mean, cov):
    # one component at a time, rows of z, a general solve on the factor
    chol = np.linalg.cholesky(cov)
    sol = np.linalg.solve(chol, (z - mean).T)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (z.shape[1] * np.log(2.0 * np.pi) + log_det + np.sum(sol**2, axis=0))


def _ref_log_probs(z, weights, means, covs):
    return np.column_stack(
        [np.log(w) + _ref_log_gauss(z, m, c) for w, m, c in zip(weights, means, covs)]
    )


def _random_mixture(rng, k, d, n):
    a = rng.normal(size=(k, d, d))
    covs = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d)
    weights = rng.dirichlet(np.ones(k))
    return rng.normal(0.0, 3.0, (n, d)), weights, rng.normal(0.0, 2.0, (k, d)), covs


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_batched_kernel_matches_per_component_reference(d, k):
    rng = np.random.default_rng(10 * d + k)
    z, weights, means, covs = _random_mixture(rng, k, d, 400)
    ref = _ref_log_probs(z, weights, means, covs)
    got = cluster._log_probs(np.ascontiguousarray(z.T), weights, means, covs)
    np.testing.assert_allclose(got, ref.T, rtol=1e-13, atol=0.0)

    model = cluster.GmmModel(
        weights=weights, means=means, covariances=covs,
        pivot_features=tuple(f"p{j}" for j in range(d)),
        pivot_means=np.zeros(d), pivot_stds=np.ones(d), seed=0, log_likelihoods=(),
        converged=False,
    )
    table = make_table(z, model.pivot_features)
    want = np.exp(ref - _ref_logsumexp_rows(ref)[:, None])
    # exp turns the exponent's absolute rounding into relative error, so
    # responsibilities far below 1 are compared in absolute terms
    np.testing.assert_allclose(responsibilities(model, table), want, rtol=1e-13, atol=1e-15)
    assert np.array_equal(assign_subsets(model, table), np.argmax(want, axis=1))


def test_one_non_positive_definite_component_is_degenerate():
    rng = np.random.default_rng(4)
    z, weights, means, covs = _random_mixture(rng, 3, 2, 50)
    covs[1] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3 and -1
    with pytest.raises(DegenerateComponent, match="not positive definite"):
        cluster._log_probs(np.ascontiguousarray(z.T), weights, means, covs)


def test_log_normalizer_against_direct_formula_and_scipy():
    norm = cluster._log_normalizer
    # the max shift keeps exp from overflowing or underflowing to log(0)
    big = np.array([[1000.0, -1000.0, 1000.0], [1000.0, -1000.0, -1000.0]])
    assert norm(big).tolist() == [1000.0 + np.log(2.0), -1000.0 + np.log(2.0), 1000.0]
    rng = np.random.default_rng(0)
    moderate = rng.normal(scale=5.0, size=(4, 300))
    direct = np.log(np.sum(np.exp(moderate), axis=0))
    np.testing.assert_allclose(norm(moderate), direct, rtol=1e-14, atol=0.0)
    # a column of nothing but -inf has no normalizer; the fit reports divergence
    col = np.array([[-np.inf, 0.0], [-np.inf, 0.0]])
    assert np.isnan(norm(col)[0]) and norm(col)[1] == np.log(2.0)
    special = pytest.importorskip("scipy.special")
    wide = rng.normal(scale=30.0, size=(5, 300))
    np.testing.assert_allclose(norm(wide), special.logsumexp(wide, axis=0), rtol=1e-15, atol=0.0)


def test_fixed_fit_log_likelihood_trajectory_unchanged():
    # the first 12 values, recorded from the same fit with
    # scipy.special.logsumexp and a solve per component; the batched kernel
    # rounds differently in the last bits
    recorded = [float.fromhex(h) for h in (
        "-0x1.f883b3b0c014bp+8", "-0x1.bbd99414bb0b8p+8", "-0x1.b6641d053a620p+8",
        "-0x1.b3e66855014b2p+8", "-0x1.b2a585efcd7d5p+8", "-0x1.b1b95d9401790p+8",
        "-0x1.b0a288c83829ap+8", "-0x1.aee73f28ad6b9p+8", "-0x1.ab99cf193b99bp+8",
        "-0x1.a43febe1ba9e2p+8", "-0x1.92be7ef9a628ep+8", "-0x1.81e41d885152dp+8",
    )]
    np.testing.assert_allclose(_three_cluster_fit().log_likelihoods[:12], recorded,
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("pivots, match", [
    (("p", "p"), "^pivot features: 'p' is named twice$"),
    (("p", "q"), "^pivot features: 'q' is not one of p$"),
])
def test_pivot_features_are_known_and_named_once(pivots, match):
    # a repeated pivot used to run EM on two copies of one column
    table = two_cluster_table()
    with pytest.raises(MissingColumn, match=match):
        fit_gmm(table, pivots, n_components=2)
    model = fit_gmm(table, ("p",), n_components=2, seed=7)
    with pytest.raises(MissingColumn, match=match):
        responsibilities(dataclasses.replace(model, pivot_features=pivots), table)


@pytest.mark.parametrize("key, at, value, match", [
    ("weights", (1,), np.nan, r"^weights: component 1 is not finite \(nan\)$"),
    ("means", (1, 0), np.inf, r"^means: component 1 is not finite \(inf\)$"),
    ("covariances", (0, 1, 1), np.nan, r"^covariances: component 0 is not finite \(nan\)$"),
    ("pivot_means", (1,), -np.inf, r"^pivot_means: 'q' is not finite \(-inf\)$"),
    ("pivot_stds", (0,), np.nan, r"^pivot_stds: 'p' is not finite \(nan\)$"),
])
def test_model_refuses_non_finite_parameters(key, at, value, match):
    # no stage may write a mixture holding a value that is not finite
    rng = np.random.default_rng(5)
    table = make_table(rng.normal(size=(200, 2)), ("p", "q"))
    model = fit_gmm(table, ("p", "q"), n_components=2, seed=1)
    bad = getattr(model, key).copy()
    bad[at] = value
    with pytest.raises(SchemaError, match=match):
        dataclasses.replace(model, **{key: bad})
