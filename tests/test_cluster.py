import numpy as np
import pytest

from causal_al import cluster
from causal_al.cluster import assign_subsets, fit_gmm, responsibilities
from causal_al.errors import DegenerateFeature, InsufficientData, MissingColumn
from tests.conftest import make_table


def two_cluster_table():
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(-10, 0.5, 200), rng.normal(10, 0.5, 200)])
    return make_table(pts[:, None], ("p",))


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


def test_log_likelihood_monotone():
    model = fit_gmm(two_cluster_table(), ("p",), n_components=2, seed=7)
    ll = np.array(model.log_likelihoods)
    assert len(ll) >= 2
    assert np.all(np.diff(ll) >= -1e-8)


def test_em_converged_tells_tolerance_stop_from_max_iter():
    table = two_cluster_table()
    stopped = fit_gmm(table, ("p",), n_components=2, seed=7)
    assert len(stopped.log_likelihoods) < 200 and cluster.em_converged(stopped)
    capped = fit_gmm(table, ("p",), n_components=2, seed=7, max_iter=2)
    assert len(capped.log_likelihoods) == 2 and not cluster.em_converged(capped)
    # the same trajectory read against a looser tolerance did converge
    assert cluster.em_converged(capped, tol=1e3)


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


def test_logsumexp_bit_identical_to_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(0)
    plain = rng.normal(scale=30.0, size=(200, 5))
    tied = rng.normal(size=(60, 4))
    tied[:, 2] = tied.max(axis=1)  # two maxima per row
    tied[:10] = 1.5                # every entry a maximum
    with_inf = rng.normal(size=(60, 6))
    with_inf[rng.random(with_inf.shape) < 0.4] = -np.inf
    with_inf[0] = -np.inf          # nothing but -inf
    for a in (plain, tied, with_inf):
        for axis in (1, 0):
            got = cluster.logsumexp(a, axis=axis)
            assert got.tobytes() == special.logsumexp(a, axis=axis).tobytes()


def test_fixed_fit_log_likelihood_trajectory_unchanged():
    # recorded from the same fit with scipy.special.logsumexp
    rng = np.random.default_rng(5)
    mix = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
    x = np.concatenate([rng.normal(m, 1.0, (80, 3)) for m in (-3.0, 0.0, 4.0)]) @ mix
    model = fit_gmm(make_table(x, ("a", "b", "c")), ("a", "b", "c"),
                    n_components=3, seed=2, max_iter=12)
    assert [v.hex() for v in model.log_likelihoods] == [
        "-0x1.f883b3b0c014bp+8", "-0x1.bbd99414bb0b8p+8", "-0x1.b6641d053a620p+8",
        "-0x1.b3e66855014b2p+8", "-0x1.b2a585efcd7d5p+8", "-0x1.b1b95d9401790p+8",
        "-0x1.b0a288c83829ap+8", "-0x1.aee73f28ad6b9p+8", "-0x1.ab99cf193b99bp+8",
        "-0x1.a43febe1ba9e2p+8", "-0x1.92be7ef9a628ep+8", "-0x1.81e41d885152dp+8",
    ]
