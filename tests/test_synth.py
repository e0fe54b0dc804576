import numpy as np
import pytest

from causal_al.errors import ConfigError, CyclicGraph, NodeMismatch
from causal_al.intervene import total_effects
from causal_al.synth import SemSpec, make_heterogeneous_world, perturb_spec, sample_sem
from tests.conftest import modules_after

CHAIN = SemSpec(
    node_names=("x1", "x2", "x3"),
    edges=(("x1", "x2", 0.7), ("x2", "x3", 0.5)),
    noises=(("uniform", 1.0), ("uniform", 0.5), ("uniform", 0.5)),
    seed=7,
)


def test_cyclic_spec_rejected():
    with pytest.raises(CyclicGraph):
        SemSpec(
            node_names=("a", "b"),
            edges=(("a", "b", 0.5), ("b", "a", 0.5)),
            noises=(("uniform", 1.0), ("uniform", 1.0)),
        )


def test_bad_noise_rejected():
    with pytest.raises(ConfigError):
        SemSpec(("a",), (), (("uniform", 0.0),))
    for family in ("cauchy", "laplace"):
        with pytest.raises(ConfigError, match=f"^unknown noise family '{family}'$"):
            SemSpec(("a",), (), ((family, 1.0),))


def test_zero_rows_gives_empty_table():
    table = sample_sem(CHAIN, 0)
    assert table.n_rows == 0
    assert table.feature_names == ("x1", "x2", "x3")


def test_seed_determinism():
    a = sample_sem(CHAIN, 100)
    b = sample_sem(CHAIN, 100)
    assert np.array_equal(a.values, b.values)


def test_zero_edge_spec_has_uncorrelated_columns():
    spec = SemSpec(
        node_names=("a", "b", "c"),
        edges=(),
        noises=(("uniform", 1.0), ("gaussian", 1.0), ("uniform", 2.0)),
        seed=13,
    )
    table = sample_sem(spec, 5000)
    corr = np.corrcoef(table.values, rowvar=False)
    off_diag = corr[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off_diag) < 0.1)


def analytic_covariance(spec: SemSpec) -> np.ndarray:
    """Model covariance (I-B)^-1 D (I-B)^-T with D the noise variances."""
    # uniform on [-s, s] has variance s^2 / 3; gaussian, s^2
    var = [s**2 / 3.0 if family == "uniform" else s**2 for family, s in spec.noises]
    inv = np.eye(len(spec.node_names)) + total_effects(spec.true_dag())
    return inv @ np.diag(var) @ inv.T


def test_chain_sample_covariance_matches_analytic():
    table = sample_sem(CHAIN, 5000)
    sample_cov = np.cov(table.values, rowvar=False)
    model_cov = analytic_covariance(CHAIN)
    # within 5% of the analytic scale at n=5000
    assert np.all(np.abs(sample_cov - model_cov) < 0.05 * np.max(np.abs(model_cov)))


def test_true_dag_matches_spec():
    dag = CHAIN.true_dag(target="x3")
    assert dag.B[1, 0] == 0.7 and dag.B[2, 1] == 0.5
    dag.validate()
    assert dag.target == "x3"


def test_perturb_scalar():
    scaled = perturb_spec(CHAIN, 2.0, seed=1)
    assert scaled.edges[0][2] == pytest.approx(1.4)
    assert scaled.edges[1][2] == pytest.approx(1.0)


def test_heterogeneous_world_shapes():
    subsets, glob, dag = make_heterogeneous_world(
        3, CHAIN, [0.5, 1.0, 1.5], seed=3, n_rows=50, global_rows=80, target="x3"
    )
    assert len(subsets) == 3
    assert all(s.n_rows == 50 for s in subsets)
    assert glob.n_rows == 80
    assert dag.target == "x3"
    ids = [rid for s in subsets for rid in s.row_ids]
    assert len(set(ids)) == len(ids)
    assert all(s.target_names == ("x3",) for s in subsets)


def test_zero_perturbation_subsets_statistically_identical():
    subsets, _, _ = make_heterogeneous_world(
        3, CHAIN, [1.0, 1.0, 1.0], seed=5, n_rows=4000, target="x3"
    )
    means = np.array([s.values.mean(axis=0) for s in subsets])
    covs = np.array([np.cov(s.values, rowvar=False) for s in subsets])
    assert np.all(np.abs(means - means[0]) < 0.08)
    assert np.all(np.abs(covs - covs[0]) < 0.08)


def test_wrong_perturbation_count():
    with pytest.raises(ConfigError):
        make_heterogeneous_world(3, CHAIN, [1.0, 1.0], seed=0, n_rows=10)


def test_synth_import_leaves_the_planner_unloaded():
    # the synth stage only samples; the planner is loaded by the stages that plan
    assert "causal_al.intervene" not in modules_after("import causal_al.synth")


def test_spec_node_names_are_named_once():
    # the edge used to be wired to the second `a`
    with pytest.raises(ConfigError, match="^node names: 'a' is named twice$"):
        SemSpec(("a", "a", "y"), (("a", "y", 0.5),), tuple(("uniform", 1.0) for _ in range(3)))


@pytest.mark.parametrize("edges, error", [
    # the second weight used to replace the first without a word
    ((("a", "y", 0.5), ("a", "y", 0.9)), "^edges: 'y<-a' is named twice$"),
    ((("a", "zz", 0.5),), "^edges: 'zz' is not one of a,y$"),
])
def test_spec_edge_with_an_unknown_node_or_listed_twice_is_refused(edges, error):
    with pytest.raises(NodeMismatch, match=error):
        SemSpec(("a", "y"), edges, (("uniform", 1.0), ("uniform", 1.0)))
