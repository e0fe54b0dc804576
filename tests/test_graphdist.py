import numpy as np
import pytest

from causal_al.causal import WeightedDag
from causal_al.errors import NodeMismatch
from causal_al.graphdist import spectral_distance, spectrum


def dag_from_b(b, names=None, order=None):
    b = np.asarray(b, dtype=np.float64)
    d = b.shape[0]
    names = tuple(names or (f"n{i}" for i in range(d)))
    return WeightedDag(node_names=names, B=b, causal_order=tuple(order or range(d)))


def random_dag(rng, names):
    # random strictly-lower-triangular weights under a random node order
    d = len(names)
    perm = rng.permutation(d)
    b = np.zeros((d, d))
    for i in range(d):
        for j in range(i):
            if rng.random() < 0.5:
                b[perm[i], perm[j]] = rng.normal()
    return WeightedDag(node_names=tuple(names), B=b, causal_order=tuple(perm))


def test_spectrum_zero_graph():
    dag = dag_from_b(np.zeros((2, 2)))
    assert np.array_equal(spectrum(dag, 3), [0.0, 0.0, 0.0])


def test_spectrum_single_edge():
    # singular values of [[0, 0], [2, 0]] are (2, 0)
    dag = dag_from_b([[0.0, 0.0], [2.0, 0.0]])
    assert np.allclose(spectrum(dag, 2), [2.0, 0.0])


def test_spectrum_symmetric_two_cycle():
    # general-matrix check: [[0, 1], [1, 0]] has singular values (1, 1);
    # acyclicity is only enforced by validate(), so this constructs fine
    cycle = dag_from_b([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(spectrum(cycle, 2), [1.0, 1.0])


def test_distance_identical_graphs_zero():
    rng = np.random.default_rng(0)
    dag = random_dag(rng, ["a", "b", "c", "d"])
    assert spectral_distance(dag, dag) == 0.0


def test_distance_single_edge_hand_value():
    g1 = dag_from_b([[0.0, 0.0], [1.0, 0.0]], names=("a", "b"))
    g2 = dag_from_b([[0.0, 0.0], [2.0, 0.0]], names=("a", "b"))
    assert spectral_distance(g1, g2, n=2) == pytest.approx(1.0, abs=1e-12)


def test_distance_symmetry_on_random_graphs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g1 = random_dag(rng, ["a", "b", "c", "d", "e"])
        g2 = random_dag(rng, ["a", "b", "c", "d", "e"])
        d12 = spectral_distance(g1, g2)
        d21 = spectral_distance(g2, g1)
        assert d12 == pytest.approx(d21, abs=1e-12)
        assert d12 >= 0.0


def test_distance_node_relabeling_invariance():
    rng = np.random.default_rng(2)
    names = ["a", "b", "c", "d"]
    g1 = random_dag(rng, names)
    g2 = random_dag(rng, names)
    base = spectral_distance(g1, g2)
    # permute g1's storage order without changing the graph
    perm = [2, 0, 3, 1]
    inv = np.argsort(perm)
    b_perm = g1.B[np.ix_(perm, perm)]
    g1_perm = WeightedDag(
        node_names=tuple(names[i] for i in perm),
        B=b_perm,
        causal_order=tuple(int(inv[i]) for i in g1.causal_order),
    )
    assert spectral_distance(g1_perm, g2) == pytest.approx(base, abs=1e-10)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g1, g2, g3 = (random_dag(rng, ["a", "b", "c", "d"]) for _ in range(3))
        d12 = spectral_distance(g1, g2)
        d23 = spectral_distance(g2, g3)
        d13 = spectral_distance(g1, g3)
        assert d13 <= d12 + d23 + 1e-12


def test_distance_zero_does_not_imply_equality():
    # cospectral pair: the two single-edge orientations share singular values
    g1 = dag_from_b([[0.0, 0.0], [1.0, 0.0]], names=("a", "b"))
    g2 = dag_from_b([[0.0, 1.0], [0.0, 0.0]], names=("a", "b"), order=(1, 0))
    assert not np.array_equal(g1.B, g2.B)
    assert spectral_distance(g1, g2) == 0.0


def test_distance_disjoint_nodes():
    g1 = dag_from_b(np.zeros((2, 2)), names=("a", "b"))
    g2 = dag_from_b(np.zeros((2, 2)), names=("c", "d"))
    with pytest.raises(NodeMismatch):
        spectral_distance(g1, g2)


def test_distance_partial_overlap_pads_with_zeros():
    g1 = dag_from_b([[0.0, 0.0], [1.0, 0.0]], names=("a", "b"))
    g2 = dag_from_b(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], names=("a", "b", "c")
    )
    assert spectral_distance(g1, g2) == pytest.approx(0.0, abs=1e-12)


def test_top_n_truncation():
    g1 = dag_from_b([[0, 0, 0], [1, 0, 0], [0, 2, 0]], names=("a", "b", "c"))
    g2 = dag_from_b(np.zeros((3, 3)), names=("a", "b", "c"))
    full = spectral_distance(g1, g2)
    top1 = spectral_distance(g1, g2, n=1)
    assert top1 <= full
    assert top1 == pytest.approx(spectrum(g1, 1)[0], abs=1e-12)
