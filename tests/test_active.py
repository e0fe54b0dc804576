import numpy as np
import pytest

from causal_al import active
from causal_al.active import (
    active_learn,
    random_baseline,
    selection_counts,
    summarize_runs,
)
from causal_al.dataio import FeatureTable
from causal_al.errors import ConfigError, DuplicateRowId, InsufficientData, MissingColumn
from causal_al.synth import SemSpec, make_heterogeneous_world

NODES = ("f1", "f2", "f3", "y")
EDGES = (("f1", "f2", 0.8), ("f2", "f3", 0.6), ("f3", "y", 0.7), ("f1", "y", -0.4))
SPEC = SemSpec(NODES, EDGES, tuple(("uniform", 0.5) for _ in NODES), seed=0)


def small_world(n_rows=400, perturbations=(0.3, 1.0, 1.9), seed=17):
    return make_heterogeneous_world(
        len(perturbations), SPEC, perturbations, seed=seed, n_rows=n_rows, target="y"
    )


def test_single_subset_no_choice():
    subsets, _, dag = small_world(perturbations=(1.0,))
    run = active_learn(subsets, dag, "y", m=30, n_iter=4, seed=2)
    assert all(rec.chosen == 0 for rec in run.records)
    losses = [rec.loss for rec in run.records]
    assert losses[-1] <= losses[0]  # more data, closer graph


def test_single_subset_random_identical_to_active():
    # with one subset both modes sample the same rows from the same streams
    subsets, _, dag = small_world(perturbations=(1.0,))
    a = active_learn(subsets, dag, "y", m=30, n_iter=4, seed=2)
    b = random_baseline(subsets, dag, "y", m=30, n_iter=4, seed=2)
    assert a.records == b.records
    assert a.selected_row_ids == b.selected_row_ids


def test_m_zero_rejected():
    subsets, _, dag = small_world()
    with pytest.raises(ConfigError):
        active_learn(subsets, dag, "y", m=0, n_iter=3)


def test_insufficient_subset_rows():
    subsets, _, dag = small_world(n_rows=50)
    with pytest.raises(InsufficientData):
        active_learn(subsets, dag, "y", m=30, n_iter=3, seed=0)


def test_missing_feature():
    subsets, _, dag = small_world()
    with pytest.raises(MissingColumn):
        active_learn(subsets, dag, "y", features=("f1", "ghost", "y"), m=20, n_iter=2)


def test_constant_column_subset_scores_inf_without_aborting():
    # subset 2 holds f1 constant, so its first candidate has a zero-variance column
    subsets, _, dag = small_world()
    sub = subsets[2]
    values = sub.values.copy()
    values[:, sub.index("f1")] = 1.5
    subsets[2] = FeatureTable(sub.row_ids, sub.feature_names, values, sub.target_names)
    run = active_learn(subsets, dag, "y", m=30, n_iter=3, seed=4)
    first = run.records[0]
    assert first.losses[2] == float("inf")
    assert np.isfinite(first.losses[:2]).all()
    assert first.chosen != 2
    assert len(run.records) == 3


def test_duplicate_ids_across_subsets_rejected():
    subsets, _, dag = small_world(perturbations=(1.0, 1.0))
    with pytest.raises(DuplicateRowId):
        active_learn([subsets[0], subsets[0]], dag, "y", m=20, n_iter=2)


def test_run_record_shape_and_growth():
    subsets, _, dag = small_world()
    run = active_learn(subsets, dag, "y", m=25, n_iter=5, seed=4)
    assert run.n_iter == 5 and len(run.records) == 5
    for n, rec in enumerate(run.records):
        assert rec.size == (n + 1) * 25  # strict growth by M
        assert len(rec.losses) == 3
        assert rec.loss == min(rec.losses)  # greedy optimality
        assert rec.chosen == int(np.argmin(rec.losses))
    assert len(run.selected_row_ids) == 125
    assert len(set(run.selected_row_ids)) == 125  # without replacement


def test_snapshot_ids_prefixes():
    subsets, _, dag = small_world()
    run = active_learn(subsets, dag, "y", m=20, n_iter=3, seed=1)
    assert run.snapshot_ids(0) == run.selected_row_ids[:20]
    assert run.snapshot_ids(2) == run.selected_row_ids


def test_determinism_bit_identical():
    subsets, _, dag = small_world()
    r1 = active_learn(subsets, dag, "y", m=20, n_iter=4, seed=9)
    r2 = active_learn(subsets, dag, "y", m=20, n_iter=4, seed=9)
    assert r1 == r2


def test_jobs_do_not_change_results():
    subsets, _, dag = small_world()
    r1 = active_learn(subsets, dag, "y", m=20, n_iter=4, seed=9, jobs=1)
    r4 = active_learn(subsets, dag, "y", m=20, n_iter=4, seed=9, jobs=4)
    assert r1 == r4


def test_matching_subset_wins_majority():
    # subset 1 shares the global system; it should dominate selections
    subsets, _, dag = small_world(n_rows=400)
    counts = np.zeros(3, dtype=int)
    for seed in range(10):
        run = active_learn(subsets, dag, "y", m=30, n_iter=6, seed=seed)
        counts += selection_counts([run])
    assert counts[1] > counts.sum() / 2  # strict majority for the match


def test_random_baseline_spreads_choices():
    subsets, _, dag = small_world()
    runs = [
        random_baseline(subsets, dag, "y", m=20, n_iter=6, seed=s) for s in range(5)
    ]
    counts = selection_counts(runs)
    assert counts.sum() == 30
    assert np.all(counts > 0)


def test_summarize_runs_hand_values():
    subsets, _, dag = small_world(perturbations=(1.0,))
    r1 = active_learn(subsets, dag, "y", m=20, n_iter=3, seed=0)
    mean, std = summarize_runs([r1])
    assert np.all(std == 0.0)
    r2 = active_learn(subsets, dag, "y", m=20, n_iter=3, seed=1)
    mean2, std2 = summarize_runs([r1, r2])
    losses = np.array([[rec.loss for rec in r.records] for r in (r1, r2)])
    assert np.allclose(mean2, losses.mean(axis=0))
    assert np.allclose(std2, losses.std(axis=0, ddof=1))


def test_summarize_two_point_example():
    mean, std = (np.array([2.0]), np.array([np.sqrt(2.0)]))
    # {1, 3} at one iteration: mean 2, sample std sqrt(2)
    vals = np.array([[1.0], [3.0]])
    assert vals.mean(axis=0)[0] == mean[0]
    assert vals.std(axis=0, ddof=1)[0] == pytest.approx(std[0])


def test_summarize_empty_and_mismatched():
    with pytest.raises(ConfigError):
        summarize_runs([])
    subsets, _, dag = small_world(perturbations=(1.0,))
    r1 = active_learn(subsets, dag, "y", m=20, n_iter=2, seed=0)
    r2 = active_learn(subsets, dag, "y", m=20, n_iter=3, seed=0)
    with pytest.raises(ConfigError):
        summarize_runs([r1, r2])


def test_run_csv_round_trip(tmp_path):
    subsets, _, dag = small_world()
    run = active_learn(subsets, dag, "y", m=20, n_iter=3, seed=5)
    p = tmp_path / "run.csv"
    active.save_run(p, run)
    loaded = active.load_run(p, selected_row_ids=run.selected_row_ids)
    assert loaded == run


def test_id_list_round_trip(tmp_path):
    p = tmp_path / "ids.txt"
    active.write_id_list(p, ("a", "b", "c"))
    assert active.read_id_list(p) == ("a", "b", "c")
