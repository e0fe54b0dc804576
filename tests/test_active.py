import numpy as np
import pytest

from causal_al import active
from causal_al.active import (
    active_learn,
    random_baseline,
    selection_counts,
    summarize_runs,
)
from causal_al.causal import WeightedDag, discover_lingam
from causal_al.dataio import FeatureTable, concat_tables
from causal_al.errors import (
    ConfigError,
    DuplicateRowId,
    InsufficientData,
    MissingColumn,
    NodeMismatch,
)
from causal_al.graphdist import spectral_distance
from causal_al.synth import SemSpec, make_heterogeneous_world
from tests.conftest import ROUNDED_CONSTANTS

NODES = ("f1", "f2", "f3", "y")
EDGES = (("f1", "f2", 0.8), ("f2", "f3", 0.6), ("f3", "y", 0.7), ("f1", "y", -0.4))
SPEC = SemSpec(NODES, EDGES, tuple(("uniform", 0.5) for _ in NODES), seed=0)


def small_world(n_rows=400, perturbations=(0.3, 1.0, 1.9), seed=17):
    return make_heterogeneous_world(
        len(perturbations), SPEC, perturbations, seed=seed, n_rows=n_rows, target="y"
    )


def replayed_exhausted(run, subset_sizes):
    """Exhausted slots re-derived from the committed choices: the frozen
    replay that the run records' `exhausted` field replaced, kept as a reference."""
    sizes = list(subset_sizes)
    skipped = 0
    for rec in run.records:
        skipped += sum(size < run.m_per_iter for size in sizes)
        sizes[rec.chosen] -= run.m_per_iter
    return skipped


def exhausted(run, subset_sizes):
    """The run's recorded exhausted slots, checked against the replay."""
    recorded = sum(rec.exhausted for rec in run.records)
    assert recorded == replayed_exhausted(run, subset_sizes)
    return recorded


def degenerate(run, subset_sizes):
    """Sampled candidates scored +inf: every +inf slot but the exhausted ones."""
    inf = sum(loss == float("inf") for rec in run.records for loss in rec.losses)
    return inf - exhausted(run, subset_sizes)


def with_column(sub, name, column):
    """`sub` with the values of column `name` replaced by `column`."""
    values = sub.values.copy()
    values[:, sub.index(name)] = column
    return FeatureTable(sub.row_ids, sub.feature_names, values, sub.target_names)


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
    # three subsets of 50 rows hold three batches of 30; a fourth iteration has none
    subsets, _, dag = small_world(n_rows=50)
    with pytest.raises(InsufficientData):
        active_learn(subsets, dag, "y", m=30, n_iter=4, seed=0)


@pytest.mark.parametrize("loop", [active_learn, random_baseline])
def test_exhausted_subsets_become_ineligible(loop):
    # each subset holds one batch of 30, so each is committed exactly once
    subsets, _, dag = small_world(n_rows=50)
    run = loop(subsets, dag, "y", m=30, n_iter=3, seed=0)
    assert sorted(rec.chosen for rec in run.records) == [0, 1, 2]
    for rec in run.records:
        assert np.isfinite(rec.loss)
        assert sum(np.isinf(rec.losses)) == rec.iteration  # the ones already taken
        assert rec.exhausted == rec.iteration
    assert len(set(run.selected_row_ids)) == 90
    assert exhausted(run, [50, 50, 50]) == 0 + 1 + 2


@pytest.mark.parametrize("loop", [active_learn, random_baseline])
def test_subset_smaller_than_m_is_never_sampled(loop):
    subsets, _, dag = small_world()
    subsets[0] = subsets[0].select_rows(range(10))
    run = loop(subsets, dag, "y", m=20, n_iter=4, seed=3)
    assert all(rec.losses[0] == float("inf") and rec.chosen != 0 for rec in run.records)
    assert exhausted(run, [10, 400, 400]) == 4


CHOSEN_RANDOM_SEED_11 = [1, 0, 2, 2, 0, 0, 1, 1]


def test_random_choices_unchanged_when_every_subset_is_eligible():
    # recorded before subsets could become ineligible: the draw must not move
    subsets, _, dag = small_world()
    run = random_baseline(subsets, dag, "y", m=20, n_iter=8, seed=11)
    assert [rec.chosen for rec in run.records] == CHOSEN_RANDOM_SEED_11


def test_missing_feature():
    subsets, _, dag = small_world()
    unknown = "^features of subset 0: 'ghost' is not one of f1,f2,f3,y$"
    with pytest.raises(MissingColumn, match=unknown):
        active_learn(subsets, dag, "y", features=("f1", "ghost", "y"), m=20, n_iter=2)


def test_constant_column_subset_scores_inf_without_aborting():
    # subset 2 holds f1 constant, so its first candidate has a zero-variance column;
    # at seed 0 the random draw of the first iteration is subset 2
    subsets, _, dag = small_world()
    subsets[2] = with_column(subsets[2], "f1", 1.5)
    for loop, seed in ((active_learn, 4), (random_baseline, 0)):
        run = loop(subsets, dag, "y", m=30, n_iter=3, seed=seed)
        first = run.records[0]
        assert first.losses[2] == float("inf")
        assert np.isfinite(first.losses[:2]).all()
        assert len(run.records) == 3
        for rec in run.records:  # a degenerate candidate is never committed
            assert np.isfinite(rec.loss)
        assert degenerate(run, [400, 400, 400]) == 1
        assert exhausted(run, [400, 400, 400]) == 0


@pytest.mark.parametrize("loop", [active_learn, random_baseline])
def test_overflowing_column_subset_scores_inf_without_aborting(loop):
    # every other f2 cell of subset 2 is 1e300, so every candidate drawn from
    # it has an f2 whose sample standard deviation overflows to inf; the
    # candidate used to abort the run with "SVD did not converge"
    subsets, _, dag = small_world(n_rows=200)
    f2 = subsets[2].column("f2")
    f2[::2] = 1e300
    subsets[2] = with_column(subsets[2], "f2", f2)
    run = loop(subsets, dag, "y", m=30, n_iter=3, seed=0)
    assert all(rec.losses[2] == float("inf") for rec in run.records)
    assert all(np.isfinite(rec.losses[:2]).all() for rec in run.records)
    assert degenerate(run, [200, 200, 200]) == 3


def test_candidate_with_a_non_finite_graph_scores_inf():
    # subset 2 scales f1 by 1e-158 and y by 1e152: each column has a finite,
    # nonzero standard deviation, but putting the f1 -> y weight back on the
    # raw scales multiplies it by about 1e310; the candidate used to score
    # NaN, which the active loop committed as its minimum
    subsets, _, dag = small_world()
    sub = subsets[2]
    subsets[2] = with_column(with_column(sub, "f1", sub.column("f1") * 1e-158),
                             "y", sub.column("y") * 1e152)
    for loop, seed in ((active_learn, 4), (random_baseline, 0)):
        run = loop(subsets, dag, "y", m=30, n_iter=3, seed=seed)
        first = run.records[0]
        assert first.losses[2] == float("inf")
        assert np.isfinite(first.losses[:2]).all()
        assert all(np.isfinite(rec.loss) for rec in run.records)


@pytest.mark.parametrize("features, top_n", [
    (None, None), (None, 2), (None, 6), (("f1", "f2", "y"), None),
])
def test_committed_loss_is_the_spectral_distance_of_its_candidate(features, top_n):
    # the candidate committed at an iteration holds the run's rows up to it,
    # in commit order, so its graph and `spectral_distance` give the recorded
    # loss bit for bit; top_n is unset, below d = 4 or above it, and without
    # f3 the global graph has a node the candidates lack
    subsets, _, dag = small_world()
    pool = concat_tables(subsets)
    names = features or pool.feature_names
    for loop in (active_learn, random_baseline):
        run = loop(subsets, dag, "y", features=features, m=20, n_iter=4, seed=5, top_n=top_n)
        for rec in run.records:
            table = pool.select_by_ids(run.snapshot_ids(rec.iteration)).select_columns(names)
            graph = discover_lingam(table, "y", destandardize=True)
            assert rec.loss == spectral_distance(graph, dag, n=top_n)


def test_global_graph_sharing_no_node_is_refused_before_any_discovery(monkeypatch):
    subsets, _, _ = small_world()
    stranger = WeightedDag(("p", "q"), np.zeros((2, 2)), (0, 1))

    def no_discovery(*args):
        raise AssertionError("discovery ran")

    monkeypatch.setattr(active, "_discover", no_discovery)
    for loop in (active_learn, random_baseline):
        with pytest.raises(NodeMismatch, match="^graphs share no nodes$"):
            loop(subsets, stranger, "y", m=20, n_iter=2)


@pytest.mark.xfail(strict=True, reason="ROADMAP H")
def test_rounded_constant_column_subset_scores_inf():
    # each candidate is one whole 1000-row subset; subset 2 holds f1 at a
    # value whose 1000 copies have a sample standard deviation of about 1e-17
    for value in ROUNDED_CONSTANTS:
        subsets, _, dag = small_world(n_rows=1000)
        subsets[2] = with_column(subsets[2], "f1", value)
        run = active_learn(subsets, dag, "y", m=1000, n_iter=1, seed=0)
        assert run.records[0].losses[2] == float("inf")
        assert np.isfinite(run.records[0].losses[:2]).all()
        assert degenerate(run, [1000, 1000, 1000]) == 1


def test_duplicate_ids_across_subsets_rejected():
    subsets, _, dag = small_world(perturbations=(1.0, 1.0))
    rid = subsets[0].row_ids[0]
    with pytest.raises(DuplicateRowId, match=f"^row ids across subsets: {rid!r} is named twice$"):
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


def test_jobs_do_not_change_results(no_thread_pool):
    # `jobs` does not change how the loop runs: one kernel call per iteration, no pool
    subsets, _, dag = small_world(perturbations=(0.3, 1.0, 1.9, 0.6))
    for loop in (active_learn, random_baseline):
        runs = [loop(subsets, dag, "y", m=20, n_iter=4, seed=9, jobs=j) for j in (1, 0, 2, 3, 4)]
        assert all(run == runs[0] for run in runs[1:])


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


@pytest.mark.parametrize("features, match", [
    (("f1", "f1", "f2", "f3", "y"), "^features of subset 0: 'f1' is named twice$"),
    (("f1", "y", "y"), "^features of subset 0: 'y' is named twice$"),
])
def test_discovery_features_are_known_and_named_once(features, match):
    # a repeated feature used to give a graph with two nodes of one name
    subsets, _, dag = small_world()
    for loop in (active_learn, random_baseline):
        with pytest.raises(MissingColumn, match=match):
            loop(subsets, dag, "y", features=features, m=20, n_iter=2)
