import numpy as np
import pytest

from causal_al.causal import WeightedDag, discover_lingam
from causal_al.errors import ConfigError, CyclicGraph, NoCausalLever, SchemaError
from causal_al.intervene import (
    apply_interventions,
    feature_bounds,
    optimal_individual_intervention,
    original_id,
    plan_interventions,
    predict_target_sem,
    total_effects,
)
from causal_al import intervene
from causal_al.synth import SemSpec, sample_sem
from tests.conftest import make_table


def chain_dag():
    # x1 -> x2 (0.7) -> y (0.5)
    return WeightedDag(
        node_names=("x1", "x2", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [0.0, 0.5, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )


def test_total_effects_chain():
    t = total_effects(chain_dag())
    assert t.effect("x1", "y") == pytest.approx(0.35, abs=1e-12)
    assert t.effect("x1", "x2") == pytest.approx(0.7, abs=1e-12)
    assert t.effect("y", "x1") == 0.0  # no path
    assert t.effect("x1", "x1") == 0.0  # self effect is zero by convention


def test_total_effects_parallel_paths():
    # x -> y direct 0.2 plus x -> z -> y with 0.5 * 0.4
    dag = WeightedDag(
        node_names=("x", "z", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.4, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )
    assert total_effects(dag).effect("x", "y") == pytest.approx(0.4, abs=1e-12)


def test_total_effects_rejects_cycle():
    cyclic = WeightedDag(("a", "b"), np.array([[0.0, 0.5], [0.5, 0.0]]), (0, 1))
    with pytest.raises(CyclicGraph):
        total_effects(cyclic)


def test_nilpotency_series_agrees_with_inverse():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 12))
        b = np.zeros((d, d))
        for i in range(d):
            for j in range(i):
                if rng.random() < 0.5:
                    b[i, j] = rng.normal()
        dag = WeightedDag(tuple(f"n{i}" for i in range(d)), b, tuple(range(d)))
        t_inv = total_effects(dag).T
        power = np.eye(d)
        t_series = np.zeros((d, d))
        for _ in range(d):
            power = power @ b
            t_series += power
        assert np.all(power == 0.0)  # B^d = 0
        assert np.max(np.abs(t_inv - t_series)) < 1e-10


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_exact_on_noiseless_chain():
    dag = chain_dag()
    effects = total_effects(dag)
    rng = np.random.default_rng(1)
    x1 = rng.uniform(-1, 1, 20)
    rows = np.column_stack([x1, 0.7 * x1, 0.35 * x1])
    for row in rows:
        assert predict_target_sem(effects, dag, row) == pytest.approx(row[2], abs=1e-9)


def test_predict_do_shifts_by_total_effect():
    dag = chain_dag()
    effects = total_effects(dag)
    row = np.array([0.4, 0.28, 0.14])
    base = predict_target_sem(effects, dag, row)
    shifted = predict_target_sem(effects, dag, row, do={"x1": row[0] + 2.0})
    assert shifted - base == pytest.approx(0.35 * 2.0, abs=1e-9)


def test_predict_zero_vector_zero_intercept():
    dag = chain_dag()
    effects = total_effects(dag)
    assert predict_target_sem(effects, dag, np.zeros(3)) == 0.0


def test_predict_accepts_dict_rows():
    dag = chain_dag()
    effects = total_effects(dag)
    assert predict_target_sem(
        effects, dag, {"x1": 1.0, "x2": 0.7, "y": 0.0}
    ) == pytest.approx(0.35, abs=1e-12)


def test_predict_multi_do_rejected():
    dag = chain_dag()
    effects = total_effects(dag)
    with pytest.raises(ConfigError):
        predict_target_sem(effects, dag, np.zeros(3), do={"x1": 1.0, "x2": 1.0})


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def test_plan_hand_arithmetic():
    # single lever with effect 0.5; current target 1.0, goal 3.0 -> delta 4.0
    dag = WeightedDag(
        node_names=("x", "y"),
        B=np.array([[0.0, 0.0], [0.5, 0.0]]),
        causal_order=(0, 1),
        target="y",
    )
    effects = total_effects(dag)
    plan = optimal_individual_intervention(
        effects, dag, np.array([2.0, 1.0]), "m1", goal_value=3.0
    )
    assert plan.chosen_feature == "x"
    assert plan.intervened_value - plan.original_value == pytest.approx(4.0, abs=1e-9)
    assert plan.predicted_target_after == pytest.approx(3.0, abs=1e-9)


def test_plan_zero_delta_when_goal_met():
    dag = chain_dag()
    effects = total_effects(dag)
    row = np.array([1.0, 0.7, 0.35])
    plan = optimal_individual_intervention(effects, dag, row, "m", goal_value=0.35)
    assert plan.intervened_value == pytest.approx(plan.original_value, abs=1e-12)
    assert plan.predicted_target_after == pytest.approx(0.35, abs=1e-12)


def test_plan_picks_max_abs_effect():
    dag = WeightedDag(
        node_names=("a", "b", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, -0.9, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )
    effects = total_effects(dag)
    plan = optimal_individual_intervention(effects, dag, np.zeros(3), "m", 1.0)
    assert plan.chosen_feature == "b"
    assert plan.effect == pytest.approx(-0.9)


def test_plan_tie_breaks_alphabetical():
    dag = WeightedDag(
        node_names=("b", "a", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )
    effects = total_effects(dag)
    plan = optimal_individual_intervention(effects, dag, np.zeros(3), "m", 1.0)
    assert plan.chosen_feature == "a"


def test_plan_no_causal_lever():
    dag = WeightedDag(
        node_names=("a", "y"),
        B=np.zeros((2, 2)),
        causal_order=(0, 1),
        target="y",
    )
    effects = total_effects(dag)
    with pytest.raises(NoCausalLever):
        optimal_individual_intervention(effects, dag, np.zeros(2), "m", 1.0)


def test_plan_respects_interventable_subset():
    dag = WeightedDag(
        node_names=("a", "b", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, -0.9, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )
    effects = total_effects(dag)
    plan = optimal_individual_intervention(
        effects, dag, np.zeros(3), "m", 1.0, interventable=("a",)
    )
    assert plan.chosen_feature == "a"


def test_plan_clamping_flagged():
    dag = WeightedDag(
        node_names=("x", "y"),
        B=np.array([[0.0, 0.0], [0.5, 0.0]]),
        causal_order=(0, 1),
        target="y",
    )
    effects = total_effects(dag)
    plan = optimal_individual_intervention(
        effects, dag, np.array([0.0, 0.0]), "m", goal_value=10.0,
        bounds={"x": (-1.0, 1.0)},
    )
    assert plan.clamped
    assert plan.intervened_value == 1.0
    assert plan.predicted_target_after == pytest.approx(0.5, abs=1e-12)
    # invariant holds with the clamped delta
    delta = plan.intervened_value - plan.original_value
    assert plan.predicted_target_after == pytest.approx(
        plan.predicted_target_before + plan.effect * delta, abs=1e-9
    )


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def test_apply_interventions_single_column_shift():
    table = make_table(
        [[2.0, 1.0], [0.5, 0.25]], ("x", "y"), target_names=("y",)
    )
    dag = WeightedDag(
        node_names=("x", "y"),
        B=np.array([[0.0, 0.0], [0.5, 0.0]]),
        causal_order=(0, 1),
        target="y",
    )
    plans = plan_interventions(table, dag, goal_value=3.0)
    out = apply_interventions(table, plans)
    assert out.n_rows == table.n_rows
    assert out.row_ids == ("r0::do", "r1::do")
    # chosen column shifted by exactly (goal - pred) / effect, y untouched
    assert out.values[0, 0] == pytest.approx(2.0 + (3.0 - 1.0) / 0.5, abs=1e-9)
    assert np.array_equal(out.column("y"), table.column("y"))
    assert original_id("r0::do") == "r0"
    assert original_id("r0") == "r0"


def test_apply_interventions_zero_delta_identity():
    table = make_table([[1.0, 0.5]], ("x", "y"), target_names=("y",))
    dag = WeightedDag(
        node_names=("x", "y"),
        B=np.array([[0.0, 0.0], [0.5, 0.0]]),
        causal_order=(0, 1),
        target="y",
    )
    plans = plan_interventions(table, dag, goal_value=0.5)  # already met
    out = apply_interventions(table, plans)
    assert np.array_equal(out.values, table.values)
    assert out.row_ids == ("r0::do",)


def test_apply_interventions_unknown_row():
    table = make_table([[1.0, 0.5]], ("x", "y"), target_names=("y",))
    dag = WeightedDag(("x", "y"), np.array([[0.0, 0.0], [0.5, 0.0]]), (0, 1), target="y")
    plans = plan_interventions(table, dag, goal_value=2.0)
    bad = [
        intervene.InterventionPlan(
            row_id="ghost", chosen_feature="x", original_value=0.0,
            intervened_value=1.0, predicted_target_before=0.0,
            predicted_target_after=0.5, target_goal=2.0, effect=0.5,
        )
    ]
    with pytest.raises(SchemaError):
        apply_interventions(table, plans + bad)


def test_batch_row_count_preserved():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 50)
    table = make_table(
        np.column_stack([x, 0.5 * x]), ("x", "y"), target_names=("y",)
    )
    dag = WeightedDag(("x", "y"), np.array([[0.0, 0.0], [0.5, 0.0]]), (0, 1), target="y")
    plans = plan_interventions(table, dag, goal_value=3.0)
    assert len(plans) == 50
    out = apply_interventions(table, plans)
    assert out.n_rows == 50


def test_feature_bounds():
    table = make_table([[1.0, 9.0], [4.0, -2.0]], ("a", "b"))
    bounds = feature_bounds(table)
    assert bounds == {"a": (1.0, 4.0), "b": (-2.0, 9.0)}


# ---------------------------------------------------------------------------
# end-to-end on a fitted model (standardized scale bookkeeping)
# ---------------------------------------------------------------------------


def test_intervention_exactness_on_discovered_model():
    spec = SemSpec(
        node_names=("x1", "x2", "y"),
        edges=(("x1", "x2", 0.7), ("x2", "y", 0.5), ("x1", "y", 0.3)),
        noises=(("uniform", 1.0), ("uniform", 0.4), ("uniform", 0.4)),
        seed=21,
    )
    table = sample_sem(spec, 4000, target_names=("y",))
    dag = discover_lingam(table, "y", destandardize=True)
    effects = total_effects(dag)
    goal = 3.0
    plans = plan_interventions(table.select_rows(range(40)), dag, goal_value=goal)
    for plan in plans:
        row = table.values[table.row_ids.index(plan.row_id)]
        redone = predict_target_sem(
            effects, dag, row, do={plan.chosen_feature: plan.intervened_value}
        )
        assert redone == pytest.approx(goal, abs=1e-9)


def test_plans_round_trip(tmp_path):
    table = make_table([[2.0, 1.0]], ("x", "y"), target_names=("y",))
    dag = WeightedDag(("x", "y"), np.array([[0.0, 0.0], [0.5, 0.0]]), (0, 1), target="y")
    plans = plan_interventions(table, dag, goal_value=3.0)
    p = tmp_path / "plans.csv"
    intervene.save_plans(p, plans)
    loaded = intervene.load_plans(p)
    assert loaded[0].row_id == plans[0].row_id
    assert loaded[0].target_goal == 3.0
    assert loaded[0].chosen_feature == "x"
    assert loaded[0].intervened_value == plans[0].intervened_value
    assert loaded[0].effect == pytest.approx(plans[0].effect, abs=1e-9)
