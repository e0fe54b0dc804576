import numpy as np
import pytest

from causal_al.causal import WeightedDag, discover_lingam
from causal_al.errors import ConfigError, CyclicGraph, NoCausalLever, NodeMismatch, SchemaError
from causal_al.intervene import (
    InterventionPlan,
    apply_interventions,
    feature_bounds,
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


def effect(dag, source, sink):
    """The total effect of `source` on `sink`: T[sink, source]."""
    return float(total_effects(dag)[dag.index(sink), dag.index(source)])


def plan_row(dag, row, goal_value, **kw):
    """The plan of one row, planned as a one-row table in dag node order."""
    table = make_table([row], dag.node_names, target_names=(dag.target,))
    return plan_interventions(table, dag, goal_value, **kw)[0]


def test_total_effects_chain():
    dag = chain_dag()
    t = total_effects(dag)
    assert isinstance(t, np.ndarray) and t.shape == (3, 3)
    assert effect(dag, "x1", "y") == pytest.approx(0.35, abs=1e-12)
    assert effect(dag, "x1", "x2") == pytest.approx(0.7, abs=1e-12)
    assert effect(dag, "y", "x1") == 0.0  # no path
    assert effect(dag, "x1", "x1") == 0.0  # self effect is zero by convention


def test_total_effects_parallel_paths():
    # x -> y direct 0.2 plus x -> z -> y with 0.5 * 0.4
    dag = WeightedDag(
        node_names=("x", "z", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.4, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )
    assert effect(dag, "x", "y") == pytest.approx(0.4, abs=1e-12)


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
        t_inv = total_effects(dag)
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


def test_predict_multi_do_rejected():
    dag = chain_dag()
    effects = total_effects(dag)
    with pytest.raises(ConfigError):
        predict_target_sem(effects, dag, np.zeros(3), do={"x1": 1.0, "x2": 1.0})


def test_predict_rejects_effects_of_another_shape():
    dag = chain_dag()
    effects = total_effects(dag)
    for wrong in (effects[:2, :2], effects[:, :2], np.zeros((4, 4)), effects[0]):
        with pytest.raises(NodeMismatch):
            predict_target_sem(wrong, dag, np.zeros(3))
    no_target = WeightedDag(dag.node_names, dag.B, dag.causal_order)
    with pytest.raises(NodeMismatch):
        predict_target_sem(effects, no_target, np.zeros(3))


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
    plan = plan_row(dag, [2.0, 1.0], goal_value=3.0)
    assert plan.chosen_feature == "x"
    assert plan.intervened_value - plan.original_value == pytest.approx(4.0, abs=1e-9)
    assert plan.predicted_target_after == pytest.approx(3.0, abs=1e-9)


def test_plan_zero_delta_when_goal_met():
    dag = chain_dag()
    plan = plan_row(dag, [1.0, 0.7, 0.35], goal_value=0.35)
    assert plan.intervened_value == pytest.approx(plan.original_value, abs=1e-12)
    assert plan.predicted_target_after == pytest.approx(0.35, abs=1e-12)


def test_plan_picks_max_abs_effect():
    dag = WeightedDag(
        node_names=("a", "b", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, -0.9, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )
    plan = plan_row(dag, np.zeros(3), 1.0)
    assert plan.chosen_feature == "b"
    # the shift that b's total effect of -0.9 needs to move y from 0 to 1
    assert effect(dag, "b", "y") == pytest.approx(-0.9)
    assert plan.intervened_value == pytest.approx(1.0 / -0.9, abs=1e-12)


def test_plan_tie_breaks_alphabetical():
    dag = WeightedDag(
        node_names=("b", "a", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )
    plan = plan_row(dag, np.zeros(3), 1.0)
    assert plan.chosen_feature == "a"


def test_plan_no_causal_lever():
    dag = WeightedDag(
        node_names=("a", "y"),
        B=np.zeros((2, 2)),
        causal_order=(0, 1),
        target="y",
    )
    with pytest.raises(NoCausalLever):
        plan_row(dag, np.zeros(2), 1.0)


def test_plan_respects_interventable_subset():
    dag = WeightedDag(
        node_names=("a", "b", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, -0.9, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
    )
    plan = plan_row(dag, np.zeros(3), 1.0, interventable=("a",))
    assert plan.chosen_feature == "a"


def test_plan_clamping_flagged():
    dag = WeightedDag(
        node_names=("x", "y"),
        B=np.array([[0.0, 0.0], [0.5, 0.0]]),
        causal_order=(0, 1),
        target="y",
    )
    plan = plan_row(dag, [0.0, 0.0], goal_value=10.0, bounds={"x": (-1.0, 1.0)})
    assert plan.clamped
    assert plan.intervened_value == 1.0
    assert plan.predicted_target_after == pytest.approx(0.5, abs=1e-12)
    # invariant holds with the clamped delta
    delta = plan.intervened_value - plan.original_value
    assert plan.predicted_target_after == pytest.approx(
        plan.predicted_target_before + effect(dag, "x", "y") * delta, abs=1e-9
    )


# ---------------------------------------------------------------------------
# the array planner against the per-row planner it replaced
# ---------------------------------------------------------------------------


def _reference_plans(table, dag, goal, interventable=None, bounds=None):
    """The per-row planner that `plan_interventions` replaced, frozen as its
    oracle: each row re-ranks the levers and predicts on its own."""
    effects = total_effects(dag)
    t = dag.index(dag.target)
    mean, scale = dag.scale_for_rows()
    if interventable is None:
        interventable = [n for n in dag.node_names if n != dag.target]
    idx = [table.index(n) for n in dag.node_names]
    plans = []
    for rid, row in zip(table.row_ids, table.values):
        vec = row[idx]
        strengths = {f: abs(float(effects[t, dag.index(f)])) for f in interventable}
        best = max(strengths.values())
        chosen = min(f for f, s in strengths.items() if s == best)
        f = dag.index(chosen)
        original = float(vec[f])
        pred_before = float(mean[t] + scale[t] * float(dag.B[t, :] @ ((vec - mean) / scale)))
        eff_raw = float(effects[t, f]) * scale[t] / scale[f]
        new_value = original + (goal - pred_before) / eff_raw
        clamped = False
        if bounds is not None and chosen in bounds:
            lo, hi = bounds[chosen]
            bounded = min(max(new_value, lo), hi)
            clamped = bounded != new_value
            new_value = bounded
        pred_after = pred_before + eff_raw * (new_value - original)
        plans.append(InterventionPlan(
            rid, chosen, original, new_value, pred_before, pred_after, goal, clamped
        ))
    return plans


_DYADIC_WEIGHTS = np.array([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0])


def _random_case(rng, d, kind):
    """A random DAG over d shuffled names with a sink target, and a table
    whose columns are in another order than the DAG's nodes.

    `kind` "float" draws normal weights and values. "dyadic" draws weights,
    values, means and scales that are short binary fractions, so every
    fitted target is exact whatever order its dot product sums in, and a
    goal set to a row's fitted target is met to the bit. "tied" is dyadic
    with only direct edges of size 0.5 into the target, so every lever ties.
    """
    names = [f"n{k:02d}" for k in rng.permutation(d)]
    order = rng.permutation(d)
    b = np.zeros((d, d))
    for pos, node in enumerate(order[1:], 1):
        for parent in order[:pos]:
            if rng.random() < 0.5:
                b[node, parent] = rng.normal() if kind == "float" else rng.choice(_DYADIC_WEIGHTS)
    if kind == "tied":
        b[:] = 0.0
        b[order[-1], order[:-1]] = rng.choice([-0.5, 0.5], d - 1)
    if kind == "float":
        means, stds = rng.normal(size=d), rng.uniform(0.2, 3.0, d)
        values = rng.normal(size=(int(rng.integers(1, 40)), d + 1)) * 2.0
    else:
        means, stds = rng.integers(-8, 9, d) / 4.0, 2.0 ** rng.integers(-2, 3, d)
        values = rng.integers(-16, 17, (int(rng.integers(1, 40)), d + 1)) / 8.0
    target = names[order[-1]]
    dag = WeightedDag(
        node_names=tuple(names), B=b, causal_order=tuple(int(i) for i in order),
        target=target,
        node_means=means if rng.random() < 0.8 else None,
        node_stds=stds if rng.random() < 0.8 else None,
        standardized=bool(rng.random() < 0.5),
    )
    columns = list(rng.permutation(names)) + ["extra"]
    return dag, make_table(values, columns, target_names=(target,))


def _assert_same_plans(got, want):
    assert [p.row_id for p in got] == [p.row_id for p in want]
    assert [p.chosen_feature for p in got] == [p.chosen_feature for p in want]
    assert [p.clamped for p in got] == [p.clamped for p in want]
    for g, w in zip(got, want):
        for field in ("original_value", "intervened_value", "predicted_target_before",
                      "predicted_target_after", "target_goal"):
            a, b = getattr(g, field), getattr(w, field)
            same_nan = np.isnan(a) and np.isnan(b)
            assert same_nan or abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), (field, a, b)


def test_array_planner_matches_per_row_oracle_on_random_dags():
    rng = np.random.default_rng(808)
    seen = dict.fromkeys(("plans", "clamped", "met", "at_bound", "met_at_bound", "tied", "no_lever"), 0)
    for case in range(300):
        d = int(rng.integers(2, 13))
        kind = ("float", "dyadic", "tied")[case % 3]
        dag, table = _random_case(rng, d, kind)
        features = [n for n in dag.node_names if n != dag.target]
        interventable = None
        if case % 4 == 1:
            k = int(rng.integers(1, len(features) + 1))
            interventable = list(rng.choice(features, k, replace=False))
        bounds = None
        if case % 2:
            bounds = intervene.feature_bounds(table, features)
            if case % 5 == 1:  # a narrowed range, and a lever left unbounded
                lo, hi = bounds[features[0]]
                bounds[features[0]] = (lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo))
                bounds.pop(features[-1])
        effects = total_effects(dag)
        t = dag.index(dag.target)
        levers = features if interventable is None else interventable
        if max(abs(effects[t, dag.index(f)]) for f in levers) == 0.0:
            with pytest.raises(NoCausalLever):
                plan_interventions(table, dag, 1.0, interventable, bounds)
            seen["no_lever"] += 1
            continue
        goals = [float(rng.normal()) * 3.0]
        if kind != "float":  # a goal the first row meets exactly
            goals.append(_reference_plans(table, dag, 0.0)[0].predicted_target_before)
        if case % 7 == 0:  # NaN plans are flagged clamped only where bounds apply
            goals.append(float("nan"))
        for goal in goals:
            want = _reference_plans(table, dag, goal, interventable, bounds)
            got = plan_interventions(table, dag, goal, interventable, bounds)
            _assert_same_plans(got, want)
            one = plan_interventions(table.select_rows([0]), dag, goal, interventable, bounds)
            _assert_same_plans(one, want[:1])
            seen["plans"] += len(got)
            seen["clamped"] += sum(p.clamped for p in got)
            at_bound = [p.original_value in (bounds or {}).get(p.chosen_feature, ()) for p in got]
            met = [not p.clamped and p.intervened_value == p.original_value for p in got]
            seen["at_bound"] += sum(at_bound)
            seen["met"] += sum(met)
            seen["met_at_bound"] += sum(a and m for a, m in zip(at_bound, met))
        seen["tied"] += kind == "tied" and len(levers) > 1
    # every situation the comparison is meant to cover occurred
    assert all(v > 0 for v in seen.values()), seen
    assert seen["plans"] > 3000 and seen["met"] > 100 and seen["at_bound"] > 100, seen


def test_a_rows_plan_does_not_depend_on_the_rows_planned_with_it():
    rng = np.random.default_rng(809)
    for d in (3, 9, 17, 24):  # wide rows too, which a BLAS dot sums in vector blocks
        dag, table = _random_case(rng, d, "float")
        effects = total_effects(dag)
        while not effects[dag.index(dag.target)].any():  # a graph with a lever
            dag, table = _random_case(rng, d, "float")
            effects = total_effects(dag)
        bounds = intervene.feature_bounds(table, [n for n in dag.node_names if n != dag.target])
        batch = plan_interventions(table, dag, 1.5, bounds=bounds)
        one_by_one = [
            plan_interventions(table.select_rows([i]), dag, 1.5, bounds=bounds)[0]
            for i in range(table.n_rows)
        ]
        assert batch == one_by_one


@pytest.mark.parametrize("plan", [
    lambda table, dag, **kw: plan_interventions(table, dag, 1.0, **kw),
    lambda table, dag, **kw: plan_interventions(table.select_rows([0]), dag, 1.0, **kw),
], ids=["plan_interventions", "one_row_table"])
def test_planner_errors(plan):
    table = make_table([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]], ("a", "b", "y"), target_names=("y",))
    dag = WeightedDag(
        ("a", "b", "y"), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.7, 0.0]]),
        (0, 1, 2), target="y",
    )
    with pytest.raises(ConfigError):
        plan(table, dag, interventable=())
    with pytest.raises(NoCausalLever):
        plan(table, dag, interventable=("a",))
    with pytest.raises(NodeMismatch):
        plan(table, dag, interventable=("a", "zz"))
    no_target = WeightedDag(dag.node_names, dag.B, dag.causal_order)
    with pytest.raises(NodeMismatch):
        plan(table, no_target)


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


def test_apply_interventions_leaves_unplanned_rows_untouched():
    table = make_table([[2.0, 1.0], [0.5, 0.25], [4.0, 2.0]], ("x", "y"), target_names=("y",))
    plans = [intervene.InterventionPlan("r1", "x", 0.5, 7.0, 0.25, 3.5, 3.5)]
    out = apply_interventions(table, plans)
    assert out.row_ids == ("r0", "r1::do", "r2")
    assert out.values.tolist() == [[2.0, 1.0], [7.0, 0.25], [4.0, 2.0]]
    assert table.values.tolist() == [[2.0, 1.0], [0.5, 0.25], [4.0, 2.0]]


def test_apply_interventions_unknown_row():
    table = make_table([[1.0, 0.5]], ("x", "y"), target_names=("y",))
    dag = WeightedDag(("x", "y"), np.array([[0.0, 0.0], [0.5, 0.0]]), (0, 1), target="y")
    plans = plan_interventions(table, dag, goal_value=2.0)
    bad = [
        intervene.InterventionPlan(
            row_id="ghost", chosen_feature="x", original_value=0.0,
            intervened_value=1.0, predicted_target_before=0.0,
            predicted_target_after=0.5, target_goal=2.0,
        )
    ]
    with pytest.raises(SchemaError):
        apply_interventions(table, plans + bad)


def test_apply_interventions_refuses_two_plans_for_one_row():
    # only the last of the two plans used to be applied
    table = make_table([[1.0, 0.5]], ("x", "y"), target_names=("y",))
    plans = [
        intervene.InterventionPlan("r0", "x", 1.0, new, 0.5, 0.5, 3.0) for new in (5.0, 9.0)
    ]
    with pytest.raises(SchemaError, match="^plans: 'r0' is named twice$"):
        apply_interventions(table, plans)


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
    assert feature_bounds(table, ("a", "b")) == {"a": (1.0, 4.0), "b": (-2.0, 9.0)}
    assert feature_bounds(table, ("b",)) == {"b": (-2.0, 9.0)}


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
    assert loaded == plans  # every field, to the bit
    assert loaded[0].target_goal == 3.0
    assert loaded[0].chosen_feature == "x"
    shift = loaded[0].intervened_value - loaded[0].original_value
    assert loaded[0].predicted_target_after == pytest.approx(
        loaded[0].predicted_target_before + effect(dag, "x", "y") * shift, abs=1e-9
    )
