"""Total causal effects and optimal per-row interventions on a linear SEM.

The total effect of node j on node i is the path-weight sum, equal to
entry (i, j) of (I - B)^-1 - I; the series terminates because B is
nilpotent under the causal order. An intervention fixes one chosen
feature and propagates through downstream mediators (do-semantics), so
on the fitted linear model the target lands exactly on the requested
value unless clamping interferes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .causal import EffectMatrix, WeightedDag, total_effects
from .dataio import FeatureTable
from .errors import ConfigError, NoCausalLever, NodeMismatch, SchemaError

DEFAULT_GOAL = 3.0  # target shift goal in the target's own units

INTERVENED_SUFFIX = "::do"


@dataclass(frozen=True)
class InterventionPlan:
    row_id: str
    chosen_feature: str
    original_value: float
    intervened_value: float
    predicted_target_before: float
    predicted_target_after: float
    target_goal: float
    effect: float  # total effect of the chosen feature on the target, raw scale
    clamped: bool = False


def _row_vector(dag: WeightedDag, row) -> np.ndarray:
    if isinstance(row, dict):
        try:
            return np.array([float(row[n]) for n in dag.node_names])
        except KeyError as exc:
            raise NodeMismatch(f"row is missing value for node {exc.args[0]!r}") from None
    vec = np.asarray(row, dtype=np.float64)
    if vec.shape != (dag.n_nodes,):
        raise SchemaError(f"row must have {dag.n_nodes} entries, got {vec.shape}")
    return vec


def predict_target_sem(
    effects: EffectMatrix,
    dag: WeightedDag,
    row,
    do: dict[str, float] | None = None,
) -> float:
    """Target prediction from the fitted equations, optionally under do().

    Without `do`, the target is read off its parent equation with the
    row's observed feature values. A single {feature: value} `do` entry
    shifts the prediction by total_effect * (value - observed), i.e. the
    intervention propagates through downstream mediators.
    """
    if dag.target is None:
        raise NodeMismatch("dag has no designated target")
    if effects.node_names != dag.node_names:
        raise NodeMismatch("effect matrix does not match dag nodes")
    t = dag.index(dag.target)
    mean, scale = dag.scale_for_rows()
    z = (_row_vector(dag, row) - mean) / scale
    pred_z = float(dag.B[t, :] @ z)
    if do:
        if len(do) != 1:
            raise ConfigError("single-feature interventions only")
        (feature, value), = do.items()
        f = dag.index(feature)
        if f == t:
            raise ConfigError("cannot intervene on the target itself")
        value_z = (float(value) - mean[f]) / scale[f]
        pred_z += float(effects.T[t, f]) * (value_z - z[f])
    return float(mean[t] + scale[t] * pred_z)


def raw_effect_on_target(effects: EffectMatrix, dag: WeightedDag, feature: str) -> float:
    """Total effect of `feature` on the target in raw (unstandardized) units."""
    if dag.target is None:
        raise NodeMismatch("dag has no designated target")
    t, f = dag.index(dag.target), dag.index(feature)
    _, scale = dag.scale_for_rows()
    return float(effects.T[t, f]) * scale[t] / scale[f]


def optimal_individual_intervention(
    effects: EffectMatrix,
    dag: WeightedDag,
    row,
    row_id: str,
    goal_value: float,
    interventable=None,
    bounds: dict[str, tuple[float, float]] | None = None,
) -> InterventionPlan:
    """Choose the strongest causal lever for one row and size its shift.

    The chosen feature maximizes |total effect on the target| over the
    interventable set (ties alphabetical); the shift is whatever drives
    the predicted target to `goal_value`. When `bounds` are given the
    shifted value is clamped to the feature's observed range and the
    plan is flagged.
    """
    if dag.target is None:
        raise NodeMismatch("dag has no designated target")
    target = dag.target
    if interventable is None:
        interventable = [n for n in dag.node_names if n != target]
    interventable = list(interventable)
    if not interventable:
        raise ConfigError("interventable feature set is empty")
    t = dag.index(target)
    strengths = {f: abs(float(effects.T[t, dag.index(f)])) for f in interventable}
    best = max(strengths.values())
    if best == 0.0:
        raise NoCausalLever(f"no interventable feature affects {target!r}")
    chosen = min(f for f, s in strengths.items() if s == best)

    vec = _row_vector(dag, row)
    original = float(vec[dag.index(chosen)])
    pred_before = predict_target_sem(effects, dag, vec)
    eff_raw = raw_effect_on_target(effects, dag, chosen)
    new_value = original + (goal_value - pred_before) / eff_raw

    clamped = False
    if bounds is not None and chosen in bounds:
        lo, hi = bounds[chosen]
        bounded = min(max(new_value, lo), hi)
        clamped = bounded != new_value
        new_value = bounded

    pred_after = pred_before + eff_raw * (new_value - original)
    return InterventionPlan(
        row_id=row_id,
        chosen_feature=chosen,
        original_value=original,
        intervened_value=new_value,
        predicted_target_before=pred_before,
        predicted_target_after=pred_after,
        target_goal=goal_value,
        effect=eff_raw,
        clamped=clamped,
    )


def plan_interventions(
    table: FeatureTable,
    dag: WeightedDag,
    goal_value: float = DEFAULT_GOAL,
    interventable=None,
    bounds: dict[str, tuple[float, float]] | None = None,
) -> list[InterventionPlan]:
    """One optimal intervention plan per table row."""
    effects = total_effects(dag)
    idx = [table.index(n) for n in dag.node_names]
    plans = []
    for rid, row in zip(table.row_ids, table.values):
        plans.append(
            optimal_individual_intervention(
                effects, dag, row[idx], rid, goal_value,
                interventable=interventable, bounds=bounds,
            )
        )
    return plans


def feature_bounds(table: FeatureTable, features=None) -> dict[str, tuple[float, float]]:
    """Observed (min, max) per feature, for clamping intervened values."""
    if features is None:
        features = table.feature_names
    return {
        f: (float(table.column(f).min()), float(table.column(f).max()))
        for f in features
    }


def apply_interventions(table: FeatureTable, plans) -> FeatureTable:
    """Shift each planned row's chosen feature; everything else untouched.

    Row ids of intervened rows get a marker suffix; the output has exactly
    the input's rows in input order.
    """
    by_id = {p.row_id: p for p in plans}
    unknown = set(by_id) - set(table.row_ids)
    if unknown:
        raise SchemaError(f"plans reference unknown rows, e.g. {sorted(unknown)[:3]}")
    values = table.values.copy()
    ids = list(table.row_ids)
    for i, rid in enumerate(table.row_ids):
        plan = by_id.get(rid)
        if plan is None:
            continue
        values[i, table.index(plan.chosen_feature)] = plan.intervened_value
        ids[i] = rid + INTERVENED_SUFFIX
    return FeatureTable(
        row_ids=tuple(ids),
        feature_names=table.feature_names,
        values=values,
        target_names=table.target_names,
    )


def original_id(intervened_id: str) -> str:
    """Strip the intervention marker from a row id (no-op when absent)."""
    if intervened_id.endswith(INTERVENED_SUFFIX):
        return intervened_id[: -len(INTERVENED_SUFFIX)]
    return intervened_id


PLANS_HEADER = ("id", "feature", "old", "new", "pred_before", "pred_after", "clamped", "goal")


def save_plans(path, plans) -> None:
    artifacts.write(path, header=PLANS_HEADER, rows=(
        (p.row_id, p.chosen_feature, p.original_value, p.intervened_value,
         p.predicted_target_before, p.predicted_target_after, int(p.clamped), p.target_goal)
        for p in plans
    ))


def load_plans(path) -> list[InterventionPlan]:
    """Plans as saved, each with the goal it was planned for."""

    def plan(rid, feature, old, new, before, after, clamped, goal) -> InterventionPlan:
        old, new, before, after, goal = map(float, (old, new, before, after, goal))
        delta = new - old
        effect = (after - before) / delta if delta != 0.0 else 0.0
        return InterventionPlan(
            rid, feature, old, new, before, after, goal, effect, bool(int(clamped))
        )

    return artifacts.read(path, PLANS_HEADER, plan).rows
