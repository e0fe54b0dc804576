"""Total causal effects and optimal per-row interventions on a linear SEM.

The total effect of node j on node i is the path-weight sum, equal to
entry (i, j) of (I - B)^-1 - I; the series terminates because B is
nilpotent under the causal order. Features are ranked by the size of
their total effect on a target (`rank_features`), which selects the
features to keep and the lever to shift. An intervention fixes one chosen
feature and propagates through downstream mediators (do-semantics), so
on the fitted linear model the target lands exactly on the requested
value unless clamping interferes. All rows of a call are planned in one
array computation (`_plan_rows`); a single row is a one-row call of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import artifacts
from .dataio import FeatureTable
from .errors import ConfigError, NoCausalLever, NodeMismatch, SchemaError

# `causal` is imported for annotations only, so the stages that read plans
# (`match`, `report`) do not load the discovery kernel.
if TYPE_CHECKING:
    from .causal import WeightedDag

DEFAULT_GOAL = 3.0  # target shift goal in the target's own units

INTERVENED_SUFFIX = "::do"


@dataclass(frozen=True)
class EffectMatrix:
    """T[i, j] = total causal effect of node j on node i (self effect 0)."""

    node_names: tuple[str, ...]
    T: np.ndarray

    def index(self, name: str) -> int:
        try:
            return self.node_names.index(name)
        except ValueError:
            raise NodeMismatch(f"no node named {name!r}") from None

    def effect(self, source: str, sink: str) -> float:
        return float(self.T[self.index(sink), self.index(source)])


def total_effects(dag: WeightedDag) -> EffectMatrix:
    """Total effects (I - B)^-1 - I of an acyclic weighted adjacency."""
    dag.validate()
    d = dag.n_nodes
    eye = np.eye(d)
    t = np.linalg.solve(eye - dag.B, eye) - eye
    return EffectMatrix(node_names=dag.node_names, T=t)


def rank_by_effect(effects: EffectMatrix, target: str, nodes) -> tuple[tuple[str, float], ...]:
    """(node, |total effect on `target`|) for each of `nodes`, strongest
    first, ties alphabetical. An unknown name raises NodeMismatch."""
    t = effects.index(target)
    items = [(name, abs(float(effects.T[t, effects.index(name)]))) for name in nodes]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    return tuple(items)


def rank_features(dag: WeightedDag, target: str) -> tuple[tuple[str, float], ...]:
    """`rank_by_effect` of every node but `target` on `target`."""
    t = dag.index(target)
    others = [name for i, name in enumerate(dag.node_names) if i != t]
    return rank_by_effect(total_effects(dag), target, others)


@dataclass(frozen=True)
class InterventionPlan:
    row_id: str
    chosen_feature: str
    original_value: float
    intervened_value: float
    predicted_target_before: float
    predicted_target_after: float
    target_goal: float
    clamped: bool = False


def _row_vector(dag: WeightedDag, row) -> np.ndarray:
    vec = np.asarray(row, dtype=np.float64)
    if vec.shape != (dag.n_nodes,):
        raise SchemaError(f"row must have {dag.n_nodes} entries, got {vec.shape}")
    return vec


def _check_model(effects: EffectMatrix, dag: WeightedDag) -> None:
    if dag.target is None:
        raise NodeMismatch("dag has no designated target")
    if effects.node_names != dag.node_names:
        raise NodeMismatch("effect matrix does not match dag nodes")


def _fitted(x: np.ndarray, dag: WeightedDag, effects: EffectMatrix):
    """(target, effect): the target of each row of `x` (rows x nodes) read
    off its parent equation, and each node's total effect on it in raw units."""
    mean, scale = dag.scale_for_rows()
    t = dag.index(dag.target)
    # one dot product per contiguous row, as `b @ z` takes it for a single
    # row, so a row's prediction does not depend on the rows planned with it
    z = np.ascontiguousarray((x - mean) / scale)
    pred_z = (z[:, None, :] @ dag.B[t][:, None])[:, 0, 0]
    return mean[t] + scale[t] * pred_z, effects.T[t] * scale[t] / scale


def _do(target, effect, old, new):
    """The fitted target under do(node = new) of a node observed at `old`:
    the shift propagates through downstream mediators, `effect` (raw) each."""
    return target + effect * (new - old)


def _plan_rows(x: np.ndarray, dag: WeightedDag, effects: EffectMatrix, goal: float,
               levers: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Plan every row of `x` (rows x nodes, dag order) in one array computation.

    `levers` are node indices strongest first; `lo`/`hi` bound each node's
    new value, NaN where unbounded. Each row shifts its lever by whatever
    drives its fitted target to `goal`, clamped to the lever's bounds.
    Returns arrays over rows: lever, old and new value, target before and
    after, and whether the value was clamped.
    """
    before, effects_raw = _fitted(x, dag, effects)
    lever = np.full(len(x), levers[0])  # the same lever for every row
    old = x[np.arange(len(x)), lever]
    effect = effects_raw[lever]
    new = old + (goal - before) / effect
    # min(max(new, lo), hi), as Python's min and max compare
    bounded = np.where(lo[lever] > new, lo[lever], new)
    bounded = np.where(hi[lever] < bounded, hi[lever], bounded)
    clamped = (bounded != new) & ~np.isnan(lo[lever])
    after = _do(before, effect, old, bounded)
    return lever, old, bounded, before, after, clamped


def _plans(row_ids, x, dag, effects, goal_value, interventable, bounds) -> list[InterventionPlan]:
    """Validate once, plan the rows of `x` in one call, and wrap each row."""
    _check_model(effects, dag)
    if interventable is None:
        interventable = [n for n in dag.node_names if n != dag.target]
    ranked = rank_by_effect(effects, dag.target, interventable)
    if not ranked:
        raise ConfigError("interventable feature set is empty")
    if ranked[0][1] == 0.0:
        raise NoCausalLever(f"no interventable feature affects {dag.target!r}")
    levers = np.array([dag.index(name) for name, _ in ranked])
    unbounded = (np.nan, np.nan)
    lo, hi = np.array([(bounds or {}).get(n, unbounded) for n in dag.node_names]).T
    lever, *fields, clamped = _plan_rows(x, dag, effects, goal_value, levers, lo, hi)
    return [
        InterventionPlan(rid, dag.node_names[f], old, new, before, after, goal_value, c)
        for rid, f, old, new, before, after, c in zip(
            row_ids, lever.tolist(), *(a.tolist() for a in fields), clamped.tolist()
        )
    ]


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
    _check_model(effects, dag)
    x = _row_vector(dag, row)[None]
    target, effect = _fitted(x, dag, effects)
    if do:
        if len(do) != 1:
            raise ConfigError("single-feature interventions only")
        (feature, value), = do.items()
        f = dag.index(feature)
        if f == dag.index(dag.target):
            raise ConfigError("cannot intervene on the target itself")
        target = _do(target, effect[f], x[:, f], float(value))
    return float(target[0])


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
    plan is flagged. This is `plan_interventions` on one row.
    """
    x = _row_vector(dag, row)[None]
    return _plans((row_id,), x, dag, effects, goal_value, interventable, bounds)[0]


def plan_interventions(
    table: FeatureTable,
    dag: WeightedDag,
    goal_value: float = DEFAULT_GOAL,
    interventable=None,
    bounds: dict[str, tuple[float, float]] | None = None,
) -> list[InterventionPlan]:
    """One optimal intervention plan per table row, all rows planned at once."""
    effects = total_effects(dag)
    x = table.values[:, [table.index(n) for n in dag.node_names]]
    return _plans(table.row_ids, x, dag, effects, goal_value, interventable, bounds)


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
        return InterventionPlan(rid, feature, old, new, before, after, goal, bool(int(clamped)))

    return artifacts.read(path, PLANS_HEADER, plan).rows
