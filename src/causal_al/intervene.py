"""Total causal effects and optimal per-row interventions on a linear SEM.

The total effect of node j on node i is the path-weight sum, equal to
entry (i, j) of (I - B)^-1 - I; the series terminates because B is
nilpotent under the causal order. `total_effects` returns that (d, d)
array in the dag's node order. Features are ranked by the size of their
total effect on a target (`rank_features`), which selects the features
to keep and the lever to shift. An intervention fixes one chosen feature
and propagates through downstream mediators (do-semantics), so on the
fitted linear model the target lands exactly on the requested value
unless clamping interferes. `plan_interventions` is the one planner: all
rows of a table are planned in one array computation (`_plan_rows`), and
a single row is a one-row table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import artifacts
from .dataio import FeatureTable
from .errors import ConfigError, NoCausalLever, NodeMismatch, SchemaError
from .util import checked_names

# `causal` is imported for annotations only, so the stages that read plans
# (`match`, `report`) do not load the discovery kernel.
if TYPE_CHECKING:
    from .causal import WeightedDag

DEFAULT_GOAL = 3.0  # target shift goal in the target's own units

INTERVENED_SUFFIX = "::do"


def total_effects(dag: WeightedDag) -> np.ndarray:
    """(I - B)^-1 - I of an acyclic weighted adjacency: entry (i, j) is the
    total effect of node j on node i in `dag.node_names` order (self effect 0)."""
    dag.validate()
    eye = np.eye(dag.n_nodes)
    return np.linalg.solve(eye - dag.B, eye) - eye


def rank_by_effect(effects: np.ndarray, dag: WeightedDag, target: str,
                   nodes) -> tuple[tuple[str, float], ...]:
    """(node, |total effect on `target`|) for each of `nodes`, strongest
    first, ties alphabetical. An unknown name raises NodeMismatch."""
    t = dag.index(target)
    items = [(name, abs(float(effects[t, dag.index(name)]))) for name in nodes]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    return tuple(items)


def rank_features(dag: WeightedDag, target: str) -> tuple[tuple[str, float], ...]:
    """`rank_by_effect` of every node but `target` on `target`."""
    t = dag.index(target)
    others = [name for i, name in enumerate(dag.node_names) if i != t]
    return rank_by_effect(total_effects(dag), dag, target, others)


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


def _check_model(effects: np.ndarray, dag: WeightedDag) -> None:
    if dag.target is None:
        raise NodeMismatch("dag has no designated target")
    d = dag.n_nodes
    if np.shape(effects) != (d, d):
        raise NodeMismatch(f"effects must be ({d}, {d}) for the dag's nodes, "
                           f"got shape {np.shape(effects)}")


def _fitted(x: np.ndarray, dag: WeightedDag, effects: np.ndarray):
    """(target, effect): the target of each row of `x` (rows x nodes) read
    off its parent equation, and each node's total effect on it in raw units."""
    mean, scale = dag.scale_for_rows()
    t = dag.index(dag.target)
    # one dot product per contiguous row, as `b @ z` takes it for a single
    # row, so a row's prediction does not depend on the rows planned with it
    z = np.ascontiguousarray((x - mean) / scale)
    pred_z = (z[:, None, :] @ dag.B[t][:, None])[:, 0, 0]
    return mean[t] + scale[t] * pred_z, effects[t] * scale[t] / scale


def _do(target, effect, old, new):
    """The fitted target under do(node = new) of a node observed at `old`:
    the shift propagates through downstream mediators, `effect` (raw) each."""
    return target + effect * (new - old)


def _plan_rows(x: np.ndarray, dag: WeightedDag, effects: np.ndarray, goal: float,
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


def predict_target_sem(
    effects: np.ndarray,
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
    x = np.asarray(row, dtype=np.float64)[None]
    if x.shape != (1, dag.n_nodes):
        raise SchemaError(f"row must have {dag.n_nodes} entries, got {x.shape[1:]}")
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


def plan_interventions(
    table: FeatureTable,
    dag: WeightedDag,
    goal_value: float = DEFAULT_GOAL,
    interventable=None,
    bounds: dict[str, tuple[float, float]] | None = None,
) -> list[InterventionPlan]:
    """One optimal intervention plan per table row, all rows planned at once.

    Each row's lever is the interventable feature with the largest |total
    effect on the target| (ties alphabetical); its shift is whatever drives
    the row's predicted target to `goal_value`. A feature with `bounds` has
    its shifted value clamped to them, and the plan is flagged.
    """
    effects = total_effects(dag)
    _check_model(effects, dag)
    x = table.values[:, [table.index(n) for n in dag.node_names]]
    if interventable is None:
        interventable = [n for n in dag.node_names if n != dag.target]
    ranked = rank_by_effect(effects, dag, dag.target, interventable)
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
            table.row_ids, lever.tolist(), *(a.tolist() for a in fields), clamped.tolist()
        )
    ]


def feature_bounds(table: FeatureTable, features) -> dict[str, tuple[float, float]]:
    """Observed (min, max) per named feature, for clamping intervened values."""
    return {
        f: (float(table.column(f).min()), float(table.column(f).max()))
        for f in features
    }


def apply_interventions(table: FeatureTable, plans) -> FeatureTable:
    """Shift each planned row's chosen feature; everything else untouched.

    Row ids of intervened rows get a marker suffix; the output has exactly
    the input's rows in input order.
    """
    plans = tuple(plans)
    by_id = dict(zip(checked_names((p.row_id for p in plans), where="plans"), plans))
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
