"""Greedy causal-graph-driven dataset assembly and its random baseline.

Each iteration samples M fresh rows from every subset, discovers a causal
graph on each augmented candidate, scores it by spectral distance to the
global graph, and commits the candidate with the smallest loss (random
choice in baseline mode). Sampling is without replacement within a run;
rows sampled for unchosen subsets return to their pools. Every candidate
draws from its own RNG substream derived from (seed, iteration, subset),
so per-subset evaluations can run in parallel without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The loop calls the plain-array kernel. `discover_lingam` and `FeatureTable`
# stay module attributes because perfbench/spans.py wraps them by these names.
from .causal import WeightedDag, _check_fit_rows, _discover, discover_lingam  # noqa: F401
from .dataio import FeatureTable  # noqa: F401
from .errors import (
    ConfigError,
    DegenerateFeature,
    DuplicateRowId,
    InsufficientData,
    MissingColumn,
    SchemaError,
)
from .graphdist import spectral_distance
from .util import fmt, parallel_map

DEFAULT_M = 50
DEFAULT_N_ITER = 20


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    losses: tuple[float, ...]  # one per subset, +inf when discovery failed
    chosen: int
    loss: float
    size: int


@dataclass(frozen=True)
class ActiveLearningRun:
    mode: str  # "active" | "random"
    seed: int
    m_per_iter: int
    n_iter: int
    n_subsets: int
    selected_row_ids: tuple[str, ...]
    records: tuple[IterationRecord, ...]

    def snapshot_ids(self, iteration: int) -> tuple[str, ...]:
        """Committed row ids after the given iteration (0-based)."""
        return self.selected_row_ids[: (iteration + 1) * self.m_per_iter]

    def final_loss(self) -> float:
        return self.records[-1].loss


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _run(
    subsets,
    global_graph: WeightedDag,
    target: str,
    features,
    m: int,
    n_iter: int,
    seed: int,
    prune_threshold: float,
    top_n: int | None,
    destandardize: bool,
    jobs: int,
    mode: str,
) -> ActiveLearningRun:
    subsets = list(subsets)
    if not subsets:
        raise ConfigError("need at least one subset")
    if m < 1:
        raise ConfigError(f"M must be >= 1, got {m}")
    if n_iter < 1:
        raise ConfigError(f"N_iter must be >= 1, got {n_iter}")
    if features is None:
        features = subsets[0].feature_names
    features = tuple(features)
    if target not in features:
        raise MissingColumn(f"target {target!r} must be among the discovery features")
    for k, sub in enumerate(subsets):
        for f in features:
            if f not in sub.feature_names:
                raise MissingColumn(f"feature {f!r} missing from subset {k}")
        if sub.n_rows < m * n_iter:
            raise InsufficientData(
                f"subset {k} has {sub.n_rows} rows, needs at least {m * n_iter}"
            )
    all_ids = [rid for sub in subsets for rid in sub.row_ids]
    if len(set(all_ids)) != len(all_ids):
        raise DuplicateRowId("row ids must be unique across subsets")

    n_subsets = len(subsets)
    t_idx = features.index(target)
    mats = [sub.matrix(features) for sub in subsets]
    ids = [sub.row_ids for sub in subsets]
    pools = [np.arange(sub.n_rows) for sub in subsets]

    acc_rows = np.empty((0, len(features)))
    acc_ids: list[str] = []
    records: list[IterationRecord] = []

    for it in range(n_iter):
        picks = []
        for k in range(n_subsets):
            rng = _substream(seed, it, k)
            sel = rng.choice(pools[k].size, size=m, replace=False)
            picks.append(pools[k][np.sort(sel)])

        def evaluate(k: int) -> float:
            rows = np.vstack([acc_rows, mats[k][picks[k]]])
            try:
                _check_fit_rows(rows, features)
            except (InsufficientData, DegenerateFeature):
                return float("inf")
            b, order, *_ = _discover(rows, t_idx, prune_threshold, destandardize)
            return spectral_distance(WeightedDag(features, b, order), global_graph, n=top_n)

        losses = tuple(parallel_map(evaluate, range(n_subsets), jobs=jobs))
        if mode == "active":
            chosen = int(np.argmin(losses))  # first minimum = lowest index
        else:
            chosen = int(_substream(seed, it, n_subsets).integers(n_subsets))

        acc_rows = np.vstack([acc_rows, mats[chosen][picks[chosen]]])
        acc_ids.extend(ids[chosen][i] for i in picks[chosen])
        pools[chosen] = np.setdiff1d(pools[chosen], picks[chosen], assume_unique=True)
        records.append(
            IterationRecord(
                iteration=it,
                losses=losses,
                chosen=chosen,
                loss=losses[chosen],
                size=len(acc_ids),
            )
        )

    return ActiveLearningRun(
        mode=mode,
        seed=seed,
        m_per_iter=m,
        n_iter=n_iter,
        n_subsets=n_subsets,
        selected_row_ids=tuple(acc_ids),
        records=tuple(records),
    )


def active_learn(
    subsets,
    global_graph: WeightedDag,
    target: str,
    features=None,
    m: int = DEFAULT_M,
    n_iter: int = DEFAULT_N_ITER,
    seed: int = 0,
    prune_threshold: float = 0.05,
    top_n: int | None = None,
    destandardize: bool = True,
    jobs: int = 1,
) -> ActiveLearningRun:
    """Grow a minimal dataset by greedy graph-loss selection over subsets."""
    return _run(
        subsets, global_graph, target, features, m, n_iter, seed,
        prune_threshold, top_n, destandardize, jobs, mode="active",
    )


def random_baseline(
    subsets,
    global_graph: WeightedDag,
    target: str,
    features=None,
    m: int = DEFAULT_M,
    n_iter: int = DEFAULT_N_ITER,
    seed: int = 0,
    prune_threshold: float = 0.05,
    top_n: int | None = None,
    destandardize: bool = True,
    jobs: int = 1,
) -> ActiveLearningRun:
    """Same loop, but the committed subset is drawn uniformly at random."""
    return _run(
        subsets, global_graph, target, features, m, n_iter, seed,
        prune_threshold, top_n, destandardize, jobs, mode="random",
    )


def summarize_runs(runs) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise mean and sample standard deviation of loss trajectories."""
    runs = list(runs)
    if not runs:
        raise ConfigError("no runs to summarize")
    n_iter = runs[0].n_iter
    if any(r.n_iter != n_iter for r in runs):
        raise ConfigError("runs have different iteration counts")
    losses = np.array([[rec.loss for rec in r.records] for r in runs])
    mean = losses.mean(axis=0)
    std = losses.std(axis=0, ddof=1) if len(runs) > 1 else np.zeros(n_iter)
    return mean, std


def selection_counts(runs, n_subsets: int | None = None) -> np.ndarray:
    """How many times each subset was committed, summed over runs."""
    runs = list(runs)
    if not runs:
        raise ConfigError("no runs to count")
    if n_subsets is None:
        n_subsets = runs[0].n_subsets
    counts = np.zeros(n_subsets, dtype=np.int64)
    for r in runs:
        for rec in r.records:
            counts[rec.chosen] += 1
    return counts


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_run(path, run: ActiveLearningRun) -> None:
    """Run record CSV: iter, per-subset losses, chosen subset, dataset size."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# mode = {run.mode}\n")
        fh.write(f"# seed = {run.seed}\n")
        fh.write(f"# m = {run.m_per_iter}\n")
        loss_cols = ",".join(f"loss_{k}" for k in range(run.n_subsets))
        fh.write(f"iter,{loss_cols},chosen,size\n")
        for rec in run.records:
            losses = ",".join(fmt(v) for v in rec.losses)
            fh.write(f"{rec.iteration},{losses},{rec.chosen},{rec.size}\n")


def load_run(path, selected_row_ids=()) -> ActiveLearningRun:
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key.strip()] = value.strip()
                continue
            if line.startswith("iter,"):
                continue
            rows.append(line.split(","))
    if not rows:
        raise SchemaError(f"{path}: no iteration records")
    n_subsets = len(rows[0]) - 3
    records = []
    for cells in rows:
        losses = tuple(float(v) for v in cells[1 : 1 + n_subsets])
        chosen = int(cells[1 + n_subsets])
        records.append(
            IterationRecord(
                iteration=int(cells[0]),
                losses=losses,
                chosen=chosen,
                loss=losses[chosen],
                size=int(cells[2 + n_subsets]),
            )
        )
    records = tuple(records)
    return ActiveLearningRun(
        mode=meta.get("mode", "active"),
        seed=int(meta.get("seed", "0")),
        m_per_iter=int(meta.get("m", "0")),
        n_iter=len(records),
        n_subsets=n_subsets,
        selected_row_ids=tuple(selected_row_ids),
        records=records,
    )


def write_id_list(path, ids) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rid in ids:
            fh.write(f"{rid}\n")


def read_id_list(path) -> tuple[str, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        return tuple(line.strip() for line in fh if line.strip())
