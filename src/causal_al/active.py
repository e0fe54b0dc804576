"""Greedy causal-graph-driven dataset assembly and its random baseline.

Each iteration samples M fresh rows from every subset, discovers a causal
graph on each augmented candidate, scores it by spectral distance to the
global graph, and commits the candidate with the smallest loss (random
choice in baseline mode). Sampling is without replacement within a run;
rows sampled for unchosen subsets return to their pools. Every candidate
draws from its own RNG substream derived from (seed, iteration, subset).
The candidates of an iteration share one shape, so they are scored as one
stack: one call of the stacked discovery kernel, one batched SVD, and the
distance of each spectrum to the global graph's, taken once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts

# The loop calls plain-array kernels. `discover_lingam`, `FeatureTable` and
# `spectral_distance` stay module attributes for perfbench/spans.py to wrap.
from .causal import DEFAULT_PRUNE_THRESHOLD, EXTRA_ROWS, WeightedDag, _discover
from .causal import discover_lingam  # noqa: F401
from .dataio import FeatureTable  # noqa: F401
from .dataio import column_stats
from .errors import ConfigError, DuplicateRowId, InsufficientData, MissingColumn
from .graphdist import spectrum, spectrum_size
from .graphdist import spectral_distance  # noqa: F401
from .util import checked_names

DEFAULT_M = 50
DEFAULT_N_ITER = 20


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    losses: tuple[float, ...]  # one per subset, +inf when skipped or discovery failed
    chosen: int
    loss: float
    size: int
    exhausted: int = 0  # subsets skipped: their pools held fewer than M rows


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
        checked_names(features, sub.feature_names, f"features of subset {k}", MissingColumn)
    checked_names((rid for sub in subsets for rid in sub.row_ids),
                  where="row ids across subsets", error=DuplicateRowId)
    # Each iteration takes m rows from one subset that still holds m, so some
    # subset is eligible at every iteration exactly when this many batches exist.
    batches = sum(sub.n_rows // m for sub in subsets)
    if batches < n_iter:
        raise InsufficientData(
            f"subsets hold {batches} batches of {m} rows, {n_iter} iterations need {n_iter}"
        )

    n = spectrum_size(features, global_graph.node_names, top_n)
    ref = spectrum(global_graph.B, n)  # the global graph's, once per run
    n_subsets, d = len(subsets), len(features)
    t_idx = features.index(target)
    mats = [sub.matrix(features) for sub in subsets]
    ids = [sub.row_ids for sub in subsets]
    pools = [np.arange(sub.n_rows) for sub in subsets]

    acc_rows = np.empty((0, d))
    acc_ids: list[str] = []
    records: list[IterationRecord] = []

    for it in range(n_iter):
        # a subset whose pool holds fewer than m rows is not sampled and scores +inf
        eligible = [k for k in range(n_subsets) if pools[k].size >= m]
        picks = {}
        for k in eligible:
            rng = _substream(seed, it, k)
            sel = rng.choice(pools[k].size, size=m, replace=False)
            picks[k] = pools[k][np.sort(sel)]

        # every candidate is the committed rows plus its subset's m new ones
        n_acc = len(acc_ids)
        x = np.empty((len(eligible), n_acc + m, d))
        x[:, :n_acc] = acc_rows
        for row, k in enumerate(eligible):
            x[row, n_acc:] = mats[k][picks[k]]
        # a candidate too small, with a degenerate column or with a non-finite
        # adjacency scores +inf; every candidate has the same row count
        losses = np.full(n_subsets, np.inf)
        if n_acc + m >= d + EXTRA_ROWS:
            mean, std, degenerate = column_stats(x)
            ok = ~degenerate.any(axis=1)
            fit = np.asarray(eligible)[ok]
            if fit.size < len(eligible):
                x, mean, std = x[ok], mean[ok], std[ok]
            if fit.size:
                b, _ = _discover(x, mean, std, t_idx, prune_threshold, destandardize)
                finite = np.isfinite(b).all(axis=(1, 2))
                s = spectrum(b[finite], n)
                losses[fit[finite]] = np.sqrt(np.sum((s - ref) ** 2, axis=-1))
        losses = tuple(losses.tolist())

        if mode == "active":
            # first minimum = lowest index
            chosen = eligible[int(np.argmin([losses[k] for k in eligible]))]
        else:
            # a degenerate candidate is not drawn while a finite one is; with
            # every candidate finite this is integers(n_subsets), as before
            drawn = [k for k in eligible if np.isfinite(losses[k])] or eligible
            chosen = drawn[int(_substream(seed, it, n_subsets).integers(len(drawn)))]

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
                exhausted=n_subsets - len(eligible),
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
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    top_n: int | None = None,
    destandardize: bool = True,
    jobs: int = 1,
) -> ActiveLearningRun:
    """Grow a minimal dataset by greedy graph-loss selection over subsets.

    `jobs` is accepted and ignored: it does not change how the loop runs.
    """
    return _run(
        subsets, global_graph, target, features, m, n_iter, seed,
        prune_threshold, top_n, destandardize, mode="active",
    )


def random_baseline(
    subsets,
    global_graph: WeightedDag,
    target: str,
    features=None,
    m: int = DEFAULT_M,
    n_iter: int = DEFAULT_N_ITER,
    seed: int = 0,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    top_n: int | None = None,
    destandardize: bool = True,
    jobs: int = 1,
) -> ActiveLearningRun:
    """Same loop, but the committed subset is drawn uniformly at random.

    `jobs` is accepted and ignored, as in `active_learn`.
    """
    return _run(
        subsets, global_graph, target, features, m, n_iter, seed,
        prune_threshold, top_n, destandardize, mode="random",
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


def selection_counts(runs) -> np.ndarray:
    """How many times each subset was committed, summed over runs."""
    runs = list(runs)
    if not runs:
        raise ConfigError("no runs to count")
    counts = np.zeros(runs[0].n_subsets, dtype=np.int64)
    for r in runs:
        for rec in r.records:
            counts[rec.chosen] += 1
    return counts


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_run(path, run: ActiveLearningRun) -> None:
    """Run record CSV: iter, per-subset losses, chosen subset, dataset size."""
    artifacts.write(
        path,
        meta=[("mode", run.mode), ("seed", run.seed), ("m", run.m_per_iter)],
        header=("iter", *(f"loss_{k}" for k in range(run.n_subsets)), "chosen", "size"),
        rows=((rec.iteration, *rec.losses, rec.chosen, rec.size) for rec in run.records),
    )
