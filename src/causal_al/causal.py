"""Linear non-Gaussian causal discovery with a sink-constrained target.

Discovery follows the direct iterative-root-selection scheme: at each step
the most exogenous remaining variable is identified with a pairwise
likelihood-ratio measure built from a differential-entropy approximation
(log-cosh and Gaussian-moment terms), appended to the causal order, and
regressed out of the remaining columns. Each step standardizes the
remaining columns once and scores all pairs together: covariances,
regression coefficients and pairwise residuals are formed as arrays in
blocks of at most `_BLOCK_SAMPLES` residual values (one regressand at
least), so memory stays bounded whatever the row count. The designated
target is withheld from root selection until every feature is ordered,
which forces it to be a sink by construction. Edge weights then come from
sequential least squares over causal-order predecessors, followed by
magnitude pruning. Total effects (I - B)^-1 - I of a weighted DAG, used
for ranking here and for interventions downstream, are computed here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FeatureTable
from .errors import (
    ConfigError,
    CyclicGraph,
    DegenerateFeature,
    InsufficientData,
    MissingColumn,
    NodeMismatch,
    SchemaError,
)
from .util import fmt

DEFAULT_PRUNE_THRESHOLD = 0.05

# Constants of the maximum-entropy approximation to differential entropy.
_K1 = 79.047
_K2 = 7.4129
_GAMMA = 0.37457

# Residual values (regressand rows x samples) the root search holds per
# block; a block always takes at least one regressand against all others.
_BLOCK_SAMPLES = 16_384


@dataclass(frozen=True)
class WeightedDag:
    """Weighted adjacency over named nodes; B[i, j] is the weight of edge j -> i.

    `causal_order` lists node indices causes-first; restricted to that order
    B is strictly lower triangular. `node_means`/`node_stds` record the
    column statistics of the fitting data so rows can be mapped into the
    model's internal scale; `standardized` says whether B itself is on the
    unit-variance scale or the raw one.
    """

    node_names: tuple[str, ...]
    B: np.ndarray
    causal_order: tuple[int, ...]
    target: str | None = None
    node_means: np.ndarray | None = None
    node_stds: np.ndarray | None = None
    standardized: bool = True
    residual_variances: np.ndarray | None = None
    ridge_flagged: tuple[str, ...] = ()

    def __post_init__(self):
        d = len(self.node_names)
        B = np.asarray(self.B, dtype=np.float64)
        if B.shape != (d, d):
            raise SchemaError(f"adjacency shape {B.shape} does not match {d} nodes")
        if sorted(self.causal_order) != list(range(d)):
            raise SchemaError("causal_order is not a permutation of the nodes")
        if self.target is not None and self.target not in self.node_names:
            raise NodeMismatch(f"target {self.target!r} is not a node")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "node_names", tuple(self.node_names))
        object.__setattr__(self, "causal_order", tuple(self.causal_order))

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    def index(self, name: str) -> int:
        try:
            return self.node_names.index(name)
        except ValueError:
            raise NodeMismatch(f"no node named {name!r}") from None

    def permuted_b(self) -> np.ndarray:
        """B reordered by causal_order; strictly lower triangular iff acyclic."""
        order = list(self.causal_order)
        return self.B[np.ix_(order, order)]

    def validate(self) -> None:
        """Check the acyclicity invariant: exact zeros above the diagonal."""
        pb = self.permuted_b()
        if np.any(np.triu(pb) != 0.0):
            raise CyclicGraph("adjacency is not strictly lower triangular under causal_order")

    def scale_for_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(shift, scale) mapping raw rows into the model's internal space."""
        d = self.n_nodes
        mean = self.node_means if self.node_means is not None else np.zeros(d)
        if self.standardized and self.node_stds is not None:
            std = self.node_stds
        else:
            std = np.ones(d)
        return np.asarray(mean, dtype=np.float64), np.asarray(std, dtype=np.float64)


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


@dataclass(frozen=True)
class FeatureRanking:
    """Features ordered by descending causal strength toward a target."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        strengths = [s for _, s in self.entries]
        if any(s < 0 for s in strengths):
            raise SchemaError("strengths must be nonnegative")
        if any(a < b for a, b in zip(strengths, strengths[1:])):
            raise SchemaError("ranking must be sorted descending")

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# Pairwise likelihood-ratio root search
# ---------------------------------------------------------------------------


def _log_cosh(u: np.ndarray) -> np.ndarray:
    # overflow-safe log(cosh(u))
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


def _entropy(u: np.ndarray) -> np.ndarray:
    """Approximate differential entropy of each standardized row of `u`."""
    return (
        (1.0 + np.log(2.0 * np.pi)) / 2.0
        - _K1 * (np.mean(_log_cosh(u), axis=-1) - _GAMMA) ** 2
        - _K2 * np.mean(u * np.exp(-(u**2) / 2.0), axis=-1) ** 2
    )


def _standardize(u: np.ndarray) -> np.ndarray:
    """Each row of `u` to zero mean and unit variance; near-constant rows to 0."""
    sd = u.std(axis=-1, keepdims=True)
    flat = sd < 1e-15
    return np.where(flat, 0.0, (u - u.mean(axis=-1, keepdims=True)) / np.where(flat, 1.0, sd))


def _most_exogenous(w: np.ndarray, remaining: list[int], candidates: list[int]) -> int:
    """Pick the candidate most plausibly exogenous among the remaining rows of `w`.

    For candidate i the score accumulates min(0, LR(i, j))^2 over the other
    remaining variables j, where LR compares the entropies of the two
    competing regression directions; the least-penalized candidate wins,
    lowest column index on ties. All m^2 pairwise residuals of a step are
    formed as arrays, a block of regressands i at a time. Every reduction
    runs along a row, so each LR(i, j) equals the one-pair-at-a-time
    formula bit for bit.
    """
    c = _standardize(w[remaining])
    m, n = c.shape
    ent = _entropy(c)
    mean = c.mean(axis=1)
    var = c.var(axis=1)
    # r_ij = c_i - (cov_ij / var_j) c_j, or c_i - mean_i when c_j has no variance
    flat = var < 1e-30
    safe_var = np.where(flat, 1.0, var)
    shift = np.where(flat, mean[:, None], 0.0)
    h = np.empty((m, m))  # h[i, j] = entropy of the standardized r_ij
    step = max(1, _BLOCK_SAMPLES // (m * n))
    for lo in range(0, m, step):
        blk = slice(lo, lo + step)
        r = c[blk, None, :] * c
        cov = r.mean(axis=-1) - mean[blk, None] * mean
        np.multiply(np.where(flat, 0.0, cov / safe_var)[:, :, None], c, out=r)
        np.subtract(c[blk, None, :], r, out=r)
        r -= shift[blk, :, None]
        h[blk] = _entropy(_standardize(r))
    lr = (ent[None, :] + h) - (ent[:, None] + h.T)  # zero on the diagonal
    penalty = np.sum(np.minimum(0.0, lr) ** 2, axis=1)
    pos = [remaining.index(i) for i in candidates]
    return candidates[int(np.argmin(penalty[pos]))]


def _residualize(w: np.ndarray, rows: list[int], root: int) -> None:
    """Replace each of `rows` of `w` by its residual on row `root`, in place."""
    x = w[rows]
    xr = w[root]
    var_r = xr.var()
    if var_r < 1e-30:
        w[rows] = x - x.mean(axis=1, keepdims=True)
        return
    cov = np.mean(x * xr, axis=1) - x.mean(axis=1) * xr.mean()
    w[rows] = x - (cov / var_r)[:, None] * xr


def _check_fit_rows(x: np.ndarray, names) -> None:
    """Raise unless `x` supports discovery: d + 10 rows, no constant column."""
    n, d = x.shape
    if n < d + 10:
        raise InsufficientData(f"need at least {d + 10} rows for {d} columns, got {n}")
    for name, s in zip(names, x.std(axis=0, ddof=1)):
        if s == 0.0:
            raise DegenerateFeature(name)


def _discover(
    x: np.ndarray, target_idx: int, prune_threshold: float, destandardize: bool
) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Plain-array discovery kernel over the columns of `x` (rows x columns).

    The caller has checked `x` with `_check_fit_rows`. Returns the pruned
    adjacency B, the causal order, the column means and sample standard
    deviations, and the residual variance of each node.
    """
    d = x.shape[1]
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    z = (x - mean) / std

    w = z.T.copy()  # one row per variable, residualized as roots are taken
    remaining = list(range(d))
    order: list[int] = []
    while remaining:
        candidates = [i for i in remaining if i != target_idx] or remaining
        root = candidates[0] if len(candidates) == 1 else _most_exogenous(w, remaining, candidates)
        order.append(root)
        remaining.remove(root)
        _residualize(w, remaining, root)

    b = np.zeros((d, d))
    resid_var = np.ones(d)
    for pos, node in enumerate(order):
        preds = order[:pos]
        if not preds:
            resid_var[node] = np.var(z[:, node], ddof=1)
            continue
        coef, *_ = np.linalg.lstsq(z[:, preds], z[:, node], rcond=None)
        b[node, preds] = coef
        resid = z[:, node] - z[:, preds] @ coef
        resid_var[node] = np.var(resid, ddof=1)

    b[np.abs(b) < prune_threshold] = 0.0
    if destandardize:
        b = b * std[:, None] / std[None, :]
        resid_var = resid_var * std**2
    return b, order, mean, std, resid_var


def discover_lingam(
    table: FeatureTable,
    target: str,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    destandardize: bool = False,
) -> WeightedDag:
    """Discover a weighted DAG over the table's columns with `target` as sink.

    Columns are standardized internally; pruning applies to the
    standardized weights. With `destandardize=True` the returned weights
    are mapped back to the original column scales.
    """
    names = table.feature_names
    if target not in names:
        raise MissingColumn(f"target {target!r} not in table")
    _check_fit_rows(table.values, names)
    b, order, mean, std, resid_var = _discover(
        table.values, names.index(target), prune_threshold, destandardize
    )
    return WeightedDag(
        node_names=names,
        B=b,
        causal_order=tuple(order),
        target=target,
        node_means=mean,
        node_stds=std,
        standardized=not destandardize,
        residual_variances=resid_var,
    )


def fit_sem_weights(table: FeatureTable, structure: WeightedDag) -> WeightedDag:
    """Refit edge weights of a fixed structure by per-node least squares.

    Each node is regressed on its structural parents over mean-centered
    columns, so the returned weights are on the raw column scale. Nodes
    whose parent matrix is rank deficient fall back to a small ridge
    penalty and are flagged.
    """
    structure.validate()
    names = structure.node_names
    x = table.matrix(names)
    n = x.shape[0]
    if n < 2:
        raise InsufficientData("need at least 2 rows to refit weights")
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    xc = x - mean

    d = len(names)
    b = np.zeros((d, d))
    resid_var = np.zeros(d)
    flagged: list[str] = []
    for i in range(d):
        parents = np.flatnonzero(structure.B[i, :] != 0.0)
        if parents.size == 0:
            resid_var[i] = np.var(x[:, i], ddof=1)
            continue
        xp = xc[:, parents]
        coef, _, rank, _ = np.linalg.lstsq(xp, xc[:, i], rcond=None)
        if rank < parents.size:
            # collinear parents: ridge fallback keeps the solve well posed
            gram = xp.T @ xp + 1e-6 * np.eye(parents.size)
            coef = np.linalg.solve(gram, xp.T @ xc[:, i])
            flagged.append(names[i])
        b[i, parents] = coef
        resid = xc[:, i] - xp @ coef
        resid_var[i] = resid @ resid / (n - 1)

    return WeightedDag(
        node_names=names,
        B=b,
        causal_order=structure.causal_order,
        target=structure.target,
        node_means=mean,
        node_stds=std,
        standardized=False,
        residual_variances=resid_var,
        ridge_flagged=tuple(flagged),
    )


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def total_effects(dag: WeightedDag) -> EffectMatrix:
    """Total effects (I - B)^-1 - I of an acyclic weighted adjacency."""
    dag.validate()
    d = dag.n_nodes
    eye = np.eye(d)
    t = np.linalg.solve(eye - dag.B, eye) - eye
    return EffectMatrix(node_names=dag.node_names, T=t)


def rank_features(dag: WeightedDag, target: str, mode: str = "total") -> FeatureRanking:
    """Rank non-target nodes by |causal effect| on `target`, ties alphabetical.

    `mode="total"` uses the summed effect over all directed paths;
    `mode="direct"` uses the single direct edge weight instead.
    """
    if mode not in ("total", "direct"):
        raise ConfigError(f"unknown ranking mode {mode!r}")
    t = dag.index(target)
    row = total_effects(dag).T[t, :] if mode == "total" else dag.B[t, :]
    items = [
        (name, abs(float(row[i])))
        for i, name in enumerate(dag.node_names)
        if i != t
    ]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    return FeatureRanking(entries=tuple(items))


def select_top_k(ranking: FeatureRanking, k: int) -> tuple[str, ...]:
    if k < 1 or k > len(ranking):
        raise ConfigError(f"k must be in [1, {len(ranking)}], got {k}")
    return ranking.names()[:k]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_dag(path, dag: WeightedDag) -> None:
    """Line-oriented edge list `child,parent,weight` with a node-order header."""
    for name in dag.node_names:
        if "," in name or "\n" in name:
            raise SchemaError(f"node name {name!r} cannot be serialized")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        ordered = [dag.node_names[i] for i in dag.causal_order]
        fh.write(f"# causal_order = {','.join(ordered)}\n")
        if dag.target is not None:
            fh.write(f"# target = {dag.target}\n")
        fh.write(f"# standardized = {int(dag.standardized)}\n")
        if dag.node_means is not None:
            fh.write(f"# node_means = {','.join(fmt(v) for v in dag.node_means)}\n")
        if dag.node_stds is not None:
            fh.write(f"# node_stds = {','.join(fmt(v) for v in dag.node_stds)}\n")
        fh.write("child,parent,weight\n")
        for i, child in enumerate(dag.node_names):
            for j, parent in enumerate(dag.node_names):
                if dag.B[i, j] != 0.0:
                    fh.write(f"{child},{parent},{fmt(dag.B[i, j])}\n")


def load_dag(path) -> WeightedDag:
    meta: dict[str, str] = {}
    edges: list[tuple[str, str, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key.strip()] = value.strip()
                continue
            if line == "child,parent,weight":
                continue
            child, parent, weight = line.split(",")
            edges.append((child, parent, float(weight)))
    if "causal_order" not in meta:
        raise SchemaError(f"{path}: missing causal_order header")
    ordered_names = [s for s in meta["causal_order"].split(",") if s]
    pos = {n: i for i, n in enumerate(ordered_names)}
    d = len(ordered_names)
    b = np.zeros((d, d))
    for child, parent, weight in edges:
        if child not in pos or parent not in pos:
            raise NodeMismatch(f"{path}: edge references unknown node {child!r}/{parent!r}")
        b[pos[child], pos[parent]] = weight
    means = meta.get("node_means")
    stds = meta.get("node_stds")
    return WeightedDag(
        node_names=tuple(ordered_names),
        B=b,
        causal_order=tuple(range(d)),
        target=meta.get("target") or None,
        node_means=np.array([float(v) for v in means.split(",")]) if means else None,
        node_stds=np.array([float(v) for v in stds.split(",")]) if stds else None,
        standardized=bool(int(meta.get("standardized", "1"))),
    )


def save_adjacency_csv(path, dag: WeightedDag) -> None:
    """Dense adjacency dump (rows = children) for heatmap-style plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node," + ",".join(dag.node_names) + "\n")
        for i, name in enumerate(dag.node_names):
            fh.write(name + "," + ",".join(fmt(v) for v in dag.B[i, :]) + "\n")
