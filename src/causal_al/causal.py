"""Linear non-Gaussian causal discovery with a sink-constrained target.

Discovery follows the direct iterative-root-selection scheme: at each step
the most exogenous remaining variable is identified with a pairwise
likelihood-ratio measure built from a differential-entropy approximation
(log-cosh and Gaussian-moment terms), appended to the causal order, and
regressed out of the remaining columns. The kernel searches a stack of
tables with the same shape at once: at each step every table has the same
number of remaining columns, which are standardized once, and all pairs
are scored together. Covariances, regression coefficients and pairwise
residuals are formed as arrays in blocks of at most `_BLOCK_SAMPLES`
residual values (one regressand at least), in a workspace allocated once
per call, so memory stays bounded whatever the row count. The designated
target is withheld from root selection until every feature is ordered,
which forces it to be a sink by construction. Edge weights then come from
sequential least squares over causal-order predecessors, followed by
magnitude pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import artifacts
from .dataio import FeatureTable, column_stats, degenerate_message
from .errors import (
    CyclicGraph,
    DegenerateFeature,
    InsufficientData,
    MissingColumn,
    NodeMismatch,
    SchemaError,
)
from .util import checked_names

DEFAULT_PRUNE_THRESHOLD = 0.05
EXTRA_ROWS = 10  # discovery over d columns takes at least d + EXTRA_ROWS rows

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

    def __post_init__(self):
        names = checked_names(self.node_names, where="node names")
        d = len(names)
        B = np.asarray(self.B, dtype=np.float64)
        if B.shape != (d, d):
            raise SchemaError(f"adjacency shape {B.shape} does not match {d} nodes")
        if sorted(self.causal_order) != list(range(d)):
            raise SchemaError("causal_order is not a permutation of the nodes")
        if self.target is not None and self.target not in self.node_names:
            raise NodeMismatch(f"target {self.target!r} is not a node")
        if (msg := _non_finite_weight(names, B)) is not None:
            raise SchemaError(msg)
        for key in ("node_means", "node_stds"):
            values = getattr(self, key)
            if values is not None and len(values) != d:
                raise SchemaError(f"{key} has {len(values)} values for {d} nodes")
            if values is not None and not np.isfinite(values).all():
                i = int(np.argmin(np.isfinite(values)))
                raise SchemaError(f"{key}: {names[i]!r} is not finite ({values[i]})")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "node_names", names)
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


# ---------------------------------------------------------------------------
# Pairwise likelihood-ratio root search
# ---------------------------------------------------------------------------


def _row_mean(u: np.ndarray, keepdims: bool = False) -> np.ndarray:
    # the arithmetic of u.mean(axis=-1), without its Python-level wrapper
    return np.add.reduce(u, axis=-1, keepdims=keepdims) / u.shape[-1]


def _standardize(u: np.ndarray, tmp: np.ndarray) -> None:
    """Each row of `u` to zero mean and unit variance in place; near-constant rows to 0.

    `tmp` is scratch of `u`'s shape. The mean is taken once and `u - mean`
    serves both the variance and the result: the arithmetic of `u.std()`
    followed by `(u - u.mean()) / sd`.
    """
    u -= _row_mean(u, keepdims=True)
    np.multiply(u, u, out=tmp)
    sd = np.sqrt(_row_mean(tmp, keepdims=True))
    flat = sd < 1e-15
    sd[flat] = 1.0
    u /= sd
    if flat.any():
        np.copyto(u, 0.0, where=flat)


def _entropy_sums(u, t1, t2, log_cosh, moment) -> None:
    """Row sums of log cosh(u) into `log_cosh` and of u exp(-u^2 / 2) into `moment`.

    `u` holds standardized rows; `t1` and `t2` are scratch of its shape.
    """
    # overflow-safe log(cosh(u)) = |u| + log1p(exp(-2|u|)) - log(2)
    np.abs(u, out=t1)
    np.multiply(t1, -2.0, out=t2)
    np.exp(t2, out=t2)
    np.log1p(t2, out=t2)
    t1 += t2
    t1 -= np.log(2.0)
    np.add.reduce(t1, axis=-1, out=log_cosh)
    np.square(u, out=t1)
    t1 *= -0.5  # rounds exactly as negating and halving
    np.exp(t1, out=t1)
    t1 *= u
    np.add.reduce(t1, axis=-1, out=moment)


def _entropy(log_cosh: np.ndarray, moment: np.ndarray, n: int) -> np.ndarray:
    """Approximate differential entropy of standardized rows of `n` values
    from their `_entropy_sums`."""
    return (
        (1.0 + np.log(2.0 * np.pi)) / 2.0
        - _K1 * (log_cosh / n - _GAMMA) ** 2
        - _K2 * (moment / n) ** 2
    )


def _residual(u, v, mean_u, mean_v, var_v, out: np.ndarray) -> None:
    """Write into `out` the residual of each row of `u` regressed on the row of `v`.

    That is u - (cov(u, v) / var(v)) v, or u - mean(u) where v has no
    variance. `u` and `v` broadcast to `out` (..., n); the moments have
    their shapes without the last axis.
    """
    np.multiply(u, v, out=out)
    cov = _row_mean(out) - mean_u * mean_v
    flat = var_v < 1e-30
    if flat.any():
        coef = np.where(flat, 0.0, cov / np.where(flat, 1.0, var_v))
        shift = np.where(flat, mean_u, 0.0)[..., None]
    else:  # the common case: no masks, and no pass subtracting zeros
        coef, shift = cov / var_v, None
    np.multiply(coef[..., None], v, out=out)
    np.subtract(u, out, out=out)
    if shift is not None:
        out -= shift


def _block_shape(s: int, m: int, n: int) -> tuple[int, int]:
    """(tables, regressands per table) of one pair block of the root search.

    A block pairs each regressand with the m - 1 other remaining rows of its
    table. It holds at most `_BLOCK_SAMPLES` residual values, or one
    regressand's where that is more.
    """
    per = max(1, _BLOCK_SAMPLES // ((m - 1) * n))
    return min(s, max(1, per // m)), min(per, m)


def _workspace(s: int, d: int, n: int) -> list[np.ndarray]:
    """Scratch of a root search over `s` tables of `d` columns and `n` rows.

    Four flat buffers: the first holds a group of tables' standardized rows
    twice over, or the rows a residualization step regresses; the other
    three hold one pair block each, or a group's rows.
    """
    steps = [(m, *_block_shape(s, m, n)) for m in range(3, d + 1)]
    rows = max([(d - 1) * n] + [2 * k * m * n for m, k, _ in steps])
    block = max([k * max(per * (m - 1), m) * n for m, k, per in steps], default=0)
    return np.split(np.empty(rows + 3 * block), [rows, rows + block, rows + 2 * block])


def _most_exogenous(w: np.ndarray, cand: np.ndarray, ws) -> np.ndarray:
    """Position of the most plausibly exogenous candidate row of each table.

    `w` (S, m, n) holds each table's remaining working rows; `cand` (S, m)
    marks the rows that may be chosen; `ws` is the kernel's `_workspace`.
    For candidate i the score accumulates min(0, LR(i, j))^2 over the other
    remaining rows j, where LR compares the entropies of the two competing
    regression directions; the least-penalized candidate wins, lowest
    position on ties. The pairwise residuals of a group of tables are formed
    as arrays, a block of regressands at a time (`_block_shape`). LR(i, i)
    is 0, so r_ii is not formed. Every reduction runs along a row, so each
    LR(i, j) equals the one-pair-at-a-time formula bit for bit, whatever
    the blocks and the stack.
    """
    s, m, n = w.shape
    k, per = _block_shape(s, m, n)
    rows, *block = ws
    # each group's standardized rows twice over, so that window i + 1 of
    # m - 1 rows holds the others of row i, j = (i + 1 + jj) mod m
    g2 = rows[: 2 * k * m * n].reshape(k, 2 * m, n)
    table, row, value = g2.strides
    others = as_strided(g2[:, 1:], (k, m, m - 1, n), (table, row, row, value), writeable=False)
    jj = (np.arange(m)[:, None] + np.arange(1, m)) % m
    ent_sums = np.empty((2, s, m))
    pair_sums = np.empty((2, s, m, m - 1))  # [:, :, i, jj] for r_ij
    for s0 in range(0, s, k):
        kk = min(k, s - s0)
        g = g2[:kk, :m]
        np.copyto(g, w[s0 : s0 + k])
        t1, t2 = (buf[: g.size].reshape(g.shape) for buf in block[1:])
        _standardize(g, t1)
        _entropy_sums(g, t1, t2, *ent_sums[:, s0 : s0 + k])
        mean = _row_mean(g)
        np.subtract(g, mean[..., None], out=t1)
        t1 *= t1
        var = _row_mean(t1)
        g2[:kk, m:] = g
        mean_o, var_o = mean[:, jj], var[:, jj]
        for i0 in range(0, m, per):
            i1 = min(m, i0 + per)
            shape = (kk, i1 - i0, m - 1, n)
            r, t1, t2 = (buf[: math.prod(shape)].reshape(shape) for buf in block)
            _residual(
                g[:, i0:i1, None], others[:kk, i0:i1], mean[:, i0:i1, None],
                mean_o[:, i0:i1], var_o[:, i0:i1], r,
            )
            _standardize(r, t1)
            _entropy_sums(r, t1, t2, *pair_sums[:, s0 : s0 + k, i0:i1])
    ent = _entropy(*ent_sums, n)
    h = np.zeros((s, m, m))  # h[:, i, j] = entropy of the standardized r_ij
    h[:, np.arange(m)[:, None], jj] = _entropy(*pair_sums, n)
    lr = (ent[:, None, :] + h) - (ent[:, :, None] + h.transpose(0, 2, 1))  # zero on the diagonal
    penalty = np.sum(np.minimum(0.0, lr) ** 2, axis=2)
    penalty[~cand] = np.inf
    return np.argmin(penalty, axis=1)


def _causal_orders(x: np.ndarray, mean: np.ndarray, std: np.ndarray, target_idx: int):
    """Causal orders (S, d) of the tables stacked in `x` (S, rows, columns).

    All tables take their root search steps together; each keeps its own
    remaining variables, in column order. The working rows and the
    workspace are allocated once per call.
    """
    s, n, d = x.shape
    tables = np.arange(s)
    # one row per variable, residualized as roots are taken; the first
    # S * m * n values hold the m remaining rows of each table
    w = np.empty(s * d * n)
    z = w.reshape(s, d, n)
    np.subtract(x.transpose(0, 2, 1), mean[:, :, None], out=z)
    z /= std[:, :, None]
    ws = _workspace(s, d, n)
    remaining = np.tile(np.arange(d), (s, 1))
    orders = np.empty((s, d), dtype=np.intp)
    for step in range(d):
        m = d - step
        wm = w[: s * m * n].reshape(s, m, n)
        cand = remaining != target_idx
        # with two rows left the one candidate is the root; with one, the target
        pos = _most_exogenous(wm, cand, ws) if m > 2 else np.argmax(cand, axis=1)
        orders[:, step] = remaining[tables, pos]
        if m == 1:
            break
        keep = np.ones((s, m), dtype=bool)
        keep[tables, pos] = False
        remaining = remaining[keep].reshape(s, m - 1)
        # Residualize the other rows on the root, a group of tables at a time,
        # into the front of `w`: a group's new rows end before the next group's
        # old rows begin.
        k = len(ws[0]) // ((m - 1) * n)
        for s0 in range(0, s, k):
            grp, kk = slice(s0, s0 + k), min(k, s - s0)
            u = ws[0][: kk * (m - 1) * n].reshape(kk, m - 1, n)
            # mode="clip" writes straight into `u`; "raise" copies through a buffer
            others = np.flatnonzero(keep[grp])
            np.take(wm[grp].reshape(-1, n), others, axis=0, out=u.reshape(-1, n), mode="clip")
            root = wm[grp][np.arange(kk), pos[grp]]
            out = w[s0 * (m - 1) * n : (s0 + kk) * (m - 1) * n].reshape(kk, m - 1, n)
            mean_root, var_root = _row_mean(root)[:, None], root.var(axis=-1)[:, None]
            _residual(u, root[:, None], _row_mean(u), mean_root, var_root, out)
    return orders


def _discover(
    x: np.ndarray,
    mean: np.ndarray,
    std: np.ndarray,
    target_idx: int,
    prune_threshold: float,
    destandardize: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain-array discovery kernel over the tables stacked in `x` (S, rows, columns).

    `mean` and `std` are the tables' `column_stats`, no table has a
    degenerate column, and each has at least d + `EXTRA_ROWS` rows. Returns
    the pruned adjacencies B (S, d, d) and the causal orders (S, d). The
    weights are one least-squares fit per node and table.
    """
    s, _, d = x.shape
    orders = _causal_orders(x, mean, std, target_idx)
    b = np.zeros((s, d, d))
    for t in range(s):
        z = (x[t] - mean[t]) / std[t]
        order = orders[t]
        for pos in range(1, d):
            preds = order[:pos]
            b[t, order[pos], preds] = np.linalg.lstsq(z[:, preds], z[:, order[pos]], rcond=None)[0]
    b[np.abs(b) < prune_threshold] = 0.0
    if destandardize:
        with np.errstate(over="ignore", invalid="ignore"):  # the callers test finiteness
            b = b * std[:, :, None] / std[:, None, :]
    return b, orders


def _non_finite_weight(names, b: np.ndarray) -> str | None:
    """What is wrong with the first non-finite weight of `b` (row-major), or None."""
    bad = np.argwhere(~np.isfinite(b))
    if not len(bad):
        return None
    i, j = bad[0]
    return f"edge '{names[i]}<-{names[j]}' has a weight that is not finite ({b[i, j]})"


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
    checked_names((target,), names, "target", MissingColumn)
    n, d = table.values.shape
    if n < d + EXTRA_ROWS:
        raise InsufficientData(f"need at least {d + EXTRA_ROWS} rows for {d} columns, got {n}")
    x = table.values[None]
    mean, std, degenerate = column_stats(x)
    if degenerate.any():
        raise DegenerateFeature(degenerate_message(names, std[0], degenerate[0], n))
    b, order = _discover(x, mean, std, names.index(target), prune_threshold, destandardize)
    if destandardize and (msg := _non_finite_weight(names, b[0])) is not None:
        raise DegenerateFeature(f"{msg} on the raw column scales")
    return WeightedDag(
        node_names=names,
        B=b[0],
        causal_order=tuple(order[0].tolist()),
        target=target,
        node_means=mean[0],
        node_stds=std[0],
        standardized=not destandardize,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


DAG_HEADER = ("child", "parent", "weight")


def save_dag(path, dag: WeightedDag) -> None:
    """Edge list `child,parent,weight` after the node order and column scales."""
    names = dag.node_names
    order = list(dag.causal_order)
    # `load_dag` reads the statistics in the file's node order, the causal order
    meta = [
        ("causal_order", [names[i] for i in order]),
        ("target", dag.target),
        ("standardized", int(dag.standardized)),
        ("node_means", None if dag.node_means is None else np.asarray(dag.node_means)[order]),
        ("node_stds", None if dag.node_stds is None else np.asarray(dag.node_stds)[order]),
    ]
    rows = [
        (child, parent, dag.B[i, j])
        for i, child in enumerate(names)
        for j, parent in enumerate(names)
        if dag.B[i, j] != 0.0
    ]
    artifacts.write(path, meta=meta, header=DAG_HEADER, rows=rows)


def edge_matrix(names, edges, where: str, error) -> np.ndarray:
    """B with B[child, parent] = weight for each (child, parent, weight) of `edges`.

    This is the one conversion of an edge list into an adjacency. Through
    `checked_names` it raises `error`, naming `where`, at the first edge
    node that is not one of `names` and at a (child, parent) pair listed
    twice, shown as `'child<-parent'`.
    """
    edges = tuple(edges)
    checked_names(dict.fromkeys(n for c, p, _ in edges for n in (c, p)), names, where, error)
    checked_names((f"{c}<-{p}" for c, p, _ in edges), where=where, error=error)
    pos = {n: i for i, n in enumerate(names)}
    b = np.zeros((len(names), len(names)))
    for child, parent, weight in edges:
        b[pos[child], pos[parent]] = weight
    return b


def load_dag(path) -> WeightedDag:
    art = artifacts.read(path, DAG_HEADER, lambda c, p, w: (c, p, float(w)))
    names = art.get("causal_order", artifacts.names)
    b = edge_matrix(names, art.rows, f"{path} edges", SchemaError)
    means = art.get("node_means", artifacts.floats, ())
    stds = art.get("node_stds", artifacts.floats, ())
    try:
        return WeightedDag(
            node_names=names,
            B=b,
            causal_order=tuple(range(len(names))),
            target=art.get("target", default="") or None,
            node_means=np.array(means) if means else None,
            node_stds=np.array(stds) if stds else None,
            standardized=bool(art.get("standardized", int, 1)),
        )
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def save_adjacency_csv(path, dag: WeightedDag) -> None:
    """Dense adjacency dump (rows = children) for heatmap-style plotting."""
    artifacts.write(
        path,
        header=("node", *dag.node_names),
        rows=((name, *b_row) for name, b_row in zip(dag.node_names, dag.B.tolist())),
    )
