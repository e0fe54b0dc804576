"""Linear non-Gaussian causal discovery with a sink-constrained target.

Discovery follows the direct iterative-root-selection scheme: at each step
the most exogenous remaining variable is identified with a pairwise
likelihood-ratio measure built from a differential-entropy approximation
(log-cosh and Gaussian-moment terms) and appended to the causal order.
The kernel searches a stack of tables with the same shape at once: at
each step every table has the same number of remaining columns, which are
standardized once, and all pairs are scored together. One covariance
product per step gives each pair's residual moments in closed form, so
each standardized pair residual is one row of a matrix product, formed in
blocks of at most `_BLOCK_SAMPLES` values (one pair at least) in a
workspace allocated once per call: memory stays bounded whatever the row
count. The other columns' pair residuals on the root are the next step's
columns, so the root is regressed out once, and a residual is flat (all
zeros) by one rule, `_FLAT`. The designated target is withheld
from root selection until every feature is ordered, which forces it to be
a sink by construction. Edge weights then come from one Cholesky factor of
each table's causally ordered Gram matrix (least squares per node where
that factor is missing or near-singular), followed by magnitude pruning.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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

# Residual values (pairs x samples) the root search holds per block; a
# block always takes at least one pair.
_BLOCK_SAMPLES = 16_384
# A pair residual is flat, all zeros, when its variance is at most this
# fraction of its regressand's (`_pair_coefficients`).
_FLAT = 1e-12
# A table's weights come from least squares per node instead of its Gram
# matrix's Cholesky factor where a squared pivot is below this fraction of
# its diagonal entry (`_weights`).
_PIVOT_FLOOR = 1e-3


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


def _block_shape(s: int, m: int, n: int) -> tuple[int, int]:
    """(tables, pairs per table) of one pair block of the root search.

    A table has m (m - 1) ordered pairs. A block holds at most
    `_BLOCK_SAMPLES` residual values, or one pair's where that is more, and
    takes several tables only when it holds all of their pairs.
    """
    per = max(1, _BLOCK_SAMPLES // n)
    pairs = m * (m - 1)
    return min(s, max(1, per // pairs)), min(per, pairs)


def _workspace(s: int, d: int, n: int) -> list[np.ndarray]:
    """Scratch of a root search over `s` tables of `d` columns and `n` rows.

    Four flat buffers: the first holds a group of tables' standardized rows
    and a row of ones; the other three hold one pair block each, or a
    group's rows.
    """
    steps = [(m, *_block_shape(s, m, n)) for m in range(3, d + 1)]
    rows = max((k * (m + 1) * n for m, k, _ in steps), default=0)
    block = max([k * max(per, m) * n for m, k, per in steps], default=0)
    return np.split(np.empty(rows + 3 * block), [rows, rows + block, rows + 2 * block])


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j of the off-diagonal pairs (i, j) of m rows, row-major."""
    return np.nonzero(~np.eye(m, dtype=bool))


def _pair_coefficients(g: np.ndarray) -> np.ndarray:
    """(α, β, γ) of each pair's standardized residual r_ij = α g_i + β g_j + γ.

    `g` (k, m, n) holds standardized rows. Row p of the result (k, m (m - 1),
    m + 1) belongs to pair p of `_pairs(m)` and holds α at column i, β at
    column j and γ at column m, to multiply [g; 1]. The residual g_i - c g_j,
    c = cov_ij / var_j, has mean mean_i - c mean_j and variance
    var_i - 2 c cov_ij + c^2 var_j, all from one covariance product. On a
    flat regressor (var_j < 1e-30: a row of zeros) the residual is g_i
    itself. A pair whose residual variance is at most `_FLAT` times var_i
    is flat: its coefficients are 0, so r_ij is all zeros.
    """
    k, m, n = g.shape
    i, j = _pairs(m)
    mean = _row_mean(g)
    cov = np.matmul(g, g.transpose(0, 2, 1))
    cov /= n
    cov -= mean[:, :, None] * mean[:, None, :]
    var = np.diagonal(cov, axis1=1, axis2=2)
    var_i, var_j, cov_ij = var[:, i], var[:, j], cov[:, i, j]
    flat_j = var_j < 1e-30
    c = np.divide(cov_ij, var_j, out=np.zeros_like(cov_ij), where=~flat_j)
    res_var = var_i - 2.0 * c * cov_ij + c * c * var_j
    alpha = np.zeros_like(res_var)
    kept = res_var > _FLAT * var_i
    np.sqrt(res_var, out=alpha, where=kept)
    np.divide(1.0, alpha, out=alpha, where=kept)
    coef = np.zeros((k, i.size, m + 1))
    pair = np.arange(i.size)
    coef[:, pair, i] = np.where(flat_j, 1.0, alpha)
    coef[:, pair, j] = -c * alpha
    coef[:, :, m] = np.where(flat_j, 0.0, (c * mean[:, j] - mean[:, i]) * alpha)
    return coef


def _most_exogenous(w: np.ndarray, cand: np.ndarray, ws) -> np.ndarray:
    """Position of the most plausibly exogenous candidate row of each table.

    `w` (S, m, n), C-contiguous, holds each table's remaining working rows;
    `cand` (S, m) marks the rows that may be chosen; `ws` is the kernel's
    `_workspace`. For candidate i the score accumulates min(0, LR(i, j))^2
    over the other remaining rows j, where LR compares the entropies of the
    two competing regression directions; the least-penalized candidate wins,
    lowest position on ties. Each group of tables is standardized once; its
    pair residuals, already standardized (`_pair_coefficients`), are one
    matrix product of coefficients and [g; 1] per block (`_block_shape`).
    LR(i, i) is 0, so r_ii is not formed. Once a group's roots are chosen,
    each other row i's residual on the root, r_i,root, is that row's next
    working row: the group's (m - 1) next rows per table, in row order, go
    over the front of `w` (S (m - 1) n values). A group's new rows end
    before the next group's old rows begin.
    """
    s, m, n = w.shape
    k, per = _block_shape(s, m, n)
    rows, *block = ws
    i, j = _pairs(m)
    n_pairs = i.size
    pos = np.empty(s, dtype=np.intp)
    for s0 in range(0, s, k):
        kk = min(k, s - s0)
        grp = slice(s0, s0 + kk)
        gb = rows[: kk * (m + 1) * n].reshape(kk, m + 1, n)
        g = gb[:, :m]
        np.copyto(g, w[grp])
        gb[:, m] = 1.0
        t1, t2 = (buf[: g.size].reshape(g.shape) for buf in block[1:])
        ent_sums = np.empty((2, kk, m))
        pair_sums = np.empty((2, kk, n_pairs))
        _standardize(g, t1)
        _entropy_sums(g, t1, t2, *ent_sums)
        coef = _pair_coefficients(g)
        for p0 in range(0, n_pairs, per):
            p1 = min(n_pairs, p0 + per)
            shape = (kk, p1 - p0, n)
            r, t1, t2 = (buf[: math.prod(shape)].reshape(shape) for buf in block)
            np.matmul(coef[:, p0:p1], gb, out=r)
            _entropy_sums(r, t1, t2, *pair_sums[:, :, p0:p1])
        ent = _entropy(*ent_sums, n)
        h = np.zeros((kk, m, m))  # h[:, i, j] = entropy of the standardized r_ij
        h[:, i, j] = _entropy(*pair_sums, n)
        lr = (ent[:, None, :] + h) - (ent[:, :, None] + h.transpose(0, 2, 1))  # zero on the diagonal
        penalty = np.sum(np.minimum(0.0, lr) ** 2, axis=2)
        penalty[~cand[grp]] = np.inf
        root = pos[grp] = np.argmin(penalty, axis=1)
        # each table's pairs (i, root), other rows i in order, give its next rows
        nxt = w.reshape(-1)[s0 * (m - 1) * n : (s0 + kk) * (m - 1) * n].reshape(kk, m - 1, n)
        np.matmul(coef[j == root[:, None]].reshape(kk, m - 1, m + 1), gb, out=nxt)
    return pos


def _causal_orders(z: np.ndarray, target_idx: int):
    """Causal orders (S, d) of S tables from their standardized rows.

    `z` (S, d, n), C-contiguous, holds one row of n per table and variable.
    All tables take their root search steps together; each keeps its own
    remaining variables, in column order. A step's next rows are the other
    rows' pair residuals on its root, which `_most_exogenous` writes over
    the front of `z`. With two rows left the one candidate is the root, and
    with one the target: those steps score and write nothing. The workspace
    is allocated once per call.
    """
    s, d, n = z.shape
    w = z.reshape(-1)  # a view: the search refills its front
    tables = np.arange(s)
    ws = _workspace(s, d, n)
    remaining = np.tile(np.arange(d), (s, 1))
    orders = np.empty((s, d), dtype=np.intp)
    for step in range(d):
        m = d - step
        # the first S * m * n values of `w` hold the m remaining rows of each table
        wm = w[: s * m * n].reshape(s, m, n)
        cand = remaining != target_idx
        pos = _most_exogenous(wm, cand, ws) if m > 2 else np.argmax(cand, axis=1)
        orders[:, step] = remaining[tables, pos]
        keep = np.ones((s, m), dtype=bool)
        keep[tables, pos] = False
        remaining = remaining[keep].reshape(s, m - 1)
    return orders


def _cholesky(a: np.ndarray) -> np.ndarray:
    """The Cholesky factor of each matrix of the stack `a`; NaN for one that has none."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:  # some matrix is not positive definite: one at a time
        if len(a) == 1:
            return np.full_like(a, np.nan)
        return np.concatenate([_cholesky(a[t : t + 1]) for t in range(len(a))])


def _weights(gram: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares weights of each node on its causal-order predecessors.

    `gram` (S, d, d) holds the Gram matrices of the tables' standardized
    columns. Ordered causes-first, a table's Gram matrix is L L^T. With U
    = L diag(L)^-1, unit lower triangular, the fits B (strictly lower
    triangular) satisfy U (I - B) = I, so row p of B is
    U[p, :p] - U[p, :p] B[:p, :p]: one factor gives all d fits, row by row.
    Returns B (S, d, d) and whether each table was fitted: a table whose
    ordered Gram matrix has no factor, or a pivot L_pp^2 below `_PIVOT_FLOOR`
    times its diagonal entry (node p nearly a combination of its
    predecessors), is not fitted and keeps zeros.
    """
    s, d, _ = gram.shape
    rows, cols = orders[:, :, None], orders[:, None, :]
    tables = np.arange(s)[:, None, None]
    ordered = gram[tables, rows, cols]
    factor = _cholesky(ordered)
    pivot = np.diagonal(factor, axis1=1, axis2=2)
    # a NaN pivot (no factor) fails the test
    fitted = np.all(pivot * pivot >= _PIVOT_FLOOR * np.diagonal(ordered, axis1=1, axis2=2), axis=1)
    unit = factor[fitted] / pivot[fitted, None, :]
    fits = np.zeros_like(unit)
    for p in range(1, d):
        fits[:, p, :p] = unit[:, p, :p] - np.matmul(unit[:, p, None, :p], fits[:, :p, :p])[:, 0]
    b = np.zeros((s, d, d))
    b[tables[fitted], rows[fitted], cols[fitted]] = fits
    return b, fitted


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
    the pruned adjacencies B (S, d, d) and the causal orders (S, d). Each
    table is standardized once: its Gram matrix is taken before the root
    search writes pair residuals over the rows, and gives the weights
    (`_weights`). A table that `_weights` does not fit takes one
    least-squares fit per node.
    """
    s, n, d = x.shape
    z = np.empty((s, d, n))  # one standardized row per table and variable
    np.subtract(x.transpose(0, 2, 1), mean[:, :, None], out=z)
    z /= std[:, :, None]
    gram = np.matmul(z, z.transpose(0, 2, 1))
    orders = _causal_orders(z, target_idx)
    b, fitted = _weights(gram, orders)
    for t in np.flatnonzero(~fitted).tolist():
        zt = (x[t] - mean[t]) / std[t]  # `z` now holds the search's residuals
        order = orders[t]
        for pos in range(1, d):
            preds = order[:pos]
            b[t, order[pos], preds] = np.linalg.lstsq(zt[:, preds], zt[:, order[pos]], rcond=None)[0]
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
