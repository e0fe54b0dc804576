"""Map intervened feature vectors back to real molecules.

Matching is exact k-nearest-neighbor search under Euclidean distance in a
normalized feature space over the plain feature columns both tables
share; normalization statistics come from the intervened population
itself. Query rows are searched in blocks of `_BLOCK_DISTANCES` query x
reference values (6 MiB of float64; one query row at least), so memory
stays bounded whatever the query count. In each block one GEMM gives the
expanded squared distance ||r||^2 - 2 q.r to every reference; a threshold
from every 16th reference, widened by a rounding slack per reference row,
drops the references that cannot reach a query's k nearest, and the rest
are re-checked with the exact column-order sum that sets every output bit
(`_top_k` derives the slack). A query row large enough to overflow that
arithmetic keeps every reference. Structural similarity is reported
through Tanimoto scores over ingested fingerprints, counted on their
packed bytes, and fingerprint populations can be projected onto their top
two principal components for trajectory plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import artifacts
from .dataio import FeatureTable, FingerprintTable, column_stats
from .errors import (
    ConfigError,
    DisjointFeatures,
    InsufficientData,
    MissingColumn,
    SchemaError,
)
from .intervene import DEFAULT_GOAL, original_id
from .util import checked_names, parallel_map

# Query x reference values per block: a block's filter matrix holds 6 MiB
# of float64, 39 query rows at 20 000 references (26-52 rows per block all
# ran within 10 % there); a block always takes at least one query row
# against the whole reference table.
_BLOCK_DISTANCES = 3 << 18

# Every _SAMPLE_STRIDE-th reference column sets a query's threshold.
_SAMPLE_STRIDE = 16

# A query row whose largest |value|, plus the table's, times sqrt(d) stays
# below this keeps every filter value under 2^1000, far from overflow; a
# row that reaches it keeps every reference.
_FILTER_REACH = 2.0 ** 500

_EPS = np.finfo(np.float64).eps  # 2^-52
_TINY = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class NeighborResult:
    """Ranked reference matches for one query row (distances nondecreasing)."""

    query_id: str
    neighbor_ids: tuple[str, ...]
    distances: tuple[float, ...]
    ref_targets: tuple[float, ...] | None = None


def nearest_in_reference(
    intervened: FeatureTable,
    reference: FeatureTable,
    k: int = 1,
    ref_target: str | None = None,
    jobs: int = 1,
) -> list[NeighborResult]:
    """Exact k-NN of each intervened row against the reference table.

    Rows are compared on the intervened table's plain feature columns that
    the reference also holds. Both tables are normalized with the
    intervened population's statistics. A column degenerate there (clamped
    single-lever batches leave one constant) takes the reference population's
    scale; one whose mean, spread or normalized values overflow is refused.
    k is clamped to the reference size; ties break toward the earlier
    reference row.
    """
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")
    if reference.n_rows == 0:
        raise SchemaError("reference table is empty")
    if intervened.n_rows < 2:
        raise InsufficientData("need at least 2 intervened rows for population statistics")
    ref_names = set(reference.feature_names)
    features = tuple(f for f in intervened.plain_feature_names if f in ref_names)
    if not features:
        raise DisjointFeatures("no shared feature columns to match on")

    xq = intervened.matrix(features)
    xr = reference.matrix(features)
    mean, std, degenerate = column_stats(xq)
    # a query column's fallback scale: the reference's, or 1.0 where that is degenerate too
    _, ref_std, ref_degenerate = column_stats(xr) if reference.n_rows > 1 else (None, 1.0, True)
    scale = np.where(degenerate, np.where(ref_degenerate, 1.0, ref_std), std)
    zq = (xq - mean) / scale
    zr = (xr - mean) / scale
    finite = np.isfinite(std) & np.isfinite(zq).all(axis=0) & np.isfinite(zr).all(axis=0)
    if not finite.all():
        name = features[int(np.argmin(finite))]
        raise SchemaError(f"column {name!r} is not finite after normalization")

    targets = reference.column(ref_target) if ref_target is not None else None
    order, dists = _knn(zq, zr, min(k, reference.n_rows), jobs)
    ids = np.array(reference.row_ids, dtype=object)[order].tolist()
    ref_targets = targets[order].tolist() if targets is not None else [None] * len(ids)
    return [
        NeighborResult(qid, tuple(nbrs), tuple(dist), None if t is None else tuple(t))
        for qid, nbrs, dist, t in zip(intervened.row_ids, ids, dists.tolist(), ref_targets)
    ]


class _Reference(NamedTuple):
    """A normalized reference table, prepared once for every query block.

    Its rows are reordered so that the sampled ones come first.
    """

    columns: np.ndarray  # (d + 1) x n: the rows as columns, then (1 - slack) ||r||^2
    ids: np.ndarray      # each column's row index in the caller's table
    gap: np.ndarray      # 2 slack ||r||^2 of each sampled row, as computed
    reach: float         # largest |value| in the table (NaN if it holds a NaN)
    slack: float         # c, the filter's rounding slack per unit of ||q||^2 + ||r||^2


def _knn(zq: np.ndarray, zr: np.ndarray, k: int, jobs: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each query row's k nearest rows of `zr`.

    Query rows go in blocks of `_BLOCK_DISTANCES` query x reference values
    (one query row at least), over `jobs` threads; neither changes a bit of
    the result.
    """
    n, d = zr.shape
    stride = _SAMPLE_STRIDE if n >= _SAMPLE_STRIDE * k else 1
    ids = np.argsort(np.arange(n) % stride, kind="stable")  # rows 0, stride, 2 stride, ... first
    slack = 16 * (d + 2) * _EPS
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", zr, zr)[ids]
        columns = np.vstack([zr[ids].T, norms * (1 - slack)])
        gap = (2 * slack) * norms[:(n + stride - 1) // stride]
    ref = _Reference(columns, ids, gap, float(np.abs(zr).max()), slack)
    step = max(1, _BLOCK_DISTANCES // n)
    blocks = parallel_map(
        lambda lo: _top_k(zq[lo:lo + step], ref, k), range(0, zq.shape[0], step), jobs=jobs)
    neighbors, dists = zip(*blocks)
    return np.vstack(neighbors), np.vstack(dists)


def _top_k(zq: np.ndarray, ref: _Reference, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each query row's k nearest references.

    A distance is the exact path's: squared differences summed one feature
    at a time in column order, then rooted, the sequential sum of a scalar
    loop bit for bit. Rows come out ordered by (distance, reference index),
    so ties go to the earlier reference row, at the k-th place too. Only the
    references that a filter keeps take the exact path.

    The filter. With a = ||q||^2, b = ||r||^2 and D = ||q - r||^2, one GEMM
    of [-2q, 1] against the reference columns gives g = (1 - c) b' - 2 q.r
    for the whole block (a' and b' are the computed norms). Let u = 2^-53
    and gamma_m = m u / (1 - m u). Then:
    - the exact path's s is within gamma_{d+2} D <= 2 gamma_{d+2} (a + b)
      of D (the difference, its square, d - 1 additions);
    - a' + b' is within gamma_d (a + b) of a + b;
    - the GEMM is within gamma_{d+1} (2 sum |q_i r_i| + b') of its exact
      value, in any summation order and with or without FMA, and
      sum |q_i r_i| <= (a + b) / 2.
    So s is within (5 d + 7) u (a + b) of a' + b' - 2 q.r. The slack
    c = 16 (d + 2) eps = 32 (d + 2) u covers that, and the roundings of the
    bound arithmetic below, with a wide margin; an absolute
    t = 8 (d + 1) eta (eta the smallest subnormal) covers underflow. Per
    query row:
    - L_j = (1 - c) a' - t + g_j is at most s_j;
    - U_j = (1 + c) a' + t + g_j + 2 c b'_j is at least s_j.
    Over every `_SAMPLE_STRIDE`-th reference (every one when there are
    fewer than `_SAMPLE_STRIDE` k), the k-th smallest U bounds the k-th
    smallest s from above. Times 1 + 8u it also bounds every s whose root
    rounds to the same distance. A reference whose L lies above that bound
    can neither tie nor beat the k-th distance, so it is dropped. The
    sampled references that set the bound always pass, so a row keeps at
    least k. Slack per reference row, not one global max ||r||^2, keeps one
    far-out reference from switching the filter off for every query.
    Nothing here depends on the BLAS thread count.

    A query row that reaches `_FILTER_REACH` against the table (or holds a
    NaN) could overflow the filter, so it keeps every reference, at the
    memory of a full scan. Its exact path then ranks the whole row as a
    full scan does: where every distance overflows, references 0..k-1 at
    inf.
    """
    n_q, d = zq.shape
    c, t = ref.slack, 8 * (d + 1) * _TINY
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.hstack([-2 * zq, np.ones((n_q, 1))]) @ ref.columns
        upper = g[:, :ref.gap.size] + ref.gap
        upper.partition(k - 1, axis=1)
        kth = upper[:, k - 1]
        a = np.einsum("ij,ij->i", zq, zq)
        bound = ((1 + c) * a + t + kth) * (1 + 4 * _EPS)
        keep = g <= np.maximum(bound - ((1 - c) * a - t), kth)[:, None]
        far = ~((np.abs(zq).max(axis=1) + ref.reach) * np.sqrt(d) < _FILTER_REACH)
    keep[far] = True
    rows, pos = np.divmod(np.flatnonzero(keep), ref.ids.size)
    del g, keep

    dist = zq[rows, 0] - ref.columns[0, pos]
    dist *= dist
    for j in range(1, d):
        diff = zq[rows, j] - ref.columns[j, pos]
        diff *= diff
        dist += diff
    np.sqrt(dist, out=dist)
    cols = ref.ids[pos]
    order = np.lexsort((cols, dist, rows))
    starts = np.searchsorted(rows, np.arange(n_q))
    pick = order[starts[:, None] + np.arange(k)]
    return cols[pick], dist[pick]


# The number of set bits in each byte value.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|a AND b| / |a OR b| over 0/1 bitvectors; 1.0 when both are empty."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise SchemaError(f"fingerprint widths differ: {a.shape} vs {b.shape}")
    return float(_packed_tanimoto(np.packbits(a.astype(bool)), np.packbits(b.astype(bool))))


def _packed_tanimoto(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tanimoto of each pair of rows of two `np.packbits` arrays (the last
    axis holds a row's bytes, whose padding bits are 0); 1.0 where both
    rows are empty."""
    both = _POPCOUNT[a & b].sum(axis=-1)
    either = _POPCOUNT[a | b].sum(axis=-1)
    return np.where(either == 0, 1.0, both / np.maximum(either, 1))


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcaProjection:
    components: np.ndarray           # 2 x dim, orthonormal rows
    explained_variances: np.ndarray  # nonincreasing
    coordinates: np.ndarray          # rows x 2
    center: np.ndarray               # mean of the fitted rows


# Smallest kept Gram eigenvalue, relative to the largest, that may be divided
# by: below it the components' orthonormality error (about eps / ratio)
# would exceed about 1e-8, so the covariance is decomposed instead.
_GRAM_RANK_TOL = 1e-8

# A symmetric matrix of at most this many rows is decomposed by a full
# `eigh`; a larger one by block Lanczos, which `eigh` backs up.
_EIGH_ROWS = 256

# A Ritz pair (theta, y) is kept once ||A y - theta y|| <= this times the
# largest Ritz value. The pairs are checked each time the basis has grown by
# _RITZ_EVERY vectors (a block at least), and once more at its cap.
_RITZ_TOL = 1e-13
_RITZ_EVERY = 24

# A new Lanczos block whose reorthogonalized part has an R diagonal entry
# below this times the block's norm adds (next to) no direction: the basis
# spans an invariant subspace, e.g. of a low-rank Gram matrix.
_BREAKDOWN_TOL = 1e-6


def _top_eigenpairs(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric matrix `a`, in descending
    order, and their unit eigenvectors as columns.

    Up to `_EIGH_ROWS` rows this is a full `np.linalg.eigh`. Above, block
    Lanczos with block size k finds them (a repeated eigenvalue among the
    top k is found in full); `eigh` is used after all when the Krylov basis
    spans an invariant subspace, when the largest Ritz value is not
    positive, or when the basis would pass half the dimension.
    """
    if a.shape[0] > _EIGH_ROWS:
        found = _block_lanczos(a, k)
        if found is not None:
            return found
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1][:k]
    return vals[order], vecs[:, order]


def _block_lanczos(a: np.ndarray, k: int):
    """Block Lanczos with full reorthogonalization (Golub & Underwood 1977).

    The basis V is held as rows, from a fixed seeded orthonormal block.
    Each new block is A times the last one, made orthogonal to V by two
    Gram-Schmidt passes as matrix products (the first pass's coefficients
    are the new rows of `t` = V A V^T) and orthonormalized by QR. The
    top k eigenpairs of `t` give the Ritz pairs, whose residuals are taken
    against `a` itself. Returns None where `eigh` must decide (see
    `_top_eigenpairs`).
    """
    n = a.shape[0]
    cap = n // 2
    v = np.empty((cap, n))
    t = np.empty((cap, cap))
    block = np.linalg.qr(np.random.default_rng(0).standard_normal((n, k)))[0].T
    m, checked = 0, 0
    while m + k <= cap:
        v[m : m + k] = block
        w = block @ a  # (A block^T)^T: `a` is symmetric
        m += k
        c = v[:m] @ w.T
        t[m - k : m, :m] = c.T  # `eigh` reads the lower triangle only
        if m - checked >= _RITZ_EVERY or m + k > cap:
            checked = m
            theta, s = np.linalg.eigh(t[:m, :m])
            theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
            if theta[0] <= 0.0:
                return None
            y = s.T @ v[:m]
            residual = y @ a - theta[:, None] * y
            if np.all(np.linalg.norm(residual, axis=1) <= _RITZ_TOL * theta[0]):
                return theta, y.T
        scale = np.linalg.norm(w)
        w -= c.T @ v[:m]
        w -= (w @ v[:m].T) @ v[:m]
        q, r = np.linalg.qr(w.T)
        if not np.abs(np.diag(r)).min() > _BREAKDOWN_TOL * scale:
            return None
        block = q.T
    return None


def _centred_rows(data, center: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A new float64 copy of the rows, centred in place, and the center.

    The caller's array is never written. Given the same `center`, the rows
    come out bit for bit as they did the first time.
    """
    if isinstance(data, FingerprintTable):
        x = data.bits.astype(np.float64)
    else:
        x = np.array(data, dtype=np.float64)
    if center is None:
        center = x.mean(axis=0)
    x -= center
    return x, center


def pca_project(data) -> PcaProjection:
    """The top two principal components (the report's phi1 and phi2), by
    eigendecomposition with a deterministic sign convention.

    With fewer rows than columns the n x n Gram matrix of the centred rows
    is decomposed instead of the d x d covariance: it has the same non-zero
    eigenvalues (times n - 1), and component v = xc.T u / sqrt(eigenvalue).
    If a kept eigenvalue is too small for that division, the covariance is
    decomposed after all. Either matrix goes through `_top_eigenpairs`.
    Each component's largest-magnitude loading is made positive, so the
    projection is reproducible and invariant to row order.

    One float copy of the rows is held at a time: on the Gram path it is
    released while the Gram matrix is decomposed and rebuilt, bit for bit,
    afterwards.
    """
    xc, center = _centred_rows(data)
    n, d = xc.shape
    if n < 2:
        raise InsufficientData(f"{n} rows cannot support 2 components")
    if d < 2:
        raise InsufficientData(f"{d} columns cannot support 2 components")
    variances = None
    if n < d:
        gram = xc @ xc.T
        del xc
        lam, u = _top_eigenpairs(gram, 2)
        del gram  # only the kept vectors outlive the rebuilt rows
        xc, _ = _centred_rows(data, center)
        if lam[-1] > _GRAM_RANK_TOL * lam[0]:
            variances = lam / (n - 1)
            comps = (xc.T @ (u / np.sqrt(lam))).T
    if variances is None:
        variances, eigvecs = _top_eigenpairs(xc.T @ xc / (n - 1), 2)
        comps = eigvecs.T.copy()
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PcaProjection(
        components=comps,
        explained_variances=np.maximum(variances, 0.0),
        coordinates=xc @ comps.T,
        center=center,
    )


def project_onto(projection: PcaProjection, data) -> np.ndarray:
    """Project new rows with an existing projection's center and components."""
    return _centred_rows(data, projection.center)[0] @ projection.components.T


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterventionReport:
    """Distribution data and per-molecule similarity pairs for one batch."""

    threshold: float
    original_targets: tuple[float, ...]
    intervened_targets: tuple[float, ...]
    matched_targets: tuple[float, ...]
    pairs: tuple[tuple[str, float, float], ...]  # (query_id, tanimoto, distance)
    above_threshold_ids: tuple[str, ...]

    @property
    def above_threshold_count(self) -> int:
        return len(self.above_threshold_ids)


def intervention_report(
    plans,
    neighbors,
    reference_targets: dict[str, float],
    threshold: float = DEFAULT_GOAL,
    query_fps: FingerprintTable | None = None,
    reference_fps: FingerprintTable | None = None,
) -> InterventionReport:
    """Summarize matched interventions against a reference population.

    For each plan/neighbor pair, collects the predicted target before and
    after intervention and the matched reference molecule's recorded
    target; lists the distinct matched molecules whose reference target
    strictly exceeds `threshold`. Tanimoto pairs are filled in when both
    fingerprint tables are supplied (NaN otherwise). Neighbor query ids
    may carry the intervention marker; they are matched to plans by the
    underlying original row id.
    """
    by_query = {original_id(nr.query_id): nr for nr in neighbors}
    originals: list[float] = []
    intervened: list[float] = []
    matched: list[float] = []
    firsts: list[tuple[str, float]] = []  # (query id, distance to the best match) per plan
    fp_rows: list[tuple[int, int]] = []  # (query, reference) fingerprint row per plan
    above: list[str] = []
    seen_above: set[str] = set()
    with_fps = query_fps is not None and reference_fps is not None
    for plan in plans:
        nr = by_query.get(plan.row_id)
        if nr is None:
            raise SchemaError(f"no neighbor result for plan row {plan.row_id!r}")
        best_id = nr.neighbor_ids[0]
        if best_id not in reference_targets:
            raise MissingColumn(f"reference target missing for {best_id!r}")
        ref_value = float(reference_targets[best_id])
        originals.append(plan.predicted_target_before)
        intervened.append(plan.predicted_target_after)
        matched.append(ref_value)
        firsts.append((plan.row_id, nr.distances[0]))
        if with_fps:
            fp_rows.append((query_fps.index(plan.row_id), reference_fps.index(best_id)))
        if ref_value > threshold and best_id not in seen_above:
            seen_above.add(best_id)
            above.append(best_id)
    if fp_rows:
        if query_fps.width != reference_fps.width:
            raise SchemaError(
                f"fingerprint widths differ: {query_fps.width} vs {reference_fps.width}")
        qi, ri = np.array(fp_rows).T
        sims = _packed_tanimoto(query_fps.packed[qi], reference_fps.packed[ri]).tolist()
    else:
        sims = [float("nan")] * len(firsts)
    return InterventionReport(
        threshold=threshold,
        original_targets=tuple(originals),
        intervened_targets=tuple(intervened),
        matched_targets=tuple(matched),
        pairs=tuple((qid, sim, dist) for (qid, dist), sim in zip(firsts, sims)),
        above_threshold_ids=tuple(above),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


NEIGHBORS_HEADER = ("query_id", "rank", "ref_id", "distance", "ref_target")


def save_neighbors(path, neighbors) -> None:
    artifacts.write(path, header=NEIGHBORS_HEADER, rows=(
        (nr.query_id, rank, rid, dist, "" if nr.ref_targets is None else nr.ref_targets[rank - 1])
        for nr in neighbors
        for rank, (rid, dist) in enumerate(zip(nr.neighbor_ids, nr.distances), start=1)
    ))


def load_neighbors(path) -> list[NeighborResult]:
    rows = artifacts.read(path, NEIGHBORS_HEADER, (
        lambda qid, rank, rid, dist, t: (qid, int(rank), rid, float(dist), float(t) if t else None)
    )).rows
    checked_names((f"{qid} rank {rank}" for qid, rank, *_ in rows), where=str(path))
    grouped: dict[str, list] = {}
    for qid, *entry in rows:
        grouped.setdefault(qid, []).append(entry)
    results = []
    for qid, entries in grouped.items():
        ranks, ids, distances, targets = zip(*sorted(entries))
        if ranks != tuple(range(1, len(ranks) + 1)):
            raise SchemaError(
                f"{path}: query {qid!r} has ranks {','.join(map(str, ranks))}, "
                f"expected 1..{len(ranks)}"
            )
        results.append(NeighborResult(qid, ids, distances, None if None in targets else targets))
    return results
