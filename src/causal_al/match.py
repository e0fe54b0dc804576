"""Map intervened feature vectors back to real molecules.

Matching is exact k-nearest-neighbor search under Euclidean distance in a
normalized feature space over the plain feature columns both tables
share; normalization statistics come from the intervened population
itself. Distances are computed for blocks of query rows of at most
`_BLOCK_DISTANCES` values (one query row at least), so memory stays
bounded whatever the query count. Structural similarity is reported
through Tanimoto scores over ingested fingerprints, and fingerprint
populations can be projected onto their top two principal components for
trajectory plots.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Query x reference distance values held per block (256 KiB of float64, so a
# block's buffers stay in a core's L2 cache); a block always takes at least
# one query row against the whole reference table.
_BLOCK_DISTANCES = 1 << 15


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
    intervened population's statistics. A column left constant in the
    intervened population (clamped single-lever batches do this) takes the
    reference population's scale instead, so matching stays defined.
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
    mean, std, constant = column_stats(xq)
    # a query column's fallback scale: the reference's, or 1.0 where that is constant too
    _, ref_std, ref_constant = column_stats(xr) if reference.n_rows > 1 else (None, 1.0, True)
    std = np.where(constant, np.where(ref_constant, 1.0, ref_std), std)
    zq = (xq - mean) / std
    zr = (xr - mean) / std

    k_eff = min(k, reference.n_rows)
    targets = reference.column(ref_target) if ref_target is not None else None
    step = max(1, _BLOCK_DISTANCES // reference.n_rows)
    zr_cols = np.ascontiguousarray(zr.T)
    blocks = parallel_map(
        lambda lo: _top_k(zq[lo:lo + step], zr_cols, k_eff),
        range(0, zq.shape[0], step),
        jobs=jobs,
    )
    order, dists = (np.vstack(part) for part in zip(*blocks))

    results: list[NeighborResult] = []
    for qid, idx, dist in zip(intervened.row_ids, order.tolist(), dists.tolist()):
        results.append(
            NeighborResult(
                query_id=qid,
                neighbor_ids=tuple(reference.row_ids[j] for j in idx),
                distances=tuple(dist),
                ref_targets=tuple(float(targets[j]) for j in idx) if targets is not None else None,
            )
        )
    return results


def _top_k(zq: np.ndarray, zr_cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each query row's k nearest references.

    `zr_cols` holds the reference rows as columns (features x references).
    Squared differences are summed one feature at a time in column order,
    then rooted: the sequential sum of a scalar loop, bit for bit. Rows come
    out ordered by (distance, reference index), so ties go to the earlier
    reference row, at the k-th place too.
    """
    d = np.subtract.outer(zq[:, 0], zr_cols[0])
    d *= d
    diff = np.empty_like(d)
    for j in range(1, zr_cols.shape[0]):
        np.subtract.outer(zq[:, j], zr_cols[j], out=diff)
        diff *= diff
        d += diff
    del diff  # freed before the partition copies `d`
    np.sqrt(d, out=d)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(d <= kth)
    vals = d[rows, cols]
    order = np.lexsort((cols, vals, rows))
    starts = np.searchsorted(rows, np.arange(d.shape[0]))
    pick = order[starts[:, None] + np.arange(k)]
    return cols[pick], vals[pick]


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|a AND b| / |a OR b| over 0/1 bitvectors; 1.0 when both are empty."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise SchemaError(f"fingerprint widths differ: {a.shape} vs {b.shape}")
    a = a.astype(bool)
    b = b.astype(bool)
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return float(np.count_nonzero(a & b)) / union


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcaProjection:
    components: np.ndarray           # n_components x dim, orthonormal rows
    explained_variances: np.ndarray  # nonincreasing
    coordinates: np.ndarray          # rows x n_components
    center: np.ndarray               # mean of the fitted rows


# Smallest kept Gram eigenvalue, relative to the largest, that may be divided
# by: below it the components' orthonormality error (about eps / ratio)
# would exceed about 1e-8, so the covariance is decomposed instead.
_GRAM_RANK_TOL = 1e-8


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


def pca_project(data, n_components: int = 2) -> PcaProjection:
    """Eigendecomposition PCA with a deterministic sign convention.

    With fewer rows than columns the n x n Gram matrix of the centred rows
    is decomposed instead of the d x d covariance: it has the same non-zero
    eigenvalues (times n - 1), and component v = xc.T u / sqrt(eigenvalue).
    If a kept eigenvalue is too small for that division, the covariance is
    decomposed after all. Each component's largest-magnitude loading is made
    positive, so the projection is reproducible and invariant to row order.

    One float copy of the rows is held at a time: on the Gram path it is
    released while `eigh` runs and rebuilt, bit for bit, afterwards.
    """
    xc, center = _centred_rows(data)
    n, d = xc.shape
    if n_components < 1:
        raise ConfigError("n_components must be >= 1")
    if n < 2 or n < n_components:
        raise InsufficientData(f"{n} rows cannot support {n_components} components")
    variances = None
    if n < d:
        gram = xc @ xc.T
        del xc
        gram_vals, u = np.linalg.eigh(gram)
        del gram
        order = np.argsort(gram_vals)[::-1][:n_components]
        lam = gram_vals[order]
        u = u[:, order]  # only the kept vectors outlive the rebuilt rows
        xc, _ = _centred_rows(data, center)
        if lam[-1] > _GRAM_RANK_TOL * lam[0]:
            variances = lam / (n - 1)
            comps = (xc.T @ (u / np.sqrt(lam))).T
    if variances is None:
        eigvals, eigvecs = np.linalg.eigh(xc.T @ xc / (n - 1))
        order = np.argsort(eigvals)[::-1][:n_components]
        variances = eigvals[order]
        comps = eigvecs[:, order].T.copy()
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
    pairs: list[tuple[str, float, float]] = []
    above: list[str] = []
    seen_above: set[str] = set()
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
        if query_fps is not None and reference_fps is not None:
            sim = tanimoto(query_fps.row(plan.row_id), reference_fps.row(best_id))
        else:
            sim = float("nan")
        pairs.append((plan.row_id, sim, nr.distances[0]))
        if ref_value > threshold and best_id not in seen_above:
            seen_above.add(best_id)
            above.append(best_id)
    return InterventionReport(
        threshold=threshold,
        original_targets=tuple(originals),
        intervened_targets=tuple(intervened),
        matched_targets=tuple(matched),
        pairs=tuple(pairs),
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
        _, ids, distances, targets = zip(*sorted(entries))
        results.append(NeighborResult(qid, ids, distances, None if None in targets else targets))
    return results
