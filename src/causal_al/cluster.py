"""Gaussian mixture clustering over pivot features.

Pivot columns are standardized before fitting (their scales differ by
orders of magnitude on chemical descriptors), components are seeded
k-means++ style, and EM runs with full covariances regularized by a
diagonal floor. Fitted parameters are stored back on the raw pivot scale;
posterior assignment works directly on raw tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .dataio import FeatureTable, column_stats, degenerate_message
from .errors import (
    ConfigError,
    DegenerateComponent,
    DegenerateFeature,
    InsufficientData,
    MissingColumn,
)
from .util import checked_names

COVARIANCE_FLOOR = 1e-6
DEFAULT_TOL = 1e-6  # EM stops once the summed log-likelihood gains less


@dataclass(frozen=True)
class GmmModel:
    """Mixture weights/means/covariances over pivot features (raw scale)."""

    weights: np.ndarray
    means: np.ndarray        # components x dim
    covariances: np.ndarray  # components x dim x dim
    pivot_features: tuple[str, ...]
    pivot_means: np.ndarray
    pivot_stds: np.ndarray
    seed: int
    log_likelihoods: tuple[float, ...]  # per-iteration trajectory (standardized space)
    converged: bool  # EM stopped on its tolerance, not at max_iter

    @property
    def n_components(self) -> int:
        return len(self.weights)


def _log_probs(zt: np.ndarray, weights: np.ndarray, means: np.ndarray,
               covs: np.ndarray) -> np.ndarray:
    """(K, n) log weight plus log density of each column of `zt` (d x n)
    under every component, by forward substitution on the Cholesky factors."""
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise DegenerateComponent("covariance is not positive definite") from None
    dim = zt.shape[0]
    sol = zt - means[:, :, None]  # (K, d, n), solved row by row in place
    maha = np.zeros((len(weights), zt.shape[1]))
    for i in range(dim):
        sol[:, i] -= (chol[:, i, None, :i] @ sol[:, :i])[:, 0]
        sol[:, i] /= chol[:, i, i, None]
        maha += sol[:, i] ** 2
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    const = dim * np.log(2.0 * np.pi) + log_det
    return np.log(weights)[:, None] - 0.5 * (const[:, None] + maha)


def _log_normalizer(log_probs: np.ndarray) -> np.ndarray:
    """log(sum(exp(log_probs), axis=0)), shifted by the column max so it
    cannot overflow; NaN where a column is all -inf."""
    top = log_probs.max(axis=0)
    with np.errstate(invalid="ignore"):
        return top + np.log(np.sum(np.exp(log_probs - top), axis=0))


def _kmeanspp_centers(z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = z.shape[0]
    centers = [z[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((z - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0.0:
            centers.append(z[rng.integers(n)])
            continue
        centers.append(z[rng.choice(n, p=d2 / total)])
    return np.array(centers)


def fit_gmm(
    table: FeatureTable,
    pivot_features,
    n_components: int = 3,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = DEFAULT_TOL,
) -> GmmModel:
    """Fit a full-covariance mixture by EM on standardized pivot columns.

    The model records the per-iteration log-likelihood trajectory, which
    is non-decreasing up to a small numerical slack, and whether EM stopped
    on `tol` rather than at `max_iter`.
    """
    pivots = checked_names(pivot_features, table.feature_names, "pivot features", MissingColumn)
    if n_components < 1:
        raise ConfigError(f"n_components must be >= 1, got {n_components}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if not (tol >= 0.0 and np.isfinite(tol)):
        raise ConfigError(f"tol must be a finite number >= 0, got {tol!r}")
    n = table.n_rows
    if n < n_components:
        raise InsufficientData(f"{n} rows cannot support {n_components} components")
    if n < 2:
        raise InsufficientData("need at least 2 rows to standardize the pivots")

    x = table.matrix(pivots)
    center, scale, degenerate = column_stats(x)
    if degenerate.any():
        raise DegenerateFeature(degenerate_message(pivots, scale, degenerate, n))
    z = (x - center) / scale
    zt = np.ascontiguousarray(z.T)
    dim = z.shape[1]

    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(z, n_components, rng)
    base_cov = np.cov(z, rowvar=False, ddof=1).reshape(dim, dim) + COVARIANCE_FLOOR * np.eye(dim)
    covs = np.repeat(base_cov[None, :, :], n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)

    trajectory: list[float] = []
    prev_ll = -np.inf
    converged = False
    for _ in range(max_iter):
        log_probs = _log_probs(zt, weights, means, covs)
        row_norm = _log_normalizer(log_probs)
        ll = float(np.sum(row_norm))
        if not np.isfinite(ll):
            raise DegenerateComponent("log-likelihood diverged")
        trajectory.append(ll)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            converged = True
            break
        prev_ll = ll

        resp = np.exp(log_probs - row_norm)
        nk = resp.sum(axis=1)
        if np.any(nk <= 0.0):
            raise DegenerateComponent("a component lost all responsibility")
        weights = nk / n
        means = (resp @ z) / nk[:, None]
        diff = zt - means[:, :, None]
        cov = (resp[:, None, :] * diff) @ diff.transpose(0, 2, 1) / nk[:, None, None]
        covs = 0.5 * (cov + cov.transpose(0, 2, 1)) + COVARIANCE_FLOOR * np.eye(dim)

    # report parameters on the raw pivot scale
    raw_means = means * scale + center
    raw_covs = scale[:, None] * covs * scale
    return GmmModel(
        weights=weights,
        means=raw_means,
        covariances=raw_covs,
        pivot_features=pivots,
        pivot_means=center,
        pivot_stds=scale,
        seed=seed,
        log_likelihoods=tuple(trajectory),
        converged=converged,
    )


def responsibilities(model: GmmModel, table: FeatureTable) -> np.ndarray:
    """Posterior component probabilities per row (rows sum to 1)."""
    checked_names(model.pivot_features, table.feature_names, "pivot features", MissingColumn)
    xt = np.ascontiguousarray(table.matrix(model.pivot_features).T)
    log_probs = _log_probs(xt, model.weights, model.means, model.covariances)
    return np.exp(log_probs - _log_normalizer(log_probs)).T


def assign_subsets(model: GmmModel, table: FeatureTable) -> np.ndarray:
    """Label each row with its argmax-responsibility component (ties: lowest index)."""
    return np.argmax(responsibilities(model, table), axis=1)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_gmm(path, model: GmmModel) -> None:
    """`key = value` lines, then one `component`/`mean`/`cov` block per component."""
    meta = [
        ("pivot_features", model.pivot_features),
        ("seed", model.seed),
        ("weights", model.weights),
        ("pivot_means", model.pivot_means),
        ("pivot_stds", model.pivot_stds),
        ("log_likelihoods", model.log_likelihoods),
    ]
    for k in range(model.n_components):
        meta += [("component", k), ("mean", model.means[k])]
        meta += [("cov", row) for row in model.covariances[k]]
    artifacts.write(path, meta=meta)


def write_labels(path, row_ids, labels) -> None:
    artifacts.write(path, header=("id", "subset"), rows=zip(row_ids, labels))


def read_labels(path) -> dict[str, int]:
    rows = artifacts.read(path, ("id", "subset"), lambda rid, lab: (rid, int(lab))).rows
    checked_names((rid for rid, _ in rows), where=str(path))
    return dict(rows)
