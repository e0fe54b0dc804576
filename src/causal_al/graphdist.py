"""Spectral distance between weighted graphs.

The spectrum of a directed weighted adjacency is taken as its singular
values: a DAG adjacency is non-symmetric (strictly triangular up to node
order, so its eigenvalues are all zero and carry no information), while
singular values are real, ordered, and invariant under node relabeling.
`spectrum` takes a stack of adjacencies in one batched SVD; `spectrum_size`
decides how many values two graphs are compared on."""

from __future__ import annotations

import numpy as np

from .causal import WeightedDag
from .errors import ConfigError, NodeMismatch


def spectrum(b: np.ndarray, n: int) -> np.ndarray:
    """Top-n singular values of each adjacency in `b` (..., d, d), descending,
    zero-padded past d."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    vals = np.linalg.svd(b, compute_uv=False) if b.size else np.zeros(b.shape[:-1])
    if vals.shape[-1] < n:
        vals = np.concatenate([vals, np.zeros(vals.shape[:-1] + (n - vals.shape[-1],))], axis=-1)
    return vals[..., :n]


def spectrum_size(names1, names2, n: int | None = None) -> int:
    """How many singular values two graphs over these node names are compared
    on: `n` when given, else the size of the union of the names. A node of
    one graph only adds a zero row and column to the other, which leaves its
    singular values unchanged; disjoint node sets cannot be compared."""
    s1, s2 = set(names1), set(names2)
    if not s1 & s2:
        raise NodeMismatch("graphs share no nodes")
    return len(s1 | s2) if n is None else n


def spectral_distance(g1: WeightedDag, g2: WeightedDag, n: int | None = None) -> float:
    """l2 distance between the top-n spectra of two graphs (`spectrum_size` decides n)."""
    n = spectrum_size(g1.node_names, g2.node_names, n)
    a, b = spectrum(g1.B, n), spectrum(g2.B, n)
    return float(np.sqrt(np.sum((a - b) ** 2, axis=-1)))
