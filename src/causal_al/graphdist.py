"""Spectral distance between weighted graphs.

The spectrum of a directed weighted adjacency is taken as its singular
values: a DAG adjacency is non-symmetric (strictly triangular up to node
order, so its eigenvalues are all zero and carry no information), while
singular values are real, ordered, and invariant under node relabeling.
"""

from __future__ import annotations

import numpy as np

from .causal import WeightedDag
from .errors import ConfigError, NodeMismatch


def spectrum(dag: WeightedDag, n: int) -> np.ndarray:
    """Top-n singular values of the weighted adjacency, descending, zero-padded
    below node count."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    b = np.asarray(dag.B, dtype=np.float64)
    vals = np.linalg.svd(b, compute_uv=False) if b.size else np.zeros(0)
    if vals.size < n:
        vals = np.concatenate([vals, np.zeros(n - vals.size)])
    return vals[:n]


def spectral_distance(
    g1: WeightedDag,
    g2: WeightedDag,
    n: int | None = None,
) -> float:
    """l2 distance between the aligned top-n spectra of two graphs.

    Graphs are aligned by node name; nodes present in only one graph
    contribute zero rows/columns, which leaves the spectrum values
    unchanged. Entirely disjoint node sets cannot be compared.
    """
    s1, s2 = set(g1.node_names), set(g2.node_names)
    if not s1 & s2:
        raise NodeMismatch("graphs share no nodes")
    if n is None:
        n = max(len(s1 | s2), 1)
    a = spectrum(g1, n)
    b = spectrum(g2, n)
    return float(np.sqrt(np.sum((a - b) ** 2)))
