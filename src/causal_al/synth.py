"""Seeded structural-equation samplers: the ground-truth side of every test.

Default noise is uniform (strongly non-Gaussian, so the discovery
assumptions hold); Gaussian noise exists purely as a negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .causal import WeightedDag, edge_matrix
from .dataio import FeatureTable
from .errors import ConfigError, CyclicGraph, NodeMismatch
from .util import checked_names

NOISE_FAMILIES = ("uniform", "gaussian")


@dataclass(frozen=True)
class SemSpec:
    """An acyclic linear system: x_child = sum(weight * x_parent) + noise."""

    node_names: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (parent, child, weight)
    noises: tuple[tuple[str, float], ...]      # (family, scale) per node
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "node_names", checked_names(
            self.node_names, where="node names", error=ConfigError))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "noises", tuple(self.noises))
        if len(self.noises) != len(self.node_names):
            raise ConfigError("one (family, scale) noise entry required per node")
        for family, scale in self.noises:
            if family not in NOISE_FAMILIES:
                raise ConfigError(f"unknown noise family {family!r}")
            if scale <= 0.0:
                raise ConfigError("noise scales must be positive")
        self.b_matrix()  # raises NodeMismatch on an unknown node or a repeated edge
        self.topological_order()  # raises CyclicGraph on a cycle

    def b_matrix(self) -> np.ndarray:
        return edge_matrix(
            self.node_names, ((c, p, w) for p, c, w in self.edges), "edges", NodeMismatch)

    def topological_order(self) -> list[int]:
        """Kahn's algorithm over the edge set; lowest index first on ties."""
        d = len(self.node_names)
        pos = {n: i for i, n in enumerate(self.node_names)}
        children: dict[int, list[int]] = {i: [] for i in range(d)}
        indeg = [0] * d
        for parent, child, _ in self.edges:
            children[pos[parent]].append(pos[child])
            indeg[pos[child]] += 1
        ready = sorted(i for i in range(d) if indeg[i] == 0)
        order: list[int] = []
        while ready:
            i = ready.pop(0)
            order.append(i)
            for c in sorted(children[i]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
            ready.sort()
        if len(order) != d:
            raise CyclicGraph("edge list contains a cycle")
        return order

    def true_dag(self, target: str | None = None) -> WeightedDag:
        return WeightedDag(
            node_names=self.node_names,
            B=self.b_matrix(),
            causal_order=tuple(self.topological_order()),
            target=target,
            standardized=False,
        )


def _draw_noise(rng: np.random.Generator, family: str, scale: float, n: int) -> np.ndarray:
    if family == "uniform":
        return rng.uniform(-scale, scale, size=n)
    return rng.normal(0.0, scale, size=n)


def sample_sem(
    spec: SemSpec,
    n_rows: int,
    id_prefix: str = "s",
    target_names=(),
) -> FeatureTable:
    """Ancestral sampling in topological order; deterministic per spec.seed."""
    if n_rows < 0:
        raise ConfigError("n_rows must be >= 0")
    d = len(spec.node_names)
    rng = np.random.default_rng(spec.seed)
    # noise drawn in node order so column identity is stable across specs
    eps = np.empty((n_rows, d))
    for i, (family, scale) in enumerate(spec.noises):
        eps[:, i] = _draw_noise(rng, family, scale, n_rows)
    b = spec.b_matrix()
    x = np.zeros_like(eps)
    for i in spec.topological_order():
        x[:, i] = eps[:, i] + x @ b[i, :]
    return FeatureTable(
        row_ids=tuple(f"{id_prefix}{i:06d}" for i in range(n_rows)),
        feature_names=spec.node_names,
        values=x,
        target_names=tuple(target_names),
    )


def perturb_spec(spec: SemSpec, factor: float, seed: int) -> SemSpec:
    """Scale every edge weight by `factor`."""
    factor = float(factor)
    edges = tuple((p, c, w * factor) for p, c, w in spec.edges)
    return SemSpec(node_names=spec.node_names, edges=edges, noises=spec.noises, seed=seed)


def make_heterogeneous_world(
    n_subsets: int,
    shared_target_sem: SemSpec,
    perturbations,
    seed: int,
    n_rows: int = 1000,
    global_rows: int | None = None,
    target: str | None = None,
):
    """Subset tables from perturbed copies of one SEM, plus the global truth.

    `perturbations` has one scalar weight factor per subset; a factor of 1.0
    makes that subset match the global system exactly. Returns
    (subset_tables, global_table, true_dag).
    """
    perturbations = list(perturbations)
    if len(perturbations) != n_subsets:
        raise ConfigError(f"need {n_subsets} perturbation entries, got {len(perturbations)}")
    targets = (target,) if target else ()
    subset_tables = []
    for k in range(n_subsets):
        sub_seed = int(np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(1)[0])
        spec_k = perturb_spec(shared_target_sem, perturbations[k], sub_seed)
        subset_tables.append(
            sample_sem(spec_k, n_rows, id_prefix=f"d{k}_", target_names=targets)
        )
    global_seed = int(np.random.SeedSequence(seed, spawn_key=(n_subsets,)).generate_state(1)[0])
    global_spec = perturb_spec(shared_target_sem, 1.0, global_seed)
    global_table = sample_sem(
        global_spec, global_rows if global_rows is not None else n_rows,
        id_prefix="g_", target_names=targets,
    )
    return subset_tables, global_table, shared_target_sem.true_dag(target=target)
