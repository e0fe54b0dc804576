"""Correctness gate of the benchmark: oracles and invariants per workload.

Each check returns a list of problems (empty when the output is correct),
so a failed check can be reported and turned into a non-zero exit code.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

KNN_DISTANCE_TOL = 1e-12  # criterion 08's bound on |distance - oracle distance|
GOAL_TOL = 1e-9           # criterion 06's bound on |prediction under do() - goal|


def digest(*parts) -> str:
    """sha256 over the text form of the parts (floats with 17 digits)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (float, np.floating)):
            h.update(f"{float(x):.17g};".encode())
        elif isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        else:
            h.update(f"{x};".encode())

    for p in parts:
        feed(p)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def loop_problems(run, subset_ids, m: int, n_iter: int) -> list[str]:
    """Invariants of one active or random run, independent of the seed."""
    tag = f"{run.mode} run"
    problems = []
    if len(run.records) != n_iter:
        return [f"{tag}: {len(run.records)} iterations, expected {n_iter}"]
    ids = run.selected_row_ids
    if len(ids) != m * n_iter or len(set(ids)) != len(ids):
        problems.append(f"{tag}: {len(ids)} committed ids, {len(set(ids))} distinct")
    for i, rec in enumerate(run.records):
        if rec.size != m * (i + 1):
            problems.append(f"{tag}: iteration {i} size {rec.size}")
        if rec.loss != rec.losses[rec.chosen]:
            problems.append(f"{tag}: iteration {i} loss is not the chosen subset's")
        if run.mode == "active" and rec.chosen != int(np.argmin(rec.losses)):
            problems.append(f"{tag}: iteration {i} did not commit the first minimum")
        block = ids[i * m : (i + 1) * m]
        if not set(block) <= subset_ids[rec.chosen]:
            problems.append(f"{tag}: iteration {i} rows are not from subset {rec.chosen}")
    return problems


def loss_matches(got: float, want: float, rtol: float) -> bool:
    return math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def knn_disagreements(queries, reference, neighbors, sample, k: int, ref_target=None) -> list[int]:
    """Sampled queries whose neighbours disagree with a brute-force scan.

    The oracle repeats the documented normalization (query statistics, the
    reference scale for columns constant among the queries), then scans
    every reference row with its own distance arithmetic and orders by
    (distance, row index), as criterion 08 does. It shares no search code
    with `nearest_in_reference`.
    """
    feats = [f for f in queries.plain_feature_names if f in reference.feature_names]
    xq = queries.matrix(feats)
    xr = reference.matrix(feats)
    mean = xq.mean(axis=0)
    std = xq.std(axis=0, ddof=1)
    std = np.where(std == 0.0, xr.std(axis=0, ddof=1), std)
    std = np.where(std == 0.0, 1.0, std)
    zq = (xq - mean) / std
    zr = (xr - mean) / std
    ref_index = np.arange(reference.n_rows)
    targets = reference.column(ref_target) if ref_target is not None else None
    bad = []
    for i in sample:
        diff = zr - zq[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        top = np.lexsort((ref_index, d))[:k]
        nr = neighbors[i]
        ok = (
            nr.query_id == queries.row_ids[i]
            and nr.neighbor_ids == tuple(reference.row_ids[j] for j in top)
            and len(nr.distances) == len(top)
            and all(abs(g - d[j]) < KNN_DISTANCE_TOL for g, j in zip(nr.distances, top))
        )
        if ok and targets is not None:
            ok = nr.ref_targets == tuple(float(targets[j]) for j in top)
        if not ok:
            bad.append(int(i))
    return bad


def plan_problems(plans, table, dag, bounds, goal: float) -> list[str]:
    """Unclamped plans reach the goal on the fitted model; clamped ones stay in bounds."""
    from causal_al.intervene import predict_target_sem, total_effects

    effects = total_effects(dag)
    idx = [table.index(n) for n in dag.node_names]
    problems = []
    if [p.row_id for p in plans] != list(table.row_ids):
        return ["plans do not cover the table rows in order"]
    for plan, row in zip(plans, table.values):
        lo, hi = bounds[plan.chosen_feature]
        if plan.clamped:
            if not lo <= plan.intervened_value <= hi:
                problems.append(f"{plan.row_id}: clamped value outside [{lo}, {hi}]")
            continue
        redone = predict_target_sem(
            effects, dag, row[idx], do={plan.chosen_feature: plan.intervened_value}
        )
        if abs(redone - goal) >= GOAL_TOL or abs(plan.predicted_target_after - goal) >= GOAL_TOL:
            problems.append(f"{plan.row_id}: unclamped plan predicts {redone!r}, goal {goal!r}")
    return problems


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def pipeline_problems(stage_codes, artifact_digests) -> list[str]:
    """Every stage exits 0 and every repetition writes the same artifacts.

    `stage_codes` has one {stage: exit code} dict per repetition and
    `artifact_digests` one {file name: digest} dict per repetition, with
    `*.manifest` files (which hold timings) already left out.
    """
    problems = []
    for rep, codes in enumerate(stage_codes):
        for stage, code in codes.items():
            if code != 0:
                problems.append(f"repetition {rep}: stage {stage} exited {code}")
    if artifact_digests:
        first = artifact_digests[0]
        for rep, other in enumerate(artifact_digests[1:], start=1):
            differ = sorted(n for n in set(first) | set(other) if first.get(n) != other.get(n))
            if differ:
                problems.append(f"repetition {rep}: artifacts differ from repetition 0: {differ}")
    return problems
