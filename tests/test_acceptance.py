"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The long synthetic experiment behind criteria 4 and 5 is shared through a
module-scoped fixture.
"""

import time

import numpy as np
import pytest

from causal_al import cluster, match, regress
from causal_al.active import active_learn, random_baseline, selection_counts
from causal_al.causal import WeightedDag, discover_lingam
from causal_al.cli import run_cli
from causal_al.dataio import FeatureTable
from causal_al.graphdist import spectral_distance
from causal_al.intervene import plan_interventions, predict_target_sem, total_effects
from causal_al.synth import SemSpec, make_heterogeneous_world, sample_sem
from tests.conftest import WORLD_EDGES, WORLD_NODES, make_table


def _verdict(num: int, name: str, parts: dict) -> None:
    ok = all(parts.values())
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    failing = [k for k, v in parts.items() if not v]
    assert ok, f"criterion {num} ({name}) failed: {failing}"


# ---------------------------------------------------------------------------
# 1. discovery recovery
# ---------------------------------------------------------------------------


def test_criterion_01_lingam_recovery():
    two_var_hits = 0
    fit_seconds = []
    for seed in range(10):
        spec = SemSpec(
            ("x1", "x2"), (("x1", "x2", 0.8),),
            (("uniform", 1.0), ("uniform", 0.3)), seed=seed,
        )
        table = sample_sem(spec, 5000, target_names=("x2",))
        t0 = time.monotonic()
        dag = discover_lingam(table, "x2", destandardize=True)
        fit_seconds.append(time.monotonic() - t0)
        order = [dag.node_names[i] for i in dag.causal_order]
        if order == ["x1", "x2"] and abs(dag.B[1, 0] - 0.8) < 0.05:
            two_var_hits += 1

    chain_hits = 0
    for seed in range(10):
        spec = SemSpec(
            ("x1", "x2", "x3"),
            (("x1", "x2", 0.7), ("x2", "x3", 0.5)),
            (("uniform", 1.0), ("uniform", 0.5), ("uniform", 0.5)),
            seed=seed,
        )
        table = sample_sem(spec, 5000, target_names=("x3",))
        t0 = time.monotonic()
        dag = discover_lingam(table, "x3", prune_threshold=0.05)
        fit_seconds.append(time.monotonic() - t0)
        order = [dag.node_names[i] for i in dag.causal_order]
        if order == ["x1", "x2", "x3"] and dag.B[2, 0] == 0.0:
            chain_hits += 1

    _verdict(1, "lingam-recovery", {
        "two_var_order_and_weight_9_of_10": two_var_hits >= 9,
        "chain_spurious_edge_pruned_9_of_10": chain_hits >= 9,
        "fit_under_10s": max(fit_seconds) < 10.0,
    })


# ---------------------------------------------------------------------------
# 2. sink constraint
# ---------------------------------------------------------------------------


def _random_spec(rng, seed):
    d = int(rng.integers(3, 9))
    names = tuple(f"v{i}" for i in range(d))
    edges = []
    for i in range(d):
        for j in range(i):
            if rng.random() < 0.4:
                edges.append((names[j], names[i], float(rng.uniform(0.3, 1.0))))
    noises = tuple(("uniform", float(rng.uniform(0.3, 1.0))) for _ in names)
    return SemSpec(names, tuple(edges), noises, seed=seed)


def test_criterion_02_sink_constraint():
    rng = np.random.default_rng(100)
    clean = 0
    for trial in range(100):
        spec = _random_spec(rng, seed=trial)
        target = spec.node_names[int(rng.integers(len(spec.node_names)))]
        table = sample_sem(spec, len(spec.node_names) + 40, target_names=(target,))
        dag = discover_lingam(table, target)
        t = dag.node_names.index(target)
        if np.all(dag.B[:, t] == 0.0) and dag.causal_order[-1] == t:
            clean += 1
    _verdict(2, "sink-constraint", {"all_100_graphs_have_zero_target_column": clean == 100})


# ---------------------------------------------------------------------------
# 3. spectral distance axioms
# ---------------------------------------------------------------------------


def _random_graph(rng, names):
    d = len(names)
    perm = rng.permutation(d)
    b = np.zeros((d, d))
    for i in range(d):
        for j in range(i):
            if rng.random() < 0.5:
                b[perm[i], perm[j]] = rng.normal()
    return WeightedDag(node_names=tuple(names), B=b, causal_order=tuple(perm))


def test_criterion_03_spectral_axioms():
    rng = np.random.default_rng(300)
    names = ["a", "b", "c", "d", "e", "f"]
    nonneg = symmetric = self_zero = perm_invariant = 0
    for _ in range(200):
        g1 = _random_graph(rng, names)
        g2 = _random_graph(rng, names)
        d12 = spectral_distance(g1, g2)
        d21 = spectral_distance(g2, g1)
        nonneg += d12 >= 0.0
        symmetric += abs(d12 - d21) <= 1e-10
        self_zero += spectral_distance(g1, g1) == 0.0
        perm = list(rng.permutation(len(names)))
        inv = np.argsort(perm)
        relabeled = WeightedDag(
            node_names=tuple(names[i] for i in perm),
            B=g1.B[np.ix_(perm, perm)],
            causal_order=tuple(int(inv[i]) for i in g1.causal_order),
        )
        perm_invariant += abs(spectral_distance(relabeled, g2) - d12) <= 1e-10
    triangle = 0
    for _ in range(200):
        x, y, z = (_random_graph(rng, names) for _ in range(3))
        triangle += (
            spectral_distance(x, z)
            <= spectral_distance(x, y) + spectral_distance(y, z) + 1e-12
        )
    _verdict(3, "spectral-distance-axioms", {
        "nonnegativity": nonneg == 200,
        "symmetry": symmetric == 200,
        "self_distance_zero": self_zero == 200,
        "permutation_invariance": perm_invariant == 200,
        "triangle_inequality": triangle == 200,
    })


# ---------------------------------------------------------------------------
# 4 + 5. the paired active-learning experiment
# ---------------------------------------------------------------------------

WORLD_SPEC = SemSpec(
    WORLD_NODES, WORLD_EDGES, tuple(("uniform", 0.5) for _ in WORLD_NODES), seed=0
)
MATCHING_SUBSET = 1
N_PAIRED_SEEDS = 10
M_PER_ITER = 50
N_ITER = 20


@pytest.fixture(scope="module")
def paired_experiment():
    subsets, global_table, true_dag = make_heterogeneous_world(
        3, WORLD_SPEC, [0.3, 1.0, 1.8], seed=11, n_rows=1000, target="y"
    )
    t0 = time.monotonic()
    active_runs, random_runs = [], []
    for seed in range(N_PAIRED_SEEDS):
        active_runs.append(
            active_learn(subsets, true_dag, "y", m=M_PER_ITER, n_iter=N_ITER, seed=seed)
        )
        random_runs.append(
            random_baseline(subsets, true_dag, "y", m=M_PER_ITER, n_iter=N_ITER, seed=seed)
        )
    elapsed = time.monotonic() - t0
    pool = FeatureTable(
        row_ids=tuple(r for s in subsets for r in s.row_ids),
        feature_names=WORLD_NODES,
        values=np.vstack([s.values for s in subsets]),
        target_names=("y",),
    )
    return {
        "active": active_runs,
        "random": random_runs,
        "elapsed": elapsed,
        "pool": pool,
        "global_table": global_table,
    }


def test_criterion_04_active_beats_random(paired_experiment):
    active_runs = paired_experiment["active"]
    random_runs = paired_experiment["random"]
    a_final = np.array([r.final_loss() for r in active_runs])
    r_final = np.array([r.final_loss() for r in random_runs])
    counts = selection_counts(active_runs)
    print(
        f"\n  final loss: active {a_final.mean():.4f} +- {a_final.std(ddof=1):.4f}, "
        f"random {r_final.mean():.4f} +- {r_final.std(ddof=1):.4f}; "
        f"selections {counts.tolist()}; elapsed {paired_experiment['elapsed']:.1f}s"
    )
    _verdict(4, "algorithm1-vs-random", {
        "mean_final_active_below_random": a_final.mean() < r_final.mean(),
        "active_std_at_most_random_std": a_final.std(ddof=1) <= r_final.std(ddof=1),
        "matching_subset_is_modal": int(np.argmax(counts)) == MATCHING_SUBSET,
        "under_5_minutes": paired_experiment["elapsed"] < 300.0,
    })


def test_active_final_loss_wins_most_paired_seeds(paired_experiment):
    # module invariant, checked alongside the headline criterion
    wins = sum(
        a.final_loss() <= r.final_loss()
        for a, r in zip(paired_experiment["active"], paired_experiment["random"])
    )
    assert wins >= 8


def test_criterion_05_r2_neutrality(paired_experiment):
    pool = paired_experiment["pool"]
    features = tuple(f for f in WORLD_NODES if f != "y")
    test_spec = SemSpec(WORLD_NODES, WORLD_EDGES,
                        tuple(("uniform", 0.5) for _ in WORLD_NODES), seed=777)
    test_table = sample_sem(test_spec, 500, id_prefix="t_", target_names=("y",))

    def final_r2(run):
        snap = pool.select_by_ids(run.selected_row_ids)
        model = regress.fit_forest(
            snap, features, "y", n_trees=60, max_depth=10, min_leaf=2, seed=123
        )
        return regress.r2(model, test_table)

    a_scores = np.array([final_r2(r) for r in paired_experiment["active"]])
    r_scores = np.array([final_r2(r) for r in paired_experiment["random"]])
    gap = abs(a_scores.mean() - r_scores.mean())
    print(f"\n  final R2: active {a_scores.mean():.4f}, random {r_scores.mean():.4f}, gap {gap:.4f}")
    _verdict(5, "r2-neutrality", {"final_r2_gap_below_0.1": gap < 0.1})


# ---------------------------------------------------------------------------
# 6. intervention exactness
# ---------------------------------------------------------------------------


def test_criterion_06_intervention_exactness():
    names = ("a", "b", "c", "d", "y")
    b = np.zeros((5, 5))
    b[1, 0] = 0.8          # a -> b
    b[2, 0] = -0.6         # a -> c
    b[2, 1] = 0.5          # b -> c
    b[4, 1] = 0.9          # b -> y
    b[4, 2] = -0.4         # c -> y
    b[4, 3] = 0.3          # d -> y
    dag = WeightedDag(node_names=names, B=b, causal_order=(0, 3, 1, 2, 4), target="y")
    effects = total_effects(dag)

    # independent oracle: explicit path-sum powers of B
    t_series = np.zeros((5, 5))
    power = np.eye(5)
    for _ in range(5):
        power = power @ b
        t_series += power

    # noiseless population: roots (a, d) drawn, everything else propagated
    rng = np.random.default_rng(606)
    rows = np.zeros((200, 5))
    rows[:, 0] = rng.uniform(-2, 2, 200)
    rows[:, 3] = rng.uniform(-2, 2, 200)
    for i in (1, 2, 4):
        rows[:, i] = rows @ b[i, :]
    table = make_table(rows, names, target_names=("y",), prefix="m")

    goal = 3.0
    exact = argmax_ok = 0
    interventable = ("a", "b", "c", "d")
    oracle_strengths = {f: abs(t_series[4, names.index(f)]) for f in interventable}
    oracle_best = max(oracle_strengths.values())
    oracle_choice = min(f for f, s in oracle_strengths.items() if s == oracle_best)
    for ridx in range(rows.shape[0]):
        # each row planned on its own, as a one-row table
        plan, = plan_interventions(
            table.select_rows([ridx]), dag, goal, interventable=interventable
        )
        redone = predict_target_sem(
            effects, dag, rows[ridx], do={plan.chosen_feature: plan.intervened_value}
        )
        exact += abs(redone - goal) < 1e-9
        argmax_ok += plan.chosen_feature == oracle_choice
    _verdict(6, "intervention-exactness", {
        "all_200_hit_goal_within_1e-9": exact == 200,
        "chosen_feature_matches_enumeration": argmax_ok == 200,
    })


# ---------------------------------------------------------------------------
# 7. total-effect oracle
# ---------------------------------------------------------------------------


def test_criterion_07_total_effect_oracle():
    rng = np.random.default_rng(707)
    agree = 0
    for _ in range(100):
        d = int(rng.integers(2, 13))
        b = np.zeros((d, d))
        for i in range(d):
            for j in range(i):
                if rng.random() < 0.5:
                    b[i, j] = rng.normal()
        dag = WeightedDag(tuple(f"n{i}" for i in range(d)), b, tuple(range(d)))
        t_inv = total_effects(dag)
        t_series = np.zeros((d, d))
        power = np.eye(d)
        for _ in range(d):
            power = power @ b
            t_series += power
        agree += np.max(np.abs(t_inv - t_series)) < 1e-10
    _verdict(7, "total-effect-oracle", {"inverse_equals_path_sum_on_100_dags": agree == 100})


# ---------------------------------------------------------------------------
# 8. k-NN at reference scale
# ---------------------------------------------------------------------------


def test_criterion_08_knn_brute_force_equivalence():
    rng = np.random.default_rng(808)
    n_query, n_ref, dim, k = 1000, 10_000, 9, 5
    feats = tuple(f"f{i}" for i in range(dim))
    queries = make_table(rng.normal(size=(n_query, dim)), feats, prefix="q")
    reference = make_table(rng.normal(size=(n_ref, dim)), feats, prefix="ref")

    t0 = time.monotonic()
    results = match.nearest_in_reference(queries, reference, k=k)
    elapsed = time.monotonic() - t0

    # oracle: same normalization formula, then a per-query scan with its own
    # distance arithmetic and ordering (no shared search code)
    mean = queries.values.mean(axis=0)
    std = queries.values.std(axis=0, ddof=1)
    zq = (queries.values - mean) / std
    zr = (reference.values - mean) / std
    ref_index = np.arange(n_ref)
    ids_ok = dist_ok = 0
    for i in range(n_query):
        diff = zr - zq[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        top = np.lexsort((ref_index, d))[:k]
        want_ids = tuple(reference.row_ids[j] for j in top)
        ids_ok += results[i].neighbor_ids == want_ids
        dist_ok += all(
            abs(got - d[j]) < 1e-12 for got, j in zip(results[i].distances, top)
        )
    print(f"\n  knn 1000x10000 in {elapsed:.2f}s")
    _verdict(8, "knn-brute-force-equivalence", {
        "ids_match_on_all_queries": ids_ok == n_query,
        "distances_within_1e-12": dist_ok == n_query,
        "under_60s": elapsed < 60.0,
    })


# ---------------------------------------------------------------------------
# 9. tanimoto
# ---------------------------------------------------------------------------


def test_criterion_09_tanimoto():
    rng = np.random.default_rng(909)
    parts = {
        "identical_ones": match.tanimoto(np.ones(16), np.ones(16)) == 1.0,
        "disjoint": match.tanimoto(
            np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1])
        ) == 0.0,
        "hand_third": match.tanimoto(
            np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0])
        ) == 1.0 / 3.0,
        "both_empty": match.tanimoto(np.zeros(8), np.zeros(8)) == 1.0,
    }
    sym = ident = bounded = 0
    for _ in range(100):
        a = (rng.random(32) < 0.3).astype(np.uint8)
        b = (rng.random(32) < 0.3).astype(np.uint8)
        s_ab, s_ba = match.tanimoto(a, b), match.tanimoto(b, a)
        sym += s_ab == s_ba
        bounded += 0.0 <= s_ab <= 1.0
        ident += match.tanimoto(a, a) == 1.0
    parts["symmetry_100"] = sym == 100
    parts["self_similarity_100"] = ident == 100
    parts["bounded_100"] = bounded == 100
    _verdict(9, "tanimoto", parts)


# ---------------------------------------------------------------------------
# 10. GMM
# ---------------------------------------------------------------------------


def test_criterion_10_gmm():
    fits = []
    rng = np.random.default_rng(1010)
    pts = np.concatenate([rng.normal(-10, 0.5, 200), rng.normal(10, 0.5, 200)])
    two_cluster = make_table(pts[:, None], ("p",))
    model = cluster.fit_gmm(two_cluster, ("p",), n_components=2, seed=7)
    fits.append(model)
    means = np.sort(model.means.ravel())
    recovery = abs(means[0] + 10.0) < 0.3 and abs(means[1] - 10.0) < 0.3

    corr = rng.normal(size=(600, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    shifted = np.vstack([corr, corr + np.array([6.0, -4.0]), corr + np.array([-5.0, 5.0])])
    table3 = make_table(shifted, ("u", "v"))
    for seed in (0, 1, 2):
        fits.append(cluster.fit_gmm(table3, ("u", "v"), n_components=3, seed=seed))

    monotone = all(
        np.all(np.diff(np.array(m.log_likelihoods)) >= -1e-8) for m in fits
    )
    _verdict(10, "gmm", {
        "log_likelihood_monotone_every_fit": monotone,
        "two_cluster_means_within_0.3": recovery,
    })


# ---------------------------------------------------------------------------
# 11. pipeline determinism
# ---------------------------------------------------------------------------

_SMALL = [
    "--set", "synth_features=5",
    "--set", "synth_rows=220",
    "--set", "synth_reference_rows=120",
    "--set", "synth_fp_width=32",
    "--set", "m_per_iter=15",
    "--set", "n_iter=4",
    "--set", "k_features=4",
]
_STAGES = [
    "cluster", "select-features", "discover",
    "active-learn", "intervene", "match", "report",
]


def _run_pipeline(workdir, jobs):
    assert run_cli(["synth", "-o", str(workdir), "--seed", "21"] + _SMALL) == 0
    for stage in _STAGES:
        code = run_cli([stage, "-c", str(workdir / "pipeline.cfg"), "--jobs", str(jobs)])
        assert code == 0, f"stage {stage} failed"
    return {
        p.name: p.read_bytes()
        for p in sorted(workdir.iterdir())
        if p.suffix != ".manifest"
    }


def test_criterion_11_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "a", jobs=1)
    second = _run_pipeline(tmp_path / "b", jobs=1)
    parallel = _run_pipeline(tmp_path / "c", jobs=4)
    _verdict(11, "pipeline-determinism", {
        "rerun_byte_identical": first == second,
        "jobs4_byte_identical_to_jobs1": first == parallel,
    })


# ---------------------------------------------------------------------------
# 12. real-data smoke path
# ---------------------------------------------------------------------------


def test_criterion_12_real_data_smoke(tmp_path):
    # stand-in for a user-supplied descriptor table: 22 features + target,
    # three blobs in the pivot features so clustering has structure
    rng = np.random.default_rng(1212)
    n_per, d = 300, 22
    blob_shift = np.array([[0.0, 0.0, 0.0], [8.0, -6.0, 5.0], [-7.0, 7.0, -4.0]])
    rows = []
    for bidx in range(3):
        base = rng.normal(size=(n_per, 3)) + blob_shift[bidx]
        extra = base @ rng.normal(size=(3, d - 3)) * 0.4 + rng.uniform(
            -1, 1, size=(n_per, d - 3)
        )
        rows.append(np.hstack([base, extra]))
    x = np.vstack(rows)
    y = x[:, :6] @ rng.uniform(0.2, 0.8, 6) + rng.uniform(-0.5, 0.5, x.shape[0])
    names = [f"desc{i:02d}" for i in range(d)]
    header = "id," + ",".join(names) + ",dipole"
    lines = [header]
    for i in range(x.shape[0]):
        cells = ",".join(f"{v:.10g}" for v in x[i])
        lines.append(f"mol{i:04d},{cells},{y[i]:.10g}")
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "schema.cfg").write_text(
        "id_column = id\ntarget_columns = dipole\n", encoding="utf-8"
    )

    common = [
        "-o", str(tmp_path),
        "--set", f"features={tmp_path / 'features.csv'}",
        "--set", f"schema={tmp_path / 'schema.cfg'}",
        "--set", "k_features=9",
        "--set", "goal=3.0",
        "--set", "m_per_iter=15",
        "--set", "n_iter=4",
        "--seed", "2",
    ]
    codes = {}
    for stage in ["cluster", "select-features", "discover", "active-learn", "intervene", "match"]:
        codes[stage] = run_cli([stage] + common)
    _verdict(12, "real-data-smoke", {
        f"stage_{stage}_exit_0": code == 0 for stage, code in codes.items()
    })
