"""Batch command-line pipeline.

Subcommands map one-to-one onto pipeline stages; every stage reads its
inputs from files named in a plain-text config (CLI flags win over config
values), writes plain CSV artifacts plus a manifest into the output
directory, and is independently rerunnable from persisted artifacts.
All randomness flows from the named master seed, so reruns are
byte-identical apart from manifest timings.

Exit codes: 0 success, 2 config error, 3 data/input error, 4 numeric
failure. Errors print one machine-parsable line on stderr, prefixed
E_CONFIG / E_IO / E_DATA / E_NUMERIC.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import active, causal, cluster, dataio, graphdist, intervene, match, synth
from .errors import (
    CausalAlError,
    ConfigError,
    SchemaError,
    InsufficientData,
    DegenerateFeature,
    DegenerateComponent,
    DegenerateTarget,
    NoCausalLever,
    NodeMismatch,
    CyclicGraph,
)
from .util import file_sha256, fmt

SEED_ENV_VAR = "CAUSAL_AL_SEED"

_DEFAULTS: dict[str, str] = {
    "features": "features.csv",
    "schema": "schema.cfg",
    "fingerprints": "",
    "reference": "",
    "reference_fingerprints": "",
    "output_dir": "out",
    "pivot_features": "",
    "n_components": "3",
    "intermediate_target": "",
    "k_features": "9",
    "prune_threshold": "0.05",
    "top_n": "",
    "destandardize": "1",
    "m_per_iter": "50",
    "n_iter": "20",
    "n_realizations": "1",
    "seed": "0",
    "goal": "3.0",
    "knn_k": "1",
    "interventable": "",
    "jobs": "1",
    "synth_features": "9",
    "synth_subsets": "3",
    "synth_rows": "1000",
    "synth_reference_rows": "2000",
    "synth_fp_width": "64",
    "synth_spread": "0.7",
    "synth_noise_scale": "0.5",
}


class Config:
    """Key-value pipeline configuration with typed accessors.

    Relative paths in a config file resolve against the file's directory;
    values set on the command line resolve against the working directory.
    """

    def __init__(self, values: dict[str, str], base_dir: Path):
        unknown = set(values) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.values = dict(_DEFAULTS) | values
        self.base_dir = base_dir
        self.bases = {k: base_dir for k in self.values}

    @classmethod
    def from_file(cls, path: Path | None) -> "Config":
        if path is None:
            return cls({}, Path.cwd())
        values: dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected `key = value`")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        return cls(values, Path(path).resolve().parent)

    def override(self, key: str, value: str, base: Path | None = None) -> None:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = value
        self.bases[key] = base if base is not None else Path.cwd()

    def raw(self, key: str) -> str:
        return self.values[key]

    def path(self, key: str) -> Path | None:
        value = self.values[key]
        if not value:
            return None
        p = Path(value)
        return p if p.is_absolute() else self.bases[key] / p

    def existing_path(self, key: str) -> Path:
        p = self.path(key)
        if p is None:
            raise ConfigError(f"config key {key!r} is required for this stage")
        if not p.exists():
            raise FileNotFoundError(f"{key} file not found: {p}")
        return p

    def int(self, key: str, minimum: int | None = None) -> int:
        try:
            v = int(self.values[key])
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {self.values[key]!r}") from None
        if minimum is not None and v < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {v}")
        return v

    def float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {self.values[key]!r}") from None

    def bool(self, key: str) -> bool:
        value = self.values[key].lower()
        if value in ("1", "true", "yes"):
            return True
        if value in ("0", "false", "no"):
            return False
        raise ConfigError(f"{key} must be a boolean, got {self.values[key]!r}")

    def list(self, key: str) -> tuple[str, ...]:
        return tuple(v.strip() for v in self.values[key].split(",") if v.strip())

    def opt_int(self, key: str) -> int | None:
        return self.int(key) if self.values[key] else None


def _write_manifest(
    outdir: Path, stage: str, inputs, params: dict, seed: int, t0: float, counts=None
) -> None:
    lines = [f"stage = {stage}"]
    for p in inputs:
        lines.append(f"input = {Path(p).name} sha256={file_sha256(p)}")
    for k in sorted(params):
        lines.append(f"param {k} = {params[k]}")
    for k in sorted(counts or {}):
        lines.append(f"count {k} = {counts[k]}")
    lines.append(f"seed = {seed}")
    lines.append(f"duration_s = {time.monotonic() - t0:.3f}")
    (outdir / f"{stage}.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_features(cfg: Config):
    schema = dataio.read_schema(cfg.existing_path("schema"))
    table, report = dataio.load_feature_table(cfg.existing_path("features"), schema)
    return schema, table, report


def _main_target(schema: dataio.TableSchema) -> str:
    if not schema.target_columns:
        raise ConfigError("schema declares no target columns")
    return schema.target_columns[0]


def _selected_features(cfg: Config, table: dataio.FeatureTable, outdir: Path):
    sel_path = outdir / "selected_features.txt"
    if sel_path.exists():
        return active.read_id_list(sel_path)
    return table.plain_feature_names


def _outdir(cfg: Config) -> Path:
    out = cfg.path("output_dir")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def cmd_cluster(cfg: Config) -> None:
    t0 = time.monotonic()
    outdir = _outdir(cfg)
    schema, table, report = _load_features(cfg)
    pivots = cfg.list("pivot_features") or table.plain_feature_names[:3]
    seed = cfg.int("seed")
    model = cluster.fit_gmm(table, pivots, n_components=cfg.int("n_components", 1), seed=seed)
    labels = cluster.assign_subsets(model, table)
    cluster.save_gmm(outdir / "gmm_model.txt", model)
    cluster.write_labels(outdir / "subsets.csv", table.row_ids, labels)
    dataio.write_load_report(outdir / "load_report.txt", report)
    _write_manifest(
        outdir, "cluster",
        [cfg.existing_path("features"), cfg.existing_path("schema")],
        {"pivot_features": ",".join(pivots), "n_components": cfg.int("n_components")},
        seed, t0,
        counts={
            "em_iterations": len(model.log_likelihoods),
            "em_converged": int(cluster.em_converged(model)),
        },
    )


def cmd_select_features(cfg: Config) -> None:
    t0 = time.monotonic()
    outdir = _outdir(cfg)
    schema, table, _ = _load_features(cfg)
    intermediate = cfg.raw("intermediate_target") or _main_target(schema)
    if intermediate not in table.feature_names:
        raise ConfigError(f"intermediate target {intermediate!r} not in table")
    columns = tuple(f for f in table.plain_feature_names if f != intermediate) + (intermediate,)
    # ranking on the standardized scale: strengths must be unit-free
    dag = causal.discover_lingam(
        table.select_columns(columns), intermediate,
        prune_threshold=cfg.float("prune_threshold"),
    )
    ranking = causal.rank_features(dag, intermediate)
    selected = causal.select_top_k(ranking, cfg.int("k_features", 1))
    with open(outdir / "ranking.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("feature,strength\n")
        for name, strength in ranking.entries:
            fh.write(f"{name},{fmt(strength)}\n")
    active.write_id_list(outdir / "selected_features.txt", selected)
    _write_manifest(
        outdir, "select_features",
        [cfg.existing_path("features"), cfg.existing_path("schema")],
        {"intermediate_target": intermediate, "k_features": cfg.int("k_features")},
        cfg.int("seed"), t0,
    )


def cmd_discover(cfg: Config) -> None:
    t0 = time.monotonic()
    outdir = _outdir(cfg)
    schema, table, _ = _load_features(cfg)
    target = _main_target(schema)
    selected = _selected_features(cfg, table, outdir)
    columns = tuple(f for f in selected if f != target) + (target,)
    dag = causal.discover_lingam(
        table.select_columns(columns), target,
        prune_threshold=cfg.float("prune_threshold"),
        destandardize=cfg.bool("destandardize"),
    )
    causal.save_dag(outdir / "global_graph.csv", dag)
    causal.save_adjacency_csv(outdir / "global_adjacency.csv", dag)
    _write_manifest(
        outdir, "discover",
        [cfg.existing_path("features"), cfg.existing_path("schema")],
        {
            "target": target,
            "prune_threshold": cfg.float("prune_threshold"),
            "destandardize": int(cfg.bool("destandardize")),
            "features": ",".join(columns),
        },
        cfg.int("seed"), t0,
    )


def cmd_active_learn(cfg: Config) -> None:
    t0 = time.monotonic()
    outdir = _outdir(cfg)
    schema, table, _ = _load_features(cfg)
    target = _main_target(schema)
    labels = cluster.read_labels(outdir / "subsets.csv")
    missing = [rid for rid in table.row_ids if rid not in labels]
    if missing:
        raise SchemaError(f"rows without subset labels, e.g. {missing[:3]}")
    global_graph = causal.load_dag(outdir / "global_graph.csv")
    selected = _selected_features(cfg, table, outdir)
    features = tuple(f for f in selected if f != target) + (target,)

    subset_ids = sorted(set(labels.values()))
    subsets = [
        table.select_by_ids([rid for rid in table.row_ids if labels[rid] == k])
        for k in subset_ids
    ]
    seed = cfg.int("seed")
    jobs = cfg.int("jobs", 1)
    params = dict(
        m=cfg.int("m_per_iter", 1),
        n_iter=cfg.int("n_iter", 1),
        prune_threshold=cfg.float("prune_threshold"),
        top_n=cfg.opt_int("top_n"),
        destandardize=cfg.bool("destandardize"),
    )
    n_real = cfg.int("n_realizations", 1)
    active_runs, random_runs = [], []
    for r in range(n_real):
        a = active.active_learn(
            subsets, global_graph, target, features, seed=seed + r, jobs=jobs, **params
        )
        b = active.random_baseline(
            subsets, global_graph, target, features, seed=seed + r, jobs=jobs, **params
        )
        active.save_run(outdir / f"active_run_{r}.csv", a)
        active.save_run(outdir / f"random_run_{r}.csv", b)
        active_runs.append(a)
        random_runs.append(b)

    active.write_id_list(outdir / "dal_ids.txt", active_runs[0].selected_row_ids)
    a_mean, a_std = active.summarize_runs(active_runs)
    r_mean, r_std = active.summarize_runs(random_runs)
    with open(outdir / "loss_summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,active_mean,active_std,random_mean,random_std\n")
        for i in range(len(a_mean)):
            fh.write(
                f"{i},{fmt(a_mean[i])},{fmt(a_std[i])},{fmt(r_mean[i])},{fmt(r_std[i])}\n"
            )
    counts = active.selection_counts(active_runs)
    with open(outdir / "selection_counts.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("subset,count\n")
        for k, c in enumerate(counts):
            fh.write(f"{k},{c}\n")
    sizes = [sub.n_rows for sub in subsets]
    _write_manifest(
        outdir, "active_learn",
        [cfg.existing_path("features"), outdir / "subsets.csv", outdir / "global_graph.csv"],
        {**{k: v for k, v in params.items() if v is not None}, "n_realizations": n_real},
        seed, t0,
        counts={
            "exhausted_candidates": sum(
                active.exhausted_candidates(run, sizes) for run in active_runs + random_runs
            ),
        },
    )


def cmd_intervene(cfg: Config) -> None:
    t0 = time.monotonic()
    outdir = _outdir(cfg)
    schema, table, _ = _load_features(cfg)
    target = _main_target(schema)
    selected = _selected_features(cfg, table, outdir)
    features = tuple(f for f in selected if f != target)
    dal_ids = active.read_id_list(outdir / "dal_ids.txt")
    dal_table = table.select_by_ids(dal_ids).select_columns(features + (target,))

    dag = causal.discover_lingam(
        dal_table, target,
        prune_threshold=cfg.float("prune_threshold"),
        destandardize=cfg.bool("destandardize"),
    )
    causal.save_dag(outdir / "dal_graph.csv", dag)

    interventable = cfg.list("interventable") or features
    bounds = intervene.feature_bounds(table, features)
    plans = intervene.plan_interventions(
        dal_table, dag,
        goal_value=cfg.float("goal"),
        interventable=interventable,
        bounds=bounds,
    )
    intervene.save_plans(outdir / "plans.csv", plans)
    intervened_table = intervene.apply_interventions(dal_table.select_columns(features), plans)
    dataio.save_feature_table(outdir / "intervened.csv", intervened_table)
    _write_manifest(
        outdir, "intervene",
        [cfg.existing_path("features"), outdir / "dal_ids.txt"],
        {
            "goal": cfg.float("goal"),
            "interventable": ",".join(interventable),
            "prune_threshold": cfg.float("prune_threshold"),
        },
        cfg.int("seed"), t0,
    )


def _reference_table(cfg: Config, schema: dataio.TableSchema):
    ref_path = cfg.path("reference") or cfg.existing_path("features")
    if not ref_path.exists():
        raise FileNotFoundError(f"reference file not found: {ref_path}")
    table, _ = dataio.load_feature_table(ref_path, schema)
    return ref_path, table


def cmd_match(cfg: Config) -> None:
    t0 = time.monotonic()
    outdir = _outdir(cfg)
    schema = dataio.read_schema(cfg.existing_path("schema"))
    target = _main_target(schema)
    intervened_path = outdir / "intervened.csv"
    intervened_table, _ = dataio.load_feature_table(
        intervened_path, dataio.TableSchema(id_column="id", target_columns=())
    )
    ref_path, reference = _reference_table(cfg, schema)
    ref_target = target if target in reference.feature_names else None
    neighbors = match.nearest_in_reference(
        intervened_table, reference,
        k=cfg.int("knn_k", 1),
        ref_target=ref_target,
        jobs=cfg.int("jobs", 1),
    )
    match.save_neighbors(outdir / "neighbors.csv", neighbors)
    _write_manifest(
        outdir, "match",
        [intervened_path, ref_path],
        {"knn_k": cfg.int("knn_k"), "ref_target": ref_target or ""},
        cfg.int("seed"), t0,
    )


def cmd_report(cfg: Config) -> None:
    t0 = time.monotonic()
    outdir = _outdir(cfg)
    schema = dataio.read_schema(cfg.existing_path("schema"))
    target = _main_target(schema)
    plans = intervene.load_plans(outdir / "plans.csv")
    goals = {p.target_goal for p in plans}
    if len(goals) != 1:
        raise SchemaError(f"plans.csv must hold one goal, found {len(goals)}")
    goal = goals.pop()
    neighbors = match.load_neighbors(outdir / "neighbors.csv")
    ref_path, reference = _reference_table(cfg, schema)
    if target not in reference.feature_names:
        raise SchemaError(f"reference table lacks target column {target!r}")
    ref_targets = dict(zip(reference.row_ids, reference.column(target)))

    width = schema.fingerprint_width
    fp_path = cfg.path("fingerprints")
    ref_fp_path = cfg.path("reference_fingerprints")
    query_fps = dataio.load_fingerprints(fp_path, width) if fp_path and fp_path.exists() else None
    ref_fps = (
        dataio.load_fingerprints(ref_fp_path, width)
        if ref_fp_path and ref_fp_path.exists()
        else None
    )

    report = match.intervention_report(
        plans, neighbors, ref_targets,
        threshold=goal, query_fps=query_fps, reference_fps=ref_fps,
    )
    with open(outdir / "report_values.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,original,intervened,matched\n")
        for p, o, i, m_ in zip(
            plans, report.original_targets, report.intervened_targets, report.matched_targets
        ):
            fh.write(f"{p.row_id},{fmt(o)},{fmt(i)},{fmt(m_)}\n")
    with open(outdir / "report_pairs.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,tanimoto,distance\n")
        for qid, sim, dist in report.pairs:
            sim_txt = fmt(sim) if sim == sim else ""
            fh.write(f"{qid},{sim_txt},{fmt(dist)}\n")
    with open(outdir / "report_summary.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"threshold = {fmt(report.threshold)}\n")
        fh.write(f"above_threshold_count = {report.above_threshold_count}\n")
        fh.write(f"above_threshold_ids = {','.join(report.above_threshold_ids)}\n")

    inputs = [outdir / "plans.csv", outdir / "neighbors.csv", ref_path]
    if query_fps is not None:
        proj = match.pca_project(query_fps)
        dal_ids = set(active.read_id_list(outdir / "dal_ids.txt")) if (outdir / "dal_ids.txt").exists() else set()
        matched_ids = {nr.neighbor_ids[0] for nr in neighbors}
        with open(outdir / "pca_coords.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,phi1,phi2,role\n")
            for rid, (p1, p2) in zip(query_fps.row_ids, proj.coordinates):
                role = "selected" if rid in dal_ids else "dataset"
                fh.write(f"{rid},{fmt(p1)},{fmt(p2)},{role}\n")
            if ref_fps is not None:
                present = [r for r in ref_fps.row_ids if r in matched_ids]
                if present:
                    sub = dataio.FingerprintTable(
                        row_ids=tuple(present),
                        bits=np.array([ref_fps.row(r) for r in present]),
                    )
                    coords = match.project_onto(proj, sub, query_fps)
                    for rid, (p1, p2) in zip(present, coords):
                        fh.write(f"{rid},{fmt(p1)},{fmt(p2)},matched\n")
        inputs.append(fp_path)
    _write_manifest(outdir, "report", inputs, {"threshold": goal}, cfg.int("seed"), t0)


def cmd_graph_dist(cfg: Config, g1: str, g2: str, top_n: int | None, mode: str) -> None:
    a = causal.load_dag(Path(g1))
    b = causal.load_dag(Path(g2))
    print(fmt(graphdist.spectral_distance(a, b, n=top_n, mode=mode)))


def cmd_synth(cfg: Config) -> None:
    """Generate a heterogeneous synthetic world plus a ready-to-run config."""
    t0 = time.monotonic()
    outdir = _outdir(cfg)
    seed = cfg.int("seed")
    n_features = cfg.int("synth_features", 2)
    n_subsets = cfg.int("synth_subsets", 1)
    rows = cfg.int("synth_rows", 10)
    ref_rows = cfg.int("synth_reference_rows", 1)
    fp_width = cfg.int("synth_fp_width", 8)
    spread = cfg.float("synth_spread")
    noise_scale = cfg.float("synth_noise_scale")

    rng = np.random.default_rng(seed)
    names = tuple(f"f{i + 1:02d}" for i in range(n_features)) + ("y",)
    edges: list[tuple[str, str, float]] = []
    for i in range(1, n_features):
        n_parents = min(i, int(rng.integers(1, 3)))
        parents = rng.choice(i, size=n_parents, replace=False)
        for p in sorted(parents):
            weight = float(rng.uniform(0.4, 0.9) * rng.choice([-1.0, 1.0]))
            edges.append((names[p], names[i], weight))
    target_parents = rng.choice(n_features, size=min(3, n_features), replace=False)
    for p in sorted(target_parents):
        weight = float(rng.uniform(0.4, 0.9) * rng.choice([-1.0, 1.0]))
        edges.append((names[p], "y", weight))
    spec = synth.SemSpec(
        node_names=names,
        edges=tuple(edges),
        noises=tuple(("uniform", noise_scale) for _ in names),
        seed=seed,
    )

    if n_subsets == 1:
        factors = [1.0]
    else:
        factors = list(np.linspace(1.0 - spread, 1.0 + spread, n_subsets))
        factors[n_subsets // 2] = 1.0
    subsets, reference, true_dag = synth.make_heterogeneous_world(
        n_subsets, spec, factors, seed=seed, n_rows=rows,
        global_rows=ref_rows, target="y",
    )
    features_table = dataio.concat_tables(subsets)
    schema = dataio.TableSchema(id_column="id", target_columns=("y",), fingerprint_width=fp_width)
    dataio.save_feature_table(outdir / "features.csv", features_table)
    dataio.save_feature_table(outdir / "reference.csv", reference)
    dataio.write_schema(outdir / "schema.cfg", schema)
    causal.save_dag(outdir / "true_graph.csv", true_dag)

    fp_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9000,)))
    for name, ids in (("fingerprints.csv", features_table.row_ids),
                      ("reference_fingerprints.csv", reference.row_ids)):
        bits = (fp_rng.random((len(ids), fp_width)) < 0.25).astype(np.uint8)
        dataio.save_fingerprints(outdir / name, dataio.FingerprintTable(ids, bits))

    cfg_lines = [
        "features = features.csv",
        "schema = schema.cfg",
        "fingerprints = fingerprints.csv",
        "reference = reference.csv",
        "reference_fingerprints = reference_fingerprints.csv",
        "output_dir = .",
        f"pivot_features = {','.join(names[: min(3, n_features)])}",
        f"k_features = {min(cfg.int('k_features'), n_features)}",
        f"seed = {seed}",
        f"m_per_iter = {cfg.raw('m_per_iter')}",
        f"n_iter = {cfg.raw('n_iter')}",
        f"n_realizations = {cfg.raw('n_realizations')}",
        f"goal = {cfg.raw('goal')}",
        f"knn_k = {cfg.raw('knn_k')}",
        f"prune_threshold = {cfg.raw('prune_threshold')}",
    ]
    (outdir / "pipeline.cfg").write_text("\n".join(cfg_lines) + "\n", encoding="utf-8")
    _write_manifest(
        outdir, "synth", [],
        {
            "n_features": n_features, "n_subsets": n_subsets, "rows": rows,
            "reference_rows": ref_rows, "spread": spread,
        },
        seed, t0,
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_STAGES = {
    "synth": cmd_synth,
    "cluster": cmd_cluster,
    "select-features": cmd_select_features,
    "discover": cmd_discover,
    "active-learn": cmd_active_learn,
    "intervene": cmd_intervene,
    "match": cmd_match,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-al",
        description="Causal discovery, active dataset assembly, and targeted interventions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-c", "--config", help="plain-text key=value config file")
        p.add_argument("-o", "--output-dir", help="artifact directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides env and config)")
        p.add_argument("--jobs", type=int, help="worker bound for parallel sections")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )

    for name in _STAGES:
        add_common(sub.add_parser(name, help=f"run the {name} stage"))

    gd = sub.add_parser("graph-dist", help="spectral distance between two saved graphs")
    gd.add_argument("graph1")
    gd.add_argument("graph2")
    gd.add_argument("--top-n", type=int, default=None)
    gd.add_argument("--mode", choices=("singular", "eigenvalue"), default="singular")
    add_common(gd)
    return parser


def _make_config(args) -> Config:
    cfg = Config.from_file(Path(args.config) if args.config else None)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
        cfg.override("seed", env_seed)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        cfg.override(key.strip(), value.strip())
    if args.output_dir is not None:
        cfg.override("output_dir", args.output_dir)
    if args.seed is not None:
        cfg.override("seed", str(args.seed))
    if args.jobs is not None:
        cfg.override("jobs", str(args.jobs))
    return cfg


_NUMERIC_ERRORS = (
    DegenerateFeature,
    DegenerateComponent,
    DegenerateTarget,
    NoCausalLever,
    NodeMismatch,
    CyclicGraph,
    np.linalg.LinAlgError,
)


def run_cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _make_config(args)
        if args.command == "graph-dist":
            cmd_graph_dist(cfg, args.graph1, args.graph2, args.top_n, args.mode)
        else:
            _STAGES[args.command](cfg)
        return 0
    except ConfigError as exc:
        print(f"E_CONFIG: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"E_IO: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"E_IO: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"E_NUMERIC: {exc}", file=sys.stderr)
        return 4
    except (SchemaError, InsufficientData) as exc:
        print(f"E_DATA: {exc}", file=sys.stderr)
        return 3
    except CausalAlError as exc:
        print(f"E_DATA: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
