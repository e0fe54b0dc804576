"""Batch command-line pipeline.

Subcommands map one-to-one onto pipeline stages; every stage reads its
inputs from files named in a plain-text config (CLI flags win over config
values), writes its artifacts in the text format of `artifacts` plus a
manifest into the output directory, and is independently rerunnable from
persisted artifacts. A stage that exits non-zero leaves its output directory
as it found it and creates no directory (see `_run_stage`).
All randomness flows from the named master seed, so reruns are
byte-identical apart from manifest timings.

Exit codes: 0 success, 2 config error, 3 data/input error, 4 numeric
failure (see `_EXIT_CODES`). Errors print one machine-parsable line on
stderr, prefixed E_CONFIG / E_IO / E_DATA / E_NUMERIC.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# Each stage imports the modules it runs, so a stage process loads only those.
from . import artifacts
from .errors import NUMERIC_ERRORS, CausalAlError, ConfigError, SchemaError
from .util import checked_names, file_sha256, fmt

if TYPE_CHECKING:
    from .dataio import TableSchema

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
    "m_per_iter": "50",
    "n_iter": "20",
    "n_realizations": "1",
    "seed": "0",
    "goal": "3.0",
    "knn_k": "1",
    "interventable": "",
    "jobs": "1",
    "synth_features": "9",
    "synth_rows": "1000",
    "synth_reference_rows": "2000",
    "synth_fp_width": "64",
}


class Config:
    """Key-value pipeline configuration with typed accessors.

    Relative paths in a config file resolve against the file's directory;
    values set on the command line resolve against the working directory.
    The config keeps the provenance of a stage: each value read through a
    typed accessor, under its key and in the form the stage used it
    (`params`), and each file read, in read order (`inputs`).
    """

    def __init__(self, values: dict[str, str], base_dir: Path):
        self.values = dict(_DEFAULTS) | values
        self.bases = {k: base_dir for k in self.values}
        self.params: dict[str, object] = {}
        self.inputs: dict[Path, None] = {}

    @classmethod
    def from_file(cls, path: Path | None) -> "Config":
        if path is None:
            return cls({}, Path.cwd())
        meta = artifacts.read(path, error=ConfigError).meta
        checked_names([key for key, _ in meta], _DEFAULTS, str(path), ConfigError)
        return cls(dict(meta), Path(path).resolve().parent)

    def override(self, key: str, value: str) -> None:
        """Set `key` from the command line; a later override of a key wins."""
        checked_names((key,), _DEFAULTS, "config key", ConfigError)
        self.values[key] = value
        self.bases[key] = Path.cwd()

    def _used(self, key: str, value):
        self.params[key] = value
        return value

    def input(self, path: Path) -> Path:
        """Record `path` as a file the stage reads, and return it."""
        self.inputs.setdefault(Path(os.path.abspath(path)), None)
        return path

    def raw(self, key: str) -> str:
        return self._used(key, self.values[key])

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
        return self.input(p)

    def int(self, key: str, minimum: int | None = None) -> int:
        try:
            v = int(self.values[key])
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {self.values[key]!r}") from None
        if minimum is not None and v < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {v}")
        return self._used(key, v)

    def float(self, key: str) -> float:
        try:
            v = float(self.values[key])
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {self.values[key]!r}") from None
        if not math.isfinite(v):
            raise ConfigError(f"{key} must be a finite number, got {self.values[key]!r}")
        return self._used(key, v)

    def list(self, key: str, allowed) -> tuple[str, ...]:
        """The names under `key`, each once and each one of `allowed`."""
        return self._used(key, checked_names(
            artifacts.names(self.values[key]), allowed, key, ConfigError))

    def opt_int(self, key: str) -> int | None:
        return self.int(key) if self.values[key] else None


def _load_features(cfg: Config):
    from . import dataio

    features = cfg.existing_path("features")
    schema = dataio.read_schema(cfg.existing_path("schema"))
    table, report = dataio.load_feature_table(features, schema)
    return schema, table, report


def _main_target(schema: TableSchema) -> str:
    if not schema.target_columns:
        raise ConfigError("schema declares no target columns")
    return schema.target_columns[0]


def _discovery_columns(cfg: Config, outdir: Path):
    """The feature table, its main target, and the selected features, target last."""
    schema, table, _ = _load_features(cfg)
    target = _main_target(schema)
    sel_path = outdir / "selected_features.txt"
    if sel_path.exists():
        selected = checked_names(artifacts.read_id_list(cfg.input(sel_path)),
                                 table.feature_names, str(sel_path))
    else:
        selected = table.plain_feature_names
    return table, target, tuple(f for f in selected if f != target) + (target,)


# ---------------------------------------------------------------------------
# Stages: each reads its config values and files through the config, which
# records them, and returns the params it works out itself, the counts of its
# manifest and the files for `_run_stage` to write. No stage writes.
# ---------------------------------------------------------------------------


def cmd_cluster(cfg: Config, outdir: Path):
    from . import cluster, dataio

    schema, table, report = _load_features(cfg)
    pivots = cfg.list("pivot_features", table.feature_names) or table.plain_feature_names[:3]
    model = cluster.fit_gmm(
        table, pivots, n_components=cfg.int("n_components", 1), seed=cfg.int("seed")
    )
    labels = cluster.assign_subsets(model, table)
    counts = {"em_iterations": len(model.log_likelihoods), "em_converged": model.converged}
    return {"pivot_features": pivots}, counts, {
        "gmm_model.txt": partial(cluster.save_gmm, model=model),
        "subsets.csv": partial(cluster.write_labels, row_ids=table.row_ids, labels=labels),
        "load_report.txt": partial(dataio.write_load_report, report=report),
    }


def cmd_select_features(cfg: Config, outdir: Path):
    from . import causal, intervene

    schema, table, _ = _load_features(cfg)
    intermediate = cfg.raw("intermediate_target") or _main_target(schema)
    checked_names((intermediate,), table.feature_names, "intermediate_target", ConfigError)
    columns = tuple(f for f in table.plain_feature_names if f != intermediate) + (intermediate,)
    # ranking on the standardized scale: strengths must be unit-free
    dag = causal.discover_lingam(
        table.select_columns(columns), intermediate,
        prune_threshold=cfg.float("prune_threshold"),
    )
    ranking = intervene.rank_features(dag, intermediate)
    k = cfg.int("k_features", 1)
    if k > len(ranking):
        raise ConfigError(f"k_features must be at most {len(ranking)}, got {k}")
    return {"intermediate_target": intermediate}, {}, {
        "ranking.csv": partial(artifacts.write, header=("feature", "strength"), rows=ranking),
        "selected_features.txt": partial(artifacts.write_id_list, ids=[f for f, _ in ranking[:k]]),
    }


def cmd_discover(cfg: Config, outdir: Path):
    from . import causal

    table, target, columns = _discovery_columns(cfg, outdir)
    dag = causal.discover_lingam(
        table.select_columns(columns), target,
        prune_threshold=cfg.float("prune_threshold"),
        destandardize=True,
    )
    return {"target": target, "features": columns}, {}, {
        "global_graph.csv": partial(causal.save_dag, dag=dag),
        "global_adjacency.csv": partial(causal.save_adjacency_csv, dag=dag),
    }


def cmd_active_learn(cfg: Config, outdir: Path):
    from . import active, causal, cluster

    table, target, features = _discovery_columns(cfg, outdir)
    labels = cluster.read_labels(cfg.input(outdir / "subsets.csv"))
    missing = [rid for rid in table.row_ids if rid not in labels]
    if missing:
        raise SchemaError(f"rows without subset labels, e.g. {missing[:3]}")
    global_graph = causal.load_dag(cfg.input(outdir / "global_graph.csv"))

    subset_ids = sorted(set(labels.values()))
    subsets = [
        table.select_by_ids([rid for rid in table.row_ids if labels[rid] == k])
        for k in subset_ids
    ]
    seed = cfg.int("seed")
    params = dict(
        m=cfg.int("m_per_iter", 1),
        n_iter=cfg.int("n_iter", 1),
        prune_threshold=cfg.float("prune_threshold"),
        top_n=cfg.opt_int("top_n"),
    )
    active_runs, random_runs, files = [], [], {}
    for r in range(cfg.int("n_realizations", 1)):
        for mode, loop, runs in (("active", active.active_learn, active_runs),
                                 ("random", active.random_baseline, random_runs)):
            run = loop(subsets, global_graph, target, features, seed=seed + r, **params)
            files[f"{mode}_run_{r}.csv"] = partial(active.save_run, run=run)
            runs.append(run)
    # run files of an earlier run with more realizations would outlive its summary
    files |= {p.name: None for mode in ("active", "random")
              for p in sorted(outdir.glob(f"{mode}_run_*.csv")) if p.name not in files}

    a_mean, a_std = active.summarize_runs(active_runs)
    r_mean, r_std = active.summarize_runs(random_runs)
    files["dal_ids.txt"] = partial(artifacts.write_id_list, ids=active_runs[0].selected_row_ids)
    files["loss_summary.csv"] = partial(
        artifacts.write,
        header=("iter", "active_mean", "active_std", "random_mean", "random_std"),
        rows=zip(range(len(a_mean)), a_mean, a_std, r_mean, r_std),
    )
    files["selection_counts.csv"] = partial(
        artifacts.write,
        header=("subset", "count"),
        rows=enumerate(active.selection_counts(active_runs)),
    )
    # +inf on a sampled candidate: too few rows, a degenerate column or a non-finite adjacency
    records = [rec for run in active_runs + random_runs for rec in run.records]
    exhausted = sum(rec.exhausted for rec in records)
    inf = sum(loss == math.inf for rec in records for loss in rec.losses)
    return {}, {"exhausted_candidates": exhausted, "degenerate_candidates": inf - exhausted}, files


def cmd_intervene(cfg: Config, outdir: Path):
    from . import causal, dataio, intervene

    table, target, columns = _discovery_columns(cfg, outdir)
    features = columns[:-1]
    interventable = cfg.list("interventable", features) or features
    dal_path = cfg.input(outdir / "dal_ids.txt")
    dal_ids = checked_names(artifacts.read_id_list(dal_path), where=str(dal_path))
    dal_table = table.select_by_ids(dal_ids).select_columns(columns)

    dag = causal.discover_lingam(
        dal_table, target,
        prune_threshold=cfg.float("prune_threshold"),
        destandardize=True,
    )
    plans = intervene.plan_interventions(
        dal_table, dag,
        goal_value=cfg.float("goal"),
        interventable=interventable,
        bounds=intervene.feature_bounds(table, features),
    )
    intervened_table = intervene.apply_interventions(dal_table.select_columns(features), plans)
    counts = {"plans": len(plans), "plans_clamped": sum(p.clamped for p in plans)}
    return {"interventable": interventable}, counts, {
        "dal_graph.csv": partial(causal.save_dag, dag=dag),
        "plans.csv": partial(intervene.save_plans, plans=plans),
        "intervened.csv": partial(dataio.save_feature_table, table=intervened_table),
    }


def cmd_match(cfg: Config, outdir: Path):
    from . import dataio, match

    schema = dataio.read_schema(cfg.existing_path("schema"))
    target = _main_target(schema)
    intervened_table, _ = dataio.load_feature_table(
        cfg.input(outdir / "intervened.csv"), dataio.TableSchema()
    )
    ref_path = cfg.existing_path("reference" if cfg.path("reference") else "features")
    reference, _ = dataio.load_feature_table(ref_path, schema)
    ref_target = target if target in reference.feature_names else None
    neighbors = match.nearest_in_reference(
        intervened_table, reference,
        k=cfg.int("knn_k", 1),
        ref_target=ref_target,
        jobs=cfg.int("jobs", 1),
    )
    return {"ref_target": ref_target or ""}, {}, {
        "neighbors.csv": partial(match.save_neighbors, neighbors=neighbors),
    }


def cmd_report(cfg: Config, outdir: Path):
    from . import dataio, intervene, match

    schema = dataio.read_schema(cfg.existing_path("schema"))
    plans = intervene.load_plans(cfg.input(outdir / "plans.csv"))
    goals = {p.target_goal for p in plans}
    if len(goals) != 1:
        raise SchemaError(f"plans.csv must hold one goal, found {len(goals)}")
    goal = goals.pop()
    neighbors_path = cfg.input(outdir / "neighbors.csv")
    neighbors = match.load_neighbors(neighbors_path)
    if any(nr.ref_targets is None for nr in neighbors):
        raise SchemaError(f"{neighbors_path}: the ref_target column is empty")
    ref_targets = {nr.neighbor_ids[0]: nr.ref_targets[0] for nr in neighbors}

    # Tanimoto pairs and the PCA use reference fingerprints only with query ones
    query_fps = ref_fps = None
    if cfg.path("fingerprints"):
        width = schema.fingerprint_width
        query_fps = dataio.load_fingerprints(cfg.existing_path("fingerprints"), width)
        if cfg.path("reference_fingerprints"):
            ref_fps = dataio.load_fingerprints(cfg.existing_path("reference_fingerprints"), width)

    report = match.intervention_report(
        plans, neighbors, ref_targets,
        threshold=goal, query_fps=query_fps, reference_fps=ref_fps,
    )
    files = {
        "report_values.csv": partial(
            artifacts.write,
            header=("id", "original", "intervened", "matched"),
            rows=zip(
                [p.row_id for p in plans],
                report.original_targets, report.intervened_targets, report.matched_targets,
            ),
        ),
        "report_pairs.csv": partial(
            artifacts.write,
            header=("id", "tanimoto", "distance"),
            rows=((qid, sim if sim == sim else "", dist) for qid, sim, dist in report.pairs),
        ),
        "report_summary.txt": partial(artifacts.write, meta=[
            ("threshold", report.threshold),
            ("above_threshold_count", report.above_threshold_count),
            ("above_threshold_ids", report.above_threshold_ids),
        ]),
        "pca_coords.csv": None,  # without fingerprints, one would not match this report
    }
    if query_fps is not None:
        proj = match.pca_project(query_fps)
        dal_path = outdir / "dal_ids.txt"
        dal_ids = set(artifacts.read_id_list(cfg.input(dal_path))) if dal_path.exists() else set()
        coords = [
            (rid, p1, p2, "selected" if rid in dal_ids else "dataset")
            for rid, (p1, p2) in zip(query_fps.row_ids, proj.coordinates)
        ]
        if ref_fps is not None:
            matched_ids = {nr.neighbor_ids[0] for nr in neighbors}
            present = [r for r in ref_fps.row_ids if r in matched_ids]
            if present:
                rows = ref_fps.packed[[ref_fps.index(r) for r in present]]
                bits = np.unpackbits(rows, axis=1, count=ref_fps.width)
                projected = match.project_onto(proj, bits)
                coords += [(rid, p1, p2, "matched") for rid, (p1, p2) in zip(present, projected)]
        files["pca_coords.csv"] = partial(
            artifacts.write, header=("id", "phi1", "phi2", "role"), rows=coords)
    return {"threshold": goal}, {}, files


def cmd_graph_dist(g1: str, g2: str, top_n: int | None) -> None:
    from . import causal, graphdist

    a = causal.load_dag(Path(g1))
    b = causal.load_dag(Path(g2))
    print(fmt(graphdist.spectral_distance(a, b, n=top_n)))


def cmd_synth(cfg: Config, outdir: Path):
    """Generate a heterogeneous synthetic world plus a ready-to-run config."""
    from . import causal, dataio, synth

    seed = cfg.int("seed")
    n_features = cfg.int("synth_features", 2)
    rows = cfg.int("synth_rows", 10)
    ref_rows = cfg.int("synth_reference_rows", 1)
    fp_width = dataio.TableSchema.checked_width(cfg.int("synth_fp_width"), "synth_fp_width")
    k_features = min(cfg.int("k_features", 1), n_features)
    # copied into pipeline.cfg as given, each checked as the stage that reads it checks it
    copied = ("m_per_iter", "n_iter", "n_realizations", "goal", "knn_k", "prune_threshold")
    for key in copied:
        if key in ("goal", "prune_threshold"):
            cfg.float(key)
        else:
            cfg.int(key, 1)

    rng = np.random.default_rng(seed)
    names = tuple(f"f{i + 1:02d}" for i in range(n_features)) + ("y",)
    edges: list[tuple[str, str, float]] = []

    def add_parents(child: str, parents) -> None:
        for p in sorted(parents):
            edges.append((names[p], child, float(rng.uniform(0.4, 0.9) * rng.choice([-1.0, 1.0]))))

    for i in range(1, n_features):
        add_parents(names[i], rng.choice(i, size=min(i, int(rng.integers(1, 3))), replace=False))
    add_parents("y", rng.choice(n_features, size=min(3, n_features), replace=False))
    spec = synth.SemSpec(
        node_names=names,
        edges=tuple(edges),
        noises=tuple(("uniform", 0.5) for _ in names),
        seed=seed,
    )

    n_subsets, spread = 3, 0.7  # edge weights scaled by 0.3, 1.0 and 1.7
    factors = list(np.linspace(1.0 - spread, 1.0 + spread, n_subsets))
    factors[n_subsets // 2] = 1.0
    subsets, reference, true_dag = synth.make_heterogeneous_world(
        n_subsets, spec, factors, seed=seed, n_rows=rows,
        global_rows=ref_rows, target="y",
    )
    features_table = dataio.concat_tables(subsets)
    schema = dataio.TableSchema(id_column="id", target_columns=("y",), fingerprint_width=fp_width)
    files = {
        "features.csv": partial(dataio.save_feature_table, table=features_table),
        "reference.csv": partial(dataio.save_feature_table, table=reference),
        "schema.cfg": partial(dataio.write_schema, schema=schema),
        "true_graph.csv": partial(causal.save_dag, dag=true_dag),
    }

    fp_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9000,)))
    for name, ids in (("fingerprints.csv", features_table.row_ids),
                      ("reference_fingerprints.csv", reference.row_ids)):
        bits = (fp_rng.random((len(ids), fp_width)) < 0.25).astype(np.uint8)
        files[name] = partial(dataio.save_fingerprints, fps=dataio.FingerprintTable(ids, bits))

    files["pipeline.cfg"] = partial(artifacts.write, meta=[
        ("features", "features.csv"),
        ("schema", "schema.cfg"),
        ("fingerprints", "fingerprints.csv"),
        ("reference", "reference.csv"),
        ("reference_fingerprints", "reference_fingerprints.csv"),
        ("output_dir", "."),
        ("pivot_features", names[: min(3, n_features)]),
        ("k_features", k_features),
        ("seed", seed),
        *((key, cfg.raw(key)) for key in copied),
    ])
    return {}, {}, files


# ---------------------------------------------------------------------------
# Running a stage, argument parsing, exit codes
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


def _shown(value) -> str:
    """A manifest value: booleans as 0/1, name lists comma-joined."""
    if isinstance(value, bool):
        return str(int(value))
    return ",".join(value) if isinstance(value, tuple) else str(value)


def _run_stage(command: str, cfg: Config) -> None:
    """Run one stage, then write the files it returns and its `<stage>.manifest`.

    A stage only reads: it returns an ordered {name: write} map, where
    `write(path)` writes one artifact and None removes a stale file. Only
    then is the output directory created. Each file, the manifest last, is
    written to `<name>.<pid>.tmp` in it, and once all are written in full
    they replace their targets in order. On any failure the temporary files
    and the directories this call created are removed: a stage that exits
    non-zero changes nothing on disk. Each file is replaced atomically, but
    the set is not: if a rename fails partway, the ones before it are new.

    The manifest records the hash of each file the stage read (in read
    order), each config value it read under its key (bar the seed, which
    has its own line) merged with the params it worked out itself, its
    counts, the seed and the duration; it is the one artifact that is not
    byte-identical across reruns.
    """
    t0 = time.monotonic()
    seed = cfg.int("seed", 0)  # numpy's generators take no negative seed
    outdir = cfg.path("output_dir")
    if outdir is None:
        raise ConfigError("config key 'output_dir' must not be empty")
    derived, counts, files = _STAGES[command](cfg, outdir)
    params = {k: v for k, v in (cfg.params | derived).items() if k != "seed"}
    stage = command.replace("-", "_")
    meta = [("stage", stage)]
    meta += [("input", f"{p.name} sha256={file_sha256(p)}") for p in cfg.inputs]
    meta += [(f"param {k}", _shown(params[k])) for k in sorted(params)]
    meta += [(f"count {k}", _shown(counts[k])) for k in sorted(counts)]
    files[f"{stage}.manifest"] = lambda path: artifacts.write(path, meta=meta + [
        ("seed", str(seed)), ("duration_s", f"{time.monotonic() - t0:.3f}")])

    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    tmps = {}
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            if write is not None:
                tmps[name] = outdir / f"{name}.{os.getpid()}.tmp"
                write(tmps[name])
        for name, write in files.items():
            if write is None:
                (outdir / name).unlink(missing_ok=True)
            else:
                os.replace(tmps[name], outdir / name)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        for d in created:
            with contextlib.suppress(OSError):  # not empty if a rename failed partway
                d.rmdir()
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-al",
        description="Causal discovery, active dataset assembly, and targeted interventions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("-c", "--config", help="plain-text key=value config file")
        p.add_argument("-o", "--output-dir", help="artifact directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides env and config)")
        p.add_argument("--jobs", type=int, help="thread bound for the k-NN search of match")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )

    gd = sub.add_parser("graph-dist", help="spectral distance between two saved graphs")
    gd.add_argument("graph1")
    gd.add_argument("graph2")
    gd.add_argument("--top-n", type=int, default=None)
    return parser


def _make_config(args) -> Config:
    cfg = Config.from_file(Path(args.config) if args.config else None)
    if SEED_ENV_VAR in os.environ:
        cfg.override("seed", os.environ[SEED_ENV_VAR])
    for item in args.set:
        cfg.override(*artifacts.parse_kv(item, f"--set {item!r}", ConfigError))
    if args.output_dir is not None:
        cfg.override("output_dir", args.output_dir)
    if args.seed is not None:
        cfg.override("seed", str(args.seed))
    if args.jobs is not None:
        cfg.override("jobs", str(args.jobs))
    return cfg


# The first row whose types match an error gives its stderr prefix and exit code.
_EXIT_CODES = (
    ((ConfigError,), "E_CONFIG", 2),
    ((OSError,), "E_IO", 3),
    ((*NUMERIC_ERRORS, np.linalg.LinAlgError), "E_NUMERIC", 4),
    ((CausalAlError,), "E_DATA", 3),
)
_HANDLED = tuple(t for types, _, _ in _EXIT_CODES for t in types)


def run_cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "graph-dist":
            cmd_graph_dist(args.graph1, args.graph2, args.top_n)
        else:
            _run_stage(args.command, _make_config(args))
        return 0
    except _HANDLED as exc:
        prefix, code = next((p, c) for types, p, c in _EXIT_CODES if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
