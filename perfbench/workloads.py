"""The benchmark's workloads: inputs made from a seed, one timed repetition,
and the checks that the repetition's outputs are correct.

`assemble` and `match` call the library in-process; `pipeline` runs the
README quick start's stages as fresh `python -m causal_al.cli` processes.
Every workload uses one process with jobs=1; children run one at a time.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from causal_al import active, causal, cli, graphdist, intervene, match, regress, synth
from causal_al.dataio import FingerprintTable, concat_tables

import checks

SETUP_SAMPLES = 3  # set-up is repeated this often per run; setup_s is the median

# The 10-node world of the acceptance suite (criteria 04 and 05).
WORLD_NODES = tuple(f"f{i}" for i in range(1, 10)) + ("y",)
WORLD_EDGES = (
    ("f1", "f2", 0.8), ("f1", "f3", 0.6), ("f2", "f4", 0.7), ("f3", "f4", -0.5),
    ("f2", "f5", 0.5), ("f6", "f5", 0.6), ("f6", "f7", -0.7), ("f7", "f8", 0.6),
    ("f4", "y", 0.9), ("f5", "y", -0.7), ("f3", "y", 0.4), ("f8", "y", 0.5),
)
WORLD_NOISES = tuple(("uniform", 0.5) for _ in WORLD_NODES)
FEATURES = WORLD_NODES[:-1]
TARGET = "y"


def _sub_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    seconds: float
    code: int
    maxrss_mb: float
    stderr: str


class Children:
    """Starts child interpreters one at a time with the checkout's `src` importable."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, args, cwd: Path | None = None) -> Child:
        """Run `python <args>` to completion; wall time and peak RSS of that child."""
        err_path = self.work / "child.stderr"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *map(str, args)], env=self.env, cwd=cwd,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return Child(seconds, proc.returncode, usage.ru_maxrss / 1024, tail[-1] if tail else "")

    def cli(self, args, cwd: Path | None = None) -> Child:
        return self.run(["-m", "causal_al.cli", *args], cwd=cwd)

    def import_seconds(self, module: str) -> list[float]:
        """Cold `import <module>` in fresh interpreters, process start to exit."""
        out = []
        for _ in range(SETUP_SAMPLES):
            c = self.run(["-c", f"import {module}"])
            if c.code != 0:
                raise RuntimeError(f"import {module} failed: {c.stderr}")
            out.append(c.seconds)
        return out


def _mb(nbytes: float) -> str:
    return f"{nbytes / 1e6:.3g} MB"


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


class Assemble:
    """Active assembly and its random baseline, then a forest on each result."""

    name = "assemble"
    M, N_ITER, FACTORS = 50, 20, (0.3, 1.0, 1.8)
    FOREST = dict(n_trees=60, max_depth=10, min_leaf=2, seed=123)
    LOSS_RTOL = 1e-9  # final losses and R2 against recorded or recomputed values

    def __init__(self, seed: int, expected: dict | None):
        self.seed = seed
        self.expected = expected
        self.subsets, _, self.true_dag = synth.make_heterogeneous_world(
            3, synth.SemSpec(WORLD_NODES, WORLD_EDGES, WORLD_NOISES), self.FACTORS,
            seed=seed, n_rows=1000, target=TARGET,
        )
        test_spec = synth.SemSpec(WORLD_NODES, WORLD_EDGES, WORLD_NOISES, seed=_sub_seed(seed, 777))
        self.test = synth.sample_sem(test_spec, 500, id_prefix="t_", target_names=(TARGET,))
        self.pool = concat_tables(self.subsets)
        self.verdict = Verdict()
        self._first: str | None = None

    def inputs_digest(self) -> str:
        return checks.digest(self.pool.values, self.pool.row_ids, self.test.values)

    def working_set(self) -> dict[str, str]:
        d = len(WORLD_NODES)
        final = self.M * self.N_ITER
        return {
            "subset tables (3 x 1000 x 10 float64)": _mb(3 * 1000 * d * 8),
            f"largest candidate table ({final} x {d} float64)": _mb(final * d * 8),
            f"forest training matrix ({final} x {d - 1} float64)": _mb(final * (d - 1) * 8),
        }

    def run(self, tracer=None):
        runs = []
        for loop in (active.active_learn, active.random_baseline):
            runs.append(loop(
                self.subsets, self.true_dag, TARGET, m=self.M, n_iter=self.N_ITER,
                seed=self.seed, jobs=1,
            ))
        scores = []
        for run in runs:
            snap = self.pool.select_by_ids(run.selected_row_ids)
            model = regress.fit_forest(snap, FEATURES, TARGET, jobs=1, **self.FOREST)
            scores.append(regress.r2(model, self.test))
        return runs, scores

    def observe(self, out) -> None:
        runs, scores = out
        v = self.verdict
        for run in runs:
            losses = [x for rec in run.records for x in rec.losses]
            v.attempted += len(losses)
            v.failed += sum(x == float("inf") for x in losses)
        d = checks.digest(
            [(r.mode, [rec.chosen for rec in r.records], [rec.losses for rec in r.records],
              r.selected_row_ids) for r in runs],
            scores,
        )
        if self._first is not None:
            if d != self._first:
                v.problems.append("a repetition's runs differ from the first repetition's")
            return
        self._first = v.digest = d
        subset_ids = [set(s.row_ids) for s in self.subsets]
        for run in runs:
            v.problems += checks.loop_problems(run, subset_ids, self.M, self.N_ITER)
            # independent re-derivation of the final loss from the committed rows
            table = self.pool.select_by_ids(run.selected_row_ids)
            graph = causal.discover_lingam(table, TARGET, destandardize=True)
            redone = graphdist.spectral_distance(graph, self.true_dag)
            if not checks.loss_matches(run.final_loss(), redone, self.LOSS_RTOL):
                v.problems.append(
                    f"{run.mode} run: final loss {run.final_loss()!r} != {redone!r} recomputed"
                )
        v.notes = {
            f"{r.mode}": {
                "chosen": [rec.chosen for rec in r.records],
                "final_loss": r.final_loss(),
                "r2": s,
            }
            for r, s in zip(runs, scores)
        }
        if self.expected is not None:
            for mode, want in self.expected["runs"].items():
                got = v.notes[mode]
                if got["chosen"] != want["chosen"]:
                    v.problems.append(f"{mode} run: committed subsets {got['chosen']} != recorded")
                for key in ("final_loss", "r2"):
                    if not checks.loss_matches(got[key], want[key], self.LOSS_RTOL):
                        v.problems.append(
                            f"{mode} run: {key} {got[key]!r} != recorded {want[key]!r}")


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def _random_bits(rng: np.random.Generator, rows: int, width: int, block: int = 1000) -> np.ndarray:
    """0/1 fingerprints with bit density 0.25, drawn in row blocks to bound memory."""
    bits = np.empty((rows, width), dtype=np.uint8)
    for lo in range(0, rows, block):
        hi = min(rows, lo + block)
        bits[lo:hi] = rng.random((hi - lo, width)) < 0.25
    return bits


class Match:
    """Discover, plan interventions, then k-NN, report and PCA at reference scale."""

    name = "match"
    QUERIES, REFERENCE, WIDTH, K = 1000, 20_000, 2048, 5
    ORACLE_STRIDE = 10  # every 10th query is checked against the brute-force scan

    def __init__(self, seed: int):
        self.seed = seed
        (self.data,), self.reference, _ = synth.make_heterogeneous_world(
            1, synth.SemSpec(WORLD_NODES, WORLD_EDGES, WORLD_NOISES), (1.0,),
            seed=seed, n_rows=self.QUERIES, global_rows=self.REFERENCE, target=TARGET,
        )
        rng = np.random.default_rng(_sub_seed(seed, self.WIDTH))
        self.query_fps = FingerprintTable(
            self.data.row_ids, _random_bits(rng, self.QUERIES, self.WIDTH))
        self.ref_fps = FingerprintTable(
            self.reference.row_ids, _random_bits(rng, self.REFERENCE, self.WIDTH))
        self.goal = intervene.DEFAULT_GOAL
        self.verdict = Verdict()
        self._first: str | None = None

    def inputs_digest(self) -> str:
        return checks.digest(self.data.values, self.reference.values,
                             self.query_fps.bits, self.ref_fps.bits)

    def working_set(self) -> dict[str, str]:
        q, r, w, d = self.QUERIES, self.REFERENCE, self.WIDTH, len(FEATURES)
        return {
            f"k-NN distance matrix ({q} x {r} float64)": _mb(q * r * 8),
            f"reference features ({r} x {d} float64)": _mb(r * d * 8),
            f"reference fingerprints ({r} x {w} uint8)": _mb(r * w),
            f"PCA input ({q} x {w} float64)": _mb(q * w * 8),
            f"PCA covariance ({w} x {w} float64)": _mb(w * w * 8),
        }

    def run(self, tracer=None):
        dag = causal.discover_lingam(self.data, TARGET, destandardize=True)
        bounds = intervene.feature_bounds(self.data, FEATURES)
        plans = intervene.plan_interventions(
            self.data, dag, goal_value=self.goal, interventable=FEATURES, bounds=bounds,
        )
        queries = intervene.apply_interventions(self.data.select_columns(FEATURES), plans)
        neighbors = match.nearest_in_reference(
            queries, self.reference, k=self.K, ref_target=TARGET, jobs=1,
        )
        ref_targets = dict(zip(self.reference.row_ids, self.reference.column(TARGET)))
        report = match.intervention_report(
            plans, neighbors, ref_targets, threshold=self.goal,
            query_fps=self.query_fps, reference_fps=self.ref_fps,
        )
        pca = match.pca_project(self.query_fps)
        return dag, bounds, plans, queries, neighbors, report, pca

    def observe(self, out) -> None:
        dag, bounds, plans, queries, neighbors, report, pca = out
        v = self.verdict
        d = checks.digest(
            [(p.chosen_feature, p.intervened_value, p.predicted_target_after, p.clamped)
             for p in plans],
            [(n.neighbor_ids, n.distances) for n in neighbors],
            [pair[1:] for pair in report.pairs], report.above_threshold_ids,
            pca.coordinates,
        )
        if self._first is not None:
            if d != self._first:
                v.problems.append("a repetition's outputs differ from the first repetition's")
            return
        self._first = v.digest = d
        sample = range(0, queries.n_rows, self.ORACLE_STRIDE)
        bad = checks.knn_disagreements(
            queries, self.reference, neighbors, sample, self.K, ref_target=TARGET)
        v.attempted, v.failed = len(sample), len(bad)
        if bad:
            v.problems.append(
                f"{len(bad)} sampled queries disagree with the oracle, e.g. {bad[:5]}")
        v.problems += checks.plan_problems(plans, self.data, dag, bounds, self.goal)[:5]
        reached = sum(not p.clamped for p in plans)
        v.notes = {
            "intervene.goal_reached_ratio": reached / len(plans),
            "plans_reaching_goal": f"{reached}/{len(plans)}",
            "above_threshold_count": report.above_threshold_count,
        }


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

STAGES = ("cluster", "select-features", "discover", "active-learn", "intervene", "match", "report")
# The synth world's GMM subsets hold fewer than the default m_per_iter * n_iter =
# 1000 rows (ROADMAP C.1), so the default active-learn exits 3. As acceptance
# criteria 11 and 12 do, the timed pipeline overrides these two keys.
OVERRIDES = ("--set", "m_per_iter=20", "--set", "n_iter=5")
# The README quick start, verbatim at its defaults (run from the directory holding `work`).
QUICKSTART = (
    ("synth", "-o", "work", "--seed", "7"),
    ("cluster", "-c", "work/pipeline.cfg"),
    ("select-features", "-c", "work/pipeline.cfg"),
    ("discover", "-c", "work/pipeline.cfg"),
    ("active-learn", "-c", "work/pipeline.cfg"),
    ("intervene", "-c", "work/pipeline.cfg"),
    ("match", "-c", "work/pipeline.cfg"),
    ("report", "-c", "work/pipeline.cfg"),
    ("graph-dist", "work/true_graph.csv", "work/global_graph.csv"),
)


def artifact_digests(directory: Path) -> dict[str, str]:
    """sha256 of every artifact but the `*.manifest` files, which hold timings."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file() and p.suffix != ".manifest"
    }


def quickstart(children: Children, work: Path) -> list[tuple[str, int, str]]:
    """Run the README quick start verbatim; (command, exit code, last stderr line)."""
    qs = work / "quickstart"
    shutil.rmtree(qs, ignore_errors=True)
    qs.mkdir(parents=True)
    out = []
    for args in QUICKSTART:
        c = children.cli(args, cwd=qs)
        out.append((args[0], c.code, c.stderr))
    shutil.rmtree(qs, ignore_errors=True)
    return out


class Pipeline:
    """The quick start's seven stages, each a fresh interpreter, on synth data."""

    name = "pipeline"

    def __init__(self, children: Children, synth_dir: Path):
        self.children = children
        self.synth_dir = synth_dir
        self.config = synth_dir / "pipeline.cfg"
        self.verdict = Verdict()
        self.stage_codes: list[dict[str, int]] = []
        self.digests: list[dict[str, str]] = []
        self.subprocess_reps: list[dict[str, Child]] = []  # untraced repetitions
        self._rep = 0

    def working_set(self) -> dict[str, str]:
        files = {p.name: p.stat().st_size for p in self.synth_dir.iterdir() if p.suffix == ".csv"}
        out = {f"{name} (file size)": _mb(size) for name, size in sorted(files.items())}
        out["k-NN distance matrix (100 x 2000 float64)"] = _mb(100 * 2000 * 8)
        return out

    def _args(self, stage: str, outdir: Path) -> list[str]:
        return [stage, "-c", str(self.config), "-o", str(outdir), *OVERRIDES]

    def run(self, tracer=None):
        outdir = self.children.work / f"rep{self._rep}"
        self._rep += 1
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        stages = {}
        for stage in STAGES:
            if tracer is None:
                stages[stage] = self.children.cli(self._args(stage, outdir))
            else:
                t0 = time.perf_counter()
                with tracer.span(f"cli.{stage}"):
                    code = cli.run_cli(self._args(stage, outdir))
                stages[stage] = Child(time.perf_counter() - t0, code, float("nan"), "")
        if tracer is None:
            self.subprocess_reps.append(stages)
        return outdir, stages

    def observe(self, out) -> None:
        outdir, stages = out
        v = self.verdict
        codes = {stage: c.code for stage, c in stages.items()}
        v.attempted += len(codes)
        v.failed += sum(code != 0 for code in codes.values())
        self.stage_codes.append(codes)
        self.digests.append(artifact_digests(outdir))
        if len(self.digests) == 1 and (outdir / "plans.csv").exists():
            plans = intervene.load_plans(outdir / "plans.csv")
            reached = sum(not p.clamped for p in plans)
            v.notes["intervene.goal_reached_ratio"] = reached / len(plans) if plans else 0.0
            v.notes["plans_reaching_goal"] = f"{reached}/{len(plans)}"
        shutil.rmtree(outdir, ignore_errors=True)
        v.problems = checks.pipeline_problems(self.stage_codes, self.digests)
        v.digest = checks.digest(sorted(self.digests[0].items()))
        for stage, c in stages.items():
            if c.code != 0:
                v.notes.setdefault("stage_errors", {})[stage] = c.stderr


# ---------------------------------------------------------------------------
# Set-up: build the inputs several times and time it
# ---------------------------------------------------------------------------


def prepare(name: str, seed: int, children: Children, expected: dict | None):
    """Build the workload SETUP_SAMPLES times; return it with its set-up record.

    In-process workloads: setup_s = median cold `import causal_al` in a fresh
    interpreter + median input generation. pipeline: median `causal-al synth`.
    Every repetition of the set-up must produce the same inputs.
    """
    if name == "pipeline":
        seconds, digests = [], []
        for i in range(SETUP_SAMPLES):
            d = children.work / f"synth{i}"
            shutil.rmtree(d, ignore_errors=True)
            c = children.cli(["synth", "-o", d, "--seed", seed])
            if c.code != 0:
                raise RuntimeError(f"synth exited {c.code}: {c.stderr}")
            seconds.append(c.seconds)
            digests.append(artifact_digests(d))
        for i in range(1, SETUP_SAMPLES):
            shutil.rmtree(children.work / f"synth{i}")
        record = {"setup_s": statistics.median(seconds), "synth_s": seconds,
                  "same_inputs": all(d == digests[0] for d in digests)}
        return Pipeline(children, children.work / "synth0"), record

    make = {"assemble": lambda: Assemble(seed, expected), "match": lambda: Match(seed)}[name]
    imports = children.import_seconds("causal_al")
    gens, digests = [], []
    w = None
    for _ in range(SETUP_SAMPLES):
        w = None  # release the previous inputs before building new ones
        t0 = time.perf_counter()
        w = make()
        gens.append(time.perf_counter() - t0)
        digests.append(w.inputs_digest())
    record = {
        "setup_s": statistics.median(imports) + statistics.median(gens),
        "import_s": imports, "generate_s": gens,
        "same_inputs": all(d == digests[0] for d in digests),
    }
    return w, record
