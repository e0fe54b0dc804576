"""Benchmark of causal_al: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload {assemble,match,pipeline,all}
                             [--seed N] [--seconds S] [--trace {0,1}]

Run from the root of a checkout; the library is imported from `src/`
and nothing under `src/` is changed. Each workload is a closed loop in
one process with jobs=1: a repetition of the timed section starts when
the previous one ends, until `--seconds` have passed. Inputs are made
from `--seed` before the timed section; the library receives only them.

With `--trace 0` the last line of stdout is a JSON object whose metrics
are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with `--trace 1`
repetitions alternate untraced and traced and the metrics are the
per-layer ones. Failures against attempts are the object's `failed` and
`attempted`. The full record, spans included, is written to
`.perfbench_run/` in the checkout. Any failed correctness check makes
the exit code non-zero. See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import envinfo
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"
DEFAULT_SEED = 11
DEFAULT_SECONDS = 25
WORKLOADS = ("assemble", "match", "pipeline")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
PIPELINE_STAGES = ("cluster", "select-features", "discover", "active-learn",
                   "intervene", "match", "report")

# Per-layer metrics: (name, unit). A layer is a module of causal_al.
LAYER_METRICS = (
    ("causal.discover_lingam.calls", "count"),
    ("causal.discover_lingam.s", "s"),
    ("causal.discover_lingam.rows_mean", "rows"),
    ("dataio.FeatureTable.calls", "count"),
    ("dataio.FeatureTable.s", "s"),
    ("graphdist.spectral_distance.calls", "count"),
    ("graphdist.spectral_distance.s", "s"),
    ("active.loop_self_s", "s"),
    ("active.candidates", "count"),
    ("active.candidates_inf", "count"),
    ("regress.fit_forest.s", "s"),
    ("regress.r2.s", "s"),
    ("regress.tree_nodes", "count"),
    ("match.nearest_in_reference.s", "s"),
    ("match.nearest_in_reference.peak_mb", "MiB"),
    ("match.distance_evals", "count"),
    ("match.distance_bytes_computed", "B"),
    ("match.pca_project.s", "s"),
    ("match.intervention_report.s", "s"),
    ("intervene.plan_interventions.s", "s"),
    ("intervene.plans", "count"),
    ("intervene.plans_clamped", "count"),
    ("intervene.goal_reached_ratio", "ratio"),
    ("cli.import_s", "s"),
    *((f"cli.{stage}.s", "s") for stage in PIPELINE_STAGES),
    ("dataio.load_feature_table.s", "s"),
    ("dataio.save_feature_table.s", "s"),
    ("cluster.fit_gmm.s", "s"),
    ("cluster.em_iters", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Rep:
    traced: bool
    seconds: float
    tracer: spans.Tracer | None = None


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure(w, seconds: float, trace: bool) -> list[Rep]:
    """Closed loop over the timed section for `seconds`.

    Traced runs alternate untraced and traced repetitions (untraced first)
    and keep going until each kind has at least one repetition.
    """
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        kinds = {r.traced for r in reps}
        done = kinds == {False, True} if trace else bool(kinds)
        if done and time.perf_counter() - start >= seconds:
            return reps
        traced = trace and len(reps) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if traced:
            with spans.installed(tracer):
                t0 = time.perf_counter()
                with tracer.span("rep"):
                    out = w.run(tracer)
                dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            out = w.run(None)
            dt = time.perf_counter() - t0
        w.observe(out)  # checks run outside the timed section
        reps.append(Rep(traced, dt, tracer))


def layer_metrics(w, reps: list[Rep], cli_import: list[float]):
    """Per-layer metrics (medians over traced repetitions) and per-rep counters."""
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    subprocess_reps = getattr(w, "subprocess_reps", [])
    per_rep, counters = [], []
    for r in traced:
        tot = spans.layer_totals(r.tracer.spans)
        c = r.tracer.counters

        def get(layer, key):
            return tot.get(layer, {}).get(key, 0.0)

        m = {}
        for layer in ("causal.discover_lingam", "dataio.FeatureTable",
                      "graphdist.spectral_distance"):
            m[f"{layer}.calls"] = get(layer, "calls")
            m[f"{layer}.s"] = get(layer, "s")
        calls = m["causal.discover_lingam.calls"]
        m["causal.discover_lingam.rows_mean"] = (
            c["causal.discover_lingam.rows"] / calls if calls else 0.0)
        m["active.loop_self_s"] = (get("active.active_learn", "self_s")
                                   + get("active.random_baseline", "self_s"))
        for layer in ("regress.fit_forest", "regress.r2", "match.nearest_in_reference",
                      "match.pca_project", "match.intervention_report",
                      "intervene.plan_interventions", "dataio.load_feature_table",
                      "dataio.save_feature_table", "cluster.fit_gmm"):
            m[f"{layer}.s"] = get(layer, "s")
        m["match.nearest_in_reference.peak_mb"] = r.tracer.peaks_mb.get(
            "match.nearest_in_reference", 0.0)
        for key in ("active.candidates", "active.candidates_inf", "regress.tree_nodes",
                    "match.distance_evals", "match.distance_bytes_computed",
                    "intervene.plans", "intervene.plans_clamped", "cluster.em_iters"):
            m[key] = c[key]
        plans = c["intervene.plans"]
        m["intervene.goal_reached_ratio"] = (
            (plans - c["intervene.plans_clamped"]) / plans if plans else 0.0)
        selfs = spans.self_times(r.tracer.spans)
        root = [i for i, s in enumerate(r.tracer.spans) if s.parent is None]
        m["trace.unattributed_s"] = sum(selfs[i] for i in root)
        m["trace.self_sum_s"] = sum(selfs) - m["trace.unattributed_s"]
        per_rep.append(m)
        counters.append({**dict(c), **{f"{k}.calls": int(v["calls"]) for k, v in tot.items()}})

    metrics = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
    for stage in PIPELINE_STAGES:
        metrics[f"cli.{stage}.s"] = _median([r[stage].seconds for r in subprocess_reps])
    metrics["cli.import_s"] = _median(cli_import)
    metrics["trace.wall_s"] = _median([r.seconds for r in traced])
    metrics["trace.untraced_wall_s"] = _median([r.seconds for r in untraced])
    # The traced pipeline calls the stages in-process, so the seven cold
    # imports it skips are added back before comparing with the untraced run.
    skipped = len(PIPELINE_STAGES) * metrics["cli.import_s"] if subprocess_reps else 0.0
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"] + skipped - metrics["trace.untraced_wall_s"])
    return metrics, counters


def _fmt_s(x: float) -> str:
    return f"{x:.4f} s"


def run_one(args) -> int:
    import workloads  # imports causal_al, so only after main() has checked src/

    name, seed, trace = args.workload, args.seed, bool(args.trace)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children = workloads.Children(ROOT, work)
    expected = json.loads((HERE / "expected.json").read_text()).get(name)
    if expected is not None and expected["seed"] != seed:
        expected = None
    try:
        env = envinfo.environment()
        w, setup = workloads.prepare(name, seed, children, expected)
        quick = workloads.quickstart(children, work) if name == "pipeline" else None
        cli_import = children.import_seconds("causal_al.cli") if trace else []
        reps = measure(w, args.seconds, trace)
        working_set = w.working_set()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    v = w.verdict
    problems = list(v.problems)
    if not setup["same_inputs"]:
        problems.append("the same seed gave different inputs across set-ups")
    untraced = [r for r in reps if not r.traced]
    walls = [r.seconds for r in untraced]
    if name == "pipeline":
        peak = max(c.maxrss_mb for r in w.subprocess_reps for c in r.values())
        peak_src = "largest stage child (wait4 rusage)"
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peak_src = "benchmark process (RUSAGE_SELF)"
    e2e = {"wall_s": _median(walls), "setup_s": setup["setup_s"], "peak_rss_mb": peak}

    print(f"perfbench {name} seed={seed} seconds={args.seconds:g} trace={int(trace)}")
    caches = " ".join(f"{k}={v_}" for k, v_ in env["caches"].items())
    print(f"environment: nproc={env['nproc']} cpu={env['cpu_model']!r} {caches} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']} ({env['blas_library']}, threads={env['blas_threads']})")
    print("working set (computed): " + "; ".join(f"{k} = {s}" for k, s in working_set.items()))
    print(f"setup: {json.dumps(setup)}")
    if quick is not None:
        print("quickstart (README verbatim, defaults, seed 7): "
              + " ".join(f"{cmd}={code}" for cmd, code, _ in quick))
        for cmd, code, err in quick:
            if code != 0:
                print(f"  {cmd} exit {code}: {err}")
    tail = _tail(walls)
    tail_txt = (f"p{tail[0]:.1f} {_fmt_s(tail[1])}" if tail
                else "no tail percentile (needs >= 11 samples)")
    print(f"wall_s: median {_fmt_s(e2e['wall_s'])}, {tail_txt}, n={len(walls)} repetitions"
          f" (samples: {', '.join(f'{x:.3f}' for x in walls)})")
    print(f"setup_s: {_fmt_s(e2e['setup_s'])} (median of {workloads.SETUP_SAMPLES} set-ups)")
    print(f"peak_rss_mb: {peak:.1f} MiB, {peak_src}")
    base = {"assemble": "candidate evaluations scored +inf",
            "match": "oracle-checked queries that disagree",
            "pipeline": "stage processes that exit non-zero"}[name]
    ratio = v.failed / v.attempted if v.attempted else float("nan")
    print(f"fail_ratio: {v.failed}/{v.attempted} = {ratio:.4g} ({base})")
    for key, value in v.notes.items():
        print(f"{key}: {json.dumps(value)}")
    print(f"result digest: {v.digest}")

    record = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": int(trace),
        "environment": env, "working_set_computed": working_set, "setup": setup,
        "quickstart": quick, "walls_untraced": walls, "end_to_end": e2e,
        "attempted": v.attempted, "failed": v.failed, "digest": v.digest, "notes": v.notes,
    }
    if trace:
        layers, counters = layer_metrics(w, reps, cli_import)
        if any(c != counters[0] for c in counters[1:]):
            problems.append("counters differ between traced repetitions")
        traced = [r for r in reps if r.traced]
        # layer table of the first traced repetition
        tot = spans.layer_totals(traced[0].tracer.spans)
        wall = traced[0].seconds
        print(f"layers (first traced repetition, wall {_fmt_s(wall)}): "
              "name calls inclusive_s self_s self%")
        for layer, t in sorted(tot.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:36s} {int(t['calls']):6d} {t['s']:10.4f} {t['self_s']:10.4f} "
                  f"{100 * t['self_s'] / wall:6.1f}%")
        print(f"attribution: traced wall_s {_fmt_s(layers['trace.wall_s'])} = layer self times "
              f"{_fmt_s(layers['trace.self_sum_s'])} + unattributed "
              f"{_fmt_s(layers['trace.unattributed_s'])}; untraced wall_s "
              f"{_fmt_s(layers['trace.untraced_wall_s'])}; tracing overhead "
              f"{_fmt_s(layers['trace.overhead_s'])}"
              + (" (in-process stages + 7 x cli.import_s vs subprocess stages)"
                 if name == "pipeline" else ""))
        for layer, peak_mb in traced[0].tracer.peaks_mb.items():
            print(f"peak traced allocation inside {layer}: {peak_mb:.1f} MiB (tracemalloc)")
        print("counters (per repetition, computed): " + json.dumps(counters[0], sort_keys=True))
        absent = [k for k, _ in LAYER_METRICS if layers.get(k, 0) == 0]
        print("per-layer metrics that read 0 here (layer absent from this workload, "
              "or nothing counted): " + (", ".join(absent) or "none"))
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_METRICS}
        record["layers"] = layers
        record["counters"] = counters[0]
        record["spans"] = [
            [[s.name, s.start - r.tracer.spans[0].start, s.end - r.tracer.spans[0].start,
              s.parent] for s in r.tracer.spans]
            for r in traced
        ]
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END}

    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'pass' if not problems else 'FAIL'}")
    record["problems"] = problems
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": not problems, "attempted": v.attempted, "failed": v.failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own child process, one after another, then a summary."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        last = ""
        try:
            for line in proc.stdout:
                print(f"[{name}] {line}", end="")
                last = line
        finally:
            proc.stdout.close()
            code = proc.wait()
        status = status or code
        try:
            results[name] = json.loads(last)
        except json.JSONDecodeError:
            status = status or 1
    from workloads import SETUP_SAMPLES

    keys = [k for k, _ in LAYER_METRICS if k.startswith("trace.")] if args.trace else \
        [k for k, _ in END_TO_END]
    print("summary:")
    for name, res in results.items():
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        ms = res["metrics"]
        shown = ", ".join(f"{k}={ms[k]['value']:.4g} {ms[k]['unit']}" for k in keys)
        print(f"  {name:9s} {shown}; {len(record['walls_untraced'])} untraced repetitions, "
              f"{SETUP_SAMPLES} set-ups; fail_ratio {res['failed']}/{res['attempted']}; "
              f"correct={res['correct']}")
    print(json.dumps({
          "correct": len(results) == len(WORKLOADS) and all(r["correct"] for r in results.values()),
          "attempted": sum(r["attempted"] for r in results.values()),
          "failed": sum(r["failed"] for r in results.values()),
          "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "causal_al" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'causal_al'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
