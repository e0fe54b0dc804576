import dataclasses
import itertools
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from causal_al import artifacts, cli, cluster, dataio, intervene, match
from causal_al.cli import run_cli
from causal_al.util import file_sha256
from tests.conftest import make_table, modules_after

# sized so every GMM-derived subset stays well above m_per_iter * n_iter rows
SMALL = [
    "--set", "synth_features=5",
    "--set", "synth_rows=220",
    "--set", "synth_reference_rows=120",
    "--set", "synth_fp_width=32",
    "--set", "m_per_iter=15",
    "--set", "n_iter=4",
    "--set", "k_features=4",
]

PIPELINE = [
    "cluster", "select-features", "discover",
    "active-learn", "intervene", "match", "report",
]


def run_pipeline(workdir, seed=3, jobs=None):
    extra = ["--jobs", str(jobs)] if jobs else []
    assert run_cli(["synth", "-o", str(workdir), "--seed", str(seed)] + SMALL) == 0
    cfg = str(workdir / "pipeline.cfg")
    for stage in PIPELINE:
        code = run_cli([stage, "-c", cfg] + extra)
        assert code == 0, f"stage {stage} failed"


def snapshot(workdir):
    out = {}
    for p in sorted(workdir.iterdir()):
        if p.suffix == ".manifest":
            continue  # manifests carry timings
        out[p.name] = p.read_bytes()
    return out


def state(path):
    """What a failing stage must leave as it found it: `{name: bytes}` of the
    files in `path` (None if there is no such directory) and the names beside it."""
    files = {p.name: p.read_bytes() for p in path.iterdir()} if path.exists() else None
    return files, sorted(p.name for p in path.parent.iterdir())


def test_full_pipeline_end_to_end(tmp_path, capsys):
    work = tmp_path / "w"
    run_pipeline(work)
    for name in [
        "features.csv", "schema.cfg", "reference.csv", "true_graph.csv",
        "gmm_model.txt", "subsets.csv", "load_report.txt",
        "ranking.csv", "selected_features.txt",
        "global_graph.csv", "global_adjacency.csv",
        "active_run_0.csv", "random_run_0.csv", "dal_ids.txt",
        "loss_summary.csv", "selection_counts.csv",
        "dal_graph.csv", "plans.csv", "intervened.csv",
        "neighbors.csv", "report_values.csv", "report_pairs.csv",
        "report_summary.txt", "pca_coords.csv",
    ]:
        assert (work / name).exists(), name
    for stage in ["synth", "cluster", "discover", "active_learn", "intervene", "match", "report"]:
        assert (work / f"{stage}.manifest").exists()
    # graph-dist on produced artifacts prints a number
    code = run_cli(["graph-dist", str(work / "true_graph.csv"), str(work / "global_graph.csv")])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) >= 0.0


def readme_quick_start():
    """The `causal-al ...` lines of the README's quick-start block, as argv lists."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("causal-al ")]


def test_readme_quick_start_runs_at_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CAUSAL_AL_SEED", raising=False)
    commands = readme_quick_start()
    assert [argv[0] for argv in commands] == ["synth", *PIPELINE, "graph-dist"]
    for argv in commands:
        assert run_cli(argv) == 0, f"{argv[0]} failed"
    manifest = (tmp_path / "work" / "active_learn.manifest").read_text(encoding="utf-8")
    assert "count exhausted_candidates = " in manifest
    assert "count degenerate_candidates = 0" in manifest.splitlines()
    # EM on the quick-start data runs to max_iter without meeting its tolerance
    manifest = (tmp_path / "work" / "cluster.manifest").read_text(encoding="utf-8").splitlines()
    assert "count em_iterations = 200" in manifest
    assert "count em_converged = 0" in manifest


def test_readme_lists_every_config_key_with_its_default():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").split("### Config keys", 1)[1].splitlines()
    start = lines.index("| key | default | read by |") + 2  # past the header and its rule
    rows = [line.split("|")[1:3] for line in itertools.takewhile(
        lambda line: line.startswith("|"), lines[start:])]
    documented = {key.strip().strip("`"): default.strip().strip("`") for key, default in rows}
    assert len(documented) == len(rows), "a key is listed twice"
    assert documented == cli._DEFAULTS


def test_rerun_is_byte_identical(tmp_path):
    w1, w2 = tmp_path / "a", tmp_path / "b"
    run_pipeline(w1, seed=5)
    run_pipeline(w2, seed=5)
    s1, s2 = snapshot(w1), snapshot(w2)
    assert s1.keys() == s2.keys()
    for name in s1:
        assert s1[name] == s2[name], f"{name} differs between reruns"


def test_jobs_do_not_change_outputs(tmp_path):
    w1, w4 = tmp_path / "j1", tmp_path / "j4"
    run_pipeline(w1, seed=5, jobs=1)
    run_pipeline(w4, seed=5, jobs=4)
    s1, s4 = snapshot(w1), snapshot(w4)
    assert s1.keys() == s4.keys()
    for name in s1:
        assert s1[name] == s4[name], f"{name} differs between --jobs 1 and --jobs 4"


def test_missing_input_file_is_E_IO(tmp_path, capsys):
    code = run_cli(["cluster", "-o", str(tmp_path), "--set", "features=absent.csv"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("E_IO")
    assert "\n" not in err.strip()


def test_unknown_config_key_is_E_CONFIG(tmp_path, capsys):
    code = run_cli(["cluster", "-o", str(tmp_path), "--set", "bogus=1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("E_CONFIG")


@pytest.mark.parametrize("key", ["destandardize", "synth_subsets", "synth_spread",
                                 "synth_noise_scale"])
def test_a_config_setting_a_removed_key_is_E_CONFIG_naming_the_file_and_key(
        tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 1\n", encoding="utf-8")
    assert run_cli(["synth", "-c", str(cfg), "-o", str(tmp_path / "w")]) == 2
    assert capsys.readouterr().err.startswith(f"E_CONFIG: {cfg}: {key!r} is not one of ")
    assert not (tmp_path / "w").exists()


def test_bad_data_is_E_DATA(tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text("id,f1,y\na,1,2\na,3,4\n", encoding="utf-8")
    (tmp_path / "schema.cfg").write_text(
        "id_column = id\ntarget_columns = y\n", encoding="utf-8"
    )
    code = run_cli([
        "cluster", "-o", str(tmp_path),
        "--set", f"features={features}",
        "--set", f"schema={tmp_path / 'schema.cfg'}",
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("E_DATA")


def test_degenerate_data_is_E_NUMERIC(tmp_path, capsys):
    features = tmp_path / "features.csv"
    rows = "".join(f"m{i},1.0,{i}.0\n" for i in range(10))
    features.write_text("id,f1,y\n" + rows, encoding="utf-8")
    (tmp_path / "schema.cfg").write_text(
        "id_column = id\ntarget_columns = y\n", encoding="utf-8"
    )
    code = run_cli([
        "cluster", "-o", str(tmp_path),
        "--set", f"features={features}",
        "--set", f"schema={tmp_path / 'schema.cfg'}",
        "--set", "pivot_features=f1",
    ])
    assert code == 4
    assert capsys.readouterr().err == "E_NUMERIC: column 'f1' is constant over 10 rows\n"


@pytest.mark.parametrize("stage", ["cluster", "discover"])
def test_overflowing_column_is_E_NUMERIC_and_writes_nothing(tmp_path, capsys, stage):
    # every other f2 cell of the first 200 of 600 rows is 1e300; both stages
    # used to write NaN models and exit 0
    x = np.random.default_rng(13).normal(size=(600, 4))
    x[:200:2, 1] = 1e300
    table = make_table(x, ("f1", "f2", "f3", "y"), target_names=("y",))
    dataio.save_feature_table(tmp_path / "features.csv", table)
    (tmp_path / "schema.cfg").write_text("id_column = id\ntarget_columns = y\n", encoding="utf-8")
    out = tmp_path / "out"
    before = state(out)
    capsys.readouterr()
    code = run_cli([
        stage, "-o", str(out),
        "--set", f"features={tmp_path / 'features.csv'}",
        "--set", f"schema={tmp_path / 'schema.cfg'}",
    ])
    assert code == 4
    assert capsys.readouterr().err == (
        "E_NUMERIC: column 'f2' has a spread that is not finite over 600 rows\n")
    assert state(out) == before


def test_destandardized_weight_beyond_the_float_range_is_E_NUMERIC_and_writes_nothing(
        tmp_path, capsys):
    # f1 scaled by 1e-158 and y by 1e152: each spread is finite, but the
    # f1 -> y weight on the raw scales is not; the stage used to write it
    rng = np.random.default_rng(14)
    f1 = rng.uniform(-1, 1, 400)
    y = 0.8 * f1 + rng.uniform(-0.3, 0.3, 400)
    table = make_table(np.column_stack([f1 * 1e-158, y * 1e152]), ("f1", "y"), target_names=("y",))
    dataio.save_feature_table(tmp_path / "features.csv", table)
    (tmp_path / "schema.cfg").write_text("id_column = id\ntarget_columns = y\n", encoding="utf-8")
    out = tmp_path / "out"
    before = state(out)
    capsys.readouterr()
    code = run_cli([
        "discover", "-o", str(out),
        "--set", f"features={tmp_path / 'features.csv'}",
        "--set", f"schema={tmp_path / 'schema.cfg'}",
    ])
    assert code == 4
    assert capsys.readouterr().err == (
        "E_NUMERIC: edge 'y<-f1' has a weight that is not finite (inf) on the raw column scales\n")
    assert state(out) == before


def test_k_features_above_feature_count_is_E_CONFIG(tmp_path, capsys):
    work = tmp_path / "w"
    assert run_cli(["synth", "-o", str(work), "--seed", "3"] + SMALL) == 0
    capsys.readouterr()
    # SMALL ranks five features
    for k, error in (("6", "k_features must be at most 5, got 6"),
                     ("0", "k_features must be >= 1, got 0")):
        argv = ["select-features", "-c", str(work / "pipeline.cfg"), "--set", f"k_features={k}"]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"E_CONFIG: {error}\n"
    assert not (work / "ranking.csv").exists()


def test_seed_env_var_and_flag_precedence(tmp_path, monkeypatch):
    w_env = tmp_path / "env"
    monkeypatch.setenv(cli.SEED_ENV_VAR, "11")
    assert run_cli(["synth", "-o", str(w_env)] + SMALL) == 0
    manifest = (w_env / "synth.manifest").read_text()
    assert "seed = 11" in manifest

    # an explicit flag beats the environment
    w_flag = tmp_path / "flag"
    assert run_cli(["synth", "-o", str(w_flag), "--seed", "12"] + SMALL) == 0
    assert "seed = 12" in (w_flag / "synth.manifest").read_text()

    monkeypatch.setenv(cli.SEED_ENV_VAR, "oops")
    assert run_cli(["synth", "-o", str(tmp_path / "x")] + SMALL) == 2
    # the flag wins over a bad environment value too
    w_bad_env = tmp_path / "bad_env"
    assert run_cli(["synth", "-o", str(w_bad_env), "--seed", "5"] + SMALL) == 0
    assert "seed = 5" in (w_bad_env / "synth.manifest").read_text().splitlines()


@pytest.mark.parametrize("source", ["config", "set", "env"])
def test_bad_seed_from_any_source_is_E_CONFIG_and_writes_nothing(
    small_pipeline, tmp_path, monkeypatch, capsys, source
):
    # from the config file or --set it used to be refused only when the
    # manifest was written, after the stage had rewritten its artifacts
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    cfg = work / "pipeline.cfg"
    argv = ["select-features", "-c", str(cfg)]
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    if source == "config":
        text = cfg.read_text(encoding="utf-8")
        assert "\nseed = 3\n" in text
        cfg.write_text(text.replace("\nseed = 3\n", "\nseed = abc\n"), encoding="utf-8")
    elif source == "set":
        argv += ["--set", "seed=abc"]
    else:
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    (work / "ranking.csv").unlink()  # a rerun would rewrite it byte for byte
    before = state(work)
    capsys.readouterr()
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "E_CONFIG: seed must be an integer, got 'abc'\n"
    assert state(work) == before


def test_stage_rerunnable_from_artifacts(tmp_path):
    work = tmp_path / "w"
    run_pipeline(work, seed=7)
    before = (work / "neighbors.csv").read_bytes()
    (work / "neighbors.csv").unlink()
    assert run_cli(["match", "-c", str(work / "pipeline.cfg")]) == 0
    assert (work / "neighbors.csv").read_bytes() == before


def test_manifest_records_inputs_and_params(tmp_path):
    work = tmp_path / "w"
    run_pipeline(work, seed=1)
    text = (work / "cluster.manifest").read_text()
    assert text.startswith("stage = cluster\n")
    assert "input = features.csv sha256=" in text
    assert "param n_components = 3" in text
    assert "duration_s = " in text
    # the prune threshold and goal a stage uses are recorded
    lines = (work / "select_features.manifest").read_text().splitlines()
    assert "param prune_threshold = 0.05" in lines
    lines = (work / "intervene.manifest").read_text().splitlines()
    assert "param goal = 3.0" in lines


# the files each stage of the SMALL pipeline reads, by manifest name
STAGE_INPUTS = {
    "synth": set(),
    "cluster": {"features.csv", "schema.cfg"},
    "select_features": {"features.csv", "schema.cfg"},
    "discover": {"features.csv", "schema.cfg", "selected_features.txt"},
    "active_learn": {
        "features.csv", "schema.cfg", "selected_features.txt", "subsets.csv", "global_graph.csv",
    },
    "intervene": {"features.csv", "schema.cfg", "selected_features.txt", "dal_ids.txt"},
    "match": {"schema.cfg", "intervened.csv", "reference.csv"},
    "report": {
        "schema.cfg", "plans.csv", "neighbors.csv", "fingerprints.csv",
        "reference_fingerprints.csv", "dal_ids.txt",
    },
}


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("manifests") / "w"
    run_pipeline(work, seed=3)
    return work


@pytest.mark.parametrize("stage", sorted(STAGE_INPUTS))
def test_manifest_lists_every_file_the_stage_reads(small_pipeline, stage):
    meta = artifacts.read(small_pipeline / f"{stage}.manifest").meta
    inputs = [value.split(" sha256=") for key, value in meta if key == "input"]
    names = [name for name, _ in inputs]
    assert len(names) == len(set(names)), "an input is listed twice"
    assert set(names) == STAGE_INPUTS[stage]
    for name, digest in inputs:  # no later stage rewrites a stage's inputs
        assert digest == file_sha256(small_pipeline / name), name
    params = {key: value for key, value in meta if key.startswith("param ")}
    assert "param seed" not in params


def test_intermediate_target_ranks_the_other_plain_features_against_it(
    small_pipeline, tmp_path, capsys
):
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    argv = ["select-features", "-c", str(work / "pipeline.cfg")]
    assert run_cli(argv + ["--set", "intermediate_target=f03"]) == 0
    ranked = [f for f, _ in artifacts.read(work / "ranking.csv", ("feature", "strength")).rows]
    assert sorted(ranked) == ["f01", "f02", "f04", "f05"]
    lines = (work / "select_features.manifest").read_text(encoding="utf-8").splitlines()
    assert "param intermediate_target = f03" in lines
    before = state(work)
    capsys.readouterr()
    assert run_cli(argv + ["--set", "intermediate_target=nope"]) == 2
    assert capsys.readouterr().err.startswith("E_CONFIG: intermediate_target: 'nope' ")
    assert state(work) == before


def test_unparsable_numeric_cell_drops_its_row_and_is_counted(small_pipeline, tmp_path):
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    lines = (work / "features.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[2].split(",")
    lines[2] = ",".join([cells[0], "abc", *cells[2:]])
    (work / "features.csv").write_text("".join(lines), encoding="utf-8")
    assert run_cli(["cluster", "-c", str(work / "pipeline.cfg")]) == 0
    report = dict(artifacts.read(work / "load_report.txt").meta)
    assert report == {"rows_loaded": str(len(lines) - 2), "rows_dropped": "1"}
    labelled = [rid for rid, _ in artifacts.read(work / "subsets.csv", ("id", "subset")).rows]
    assert len(labelled) == len(lines) - 2 and cells[0] not in labelled


# once these ran (a repeated pivot, the target or a repeated lever) or stopped
# with the code of whichever computation tripped over the name (3 or 4)
@pytest.mark.parametrize("stage, key, value", [
    ("cluster", "pivot_features", "f01,f01"),
    ("cluster", "pivot_features", "nope"),
    ("intervene", "interventable", "nope"),
    ("intervene", "interventable", "f01,y"),
    ("intervene", "interventable", "f01,f01"),
])
def test_bad_name_list_is_E_CONFIG_naming_the_key_and_writes_nothing(
    small_pipeline, tmp_path, capsys, stage, key, value
):
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    before = state(work)
    capsys.readouterr()
    assert run_cli([stage, "-c", str(work / "pipeline.cfg"), "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"E_CONFIG: {key}: ")
    assert "\n" not in err.strip()
    assert state(work) == before


@pytest.mark.parametrize("stage", ["discover", "intervene"])
@pytest.mark.parametrize("names, bad", [
    (("f01", "f02", "f01"), "'f01'"),
    (("f01", "nope"), "'nope'"),
])
def test_bad_selected_features_file_is_E_DATA_naming_the_file_and_writes_nothing(
    small_pipeline, tmp_path, capsys, stage, names, bad
):
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    artifacts.write_id_list(work / "selected_features.txt", names)
    before = state(work)
    capsys.readouterr()
    assert run_cli([stage, "-c", str(work / "pipeline.cfg")]) == 3
    err = _one_data_error(capsys)
    assert "selected_features.txt" in err and bad in err
    assert state(work) == before


def test_dal_ids_naming_a_row_twice_is_E_DATA_naming_the_file_and_writes_nothing(
    small_pipeline, tmp_path, capsys
):
    # the repeat used to stop the stage inside FeatureTable, naming no file
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    dal = work / "dal_ids.txt"
    ids = artifacts.read_id_list(dal)
    artifacts.write_id_list(dal, ids + ids[:1])
    before = state(work)
    capsys.readouterr()
    assert run_cli(["intervene", "-c", str(work / "pipeline.cfg")]) == 3
    assert _one_data_error(capsys) == f"E_DATA: {dal}: {ids[0]!r} is named twice\n"
    assert state(work) == before


def test_active_learn_on_rows_without_subset_labels_is_E_DATA_and_writes_nothing(
    small_pipeline, tmp_path, capsys
):
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    labels = cluster.read_labels(work / "subsets.csv")
    unlabelled = next(iter(labels))
    del labels[unlabelled]
    cluster.write_labels(work / "subsets.csv", labels.keys(), labels.values())
    before = state(work)
    capsys.readouterr()
    assert run_cli(["active-learn", "-c", str(work / "pipeline.cfg")]) == 3
    assert _one_data_error(capsys) == f"E_DATA: rows without subset labels, e.g. {[unlabelled]}\n"
    assert state(work) == before


def test_report_on_plans_with_two_goals_is_E_DATA_and_writes_nothing(
    small_pipeline, tmp_path, capsys
):
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    plans = intervene.load_plans(work / "plans.csv")
    plans[0] = dataclasses.replace(plans[0], target_goal=plans[0].target_goal + 1.0)
    intervene.save_plans(work / "plans.csv", plans)
    before = state(work)
    capsys.readouterr()
    assert run_cli(["report", "-c", str(work / "pipeline.cfg")]) == 3
    assert _one_data_error(capsys) == "E_DATA: plans.csv must hold one goal, found 2\n"
    assert state(work) == before


def test_discover_on_a_schema_without_targets_is_E_CONFIG_and_writes_nothing(
    small_pipeline, tmp_path, capsys
):
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    schema = dataio.read_schema(work / "schema.cfg")
    dataio.write_schema(work / "schema.cfg", dataclasses.replace(schema, target_columns=()))
    before = state(work)
    capsys.readouterr()
    assert run_cli(["discover", "-c", str(work / "pipeline.cfg")]) == 2
    assert capsys.readouterr().err == "E_CONFIG: schema declares no target columns\n"
    assert state(work) == before


def test_intervene_without_a_lever_is_E_NUMERIC_and_writes_nothing(
    small_pipeline, tmp_path, capsys
):
    # it used to rewrite dal_graph.csv before planning failed, leaving the
    # earlier run's plans.csv beside a graph they were not planned on
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    before = state(work)
    capsys.readouterr()
    argv = ["intervene", "-c", str(work / "pipeline.cfg"), "--set", "prune_threshold=0.9"]
    assert run_cli(argv) == 4
    assert capsys.readouterr().err == "E_NUMERIC: no interventable feature affects 'y'\n"
    assert state(work) == before


def test_report_pairs_hold_the_tanimoto_of_the_fingerprint_files(small_pipeline):
    def hex_rows(name):
        return {rid: int(hx, 16) for rid, hx in artifacts.read(
            small_pipeline / name, ("id", "fp_hex")).rows}

    queries, refs = hex_rows("fingerprints.csv"), hex_rows("reference_fingerprints.csv")
    best = {nr.query_id.split("::")[0]: nr.neighbor_ids[0]
            for nr in match.load_neighbors(small_pipeline / "neighbors.csv")}
    pairs = artifacts.read(small_pipeline / "report_pairs.csv", ("id", "tanimoto", "distance")).rows
    assert len(pairs) == len(best)
    for qid, sim, _ in pairs:
        a, b = queries[qid], refs[best[qid]]
        union = bin(a | b).count("1")
        assert float(sim) == (bin(a & b).count("1") / union if union else 1.0)


@pytest.mark.parametrize("width", ["12", "0", "-8"])
def test_synth_fingerprint_width_off_the_byte_grid_is_E_CONFIG_and_writes_nothing(
    tmp_path, capsys, width
):
    work = tmp_path / "w"
    assert run_cli(["synth", "-o", str(work), "--set", f"synth_fp_width={width}"]) == 2
    assert capsys.readouterr().err == (
        f"E_CONFIG: synth_fp_width must be a positive multiple of 8, got {width}\n"
    )
    assert not work.exists()


def test_features_file_with_a_repeated_column_is_E_DATA(tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text("id,a,a,y\nr0,1,2,3\nr1,4,5,6\n", encoding="utf-8")
    (tmp_path / "schema.cfg").write_text("target_columns = y\n", encoding="utf-8")
    code = run_cli([
        "cluster", "-o", str(tmp_path),
        "--set", f"features={features}",
        "--set", f"schema={tmp_path / 'schema.cfg'}",
    ])
    assert code == 3
    err = _one_data_error(capsys)
    assert str(features) in err and "'a'" in err


@pytest.mark.parametrize("goal", ["nan", "inf", "-inf"])
def test_non_finite_goal_is_E_CONFIG_and_writes_nothing(tmp_path, capsys, goal):
    work = tmp_path / "w"
    assert run_cli(["synth", "-o", str(work), "--seed", "3"] + SMALL) == 0
    cfg = str(work / "pipeline.cfg")
    for stage in PIPELINE[:PIPELINE.index("intervene")]:
        assert run_cli([stage, "-c", cfg]) == 0, stage
    before = state(work)
    capsys.readouterr()
    assert run_cli(["intervene", "-c", cfg, "--set", f"goal={goal}"]) == 2
    assert capsys.readouterr().err == f"E_CONFIG: goal must be a finite number, got {goal!r}\n"
    assert state(work) == before


def test_report_takes_goal_from_plans_not_config(tmp_path):
    work = tmp_path / "w"
    run_pipeline(work, seed=3)
    assert "goal = 3.0" in (work / "pipeline.cfg").read_text()
    outputs = ("report_summary.txt", "report_values.csv", "report_pairs.csv")
    before = {name: (work / name).read_bytes() for name in outputs}
    assert run_cli(["report", "-c", str(work / "pipeline.cfg"), "--set", "goal=1.0"]) == 0
    assert {p.target_goal for p in intervene.load_plans(work / "plans.csv")} == {3.0}
    assert (work / "report_summary.txt").read_text().startswith("threshold = 3\n")
    for name in outputs:
        assert (work / name).read_bytes() == before[name], name


def test_report_takes_matched_targets_from_neighbors(tmp_path):
    work = tmp_path / "w"
    run_pipeline(work, seed=3)
    outputs = ("report_summary.txt", "report_values.csv", "report_pairs.csv", "pca_coords.csv")
    before = {name: (work / name).read_bytes() for name in outputs}
    (work / "reference.csv").unlink()
    assert run_cli(["report", "-c", str(work / "pipeline.cfg")]) == 0
    for name in outputs:
        assert (work / name).read_bytes() == before[name], name


def _manifest_inputs(path):
    return [value.split(" sha256=")[0] for key, value in artifacts.read(path).meta
            if key == "input"]


def test_report_without_fingerprints_reads_no_fingerprint_file(tmp_path):
    # Tanimoto pairs and the PCA use reference fingerprints only with query ones
    work = tmp_path / "w"
    run_pipeline(work, seed=3)
    assert run_cli(["report", "-c", str(work / "pipeline.cfg"), "--set", "fingerprints="]) == 0
    inputs = _manifest_inputs(work / "report.manifest")
    assert inputs == ["schema.cfg", "plans.csv", "neighbors.csv"]


def test_report_rerun_without_fingerprints_removes_pca_coords(tmp_path):
    work = tmp_path / "w"
    run_pipeline(work, seed=3)
    assert (work / "pca_coords.csv").exists()
    assert run_cli(["report", "-c", str(work / "pipeline.cfg"), "--set", "fingerprints="]) == 0
    assert not (work / "pca_coords.csv").exists()
    # the pairs carry no Tanimoto value without fingerprints
    pairs = artifacts.read(work / "report_pairs.csv", ("id", "tanimoto", "distance")).rows
    assert pairs and all(row[1] == "" for row in pairs)


@pytest.mark.parametrize("key", ["fingerprints", "reference_fingerprints"])
def test_report_on_a_missing_fingerprint_file_is_E_IO(tmp_path, capsys, key):
    work = tmp_path / "w"
    run_pipeline(work, seed=3)
    outputs = ("report_summary.txt", "report_values.csv", "report_pairs.csv", "pca_coords.csv")
    before = {name: (work / name).read_bytes() for name in outputs}
    capsys.readouterr()
    assert run_cli(["report", "-c", str(work / "pipeline.cfg"), "--set", f"{key}=nope.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("E_IO") and "nope.csv" in err
    assert "\n" not in err.strip()
    for name in outputs:
        assert (work / name).read_bytes() == before[name], name


def test_report_on_neighbors_without_targets_is_E_DATA(tmp_path, capsys):
    work = tmp_path / "w"
    run_pipeline(work, seed=3)
    neighbors = match.load_neighbors(work / "neighbors.csv")
    match.save_neighbors(work / "neighbors.csv", [
        match.NeighborResult(nr.query_id, nr.neighbor_ids, nr.distances) for nr in neighbors
    ])
    capsys.readouterr()
    assert run_cli(["report", "-c", str(work / "pipeline.cfg")]) == 3
    err = _one_data_error(capsys)
    assert "neighbors.csv" in err and "ref_target" in err


def test_cli_import_leaves_scipy_unloaded():
    assert "scipy" not in modules_after("import causal_al.cli")


def test_cli_import_leaves_the_thread_pool_unloaded():
    # a stage at jobs 1 starts no pool, so it need not import one
    assert "concurrent.futures" not in modules_after("import causal_al.cli")


def test_cli_import_leaves_the_forest_unloaded():
    # no stage fits a forest
    loaded = modules_after("import causal_al.cli")
    assert "causal_al.cli" in loaded
    assert "causal_al.regress" not in loaded


def test_cli_import_leaves_the_stage_modules_unloaded():
    # each stage imports the modules it runs
    loaded = modules_after("import causal_al.cli")
    stages = ("active", "cluster", "match", "intervene", "synth", "graphdist", "regress")
    assert loaded.isdisjoint(f"causal_al.{name}" for name in stages)


def test_match_and_report_stages_leave_the_discovery_modules_unloaded(tmp_path):
    # both stages read plans and id lists; neither runs discovery
    work = tmp_path / "w"
    run_pipeline(work)
    cfg = str(work / "pipeline.cfg")
    for stage in ("match", "report"):
        loaded = modules_after(
            f"from causal_al.cli import run_cli; assert run_cli([{stage!r}, '-c', {cfg!r}]) == 0"
        )
        assert "causal_al.match" in loaded
        assert loaded.isdisjoint({"causal_al.causal", "causal_al.active"}), stage


def _one_data_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("E_DATA: ")
    assert "\n" not in err.strip()
    return err


def test_graph_dist_on_a_non_graph_file_is_E_DATA(tmp_path, capsys):
    work = tmp_path / "w"
    assert run_cli(["synth", "-o", str(work), "--seed", "3"] + SMALL) == 0
    capsys.readouterr()
    code = run_cli(["graph-dist", str(work / "features.csv"), str(work / "true_graph.csv")])
    assert code == 3
    _one_data_error(capsys)
    only_header = tmp_path / "xy.csv"
    only_header.write_text("x,y\n", encoding="utf-8")
    assert run_cli(["graph-dist", str(only_header), str(work / "true_graph.csv")]) == 3
    _one_data_error(capsys)


def quote_a_comma_into_the_first_id(features):
    """Make the first row's id `C(C)O,x`: the table loads, but no artifact can hold the id."""
    lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
    first_id = lines[1].split(",", 1)[0]
    lines[1] = '"C(C)O,x"' + lines[1][len(first_id):]
    features.write_text("".join(lines), encoding="utf-8")


def test_id_the_format_cannot_hold_is_E_DATA(tmp_path, capsys):
    work = tmp_path / "w"
    assert run_cli(["synth", "-o", str(work), "--seed", "3"] + SMALL) == 0
    quote_a_comma_into_the_first_id(work / "features.csv")
    before = state(work)
    capsys.readouterr()
    assert run_cli(["cluster", "-c", str(work / "pipeline.cfg")]) == 3
    assert "cannot write 'C(C)O,x'" in _one_data_error(capsys)
    # gmm_model.txt, formatted before subsets.csv, used to be left behind
    assert state(work) == before


# One corrupt or missing input per stage: the exit code, the fault made in a
# copy of the SMALL pipeline, and the arguments after `<stage> -c pipeline.cfg`,
# where {out} is a directory that does not exist. Where the stage writes into
# the copy, the arguments make its files differ from the copy's. Most of these
# used to leave a new directory behind or some of the stage's files rewritten.
STAGE_FAULTS = {
    # k_features is read only once the world is built
    "synth": (2, None, ["-o", "{out}/deeper", "--set", "k_features=abc"]),
    "cluster": (3, lambda w: quote_a_comma_into_the_first_id(w / "features.csv"),
                ["--set", "n_components=2"]),
    "select-features": (3, lambda w: (w / "features.csv").write_bytes(b"\x89PNG\xff"),
                        ["-o", "{out}"]),
    "discover": (3, lambda w: (w / "selected_features.txt").write_text("f01,f02\n"), []),
    "active-learn": (3, None, ["-o", "{out}"]),  # {out} holds no subsets.csv
    "intervene": (3, None, ["-o", "{out}"]),  # {out} holds no dal_ids.txt
    "match": (3, lambda w: (w / "intervened.csv").write_text("id,f01\nq,1,2\n"), []),
    # report reads dal_ids.txt only for the PCA, once its other three files are worked out
    "report": (3, lambda w: (w / "dal_ids.txt").write_text("a,b\n"),
               ["--set", "reference_fingerprints="]),
}


@pytest.mark.parametrize("stage", STAGE_FAULTS)
def test_a_failing_stage_leaves_its_output_directory_as_it_found_it(
    small_pipeline, tmp_path, capsys, stage
):
    work, out = tmp_path / "w", tmp_path / "new"
    shutil.copytree(small_pipeline, work)
    code, fault, args = STAGE_FAULTS[stage]
    if fault is not None:
        fault(work)
    before = state(work), state(out)
    capsys.readouterr()
    assert run_cli([stage, "-c", str(work / "pipeline.cfg")]
                   + [a.format(out=out) for a in args]) == code
    assert capsys.readouterr().err.startswith(("E_CONFIG: ", "E_IO: ", "E_DATA: "))
    assert (state(work), state(out)) == before


def test_output_dir_that_is_a_file_is_E_IO_and_changes_nothing(tmp_path, capsys):
    # the runner's own failure, creating the directory, is reported as it is
    target = tmp_path / "taken"
    target.write_text("not a directory\n", encoding="utf-8")
    before = state(tmp_path)
    assert run_cli(["synth", "-o", str(target)] + SMALL) == 3
    assert capsys.readouterr().err.startswith("E_IO: [Errno 17] File exists: ")
    assert state(tmp_path) == before


@pytest.mark.parametrize("stage", ["synth", "select-features"])
def test_empty_output_dir_is_E_CONFIG_naming_the_key_and_changes_nothing(
    small_pipeline, tmp_path, monkeypatch, capsys, stage
):
    # it used to end in an AttributeError traceback from the runner, exit 1
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    monkeypatch.chdir(work)
    before = state(work)
    capsys.readouterr()
    argv = [stage, "--set", "output_dir="]
    assert run_cli(argv + (SMALL if stage == "synth" else ["-c", "pipeline.cfg"])) == 2
    assert capsys.readouterr().err == "E_CONFIG: config key 'output_dir' must not be empty\n"
    assert state(work) == before


def test_active_learn_rerun_removes_the_run_files_it_did_not_write(small_pipeline, tmp_path):
    # a rerun at n_realizations=1 after one at 2 used to leave active_run_1.csv
    # and random_run_1.csv, which its loss_summary.csv does not describe
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    cfg = str(work / "pipeline.cfg")
    assert run_cli(["active-learn", "-c", cfg, "--set", "n_realizations=2"]) == 0
    assert len(list(work.glob("*_run_*.csv"))) == 4
    assert run_cli(["active-learn", "-c", cfg]) == 0
    assert snapshot(work) == snapshot(small_pipeline)


def test_undecodable_features_file_is_E_DATA(tmp_path, capsys):
    work = tmp_path / "w"
    assert run_cli(["synth", "-o", str(work), "--seed", "3"] + SMALL) == 0
    (work / "features.csv").write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\xfe" * 8)
    capsys.readouterr()
    assert run_cli(["cluster", "-c", str(work / "pipeline.cfg")]) == 3
    _one_data_error(capsys)


def test_graph_edge_naming_an_unknown_node_is_E_DATA(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# causal_order = a,b\nchild,parent,weight\nb,zz,0.5\n", encoding="utf-8")
    assert run_cli(["graph-dist", str(bad), str(bad)]) == 3
    err = _one_data_error(capsys)
    assert str(bad) in err
    assert "'zz'" in err and "'b'" not in err


def test_graph_listing_an_edge_twice_is_E_DATA_naming_the_file_and_the_edge(tmp_path, capsys):
    # the second weight used to replace the first without a word
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "# causal_order = a,b\nchild,parent,weight\nb,a,0.5\nb,a,0.9\n", encoding="utf-8")
    assert run_cli(["graph-dist", str(bad), str(bad)]) == 3
    assert _one_data_error(capsys) == f"E_DATA: {bad} edges: 'b<-a' is named twice\n"


def test_graph_holding_a_non_finite_weight_is_E_DATA_naming_the_file_and_the_edge(
        tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# causal_order = a,b\nchild,parent,weight\nb,a,inf\n", encoding="utf-8")
    assert run_cli(["graph-dist", str(bad), str(bad)]) == 3
    assert _one_data_error(capsys) == (
        f"E_DATA: {bad}: edge 'b<-a' has a weight that is not finite (inf)\n")


def test_undecodable_input_is_E_DATA_naming_the_file(tmp_path, capsys):
    binary = tmp_path / "bin.csv"
    binary.write_bytes(b"\x89PNG")
    assert run_cli(["graph-dist", str(binary), str(binary)]) == 3
    assert f"{binary}: not UTF-8 text" in _one_data_error(capsys)


def test_graph_dist_reads_no_config(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.csv"
    graph.write_text("# causal_order = a,b\nchild,parent,weight\nb,a,0.5\n", encoding="utf-8")
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    assert run_cli(["graph-dist", str(graph), str(graph)]) == 0
    assert float(capsys.readouterr().out) == 0.0
    # it takes no config options, so a setting it would ignore is refused
    with pytest.raises(SystemExit) as exc:
        run_cli(["graph-dist", str(graph), str(graph), "--set", "top_n=2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, line", [
    ("pipeline.cfg", "goal = 0.5"),
    ("schema.cfg", "target_columns = f01"),
])
def test_config_or_schema_repeating_a_key_is_E_CONFIG_naming_the_file_and_writes_nothing(
    small_pipeline, tmp_path, capsys, name, line
):
    # a repeated key used to take its last value without a word
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    with open(work / name, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    key = line.split(" = ")[0]
    before = state(work)
    capsys.readouterr()
    assert run_cli(["cluster", "-c", str(work / "pipeline.cfg")]) == 2
    assert capsys.readouterr().err == f"E_CONFIG: {work / name}: {key!r} is named twice\n"
    assert state(work) == before


def test_repeated_set_override_takes_the_last_value(tmp_path):
    work = tmp_path / "w"
    argv = ["synth", "-o", str(work), "--set", "goal=1", "--set", "goal=2"]
    assert run_cli(argv + SMALL) == 0
    assert artifacts.read(work / "pipeline.cfg").get("goal") == "2"


@pytest.mark.parametrize("stage", PIPELINE)
def test_schema_fingerprint_width_off_the_byte_grid_stops_every_stage_and_writes_nothing(
    small_pipeline, tmp_path, capsys, stage
):
    # only `report` used to refuse it, after six stages had run on it
    work = tmp_path / "w"
    shutil.copytree(small_pipeline, work)
    schema = work / "schema.cfg"
    schema.write_text(
        schema.read_text(encoding="utf-8").replace(
            "fingerprint_width = 32", "fingerprint_width = 12"),
        encoding="utf-8",
    )
    before = state(work)
    capsys.readouterr()
    assert run_cli([stage, "-c", str(work / "pipeline.cfg")]) == 2
    assert capsys.readouterr().err == (
        f"E_CONFIG: {schema}: fingerprint_width must be a positive multiple of 8, got 12\n"
    )
    assert state(work) == before
