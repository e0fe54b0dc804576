import re
import tracemalloc

import numpy as np
import pytest

from causal_al import active, artifacts, causal, cluster, dataio, intervene, match
from causal_al.cli import Config, run_cli
from causal_al.errors import ConfigError, EmptyTable, SchemaError

INF = float("inf")


def test_artifact_bytes_are_pinned(tmp_path):
    """Every per-artifact writer produces exactly this text (17-digit floats)."""
    dag = causal.WeightedDag(
        node_names=("a", "b", "y"),
        B=np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [-1.0 / 3.0, 2.5, 0.0]]),
        causal_order=(0, 1, 2),
        target="y",
        node_means=np.array([0.5, -1.25, 1e-20]),
        node_stds=np.array([1.0, 0.2, 3.0]),
        standardized=False,
    )
    run = active.ActiveLearningRun(
        mode="random", seed=4, m_per_iter=2, n_iter=2, n_subsets=2,
        selected_row_ids=("m1", "m2", "m3", "m4"),
        records=(
            active.IterationRecord(0, (0.1, INF), 0, 0.1, 2),
            active.IterationRecord(1, (0.25, 1.0 / 3.0), 1, 1.0 / 3.0, 4),
        ),
    )
    gmm = cluster.GmmModel(
        weights=np.array([0.25, 0.75]),
        means=np.array([[0.1, -2.0], [3.0, 0.7]]),
        covariances=np.array([[[1.0, 0.1], [0.1, 2.0]], [[0.5, 0.0], [0.0, 1e-6]]]),
        pivot_features=("a", "b"),
        pivot_means=np.array([1.5, -0.3]),
        pivot_stds=np.array([2.0, 0.9]),
        seed=5,
        log_likelihoods=(-10.5, -9.1),
        converged=True,
    )
    plans = [
        intervene.InterventionPlan("m1", "a", 0.1, 1.5, 0.2, 3.0, 3.0, clamped=False),
        intervene.InterventionPlan("m2", "b", -1.0, 0.3, 0.0, 2.6, 3.0, clamped=True),
    ]
    neighbors = [
        match.NeighborResult("m1::do", ("r1", "r2"), (0.5, 0.1 + 0.2), (1.0, 2.5)),
        match.NeighborResult("m2::do", ("r3",), (0.0,), None),
    ]
    table = dataio.FeatureTable(
        ("m1", "m2"), ("a", "y"), np.array([[0.1, -2.0], [1e-20, 3.0]]), ("y",)
    )
    bits = np.zeros((2, 16), dtype=np.uint8)
    bits[0, [0, 5, 15]] = 1
    bits[1, 8:] = 1
    fps = dataio.FingerprintTable(("m1", "m2"), bits)

    causal.save_dag(tmp_path / "dag.csv", dag)
    causal.save_adjacency_csv(tmp_path / "adjacency.csv", dag)
    active.save_run(tmp_path / "run.csv", run)
    cluster.save_gmm(tmp_path / "gmm.txt", gmm)
    intervene.save_plans(tmp_path / "plans.csv", plans)
    match.save_neighbors(tmp_path / "neighbors.csv", neighbors)
    dataio.save_feature_table(tmp_path / "table.csv", table)
    dataio.save_fingerprints(tmp_path / "fps.csv", fps)
    dataio.write_schema(tmp_path / "schema.cfg", dataio.TableSchema("id", ("y", "z"), 16))
    dataio.write_load_report(tmp_path / "load_report.txt", dataio.LoadReport(2, 1))
    cluster.write_labels(tmp_path / "labels.csv", ("m1", "m2"), np.array([0, 2]))
    artifacts.write_id_list(tmp_path / "ids.txt", ("m1", "m2::do"))

    expected = {
        "dag.csv": (
            "# causal_order = a,b,y\n"
            "# target = y\n"
            "# standardized = 0\n"
            "# node_means = 0.5,-1.25,9.9999999999999995e-21\n"
            "# node_stds = 1,0.20000000000000001,3\n"
            "child,parent,weight\n"
            "b,a,0.10000000000000001\n"
            "y,a,-0.33333333333333331\n"
            "y,b,2.5\n"
        ),
        "adjacency.csv": (
            "node,a,b,y\n"
            "a,0,0,0\n"
            "b,0.10000000000000001,0,0\n"
            "y,-0.33333333333333331,2.5,0\n"
        ),
        "run.csv": (
            "# mode = random\n"
            "# seed = 4\n"
            "# m = 2\n"
            "iter,loss_0,loss_1,chosen,size\n"
            "0,0.10000000000000001,inf,0,2\n"
            "1,0.25,0.33333333333333331,1,4\n"
        ),
        "gmm.txt": (
            "pivot_features = a,b\n"
            "seed = 5\n"
            "weights = 0.25,0.75\n"
            "pivot_means = 1.5,-0.29999999999999999\n"
            "pivot_stds = 2,0.90000000000000002\n"
            "log_likelihoods = -10.5,-9.0999999999999996\n"
            "component = 0\n"
            "mean = 0.10000000000000001,-2\n"
            "cov = 1,0.10000000000000001\n"
            "cov = 0.10000000000000001,2\n"
            "component = 1\n"
            "mean = 3,0.69999999999999996\n"
            "cov = 0.5,0\n"
            "cov = 0,9.9999999999999995e-07\n"
        ),
        "plans.csv": (
            "id,feature,old,new,pred_before,pred_after,clamped,goal\n"
            "m1,a,0.10000000000000001,1.5,0.20000000000000001,3,0,3\n"
            "m2,b,-1,0.29999999999999999,0,2.6000000000000001,1,3\n"
        ),
        "neighbors.csv": (
            "query_id,rank,ref_id,distance,ref_target\n"
            "m1::do,1,r1,0.5,1\n"
            "m1::do,2,r2,0.30000000000000004,2.5\n"
            "m2::do,1,r3,0,\n"
        ),
        "table.csv": (
            "id,a,y\n"
            "m1,0.10000000000000001,-2\n"
            "m2,9.9999999999999995e-21,3\n"
        ),
        "fps.csv": "id,fp_hex\nm1,8401\nm2,00ff\n",
        "schema.cfg": "id_column = id\ntarget_columns = y,z\nfingerprint_width = 16\n",
        "load_report.txt": "rows_loaded = 2\nrows_dropped = 1\n",
        "labels.csv": "id,subset\nm1,0\nm2,2\n",
        "ids.txt": "m1\nm2::do\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "load, name, text, where",
    [
        (cluster.read_labels, "labels.csv", "id,subset\na,0\nb,1,2\n", "labels.csv:3:"),
        (cluster.read_labels, "labels.csv", "id,subset\na,zero\n", "labels.csv:2:"),
        (intervene.load_plans, "plans.csv",
         f"{','.join(intervene.PLANS_HEADER)}\nm1,a,1,2,3,4,0\n", "plans.csv:2:"),
        (causal.load_dag, "g.csv", "# causal_order = a,b\nx,y\n", "g.csv:2:"),
        (causal.load_dag, "g.csv",
         "# causal_order = a,b\n\nchild,parent,weight\nb,a,w\n", "g.csv:4:"),
        (lambda p: dataio.load_fingerprints(p, 8), "fp.csv", "mol,fp_bits\n", "fp.csv:1:"),
        (match.load_neighbors, "n.csv",
         f"{','.join(match.NEIGHBORS_HEADER)}\nq,1,r\n", "n.csv:2:"),
        (lambda p: dataio.load_fingerprints(p, 8), "fp.csv", "id,fp_hex\na,zz\n", "fp.csv:2:"),
        (lambda p: dataio.load_fingerprints(p, 8), "fp.csv", "id,fp_hex\na,00\nb,f\n", "fp.csv:3:"),
    ],
)
def test_reader_names_the_file_and_line_at_fault(tmp_path, load, name, text, where):
    path = _write(tmp_path, name, text)
    with pytest.raises(SchemaError, match=f"{re.escape(str(tmp_path))}.{re.escape(where)}"):
        load(path)


@pytest.mark.parametrize("bad", [",", '"', "\r", "\n"])
def test_writer_rejects_unwritable_text_before_opening(tmp_path, bad):
    path = tmp_path / "labels.csv"
    with pytest.raises(SchemaError):
        cluster.write_labels(path, ("a", f"b{bad}c"), np.array([0, 1]))
    assert not path.exists()
    # a node without edges appears only in the node-order line
    dag = causal.WeightedDag((f"x{bad}", "y"), np.zeros((2, 2)), (0, 1))
    with pytest.raises(SchemaError):
        causal.save_dag(tmp_path / "g.csv", dag)
    assert list(tmp_path.iterdir()) == []  # no temporary file left either


def test_refused_row_keeps_the_old_artifact_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "labels.csv"
    cluster.write_labels(path, ("a", "b"), np.array([0, 1]))
    before = path.read_bytes()
    ids = tuple(f"m{i}" for i in range(5000)) + ("bad,id",)
    with pytest.raises(SchemaError):
        cluster.write_labels(path, ids, np.zeros(len(ids), dtype=int))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_empty_id_is_refused_rather_than_written_as_a_blank_line(tmp_path):
    # a reader skips blank lines, so ('', 'b', 'c') used to read back as ('b', 'c')
    path = tmp_path / "ids.txt"
    artifacts.write_id_list(path, ("a",))
    before = path.read_bytes()
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: .*empty"):
        artifacts.write_id_list(path, ("", "b", "c"))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    # an empty cell among others still makes a non-blank line
    artifacts.write(tmp_path / "t.csv", header=("id", "x"), rows=[("", 1)])
    assert artifacts.read(tmp_path / "t.csv", ("id", "x")).rows == [["", "1"]]


def test_table_is_written_without_holding_its_text(tmp_path):
    rng = np.random.default_rng(0)
    table = dataio.FeatureTable(
        tuple(f"m{i}" for i in range(3000)), tuple(f"f{j}" for j in range(11)),
        rng.normal(size=(3000, 11)),
    )
    tracemalloc.start()
    try:
        dataio.save_feature_table(tmp_path / "t.csv", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text is about 680 kB; lines are streamed, so the peak stays far below it
    assert peak < 2**17
    loaded, _ = dataio.load_feature_table(tmp_path / "t.csv", dataio.TableSchema())
    assert loaded.row_ids == table.row_ids
    assert np.array_equal(loaded.values, table.values)


def test_headerless_id_list_round_trips_ids_that_start_with_hash(tmp_path):
    ids = ("#a", "b c", "C(C)O::do")
    artifacts.write_id_list(tmp_path / "ids.txt", ids)
    assert artifacts.read_id_list(tmp_path / "ids.txt") == ids
    artifacts.write_id_list(tmp_path / "empty.txt", ())
    assert artifacts.read_id_list(tmp_path / "empty.txt") == ()


def test_undecodable_file_raises_schema_error_naming_it(tmp_path):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"child,parent,weight\n\xff\xfe\n")
    with pytest.raises(SchemaError, match=f"{re.escape(str(path))}: not UTF-8 text"):
        causal.load_dag(path)
    with pytest.raises(SchemaError, match=f"{re.escape(str(path))}: not UTF-8 text"):
        artifacts.read(path)


def test_edge_naming_an_unknown_node_is_a_schema_error(tmp_path):
    path = _write(tmp_path, "g.csv", "# causal_order = a,b\nchild,parent,weight\nb,zz,0.5\n")
    with pytest.raises(SchemaError, match="g.csv edges: 'zz' is not one of a,b$"):
        causal.load_dag(path)


def test_key_value_files_skip_comments_and_blank_lines(tmp_path):
    path = _write(tmp_path, "a.cfg", "# comment\n\nk = v = w\nk2=\n")
    assert artifacts.read(path).meta == [("k", "v = w"), ("k2", "")]


def test_key_value_file_read_as_a_table_is_empty_naming_the_file(tmp_path):
    path = _write(tmp_path, "kv.cfg", "# k = v\n\n# k2 = w\n")
    with pytest.raises(EmptyTable, match=f"^{re.escape(str(path))}: no header row$"):
        artifacts.read(path, ("id", "x"))


def test_blank_lines_inside_a_table_body_are_skipped(tmp_path):
    path = _write(tmp_path, "t.csv", "# k = v\nid,x\na,1\n\n\nb,2\n")
    art = artifacts.read(path, ("id", "x"))
    assert art.meta == [("k", "v")] and art.rows == [["a", "1"], ["b", "2"]]


def test_config_and_schema_lines_raise_config_error(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "seed = 1\nno equals sign\n")
    with pytest.raises(ConfigError, match="bad.cfg:2:"):
        Config.from_file(bad)
    with pytest.raises(ConfigError, match="bad.cfg:2:"):
        dataio.read_schema(bad)
    assert run_cli(["cluster", "-c", str(bad)]) == 2
    assert run_cli(["cluster", "--set", "seed"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":", 1)[0] for line in err] == ["E_CONFIG", "E_CONFIG"]
