import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_al import dataio
from causal_al.errors import (
    ConfigError,
    DegenerateFeature,
    DuplicateRowId,
    EmptyTable,
    MissingColumn,
)

SCHEMA = dataio.TableSchema(id_column="id", target_columns=("y",))


def write(tmp_path, text, name="features.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_basic(tmp_path):
    p = write(tmp_path, "id,f1,f2,y\na,1,2,3\nb,4,5,6\nc,7,8,9\n")
    table, report = dataio.load_feature_table(p, SCHEMA)
    assert table.n_rows == 3
    assert table.feature_names == ("f1", "f2", "y")
    assert table.plain_feature_names == ("f1", "f2")
    assert table.target_names == ("y",)
    assert report == dataio.LoadReport(rows_loaded=3, rows_dropped=0)


def test_load_drops_nonfinite_rows(tmp_path):
    p = write(tmp_path, "id,f1,y\na,1,2\nb,NaN,3\nc,4,5\n")
    table, report = dataio.load_feature_table(p, SCHEMA)
    assert table.row_ids == ("a", "c")
    assert report.rows_dropped == 1


def test_load_duplicate_id(tmp_path):
    p = write(tmp_path, "id,f1,y\na,1,2\na,3,4\n")
    with pytest.raises(DuplicateRowId):
        dataio.load_feature_table(p, SCHEMA)


def test_load_missing_target(tmp_path):
    p = write(tmp_path, "id,f1\na,1\n")
    with pytest.raises(MissingColumn):
        dataio.load_feature_table(p, SCHEMA)


def test_load_zero_surviving_rows(tmp_path):
    p = write(tmp_path, "id,f1,y\na,inf,2\n")
    with pytest.raises(EmptyTable):
        dataio.load_feature_table(p, SCHEMA)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        dataio.load_feature_table(tmp_path / "absent.csv", SCHEMA)


def test_save_load_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    table = dataio.FeatureTable(
        row_ids=tuple(f"m{i}" for i in range(20)),
        feature_names=("f1", "f2", "y"),
        values=rng.standard_normal((20, 3)) * 1e3,
        target_names=("y",),
    )
    p1 = tmp_path / "t1.csv"
    dataio.save_feature_table(p1, table)
    loaded, _ = dataio.load_feature_table(p1, SCHEMA)
    assert np.array_equal(loaded.values, table.values)
    p2 = tmp_path / "t2.csv"
    dataio.save_feature_table(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_schema_round_trip(tmp_path):
    p = tmp_path / "schema.cfg"
    schema = dataio.TableSchema(id_column="smiles", target_columns=("mu", "alpha"), fingerprint_width=128)
    dataio.write_schema(p, schema)
    assert dataio.read_schema(p) == schema


def test_schema_unknown_key(tmp_path):
    p = write(tmp_path, "id_column = id\nbogus = 3\n", "schema.cfg")
    with pytest.raises(ConfigError):
        dataio.read_schema(p)


# --- normalizer ---


def test_fit_normalizer_hand_values(simple_table):
    norm = dataio.fit_normalizer(simple_table, ("f1",))
    assert norm.mean[0] == 2.0
    assert norm.std[0] == 1.0


def test_fit_normalizer_constant_column():
    from tests.conftest import make_table

    table = make_table([[5.0], [5.0], [5.0]], ("c",))
    with pytest.raises(DegenerateFeature):
        dataio.fit_normalizer(table, ("c",))


def test_fit_normalizer_seeded_normal_sample():
    rng = np.random.default_rng(2024)
    vals = rng.standard_normal(1000)
    table = dataio.FeatureTable(
        row_ids=tuple(f"r{i}" for i in range(1000)),
        feature_names=("x",),
        values=vals[:, None],
    )
    norm = dataio.fit_normalizer(table, ("x",))
    # oracle: frozen statistics of this exact seeded sample
    assert norm.mean[0] == pytest.approx(0.014640167714440763, abs=1e-12)
    assert norm.std[0] == pytest.approx(1.0166759385838242, abs=1e-12)
    assert abs(norm.mean[0]) < 0.15
    assert 0.85 < norm.std[0] < 1.15


def test_normalized_columns_have_zero_mean(simple_table):
    norm = dataio.fit_normalizer(simple_table)  # every column by default
    assert norm.columns == simple_table.feature_names
    z = (simple_table.values - norm.mean) / norm.std  # as cluster.fit_gmm standardizes
    assert np.all(np.abs(z.mean(axis=0)) < 1e-10)
    assert np.allclose(z.std(axis=0, ddof=1), 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
        min_size=3,
        max_size=12,
    )
)
def test_normalizer_round_trip_property(rows):
    arr = np.array(rows)
    if np.any(arr.std(axis=0, ddof=1) == 0.0):
        return
    table = dataio.FeatureTable(
        row_ids=tuple(f"r{i}" for i in range(arr.shape[0])),
        feature_names=("a", "b"),
        values=arr,
    )
    norm = dataio.fit_normalizer(table)
    # cluster.fit_gmm standardizes with these statistics and maps back the same way
    back = (table.values - norm.mean) / norm.std * norm.std + norm.mean
    # relative to the column scale: entries near zero in a wide column
    # cannot beat cancellation at the entry's own magnitude
    scale = np.maximum(np.abs(table.values), np.abs(norm.mean) + norm.std)
    assert np.all(np.abs(back - table.values) / scale < 1e-10)


# --- fingerprints ---


def test_fingerprint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    bits = (rng.random((5, 64)) < 0.3).astype(np.uint8)
    fps = dataio.FingerprintTable(tuple(f"m{i}" for i in range(5)), bits)
    p = tmp_path / "fp.csv"
    dataio.save_fingerprints(p, fps)
    loaded = dataio.load_fingerprints(p, width=64)
    assert loaded.row_ids == fps.row_ids
    assert np.array_equal(loaded.bits, fps.bits)


def test_fingerprint_width_mismatch(tmp_path):
    p = write(tmp_path, "id,fp_hex\na,ff\n", "fp.csv")
    with pytest.raises(dataio.SchemaError):
        dataio.load_fingerprints(p, width=64)
