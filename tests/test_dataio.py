import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_al import dataio
from causal_al.causal import discover_lingam
from causal_al.cluster import fit_gmm
from causal_al.errors import (
    ConfigError,
    DegenerateFeature,
    DuplicateRowId,
    EmptyTable,
    MissingColumn,
    SchemaError,
)
from causal_al.match import tanimoto
from tests.conftest import ROUNDED_CONSTANTS, make_table

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


@pytest.mark.parametrize("text, ids, dropped", [
    ("id,f1,y\n,1,2\nb,3,4\nc,5,6\n", ("b", "c"), 1),
    # two empty ids are two dropped rows, not one id named twice
    ("id,f1,y\n,1,2\nb,3,4\n,5,6\n", ("b",), 2),
    ("f1,id,y\n1,,2\n3,b,4\n", ("b",), 1),
], ids=["one", "two", "id-not-first"])
def test_load_drops_rows_with_an_empty_id(tmp_path, text, ids, dropped):
    table, report = dataio.load_feature_table(write(tmp_path, text), SCHEMA)
    assert table.row_ids == ids
    assert report == dataio.LoadReport(rows_loaded=len(ids), rows_dropped=dropped)


def test_load_duplicate_id(tmp_path):
    p = write(tmp_path, "id,f1,y\na,1,2\na,3,4\n")
    with pytest.raises(DuplicateRowId):
        dataio.load_feature_table(p, SCHEMA)


def test_table_refuses_a_repeated_feature_name():
    # the second column could not be reached by name
    with pytest.raises(SchemaError, match="^columns: 'a' is named twice$"):
        make_table([[1.0, 2.0, 3.0]], ("a", "a", "y"), ("y",))


@pytest.mark.parametrize("header", ["id,a,a,y", "id,a,id,y"])
def test_load_repeated_column_names_the_file(tmp_path, header):
    p = write(tmp_path, f"{header}\nr0,1,2,3\n")
    with pytest.raises(SchemaError) as exc:
        dataio.load_feature_table(p, SCHEMA)
    assert str(p) in str(exc.value)


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


# --- column statistics ---


def test_column_stats_hand_values(simple_table):
    mean, std, constant = dataio.column_stats(simple_table.matrix(("f1",)))
    assert mean[0] == 2.0
    assert std[0] == 1.0
    assert not constant[0]


def test_column_stats_constant_column():
    mean, std, constant = dataio.column_stats(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]))
    assert constant.tolist() == [True, False]
    assert mean[0] == 5.0 and std[0] == 0.0


def test_column_stats_seeded_normal_sample():
    rng = np.random.default_rng(2024)
    vals = rng.standard_normal(1000)
    mean, std, _ = dataio.column_stats(vals[:, None])
    # oracle: frozen statistics of this exact seeded sample
    assert mean[0] == pytest.approx(0.014640167714440763, abs=1e-12)
    assert std[0] == pytest.approx(1.0166759385838242, abs=1e-12)
    assert abs(mean[0]) < 0.15
    assert 0.85 < std[0] < 1.15


def test_column_stats_of_a_stack_reduce_each_table_over_its_rows():
    x = np.random.default_rng(4).normal(size=(3, 40, 5))
    mean, std, constant = dataio.column_stats(x)
    assert mean.shape == std.shape == constant.shape == (3, 5)
    for k in range(3):
        assert np.array_equal(mean[k], x[k].mean(axis=0))
        assert np.array_equal(std[k], x[k].std(axis=0, ddof=1))


def test_normalized_columns_have_zero_mean(simple_table):
    mean, std, _ = dataio.column_stats(simple_table.values)
    z = (simple_table.values - mean) / std  # as cluster.fit_gmm standardizes
    assert np.all(np.abs(z.mean(axis=0)) < 1e-10)
    assert np.allclose(z.std(axis=0, ddof=1), 1.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP H")
def test_rounded_constant_column_is_degenerate_for_discovery_and_clustering():
    rng = np.random.default_rng(12)
    for value in ROUNDED_CONSTANTS:
        x = rng.normal(size=(1000, 3))
        x[:, 1] = value
        table = make_table(x, ("a", "c", "y"), target_names=("y",))
        with pytest.raises(DegenerateFeature, match="^column 'c' is constant over 1000 rows$"):
            discover_lingam(table, "y")
        with pytest.raises(DegenerateFeature, match="^column 'c' is constant over 1000 rows$"):
            fit_gmm(table, ("a", "c"), n_components=2)


def test_overflowing_column_is_degenerate_for_discovery_and_clustering():
    # every other c cell of the first 200 rows is 1e300, so c's sample
    # standard deviation overflows to inf; discovery used to return NaN
    # weights and clustering NaN means
    x = np.random.default_rng(13).normal(size=(600, 3))
    x[:200:2, 1] = 1e300
    _, std, degenerate = dataio.column_stats(x)
    assert np.isinf(std[1])
    assert degenerate.tolist() == [False, True, False]
    table = make_table(x, ("a", "c", "y"), target_names=("y",))
    message = "^column 'c' has a spread that is not finite over 600 rows$"
    with pytest.raises(DegenerateFeature, match=message):
        discover_lingam(table, "y")
    with pytest.raises(DegenerateFeature, match=message):
        fit_gmm(table, ("a", "c"), n_components=2)


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
    mean, std, constant = dataio.column_stats(arr)
    if constant.any():
        return
    # cluster.fit_gmm standardizes with these statistics and maps back the same way
    back = (arr - mean) / std * std + mean
    # relative to the column scale: entries near zero in a wide column
    # cannot beat cancellation at the entry's own magnitude
    scale = np.maximum(np.abs(arr), np.abs(mean) + std)
    assert np.all(np.abs(back - arr) / scale < 1e-10)


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


# a width off the byte grid (12), one byte-aligned row (64), the paper's width (2048)
FP_WIDTHS = (12, 64, 2048)


def fingerprint_bits(width, rows=7):
    rng = np.random.default_rng(width)
    return (rng.random((rows, width)) < 0.3).astype(np.uint8)


def fp_ids(rows):
    return tuple(f"m{i}" for i in range(rows))


@pytest.mark.parametrize("width", FP_WIDTHS)
def test_fingerprints_are_held_packed_eight_bits_a_byte(width):
    bits = fingerprint_bits(width)
    kept = bits.copy()
    ids = fp_ids(len(bits))
    fps = dataio.FingerprintTable(ids, bits)
    assert fps.width == width
    assert fps.packed.dtype == np.uint8
    assert fps.packed.nbytes == len(bits) * math.ceil(width / 8)
    unpacked = fps.bits
    assert unpacked.dtype == np.uint8 and unpacked.shape == bits.shape
    assert np.array_equal(unpacked, bits)
    for i, rid in enumerate(ids):
        row = unpacked[fps.index(rid)]
        assert np.array_equal(row, bits[i])
        assert tanimoto(row, unpacked[fps.index(ids[i - 1])]) == tanimoto(kept[i], kept[i - 1])
    # the storage is read-only; `bits` hands out copies, and the caller's
    # array is not held
    assert not fps.packed.flags.writeable
    with pytest.raises(ValueError):
        fps.packed[0, 0] = 0xFF
    unpacked[:] = 1 - unpacked
    bits[:] = 0
    assert np.array_equal(fps.bits, kept)


@pytest.mark.parametrize("width", FP_WIDTHS)
def test_fingerprint_table_refuses_a_bad_shape_non_binary_bits_and_repeated_ids(width):
    bits = fingerprint_bits(width)
    ids = fp_ids(len(bits))
    shape = "^fingerprint matrix shape does not match row ids$"
    with pytest.raises(SchemaError, match=shape):
        dataio.FingerprintTable(ids[:-1], bits)
    with pytest.raises(SchemaError, match=shape):
        dataio.FingerprintTable(ids[:1], bits[0])
    bad = bits.copy()
    bad[3, width - 1] = 2
    with pytest.raises(SchemaError, match="^fingerprint bits must be 0/1$"):
        dataio.FingerprintTable(ids, bad)
    with pytest.raises(DuplicateRowId, match=f"^fingerprint row ids: {ids[0]!r} is named twice$"):
        dataio.FingerprintTable(ids[:-1] + ids[:1], bits)


@pytest.mark.parametrize("width", FP_WIDTHS)
def test_fingerprint_save_load_save_is_byte_identical(tmp_path, width):
    bits = fingerprint_bits(width)
    fps = dataio.FingerprintTable(fp_ids(len(bits)), bits)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    dataio.save_fingerprints(first, fps)
    # most significant bit first; a width off the byte grid is padded with
    # zero bits to whole bytes, so it loads at the next multiple of 8
    byte_width = 8 * math.ceil(width / 8)
    rows = first.read_text(encoding="utf-8").splitlines()[1:]
    for line, row in zip(rows, bits):
        text = "".join(map(str, row)).ljust(byte_width, "0")
        assert line.split(",")[1] == int(text, 2).to_bytes(byte_width // 8, "big").hex()
    loaded = dataio.load_fingerprints(first, width=byte_width)
    assert not loaded.packed.flags.writeable
    assert loaded.packed.tobytes() == fps.packed.tobytes()
    assert np.array_equal(loaded.bits[:, :width], bits)
    assert not loaded.bits[:, width:].any()
    dataio.save_fingerprints(second, loaded)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("row_ids, names, targets, error, match", [
    (("r0", "r1", "r0"), ("a", "y"), ("y",), DuplicateRowId, "row ids: 'r0' is named twice"),
    (("r0", "r1"), ("a", "y"), ("y", "y"), MissingColumn, "target columns: 'y' is named twice"),
    (("r0", "r1"), ("a", "y"), ("z",), MissingColumn, "target columns: 'z' is not one of a,y"),
])
def test_feature_table_names_are_known_and_named_once(row_ids, names, targets, error, match):
    with pytest.raises(error, match=f"^{match}$"):
        dataio.FeatureTable(row_ids, names, np.zeros((len(row_ids), len(names))), targets)


def test_load_refuses_a_target_declared_twice(tmp_path):
    p = write(tmp_path, "id,f1,y\na,1,2\n")
    schema = dataio.TableSchema(id_column="id", target_columns=("y", "y"))
    where = re.escape(str(p))
    with pytest.raises(MissingColumn, match=f"^{where}: declared columns: 'y' is named twice$"):
        dataio.load_feature_table(p, schema)


@pytest.mark.parametrize("text, match", [
    ("fingerprint_width = 12\n", "fingerprint_width must be a positive multiple of 8, got 12"),
    ("fingerprint_width = 0\n", "fingerprint_width must be a positive multiple of 8, got 0"),
    ("id_column = id\nid_column = smiles\n", "'id_column' is named twice"),
    ("target = y\n", "'target' is not one of id_column,target_columns,fingerprint_width"),
])
def test_schema_file_is_refused_naming_the_file(tmp_path, text, match):
    p = write(tmp_path, text, "schema.cfg")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: {match}$"):
        dataio.read_schema(p)


@pytest.mark.parametrize("width", [12, 0, -8])
def test_fingerprint_width_off_the_byte_grid_is_refused_once_for_all(tmp_path, width):
    rule = f"must be a positive multiple of 8, got {width}$"
    with pytest.raises(ConfigError, match=f"^fingerprint_width {rule}"):
        dataio.TableSchema(fingerprint_width=width)
    p = write(tmp_path, "id,fp_hex\na,000\n", "fp.csv")
    with pytest.raises(ConfigError, match=f"^fingerprint width {rule}"):
        dataio.load_fingerprints(p, width)
