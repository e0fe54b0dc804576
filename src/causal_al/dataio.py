"""Tabular feature ingestion, validation, normalization, splitting, persistence.

Tables are dense float matrices with named columns and opaque string row ids
(molecule identifiers such as SMILES strings are treated as labels, never
parsed). Target columns live in the same matrix and are flagged by name.
All numeric text I/O uses 17 significant digits so that save/load round
trips are bit identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFeature,
    DuplicateRowId,
    EmptyTable,
    InsufficientData,
    MissingColumn,
    SchemaError,
)
from .util import fmt


@dataclass(frozen=True)
class FeatureTable:
    """Rows of named numeric descriptors plus flagged target column(s)."""

    row_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray  # rows x features, float64
    target_names: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape != (len(self.row_ids), len(self.feature_names)):
            raise SchemaError(
                f"value matrix shape {values.shape} does not match "
                f"{len(self.row_ids)} rows x {len(self.feature_names)} features"
            )
        row_pos = {rid: i for i, rid in enumerate(self.row_ids)}
        if len(row_pos) != len(self.row_ids):
            raise DuplicateRowId("row ids are not unique")
        missing = [t for t in self.target_names if t not in self.feature_names]
        if missing:
            raise MissingColumn(f"target columns not in table: {missing}")
        if values.size and not np.isfinite(values).all():
            raise SchemaError("table contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "target_names", tuple(self.target_names))
        object.__setattr__(self, "_row_pos", row_pos)  # row id -> row index

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    @property
    def plain_feature_names(self) -> tuple[str, ...]:
        """Feature names that are not flagged as targets."""
        return tuple(f for f in self.feature_names if f not in self.target_names)

    def index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise MissingColumn(f"no column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index(name)].copy()

    def matrix(self, names) -> np.ndarray:
        idx = [self.index(n) for n in names]
        return self.values[:, idx].copy()

    def row_index(self, row_id: str) -> int:
        try:
            return self._row_pos[row_id]
        except KeyError:
            raise SchemaError(f"no row with id {row_id!r}") from None

    def select_rows(self, indices) -> "FeatureTable":
        indices = list(indices)
        return FeatureTable(
            row_ids=tuple(self.row_ids[i] for i in indices),
            feature_names=self.feature_names,
            values=self.values[indices, :],
            target_names=self.target_names,
        )

    def select_by_ids(self, ids) -> "FeatureTable":
        try:
            indices = [self._row_pos[r] for r in ids]
        except KeyError as exc:
            raise SchemaError(f"no row with id {exc.args[0]!r}") from None
        return self.select_rows(indices)

    def select_columns(self, names) -> "FeatureTable":
        names = tuple(names)
        return FeatureTable(
            row_ids=self.row_ids,
            feature_names=names,
            values=self.matrix(names),
            target_names=tuple(t for t in self.target_names if t in names),
        )


def concat_tables(tables) -> FeatureTable:
    """Stack tables with identical columns; row ids must stay unique."""
    tables = list(tables)
    if not tables:
        raise EmptyTable("nothing to concatenate")
    head = tables[0]
    for t in tables[1:]:
        if t.feature_names != head.feature_names or t.target_names != head.target_names:
            raise SchemaError("tables have different columns")
    ids = tuple(r for t in tables for r in t.row_ids)
    return FeatureTable(
        row_ids=ids,
        feature_names=head.feature_names,
        values=np.vstack([t.values for t in tables]),
        target_names=head.target_names,
    )


@dataclass(frozen=True)
class LoadReport:
    rows_loaded: int
    rows_dropped: int


@dataclass(frozen=True)
class TableSchema:
    """Column roles for CSV ingestion; declared, never inferred."""

    id_column: str = "id"
    target_columns: tuple[str, ...] = ()
    fingerprint_width: int = 2048


_SCHEMA_KEYS = {"id_column", "target_columns", "fingerprint_width"}


def read_schema(path) -> TableSchema:
    """Parse a plain-text `key = value` schema file."""
    kv = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCHEMA_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown schema key {key!r}")
            kv[key] = value
    targets = tuple(t.strip() for t in kv.get("target_columns", "").split(",") if t.strip())
    try:
        width = int(kv.get("fingerprint_width", "2048"))
    except ValueError:
        raise ConfigError("fingerprint_width must be an integer") from None
    return TableSchema(
        id_column=kv.get("id_column", "id"),
        target_columns=targets,
        fingerprint_width=width,
    )


def write_schema(path, schema: TableSchema) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"id_column = {schema.id_column}\n")
        fh.write(f"target_columns = {','.join(schema.target_columns)}\n")
        fh.write(f"fingerprint_width = {schema.fingerprint_width}\n")


def load_feature_table(path, schema: TableSchema) -> tuple[FeatureTable, LoadReport]:
    """Load and validate a CSV feature table.

    Rows containing non-finite (or unparsable) numeric cells are dropped
    and counted in the returned report rather than imputed.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyTable(f"{path}: no header row") from None
        if schema.id_column not in header:
            raise MissingColumn(f"{path}: id column {schema.id_column!r} not in header")
        for t in schema.target_columns:
            if t not in header:
                raise MissingColumn(f"{path}: declared target {t!r} not in header")
        id_pos = header.index(schema.id_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != id_pos)

        ids: list[str] = []
        rows: list[list[float]] = []
        seen: set[str] = set()
        dropped = 0
        for record in reader:
            if not record:
                continue
            if len(record) != len(header):
                raise SchemaError(f"{path}: row has {len(record)} cells, expected {len(header)}")
            rid = record[id_pos]
            if rid in seen:
                raise DuplicateRowId(f"{path}: duplicate row id {rid!r}")
            seen.add(rid)
            cells = [c for i, c in enumerate(record) if i != id_pos]
            try:
                parsed = [float(c) for c in cells]
            except ValueError:
                dropped += 1
                continue
            if not all(math.isfinite(v) for v in parsed):
                dropped += 1
                continue
            ids.append(rid)
            rows.append(parsed)

    if not rows:
        raise EmptyTable(f"{path}: no rows survived validation")
    table = FeatureTable(
        row_ids=tuple(ids),
        feature_names=feature_names,
        values=np.array(rows, dtype=np.float64),
        target_names=schema.target_columns,
    )
    return table, LoadReport(rows_loaded=len(rows), rows_dropped=dropped)


def save_feature_table(path, table: FeatureTable, id_column: str = "id") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([id_column, *table.feature_names]) + "\n")
        for rid, row in zip(table.row_ids, table.values):
            fh.write(",".join([rid, *(fmt(v) for v in row)]) + "\n")


def write_load_report(path, report: LoadReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"rows_loaded = {report.rows_loaded}\n")
        fh.write(f"rows_dropped = {report.rows_dropped}\n")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normalizer:
    """Per-column mean / standard deviation (n-1 denominator)."""

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray


def fit_normalizer(table: FeatureTable, columns=None) -> Normalizer:
    if columns is None:
        columns = table.feature_names
    columns = tuple(columns)
    if table.n_rows < 2:
        raise InsufficientData("need at least 2 rows to fit a normalizer")
    x = table.matrix(columns)
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    for name, s in zip(columns, std):
        if s == 0.0:
            raise DegenerateFeature(name)
    return Normalizer(columns=columns, mean=mean, std=std)


def _check_columns(normalizer: Normalizer, table: FeatureTable) -> list[int]:
    try:
        return [table.index(c) for c in normalizer.columns]
    except MissingColumn as exc:
        raise MissingColumn(f"normalizer column mismatch: {exc}") from None


def apply_normalizer(normalizer: Normalizer, table: FeatureTable) -> FeatureTable:
    """z = (x - mean) / std on the fitted columns; other columns untouched."""
    idx = _check_columns(normalizer, table)
    values = table.values.copy()
    values[:, idx] = (values[:, idx] - normalizer.mean) / normalizer.std
    return FeatureTable(table.row_ids, table.feature_names, values, table.target_names)


def invert_normalizer(normalizer: Normalizer, table: FeatureTable) -> FeatureTable:
    idx = _check_columns(normalizer, table)
    values = table.values.copy()
    values[:, idx] = values[:, idx] * normalizer.std + normalizer.mean
    return FeatureTable(table.row_ids, table.feature_names, values, table.target_names)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

DEFAULT_TRAIN_FRACTION = 0.8
DEFAULT_SPLIT_SEED = 1729


def split_rows(
    table: FeatureTable,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    seed: int = DEFAULT_SPLIT_SEED,
) -> tuple[FeatureTable, FeatureTable]:
    """Disjoint, exhaustive, seed-reproducible train/test row partition."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = table.n_rows
    if n < 2:
        raise InsufficientData("need at least 2 rows to split")
    n_train = round(n * train_fraction)
    if n_train == 0 or n_train == n:
        raise ConfigError(f"train_fraction {train_fraction} yields an empty split for {n} rows")
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = sorted(perm[:n_train].tolist())
    test_idx = sorted(perm[n_train:].tolist())
    return table.select_rows(train_idx), table.select_rows(test_idx)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FingerprintTable:
    """Fixed-width binary fingerprints keyed by row id (ingested, not computed)."""

    row_ids: tuple[str, ...]
    bits: np.ndarray  # rows x width, uint8 in {0, 1}

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[0] != len(self.row_ids):
            raise SchemaError("fingerprint matrix shape does not match row ids")
        if bits.size and bits.max() > 1:
            raise SchemaError("fingerprint bits must be 0/1")
        row_pos = {rid: i for i, rid in enumerate(self.row_ids)}
        if len(row_pos) != len(self.row_ids):
            raise DuplicateRowId("fingerprint row ids are not unique")
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "_row_pos", row_pos)  # row id -> row index

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def row(self, row_id: str) -> np.ndarray:
        try:
            return self.bits[self._row_pos[row_id]]
        except KeyError:
            raise SchemaError(f"no fingerprint for id {row_id!r}") from None


def load_fingerprints(path, width: int = 2048) -> FingerprintTable:
    """Load `id,fp_hex` rows; each hex string must encode exactly `width` bits."""
    if width <= 0 or width % 8 != 0:
        raise ConfigError(f"fingerprint width must be a positive multiple of 8, got {width}")
    hex_len = width // 4
    ids: list[str] = []
    rows: list[np.ndarray] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != 2 or header[1] != "fp_hex":
            raise SchemaError(f"{path}: expected header `id,fp_hex`")
        for record in reader:
            if not record:
                continue
            rid, hexstr = record[0], record[1].strip()
            if len(hexstr) != hex_len:
                raise SchemaError(
                    f"{path}: fingerprint for {rid!r} has {len(hexstr) * 4} bits, expected {width}"
                )
            try:
                raw = bytes.fromhex(hexstr)
            except ValueError:
                raise SchemaError(f"{path}: invalid hex for {rid!r}") from None
            ids.append(rid)
            rows.append(np.unpackbits(np.frombuffer(raw, dtype=np.uint8)))
    if not rows:
        raise EmptyTable(f"{path}: no fingerprints loaded")
    return FingerprintTable(row_ids=tuple(ids), bits=np.array(rows, dtype=np.uint8))


def save_fingerprints(path, fps: FingerprintTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,fp_hex\n")
        for rid, row in zip(fps.row_ids, fps.bits):
            fh.write(f"{rid},{np.packbits(row).tobytes().hex()}\n")


def check_fingerprint_alignment(fps: FingerprintTable, table: FeatureTable) -> None:
    """Fingerprint ids must be a subset of the feature table's ids."""
    extra = set(fps.row_ids) - set(table.row_ids)
    if extra:
        raise SchemaError(f"fingerprints reference unknown row ids, e.g. {sorted(extra)[:3]}")
