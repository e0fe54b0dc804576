"""Tabular feature ingestion, validation, column statistics, persistence.

Tables are dense float matrices with named columns and opaque string row ids
(molecule identifiers such as SMILES strings are treated as labels, never
parsed). Target columns live in the same matrix and are flagged by name.
All numeric text I/O uses 17 significant digits so that save/load round
trips are bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import (
    ConfigError,
    DuplicateRowId,
    EmptyTable,
    MissingColumn,
    SchemaError,
)
from .util import checked_names


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
            checked_names(self.row_ids, where="row ids", error=DuplicateRowId)
        checked_names(self.feature_names, where="columns")
        checked_names(self.target_names, self.feature_names, "target columns", MissingColumn)
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
    """Column roles for CSV ingestion; declared, never inferred.

    Fingerprints are stored as whole bytes, so `fingerprint_width` must be a
    positive multiple of 8.
    """

    id_column: str = "id"
    target_columns: tuple[str, ...] = ()
    fingerprint_width: int = 2048

    def __post_init__(self):
        self.checked_width(self.fingerprint_width)

    @staticmethod
    def checked_width(width: int, key: str = "fingerprint_width") -> int:
        """`width`, after raising ConfigError (naming `key`) unless it is a
        positive multiple of 8: the one rule for a fingerprint width."""
        if width <= 0 or width % 8:
            raise ConfigError(f"{key} must be a positive multiple of 8, got {width}")
        return width


_SCHEMA_KEYS = ("id_column", "target_columns", "fingerprint_width")


def read_schema(path) -> TableSchema:
    """Parse a plain-text `key = value` schema file; each key at most once."""
    art = artifacts.read(path, error=ConfigError)
    checked_names([key for key, _ in art.meta], _SCHEMA_KEYS, str(path), ConfigError)
    return TableSchema(
        id_column=art.get("id_column", default="id"),
        target_columns=art.get("target_columns", artifacts.names, ()),
        fingerprint_width=TableSchema.checked_width(
            art.get("fingerprint_width", int, 2048), f"{path}: fingerprint_width"),
    )


def write_schema(path, schema: TableSchema) -> None:
    artifacts.write(path, meta=[
        ("id_column", schema.id_column),
        ("target_columns", schema.target_columns),
        ("fingerprint_width", schema.fingerprint_width),
    ])


def load_feature_table(path, schema: TableSchema) -> tuple[FeatureTable, LoadReport]:
    """Load and validate a CSV feature table.

    Rows with an empty id (or one of whitespace only) or containing
    non-finite (or unparsable) numeric cells are dropped and counted in the
    returned report rather than imputed.
    """
    id_pos = 0

    def columns(found: tuple[str, ...]) -> tuple[str, ...]:
        """Any header that holds the declared columns; `parse` needs the id's place."""
        nonlocal id_pos
        checked_names(found, where=f"{path}: header")
        checked_names((schema.id_column, *schema.target_columns), found,
                      f"{path}: declared columns", MissingColumn)
        id_pos = found.index(schema.id_column)
        return found

    def parse(*cells: str) -> tuple[str, list[float] | None]:
        """(id, values), with None for an id that strips to empty or values
        that are not all finite numbers."""
        values = list(cells)
        rid = values.pop(id_pos)
        try:
            parsed = [float(c) for c in values]
        except ValueError:
            return rid, None
        return rid, parsed if rid.strip() and all(map(math.isfinite, parsed)) else None

    art = artifacts.read(path, columns, parse)
    ids = [rid for rid, _ in art.rows if rid.strip()]
    if len(set(ids)) < len(ids):
        checked_names(ids, where=f"{path}: row ids", error=DuplicateRowId)
    kept = {rid: values for rid, values in art.rows if values is not None}
    if not kept:
        raise EmptyTable(f"{path}: no rows survived validation")
    table = FeatureTable(
        row_ids=tuple(kept),
        feature_names=art.header[:id_pos] + art.header[id_pos + 1:],
        values=np.array(list(kept.values()), dtype=np.float64),
        target_names=schema.target_columns,
    )
    return table, LoadReport(rows_loaded=len(kept), rows_dropped=len(art.rows) - len(kept))


def save_feature_table(path, table: FeatureTable) -> None:
    artifacts.write(
        path,
        header=("id", *table.feature_names),
        rows=((rid, *row.tolist()) for rid, row in zip(table.row_ids, table.values)),
    )


def write_load_report(path, report: LoadReport) -> None:
    artifacts.write(path, meta=[
        ("rows_loaded", report.rows_loaded), ("rows_dropped", report.rows_dropped),
    ])


# ---------------------------------------------------------------------------
# Column statistics
# ---------------------------------------------------------------------------


def column_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, sample standard deviation, degenerate) of the columns of `x`
    (..., rows, columns), reduced over the rows.

    This is the one place that decides whether a column is degenerate: its
    sample standard deviation is exactly 0 or not finite (it overflowed).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the rule takes an overflow
        std = x.std(axis=-2, ddof=1)
        return x.mean(axis=-2), std, (std == 0.0) | ~np.isfinite(std)


def degenerate_message(names, std: np.ndarray, degenerate: np.ndarray, n_rows: int) -> str:
    """What is wrong with the first of the columns `names` that is `degenerate`."""
    k = int(np.argmax(degenerate))
    fault = "is constant" if std[k] == 0.0 else "has a spread that is not finite"
    return f"column {names[k]!r} {fault} over {n_rows} rows"


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class FingerprintTable:
    """Fixed-width binary fingerprints keyed by row id (ingested, not computed).

    The bits are held packed 8 to a byte, most significant bit first, in the
    read-only `packed` (rows x ceil(width / 8) uint8): 256 bytes a row at
    width 2048. `bits` unpacks a full rows x width 0/1 copy on every access.
    """

    def __init__(self, row_ids, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[0] != len(row_ids):
            raise SchemaError("fingerprint matrix shape does not match row ids")
        if bits.size and bits.max() > 1:
            raise SchemaError("fingerprint bits must be 0/1")
        self._hold(row_ids, np.packbits(bits, axis=1), bits.shape[1])

    @classmethod
    def _from_packed(cls, row_ids, packed: np.ndarray, width: int) -> FingerprintTable:
        table = cls.__new__(cls)
        table._hold(row_ids, packed, width)
        return table

    def _hold(self, row_ids, packed: np.ndarray, width: int) -> None:
        self.row_ids = tuple(row_ids)
        self._row_pos = {rid: i for i, rid in enumerate(self.row_ids)}  # row id -> row index
        if len(self._row_pos) != len(self.row_ids):
            checked_names(self.row_ids, where="fingerprint row ids", error=DuplicateRowId)
        packed.setflags(write=False)
        self.packed = packed
        self.width = width

    @property
    def bits(self) -> np.ndarray:
        """A new rows x width uint8 copy of the bits in {0, 1}."""
        return np.unpackbits(self.packed, axis=1, count=self.width)

    def index(self, row_id: str) -> int:
        """The position of `row_id`'s row in `packed`."""
        try:
            return self._row_pos[row_id]
        except KeyError:
            raise SchemaError(f"no fingerprint for id {row_id!r}") from None


def load_fingerprints(path, width: int = 2048) -> FingerprintTable:
    """Load `id,fp_hex` rows; each hex string must encode exactly `width` bits."""
    TableSchema.checked_width(width, "fingerprint width")

    def packed(rid: str, hexstr: str) -> tuple[str, bytes]:
        hexstr = hexstr.strip()
        if len(hexstr) != width // 4:
            raise ValueError(
                f"fingerprint for {rid!r} has {len(hexstr) * 4} bits, expected {width}"
            )
        return rid, bytes.fromhex(hexstr)

    rows = artifacts.read(path, lambda found: (*found[:1], "fp_hex"), packed).rows
    if not rows:
        raise EmptyTable(f"{path}: no fingerprints loaded")
    row_ids, packs = zip(*rows)
    packed = np.frombuffer(b"".join(packs), dtype=np.uint8).reshape(len(rows), width // 8)
    return FingerprintTable._from_packed(row_ids, packed, width)


def save_fingerprints(path, fps: FingerprintTable) -> None:
    artifacts.write(
        path,
        header=("id", "fp_hex"),
        rows=((rid, row.tobytes().hex()) for rid, row in zip(fps.row_ids, fps.packed)),
    )
