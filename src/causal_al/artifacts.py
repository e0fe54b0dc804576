"""The one text format of every file the pipeline writes or reads.

A file holds optional `key = value` lines, then, for a table, a CSV
header line and rows. When a CSV body follows, each `key = value` line
carries a `# ` prefix; in a file of `key = value` lines only (configs,
schemas, models, manifests) a line starting with `#` is a comment. Cells
are `str`, `int`, or floats written with 17 significant digits (`fmt`),
so save/load round trips are bit identical. The writer streams lines into
a temporary file beside the target and renames it over the target only
once every line is written, so a failed write leaves no partial artifact.
A text cell may not hold `,`, `"`, CR or LF, and a row of one cell may not
be empty: the writer refuses one, so no artifact is written that cannot be
read back. The reader checks the header and each row's cell count and
names the file and line at fault.
Artifacts raise SchemaError; configs and schemas pass ConfigError.
"""

from __future__ import annotations

import csv
import itertools
import numbers
import os
import re
from dataclasses import dataclass

from .errors import EmptyTable, SchemaError
from .util import fmt

_UNSAFE = re.compile(r'[,"\r\n]')
_REQUIRED = object()


def parse_kv(line: str, where: str, error=SchemaError) -> tuple[str, str]:
    """Split one `key = value` line; both sides are stripped."""
    key, sep, value = line.partition("=")
    if not sep:
        raise error(f"{where}: expected `key = value`")
    return key.strip(), value.strip()


def names(text: str) -> tuple[str, ...]:
    """The comma-separated cells of a `key = value` value, stripped, empty ones dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in names(text))


def _cell(value, path) -> str:
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, str):
        if _UNSAFE.search(value):
            raise SchemaError(
                f"{path}: cannot write {value!r}: a cell may not hold ',', '\"', CR or LF"
            )
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return fmt(value)


def _line(row, path) -> str:
    line = ",".join([_cell(v, path) for v in row])
    if not line:  # a reader skips a blank line, so the row would vanish
        raise SchemaError(f"{path}: cannot write a row whose one cell is empty")
    return line + "\n"


def _value(value, path) -> str:
    """A `key = value` value: text as is, a number, or a sequence of cells."""
    if isinstance(value, str):
        if "\r" in value or "\n" in value:
            raise SchemaError(f"{path}: cannot write {value!r}: a value may not hold CR or LF")
        return value
    if isinstance(value, float) or not hasattr(value, "__iter__"):
        return _cell(value, path)
    return ",".join(_cell(v, path) for v in value)


def write(path, *, meta=(), header=None, rows=()) -> None:
    """Write `meta` pairs (keys may repeat, None values are left out), then
    `header` and `rows` if given.

    Lines go to `<path>.<pid>.tmp` as they are formatted; that file replaces
    `path` once all are written, and is deleted if any line fails.
    """
    prefix = "" if header is None else "# "
    lines = itertools.chain(
        (f"{prefix}{k} = {_value(v, path)}\n" for k, v in meta if v is not None),
        () if header is None else (_line(header, path),),
        (_line(row, path) for row in rows),
    )
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class Artifact:
    path: str
    meta: list[tuple[str, str]]  # in file order; keys may repeat
    header: tuple[str, ...]
    rows: list
    error: type = SchemaError

    def get(self, key: str, conv=str, default=_REQUIRED):
        """The last value of `key`, converted; a bad or missing one names the file."""
        value = dict(self.meta).get(key)
        if value is None:
            if default is _REQUIRED:
                raise self.error(f"{self.path}: missing `{key} = ...`")
            return default
        try:
            return conv(value)
        except ValueError:
            raise self.error(f"{self.path}: invalid `{key} = {value}`") from None


def write_id_list(path, ids) -> None:
    """One id per line, no header."""
    write(path, rows=((rid,) for rid in ids))


def read_id_list(path) -> tuple[str, ...]:
    return tuple(read(path, 1, str).rows)


def read(path, header=None, row=None, *, error=SchemaError) -> Artifact:
    """Read an artifact; blank lines are skipped.

    `header` says what follows the `# key = value` lines: None, nothing (a
    file of `key = value` lines only); a sequence, exactly that header; a
    callable, the header it returns for the one found; an int, no header
    line but rows of that many cells. `row`, if given, maps each row's cells
    to what `rows` holds while the file is read, so the cells are not kept;
    a ValueError or IndexError it raises names the row's file and line.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _parse(fh, str(path), header, row, error)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse(fh, path: str, header, row, error) -> Artifact:
    meta: list[tuple[str, str]] = []
    rows: list = []
    found: tuple[str, ...] = ()
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or (header is None and line.startswith("#")):
            continue
        if header is not None and (isinstance(header, int) or not line.startswith("#")):
            break
        meta.append(parse_kv(line.removeprefix("#"), f"{path}:{lineno}", error))
    else:
        if header is None or isinstance(header, int):
            return Artifact(path, meta, found, rows, error)
        raise EmptyTable(f"{path}: no header row")
    reader = csv.reader(itertools.chain([raw], fh))
    width = header
    if not isinstance(header, int):
        found = tuple(next(reader))
        expected = tuple(header(found) if callable(header) else header)
        if found != expected:
            raise SchemaError(f"{path}:{lineno}: expected header `{','.join(expected)}`")
        width = len(found)
    for record in reader:
        if not record:
            continue
        at = lineno - 1 + reader.line_num
        if len(record) != width:
            raise SchemaError(f"{path}:{at}: row has {len(record)} cells, expected {width}")
        if row is not None:
            try:
                record = row(*record)
            except (ValueError, IndexError) as exc:
                raise SchemaError(f"{path}:{at}: {exc}") from None
        rows.append(record)
    return Artifact(path, meta, found, rows, error)
