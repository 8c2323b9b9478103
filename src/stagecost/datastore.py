"""Chunked reader for header-and-rows CSV files.

A datastore is opened over one or more CSV files that share a header.  The
whole input is scanned once at open time: cells equal to a missing marker
(``NA`` by default) are flagged missing, and a column is numeric exactly
when every non-missing cell parses as a finite number.  Rows then come back
in fixed-size :class:`TableChunk` batches through a cursor; ``preview`` and
``filter_rows`` never move the cursor that ``read`` uses.

Missing numeric cells surface as IEEE NaN plus a flag; exports write them
back out as ``NA``.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    EmptyInput,
    HeaderMismatch,
    InvalidParameter,
    MissingFile,
    ReadPastEnd,
    TypeMismatch,
    UnknownVariable,
)

DEFAULT_MISSING_MARKERS = frozenset({"NA"})
PREVIEW_ROWS = 8

NUMERIC = "numeric"
TEXT = "text"

_OP_ALIASES = {"=": "=", "==": "=", "!=": "!=", "<>": "!=",
               "<": "<", "<=": "<=", ">": ">", ">=": ">=",
               "≠": "!=", "≤": "<=", "≥": ">="}
_ORDER_OPS = {"<", "<=", ">", ">="}


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str  # NUMERIC or TEXT


@dataclass(frozen=True)
class TableChunk:
    """An immutable batch of rows, with a parallel missing-cell mask."""

    schema: tuple[ColumnSchema, ...]
    rows: tuple[tuple, ...]
    missing: tuple[tuple[bool, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.schema):
            if col.name == name:
                return i
        raise UnknownVariable(f"no column named {name!r}")

    def column(self, name: str) -> list:
        """All values of one column (missing numeric cells come back as NaN)."""
        i = self.column_index(name)
        return [row[i] for row in self.rows]

    def column_with_flags(self, name: str) -> list[tuple]:
        """(value, missing) pairs for one column."""
        i = self.column_index(name)
        return [(row[i], flags[i]) for row, flags in zip(self.rows, self.missing)]

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write the chunk back out, with ``NA`` for every missing cell."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([col.name for col in self.schema])
            for row, flags in zip(self.rows, self.missing):
                writer.writerow(
                    ["NA" if miss else _format_cell(v) for v, miss in zip(row, flags)]
                )


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _parse_number(cell: str):
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


class Datastore:
    """Cursor-based access to one logical table spread over CSV files."""

    def __init__(self, paths, missing_markers, chunk_size):
        self._markers = frozenset(missing_markers)
        self._chunk_size = int(chunk_size)
        if self._chunk_size < 1:
            raise InvalidParameter(f"chunk_size must be >= 1, got {self._chunk_size}")
        header, raw_rows = _load_files(paths)
        if not raw_rows:
            raise EmptyInput("no data rows in " + ", ".join(str(p) for p in paths))
        self._schema, self._rows, self._missing = _infer_and_convert(
            header, raw_rows, self._markers
        )
        self._names = [col.name for col in self._schema]
        self._selected = list(self._names)
        self._cursor = 0

    # -- schema and cursor state ---------------------------------------------

    @property
    def schema(self) -> tuple[ColumnSchema, ...]:
        return self._schema

    @property
    def selected_variables(self) -> tuple[str, ...]:
        return tuple(self._selected)

    @property
    def total_rows(self) -> int:
        return len(self._rows)

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def chunks_left(self) -> int:
        """Number of chunks that ``read`` returns from the cursor on."""
        return -(-(len(self._rows) - self._cursor) // self._chunk_size)

    def select_variables(self, names: Sequence[str]) -> None:
        """Restrict (and order) the columns that reads and scans return."""
        for name in names:
            if name not in self._names:
                raise UnknownVariable(f"no column named {name!r}")
        if not names:
            raise UnknownVariable("at least one variable must stay selected")
        self._selected = list(names)

    def reset(self) -> None:
        self._cursor = 0

    def has_data(self) -> bool:
        return self._cursor < len(self._rows)

    # -- row access ------------------------------------------------------------

    def read(self) -> TableChunk:
        """Return the next chunk (at most ``chunk_size`` rows) and advance."""
        if not self.has_data():
            raise ReadPastEnd("no rows left; call reset() to rewind")
        stop = min(self._cursor + self._chunk_size, len(self._rows))
        chunk = self._view(range(self._cursor, stop))
        self._cursor = stop
        return chunk

    def preview(self) -> TableChunk:
        """First rows of the table (up to 8) without touching the cursor."""
        return self._view(range(min(PREVIEW_ROWS, len(self._rows))))

    def filter_rows(self, column: str, op: str, literal) -> TableChunk:
        """All rows whose ``column`` satisfies ``op literal``.

        Runs over the whole table regardless of the cursor, and leaves the
        cursor where it was.  Missing cells never match.  Ordering operators
        require a numeric column.
        """
        if column not in self._names:
            raise UnknownVariable(f"no column named {column!r}")
        try:
            op = _OP_ALIASES[op]
        except KeyError:
            raise ValueError(f"unknown comparison operator {op!r}") from None
        col = self._names.index(column)
        kind = self._schema[col].kind

        if kind == NUMERIC:
            want = _parse_number(str(literal))
            if want is None:
                raise TypeMismatch(
                    f"column {column!r} is numeric; {literal!r} is not a number"
                )
        else:
            if op in _ORDER_OPS:
                raise TypeMismatch(
                    f"ordering comparison {op!r} is not defined for text column {column!r}"
                )
            want = str(literal)

        hits = [
            i
            for i, (row, flags) in enumerate(zip(self._rows, self._missing))
            if not flags[col] and _compare(row[col], op, want)
        ]
        return self._view(hits)

    def _view(self, indices: Iterable[int]) -> TableChunk:
        cols = [self._names.index(name) for name in self._selected]
        schema = tuple(self._schema[c] for c in cols)
        rows = tuple(tuple(self._rows[i][c] for c in cols) for i in indices)
        missing = tuple(tuple(self._missing[i][c] for c in cols) for i in indices)
        return TableChunk(schema=schema, rows=rows, missing=missing)


def _compare(value, op: str, want) -> bool:
    if op == "=":
        return value == want
    if op == "!=":
        return value != want
    if op == "<":
        return value < want
    if op == "<=":
        return value <= want
    if op == ">":
        return value > want
    return value >= want


def open_datastore(
    paths: Sequence[str | os.PathLike] | str | os.PathLike,
    missing_markers: Iterable[str] = DEFAULT_MISSING_MARKERS,
    chunk_size: int = 4,
) -> Datastore:
    """Open one or more CSV files that share a header as a single datastore."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    return Datastore(list(paths), missing_markers, chunk_size)


def _load_files(paths) -> tuple[list[str], list[list[str]]]:
    if not paths:
        raise MissingFile("no input paths given")
    header: list[str] | None = None
    rows: list[list[str]] = []
    for path in paths:
        if not os.path.isfile(path):
            raise MissingFile(f"input file {path} does not exist")
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                this_header = [c.strip() for c in next(reader)]
            except StopIteration:
                raise EmptyInput(f"{path} is empty") from None
            if len(set(this_header)) != len(this_header):
                raise HeaderMismatch(f"{path} has duplicate column names")
            if header is None:
                header = this_header
            elif this_header != header:
                raise HeaderMismatch(
                    f"{path} header {this_header} does not match {header}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue  # blank line
                if len(row) != len(header):
                    raise HeaderMismatch(
                        f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                    )
                rows.append([c.strip() for c in row])
    assert header is not None
    return header, rows


def _infer_and_convert(header, raw_rows, markers):
    """Decide each column's kind from every non-missing cell, then convert."""
    n_cols = len(header)
    numeric = [True] * n_cols
    for row in raw_rows:
        for c in range(n_cols):
            cell = row[c]
            if cell in markers:
                continue
            if numeric[c] and _parse_number(cell) is None:
                numeric[c] = False

    schema = tuple(
        ColumnSchema(name=header[c], kind=NUMERIC if numeric[c] else TEXT)
        for c in range(n_cols)
    )
    rows = []
    missing = []
    for row in raw_rows:
        values = []
        flags = []
        for c in range(n_cols):
            cell = row[c]
            if cell in markers:
                values.append(float("nan") if numeric[c] else None)
                flags.append(True)
            else:
                values.append(_parse_number(cell) if numeric[c] else cell)
                flags.append(False)
        rows.append(tuple(values))
        missing.append(tuple(flags))
    return schema, rows, missing
