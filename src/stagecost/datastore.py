"""Chunked reader for header-and-rows CSV files.

A datastore is opened over one or more CSV files that share a header.  The
whole input is read once at open time and stored column by column: one list
of values and one list of missing flags per column.  Each cell is parsed at
most once.  Cells that read ``NA`` are flagged missing, and a column is
numeric exactly when every non-missing cell parses as a finite number; at
its first cell that does not, the column becomes text and the rest of it is
kept unparsed.  Rows come back through a cursor in fixed-size
:class:`TableChunk` batches that keep this column layout; ``preview`` and
``filter_rows`` never move the cursor that ``read`` uses.

Missing numeric cells surface as IEEE NaN plus a flag; exports write them
back out as ``NA``.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import compress
from operator import eq, ge, gt, itemgetter, le, lt, ne
from typing import Callable, Sequence

from .errors import (
    EmptyInput,
    HeaderMismatch,
    InvalidParameter,
    MalformedCSV,
    MissingFile,
    ReadPastEnd,
    TypeMismatch,
    UnknownVariable,
)

MISSING_MARKER = "NA"  # the one missing-cell marker, read and written
PREVIEW_ROWS = 8

NUMERIC = "numeric"
TEXT = "text"

# every spelling of each comparison operator that filter_rows accepts
_OPERATORS = {"=": eq, "==": eq, "!=": ne, "<>": ne, "≠": ne,
              "<": lt, "<=": le, "≤": le, ">": gt, ">=": ge, "≥": ge}
# the ordering operators, by the spelling their errors use
_ORDERING = {lt: "<", le: "<=", gt: ">", ge: ">="}


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str  # NUMERIC or TEXT


@dataclass(frozen=True)
class TableChunk:
    """A batch of rows by column: ``schema[i]``'s values and missing flags.

    Each list is a fresh slice, so changing it leaves the datastore as it was.
    """

    schema: tuple[ColumnSchema, ...]
    columns: tuple[list, ...]
    missing: tuple[list[bool], ...]

    def __len__(self) -> int:
        return len(self.missing[0])

    def column_index(self, name: str) -> int:
        return _column_index([col.name for col in self.schema], name)

    def column(self, name: str) -> list:
        """All values of one column (missing numeric cells come back as NaN)."""
        return self.columns[self.column_index(name)]

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write the chunk back out, with ``NA`` for every missing cell."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([col.name for col in self.schema])
            for row, flags in zip(zip(*self.columns), zip(*self.missing)):
                writer.writerow([MISSING_MARKER if miss else format_cell(v)
                                 for v, miss in zip(row, flags)])


def _column_index(names: Sequence[str], name: str) -> int:
    """Where ``name`` is in ``names``; a name not there is an UnknownVariable."""
    try:
        return names.index(name)
    except ValueError:
        raise UnknownVariable(f"no column named {name!r}") from None


def format_cell(value) -> str:
    """A cell as text: a whole float below 1e15 without its ``.0``."""
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

    def __init__(self, paths, chunk_size):
        self._chunk_size = int(chunk_size)
        if self._chunk_size < 1:
            raise InvalidParameter(f"chunk_size must be >= 1, got {self._chunk_size}")
        header, raw_rows = _load_files(paths)
        if not raw_rows:
            raise EmptyInput("no data rows in " + ", ".join(str(p) for p in paths))
        schema, self._values, self._flags = [], [], []
        for name, cells in zip(header, zip(*raw_rows)):
            kind, values, flags = _convert_column(cells)
            schema.append(ColumnSchema(name=name, kind=kind))
            self._values.append(values)
            self._flags.append(flags)
        self._schema = tuple(schema)
        self._names = header
        self._total_rows = len(raw_rows)
        self._cols = list(range(len(header)))
        self._cursor = 0

    # -- schema and cursor state ---------------------------------------------

    @property
    def schema(self) -> tuple[ColumnSchema, ...]:
        return self._schema

    @property
    def total_rows(self) -> int:
        return self._total_rows

    @property
    def chunks_left(self) -> int:
        """Number of chunks that ``read`` returns from the cursor on."""
        return -(-(self._total_rows - self._cursor) // self._chunk_size)

    def select_variables(self, names: Sequence[str]) -> None:
        """Restrict (and order) the columns that reads and scans return."""
        cols = [_column_index(self._names, name) for name in names]
        if not cols:
            raise UnknownVariable("at least one variable must stay selected")
        self._cols = cols

    def reset(self) -> None:
        self._cursor = 0

    def has_data(self) -> bool:
        return self._cursor < self._total_rows

    # -- row access ------------------------------------------------------------

    def read(self) -> TableChunk:
        """Return the next chunk (at most ``chunk_size`` rows) and advance."""
        if not self.has_data():
            raise ReadPastEnd("no rows left; call reset() to rewind")
        stop = min(self._cursor + self._chunk_size, self._total_rows)
        chunk = self._chunk(itemgetter(slice(self._cursor, stop)))
        self._cursor = stop
        return chunk

    def preview(self) -> TableChunk:
        """First rows of the table (up to 8) without touching the cursor."""
        return self._chunk(itemgetter(slice(PREVIEW_ROWS)))

    def filter_rows(self, column: str, op: str, literal) -> TableChunk:
        """All rows whose ``column`` satisfies ``op literal``.

        Runs over the whole table regardless of the cursor, and leaves the
        cursor where it was.  Missing cells never match.  Ordering operators
        require a numeric column.
        """
        col = _column_index(self._names, column)
        try:
            compare = _OPERATORS[op]
        except KeyError:
            raise ValueError(f"unknown comparison operator {op!r}") from None
        kind = self._schema[col].kind

        if kind == NUMERIC:
            want = _parse_number(str(literal))
            if want is None:
                raise TypeMismatch(
                    f"column {column!r} is numeric; {literal!r} is not a number"
                )
        else:
            if compare in _ORDERING:
                raise TypeMismatch(
                    f"ordering comparison {_ORDERING[compare]!r} is not defined"
                    f" for text column {column!r}"
                )
            want = str(literal)

        hits = [
            not miss and compare(value, want)
            for value, miss in zip(self._values[col], self._flags[col])
        ]
        return self._chunk(lambda cells: list(compress(cells, hits)))

    def _chunk(self, cut: Callable[[list], list]) -> TableChunk:
        """The selected columns, each cut down to the chunk's rows by ``cut``."""
        return TableChunk(
            schema=tuple(self._schema[c] for c in self._cols),
            columns=tuple(cut(self._values[c]) for c in self._cols),
            missing=tuple(cut(self._flags[c]) for c in self._cols),
        )


def open_datastore(
    paths: Sequence[str | os.PathLike] | str | os.PathLike,
    chunk_size: int = 4,
) -> Datastore:
    """Open one or more CSV files that share a header as a single datastore."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    return Datastore(list(paths), chunk_size)


def _load_files(paths) -> tuple[list[str], list[list[str]]]:
    if not paths:
        raise MissingFile("no input paths given")
    header: list[str] | None = None
    rows: list[list[str]] = []
    for path in paths:
        if not os.path.isfile(path):
            raise MissingFile(f"input file {path} does not exist")
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            records = _csv_rows(path, reader)
            try:
                this_header = [c.strip() for c in next(records)]
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
            for row in records:
                if not row:
                    continue  # blank line
                if len(row) != len(header):
                    # line_num is the physical line the record ends on, not
                    # the record count: a quoted cell may span lines
                    raise HeaderMismatch(
                        f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(row)}"
                    )
                rows.append([c.strip() for c in row])
    assert header is not None
    return header, rows


def _csv_rows(path, reader):
    """The rows of the CSV ``reader`` over ``path``; bad bytes and bad CSV are errors."""
    try:
        yield from reader
    except csv.Error as exc:  # such as a cell over csv's field size limit
        raise MalformedCSV(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedCSV(
            f"{path}:{_undecodable_line(path)}: not UTF-8 text ({exc.reason})"
        ) from None


def _undecodable_line(path) -> int:
    """The number of the line that holds the first byte of ``path`` not in UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0  # the file changed since it failed to decode


def _convert_column(cells) -> tuple[str, list, list[bool]]:
    """One column's kind, values and missing flags, parsing each cell once.

    The column is numeric until its first cell that is neither ``NA`` nor a
    finite number.  From there on it is text: its cells are kept as strings
    and the rest of them are never parsed.  Missing cells read NaN in a
    numeric column and None in a text column.
    """
    flags = [cell == MISSING_MARKER for cell in cells]
    values = []
    for cell, miss in zip(cells, flags):
        value = math.nan if miss else _parse_number(cell)
        if value is None:
            return TEXT, [None if m else c for c, m in zip(cells, flags)], flags
        values.append(value)
    return NUMERIC, values, flags
