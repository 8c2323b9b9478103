"""Chunked reader for header-and-rows CSV files.

A datastore is opened over one or more CSV files that share a header.  The
whole input is read once at open time, in blocks of about a thousand rows:
each block is transposed and its cells appended to per-column storage, and
then it is dropped, so the rows never pile up.  A datastore may be opened on
some of the columns only: every row is still parsed and its width checked,
so a bad file fails the same way, but only those columns are converted and
kept.  A numeric column is an ``array('d')`` filled by ``float`` in C.  A
text column is dictionary coded: an ``array('I')`` of codes into one list of
its distinct words, stripped of surrounding whitespace, with code 0 for a
missing cell.  Every column keeps its missing flags in a ``bytearray``.

Cells that read ``NA`` are missing.  A column is numeric exactly when every
cell that is not missing is a finite number written in ASCII with no ``_``:
``float`` would read ``2023_01`` as 202301 and Arabic-Indic digits as
numbers, so such cells are text.  No cell is converted twice.  A
column that turns text in its first block is kept from that block's cells.
One that turns text later has had its earlier cells converted, and
``repr(1.5)`` is not ``"1.50"``, so its text is read again from the files
once every block is in.

The whole table is kept as one :class:`TableChunk`, text as codes.  A cursor
gives fixed-size chunks sliced from it, copies with text decoded to words; a
command that needs whole numeric columns takes the stored arrays from
:func:`_numeric_columns` instead.  Every chunk holds exactly the columns the
datastore was opened on, in header order, and a reader finds each by name.
Missing numeric cells are IEEE NaN plus a flag, missing text None plus a flag.

A parse is kept in the column cache (``colcache``) beside the first input,
so that the next open of the same files and columns reads the columns back
instead of parsing again; the inputs are hashed on every open, so an edit is
always seen.  The parser itself is in ``csvload``, which an open imports
only to parse.  A result derived from a table, such as ``pca``'s
factorization or ``regress``'s fit, is kept there by the same call,
:func:`colcache.cached_result`, whose ``make`` opens the datastore itself.
"""

from __future__ import annotations

import os
from array import array
from typing import Iterable, NamedTuple, Sequence, Union

from .colcache import _path_list, cached_result
from .errors import (
    EmptyInput,
    InvalidParameter,
    MissingData,
    ReadPastEnd,
    TypeMismatch,
    UnknownVariable,
)

MISSING_MARKER = "NA"  # the one missing-cell marker

NUMERIC = "numeric"
TEXT = "text"


class ColumnSchema(NamedTuple):
    name: str
    kind: str  # NUMERIC or TEXT


# A column's values: numbers (NaN where missing) or text (None where missing).
Values = Union[array, list]


class TableChunk:
    """A batch of rows by column: ``schema[i]``'s values and missing flags.

    A numeric column's values are an ``array('d')``, a text column's a list
    (``_Text`` codes in the datastore's own table); the flags are a
    ``bytearray`` of 0 and 1.  In a chunk that ``read`` gives, each is a fresh
    copy.  ``numeric`` is the one check that a column a reader needs as
    numbers is numeric.  Its ``len`` is its row count, so it is not a tuple.
    """

    __slots__ = ("schema", "columns", "missing")

    def __init__(self, schema: tuple[ColumnSchema, ...], columns: tuple[Values, ...],
                 missing: tuple[bytearray, ...]):
        self.schema, self.columns, self.missing = schema, columns, missing

    def __len__(self) -> int:
        return len(self.missing[0])

    def column_index(self, name: str) -> int:
        """Where the column ``name`` is in the chunk; a name not there is an UnknownVariable."""
        for i, col in enumerate(self.schema):
            if col.name == name:
                return i
        raise UnknownVariable(f"no column named {name!r}")

    def column(self, name: str) -> Values:
        """All values of one column (missing numeric cells come back as NaN)."""
        return self.columns[self.column_index(name)]

    def numeric(self, name: str) -> tuple[array, bytearray]:
        """The values and missing flags of the numeric column ``name``.

        A name not there is an UnknownVariable, a text column a TypeMismatch.
        """
        i = self.column_index(name)
        if self.schema[i].kind != NUMERIC:
            raise TypeMismatch(f"column {name!r} is not numeric")
        return self.columns[i], self.missing[i]


def format_cell(value) -> str:
    """A cell as text: a whole float below 1e15 without its ``.0``, any other by ``repr``."""
    if isinstance(value, float):
        if abs(value) < 1e15 and value == int(value):
            return str(int(value))
        return repr(value)
    return str(value)


class Datastore:
    """Cursor-based access to one logical table spread over CSV files (see open_datastore).

    ``digests``, the sha256 of each input that the caller hashed just now,
    spare the open hashing them again before it looks in the column cache.
    """

    def __init__(self, paths, chunk_size=4, columns=None, *, digests=None):
        paths = _path_list(paths)
        if columns is not None:
            columns = [columns] if isinstance(columns, str) else list(columns)
        self._chunk_size = int(chunk_size)
        if self._chunk_size < 1:
            raise InvalidParameter(f"chunk_size must be >= 1, got {self._chunk_size}")

        def parse(_):
            from .csvload import _load  # imported only to parse

            loaded = _load(paths, columns)
            if not loaded[1]:  # raised here, so that no entry keeps a table of no rows
                raise EmptyInput("no data rows in " + ", ".join(paths))
            return loaded

        (self._table, self._total_rows), self._digests = cached_result(
            paths, None if columns is None else sorted(set(columns)), parse,
            _pack_columns, _unpack_columns, digests)
        # read's error when the header lacks every name asked for, or none was asked
        self._no_column = None if self._table.schema else (
            f"no column named {columns[0]!r}" if columns else "no column is selected")
        self._cursor = 0

    # -- schema and cursor state ---------------------------------------------

    @property
    def schema(self) -> tuple[ColumnSchema, ...]:
        return self._table.schema

    @property
    def total_rows(self) -> int:
        return self._total_rows

    @property
    def digests(self) -> list[str] | None:
        """The sha256 of each input that the columns were read back or parsed
        from, or None if the column cache was not used or an input went away
        meanwhile: what :func:`colcache.cached_result` may look a result up under."""
        return self._digests

    @property
    def chunks_left(self) -> int:
        """Number of chunks that ``read`` returns from the cursor on."""
        return -(-(self._total_rows - self._cursor) // self._chunk_size)

    def reset(self) -> None:
        self._cursor = 0

    def has_data(self) -> bool:
        return self._cursor < self._total_rows

    # -- row access ------------------------------------------------------------

    def read(self) -> TableChunk:
        """Return the next chunk (at most ``chunk_size`` rows) and advance."""
        if self._cursor >= self._total_rows:
            raise ReadPastEnd("no rows left; call reset() to rewind")
        if self._no_column:
            raise UnknownVariable(self._no_column)
        start = self._cursor
        self._cursor = min(start + self._chunk_size, self._total_rows)
        rows, table = slice(start, self._cursor), self._table
        # built from lists: tuple(map(...)) makes a longer tuple and shrinks it,
        # so each chunk would add two tuples to the interpreter's free list
        return TableChunk(table.schema, tuple([column[rows] for column in table.columns]),
                          tuple([flags[rows] for flags in table.missing]))


def open_datastore(
    paths: Sequence[str | bytes | os.PathLike] | str | bytes | os.PathLike,
    chunk_size: int = 4,
    columns: Iterable[str] | str | None = None,
) -> Datastore:
    """Open one or more CSV files that share a header as a single datastore.

    With ``columns``, only the header's columns named there are converted and
    kept, in header order, and every chunk holds just those; a name the header
    lacks is no error here, but looking it up on a chunk is.  Every row is
    checked either way.  If no named column is in the header, ``read`` names
    the first one asked for.  A lone path (``str``, ``bytes`` or path-like) or
    column name may be given as it is, not in a list, and an iterator of
    names is read once.
    """
    return Datastore(paths, chunk_size, columns)


def _numeric_columns(ds: Datastore, names: Sequence[str]) -> list[array]:
    """The values of each named numeric column of ``ds``: its stored arrays, not copies.

    The stored table checks each column's kind; an error names the first
    column in ``names`` that is unknown, is text or has a missing cell.
    """
    columns: list[array] = []
    for name in names:
        values, flags = ds._table.numeric(name)
        if any(flags):
            raise MissingData(f"column {name!r} has missing cells")
        columns.append(values)
    return columns


class _Text:
    """A text column as dictionary codes: a slice of it decodes to its cells."""

    __slots__ = ("codes", "words")

    def __init__(self, codes: array | None = None, words: list | None = None):
        self.codes = array("I") if codes is None else codes  # an index into words for each cell
        # the distinct cells; code 0, None, is a missing cell
        self.words: list = [None] if words is None else words

    def __getitem__(self, rows: slice) -> list:
        return list(map(self.words.__getitem__, self.codes[rows]))


def _pack_columns(loaded: tuple[TableChunk, int]) -> tuple[dict, list]:
    """A parse's entry: the names, kinds and row count, each text column's
    words, and each column's values (numbers, or text codes) and flags."""
    table, rows = loaded
    kinds = [col.kind for col in table.schema]
    fields = {"names": [col.name for col in table.schema], "rows": rows, "kinds": kinds,
              "words": [values.words if kind == TEXT else None
                        for kind, values in zip(kinds, table.columns)]}
    return fields, [blob for kind, values, flags in zip(kinds, table.columns, table.missing)
                    for blob in (values.codes if kind == TEXT else values, flags)]


def _unpack_columns(head: dict, blobs: list) -> tuple[TableChunk, int] | None:
    """The parse an entry keeps, as the parser gives it, or None if its
    arrays disagree with its row count and kinds, or a text code is past
    its column's words."""
    names, kinds, words, rows = head["names"], head["kinds"], head["words"], head["rows"]
    types = [code for kind in kinds for code in ("I" if kind == TEXT else "d", "B")]
    if head["types"] != types or head["lengths"] != [rows * array(code).itemsize
                                                     for code in types]:
        return None
    columns = []
    # strict: as many names, kinds and word lists as there are columns
    for _, kind, text, values in zip(names, kinds, words, blobs[::2], strict=True):
        if kind == TEXT:
            if rows and max(values) >= len(text):
                return None
            values = _Text(values, text)
        columns.append(values)
    return TableChunk(tuple(map(ColumnSchema, names, kinds)), tuple(columns),
                      tuple(blobs[1::2])), rows
