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
cell that is not missing is a finite number; no cell is converted twice.  A
column that turns text in its first block is kept from that block's cells.
One that turns text later has had its earlier cells converted, and
``repr(1.5)`` is not ``"1.50"``, so its text is read again from the files
once every block is in.

Rows come back through a cursor in fixed-size :class:`TableChunk` batches
by column, with text decoded back to lists of words.  Every chunk holds
exactly the columns the datastore was opened on, in header order, and a
reader finds each one by name.  Missing numeric cells surface as IEEE NaN
plus a flag, missing text cells as None plus a flag.

A parse is kept in a column cache beside the first input, so that the next
open of the same files and columns reads the columns back instead of
parsing again; the inputs are hashed on every open, so an edit is always
seen (see :func:`_cached_load`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import stat
import sys
from array import array
from functools import cache
from itertools import compress, islice
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

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

MISSING_MARKER = "NA"  # the one missing-cell marker
# Records read, transposed and converted at a time.  Small blocks keep few row
# lists alive, and the cyclic garbage collector walks every live one: on a
# 2-vCPU VM, reading and transposing 40k rows took 46-80 ms in blocks of 512
# to 2048 rows and 79-98 ms in blocks of 16k rows or more.
_BLOCK_ROWS = 1024
_NAN_FOR_MISSING = {MISSING_MARKER: math.nan}
# The column cache's directory, made beside the first input.
_CACHE_DIR = ".stagecost-cache"
_HASH_BLOCK = 1 << 16  # bytes of an input hashed at a time: a small, fixed buffer

NUMERIC = "numeric"
TEXT = "text"


class ColumnSchema(NamedTuple):
    name: str
    kind: str  # NUMERIC or TEXT


# A column's values: numbers (NaN where missing) or text (None where missing).
Values = Union[array, list]


class TableChunk:
    """A batch of rows by column: ``schema[i]``'s values and missing flags.

    A numeric column's values are an ``array('d')``, a text column's a list;
    the flags are a ``bytearray`` of 0 and 1.  Each is a fresh copy, so
    changing it leaves the datastore as it was.  ``numeric`` is the one check
    that a column a reader needs as numbers is numeric.  Its ``len`` is its
    row count, which is why it is not a tuple.
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
    """Cursor-based access to one logical table spread over CSV files (see open_datastore)."""

    def __init__(self, paths, chunk_size, columns=None):
        # as text, so that a message names a bytes path as it names the others
        paths = list(map(os.fsdecode, [paths] if isinstance(paths, (str, bytes, os.PathLike))
                         else paths))
        if columns is not None:
            columns = [columns] if isinstance(columns, str) else list(columns)
        self._chunk_size = int(chunk_size)
        if self._chunk_size < 1:
            raise InvalidParameter(f"chunk_size must be >= 1, got {self._chunk_size}")
        names, loaded, self._total_rows = _cached_load(paths, columns)
        if not self._total_rows:
            raise EmptyInput("no data rows in " + ", ".join(paths))
        self._schema = tuple(ColumnSchema(name, col.kind) for name, col in zip(names, loaded))
        self._values = [col.values for col in loaded]
        self._flags = [col.flags for col in loaded]
        # read's error when the header lacks every name asked for, or none was asked
        self._no_column = None if self._schema else (
            f"no column named {columns[0]!r}" if columns else "no column is selected")
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
        rows = slice(start, self._cursor)
        # built from lists: tuple(map(...)) makes a longer tuple and shrinks it,
        # so each chunk would add two tuples to the interpreter's free list
        return TableChunk(self._schema, tuple([column[rows] for column in self._values]),
                          tuple([flags[rows] for flags in self._flags]))


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


class _Text:
    """A text column as dictionary codes: a slice of it decodes to its cells."""

    __slots__ = ("codes", "words")

    def __init__(self, codes: array | None = None, words: list | None = None):
        self.codes = array("I") if codes is None else codes  # an index into words for each cell
        # the distinct cells; code 0, None, is a missing cell
        self.words: list = [None] if words is None else words

    def __getitem__(self, rows: slice) -> list:
        return list(map(self.words.__getitem__, self.codes[rows]))


class _Column:
    """One column as it is loaded: numeric until a cell is neither NA nor finite."""

    __slots__ = ("kind", "values", "flags", "_code_of")

    def __init__(self):
        self.kind = NUMERIC
        self.values: array | _Text | None = array("d")
        self.flags: bytearray | None = bytearray()

    def add(self, cells: Sequence[str]) -> None:
        """Append one block of the column's cells, as the CSV reader gave them."""
        if self.kind == NUMERIC:
            if self._add_numbers(cells):
                return
            if self.flags:  # earlier blocks went in as numbers: _reread_text fills it in
                self.kind = TEXT
                self.values = self.flags = None
                return
            self.start_text()
        if self.values is not None:
            self.add_text(cells)

    def start_text(self) -> None:
        """Become an empty text column; the word index is dropped with the column."""
        self.kind = TEXT
        self.values, self.flags = _Text(), bytearray()
        self._code_of = {MISSING_MARKER: 0}

    def add_text(self, cells) -> None:
        cells = list(map(str.strip, cells))
        words = self.values.words
        new = set(cells).difference(self._code_of)
        self._code_of.update(zip(new, range(len(words), len(words) + len(new))))
        words.extend(new)
        self.values.codes.extend(map(self._code_of.__getitem__, cells))
        self.flags.extend(map(MISSING_MARKER.__eq__, cells))

    def _add_numbers(self, cells: Sequence[str]) -> bool:
        """Append the cells as numbers; if one is neither NA nor finite, append
        nothing and return False.  ``float`` sees each cell once, in C."""
        missing = cells.count(MISSING_MARKER)
        todo = map(float, map(_NAN_FOR_MISSING.get, cells, cells) if missing else cells)
        block = array("d")
        while True:
            try:
                block.extend(todo)  # keeps the numbers before a cell that raises
                break
            except ValueError:  # a cell float rejects: NA with spaces round it, or text
                if cells[len(block)].strip() != MISSING_MARKER:
                    return False
                block.append(math.nan)
                missing += 1
        # every missing cell is NaN, so the column stays numeric when the cells
        # that are not finite are exactly the missing ones
        finite = len(block) if math.isfinite(sum(block)) else sum(map(math.isfinite, block))
        if finite + missing != len(block):
            return False
        self.values += block
        self.flags.extend(map(math.isnan, block) if missing else bytes(len(block)))
        return True


def _load(paths, wanted=None) -> tuple[list[str], list[_Column], int]:
    """The names, the columns and the number of data rows of the CSV files
    ``paths``: all columns, or those named in ``wanted``, in header order."""
    if not paths:
        raise MissingFile("no input paths given")
    header: list[str] | None = None
    keep: list[bool] = []  # whether each header column is loaded
    columns: list[_Column] = []
    rows = 0
    for path in paths:
        blocks = _row_blocks(path)
        this_header = [c.strip() for c in next(blocks)]
        if len(set(this_header)) != len(this_header):
            raise HeaderMismatch(f"{path} has duplicate column names")
        if header is None:
            header = this_header
            keep = [wanted is None or name in wanted for name in header]
            columns = [_Column() for _ in compress(header, keep)]
        elif this_header != header:
            raise HeaderMismatch(f"{path} header {this_header} does not match {header}")
        for block in blocks:
            rows += len(block)
            for column, cells in zip(columns, compress(zip(*block), keep)):
                column.add(cells)
    assert header is not None
    late = [(i, col) for i, col in zip(compress(range(len(header)), keep), columns)
            if col.values is None]
    _reread_text(paths, late, rows)
    return list(compress(header, keep)), columns, rows


def _reread_text(paths, late: list[tuple[int, _Column]], rows: int) -> None:
    """Read again, as text, each (header index, column) that turned text late."""
    if not late:
        return
    for _, col in late:
        col.start_text()
    for path in paths:
        blocks = _row_blocks(path)
        next(blocks)
        for block in blocks:
            for i, col in late:
                col.add_text(map(itemgetter(i), block))
    if len(late[0][1].flags) != rows:
        raise MalformedCSV("an input file changed while it was read")


def _row_blocks(path):
    """Yield the header of the CSV file ``path``, then its data rows in blocks.

    The header is the first record that is not a blank line.  A block is what
    is left of ``_BLOCK_ROWS`` records once blank lines are dropped.  A row
    whose cell count is not the header's, CSV that the reader rejects and
    bytes that are not UTF-8 are errors that name the physical line.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"input file {path} does not exist")
    failure: list[MalformedCSV] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        records = _csv_rows(path, reader, failure)
        header, seen = [], 0  # seen: the records read, blank ones included
        for header in records:
            seen += 1
            if header:
                break
        if header:
            yield header
            width = len(header)
            while block := list(islice(records, _BLOCK_ROWS)):
                if not set(map(len, block)) <= {0, width}:
                    bad = next(i for i, row in enumerate(block) if len(row) not in (0, width))
                    raise HeaderMismatch(f"{path}:{_line_of(path, seen + bad)}:"
                                         f" expected {width} cells, got {len(block[bad])}")
                seen += len(block)
                yield list(filter(None, block))
    if failure:
        raise failure[0]
    if not header:
        raise EmptyInput(f"{path} is empty")


def _csv_rows(path, reader, failure: list):
    """The rows of the CSV ``reader`` over ``path``, up to bad bytes or bad CSV.

    Their error goes to ``failure`` rather than out, so that the rows read
    before it are checked first, as they would be one at a time.
    """
    try:
        yield from reader
    except csv.Error as exc:  # such as a cell over csv's field size limit
        failure.append(MalformedCSV(f"{path}:{reader.line_num}: {exc}"))
    except UnicodeDecodeError as exc:
        failure.append(MalformedCSV(
            f"{path}:{_undecodable_line(path)}: not UTF-8 text ({exc.reason})"
        ))


def _line_of(path, record: int) -> int:
    """The physical line that record ``record`` of ``path`` ends on.

    Records count from 0, blank lines included.  A quoted cell may span
    lines, so this is not the record count.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(islice(reader, record, None), None)
        return reader.line_num


def _undecodable_line(path) -> int:
    """The number of the line that holds the first byte of ``path`` not in UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0  # the file changed since it failed to decode


# -- the column cache -------------------------------------------------------------


def _cached_load(paths, wanted=None) -> tuple[list[str], list[_Column], int]:
    """What ``_load`` gives, read back from the column cache when it holds it.

    An entry is the file ``_CACHE_DIR/<signature>`` in the first input's
    directory.  The signature is a sha256 of the absolute input paths in
    order, the set of columns asked for, the interpreter's version and byte
    order, and this module's source, so an edit to the parse rules retires
    every old entry.  The entry holds the sha256 of each input's bytes, which
    are hashed again on every open.  An entry that is missing or fails a
    check is parsed anew and written again, once the inputs are seen to hash
    as they did before the parse.  Inputs that are not all regular files,
    and an OSError on the cache, leave the parse alone to give the result;
    so do inputs in this package's directory, such as the bundled samples,
    where an installed package is no place for an entry.
    """
    if not paths:
        return _load(paths, wanted)
    try:
        entry, key = _entry(paths, wanted)
        inputs = None if _in_package(entry) else _input_digests(paths)
    except OSError:
        inputs = None
    if inputs is None:
        return _load(paths, wanted)
    loaded = _read_entry(entry, key, inputs)
    if loaded is None:
        loaded = _load(paths, wanted)
        try:
            if _input_digests(paths) == inputs:
                _write_entry(entry, key, inputs, loaded)
        except OSError:
            pass  # a read-only or full directory, or a file where the cache goes
    return loaded


def _entry(paths, wanted) -> tuple[str, str]:
    """The cache entry for opening ``paths`` on the columns ``wanted``, and its signature."""
    absolute = list(map(os.path.abspath, paths))
    selected = None if wanted is None else sorted(set(wanted))
    signature = hashlib.sha256(
        json.dumps([absolute, selected, sys.version, sys.byteorder]).encode())
    signature.update(_source())
    key = signature.hexdigest()
    return os.path.join(os.path.dirname(absolute[0]), _CACHE_DIR, key), key


def _in_package(entry: str) -> bool:
    """Whether the cache entry ``entry`` would be made inside this package's directory."""
    package = os.path.join(os.path.realpath(os.path.dirname(__file__)), "")
    return os.path.realpath(entry).startswith(package)


@cache
def _source() -> bytes:
    """The bytes of this module."""
    with open(__file__, "rb") as fh:
        return fh.read()


def _input_digests(paths) -> list[str] | None:
    """The sha256 of each input's bytes, or None if an input is not a regular file."""
    buffer = bytearray(_HASH_BLOCK)
    digests = []
    for path in paths:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        digest = hashlib.sha256()
        with open(path, "rb", buffering=0) as fh:
            while size := fh.readinto(buffer):
                digest.update(memoryview(buffer)[:size])
        digests.append(digest.hexdigest())
    return digests


def _write_entry(entry: str, key: str, inputs: list[str], loaded) -> None:
    """Keep ``loaded``, the parse of inputs whose digests are ``inputs``, in ``entry``.

    The entry is one line of JSON (the signature, the input digests, the
    names, kinds and row count, each text column's words and the byte
    length of each array), then each column's values (numbers, or text
    codes) and flags as raw bytes, then a sha256 of all that.  It is
    written to a file of its own and moved into place, so a reader finds
    a whole entry or none.
    """
    names, columns, rows = loaded
    blobs = [blob for col in columns
             for blob in (col.values.codes if col.kind == TEXT else col.values, col.flags)]
    head = json.dumps({
        "signature": key, "inputs": inputs, "names": names, "rows": rows,
        "kinds": [col.kind for col in columns],
        "words": [col.values.words if col.kind == TEXT else None for col in columns],
        "lengths": [memoryview(blob).nbytes for blob in blobs],
    }).encode() + b"\n"
    os.makedirs(os.path.dirname(entry), exist_ok=True)
    temp = f"{entry}.{os.getpid()}-{os.urandom(4).hex()}"
    fh = open(temp, "xb")
    try:
        with fh:
            digest = hashlib.sha256(head)
            fh.write(head)
            for blob in blobs:
                fh.write(blob)
                digest.update(blob)
            fh.write(digest.digest())
        os.replace(temp, entry)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _read_entry(entry: str, key: str, inputs: list[str]):
    """The parse kept in ``entry``, or None if there is none or it fails a check.

    The checks: the signature and the input digests that the entry was
    written for, the byte lengths against the row count and the file's
    size, each text code below its column's word count, and the sha256 over
    the whole entry.  Each array is read straight into its final place.
    """
    try:
        with open(entry, "rb") as fh:
            line = fh.readline()
            head = json.loads(line)
            if head["signature"] != key or head["inputs"] != inputs:
                return None
            names, kinds, words, rows = head["names"], head["kinds"], head["words"], head["rows"]
            types = ["I" if kind == TEXT else "d" for kind in kinds]
            lengths = [n for code in types for n in (rows * array(code).itemsize, rows)]
            if (head["lengths"] != lengths
                    or len(line) + sum(lengths) + 32 != os.fstat(fh.fileno()).st_size):
                return None
            digest = hashlib.sha256(line)
            columns = []
            # strict: as many names, kinds and word lists as there are columns
            for _, kind, code, text in zip(names, kinds, types, words, strict=True):
                col = _Column()
                col.kind, col.values, col.flags = kind, array(code, [0]) * rows, bytearray(rows)
                for blob in (col.values, col.flags):
                    if fh.readinto(blob) != memoryview(blob).nbytes:
                        return None
                    digest.update(blob)
                if kind == TEXT:
                    if rows and max(col.values) >= len(text):
                        return None
                    col.values = _Text(col.values, text)
                columns.append(col)
            if fh.read() != digest.digest():
                return None
    except (OSError, ValueError, LookupError, TypeError):
        return None
    return names, columns, rows
