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
seen (see :func:`_cached`).  A result derived from a table, such as
``pca``'s factorization or ``regress``'s fit, can be kept there too (see
:func:`cached_result`).
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
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar, Union

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

_T = TypeVar("_T")


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
    """Cursor-based access to one logical table spread over CSV files (see open_datastore).

    ``digests``, the sha256 of each input that the caller hashed just now,
    spare the open hashing them again before it looks in the column cache.
    """

    def __init__(self, paths, chunk_size, columns=None, *, digests=None):
        paths = _path_list(paths)
        if columns is not None:
            columns = [columns] if isinstance(columns, str) else list(columns)
        self._chunk_size = int(chunk_size)
        if self._chunk_size < 1:
            raise InvalidParameter(f"chunk_size must be >= 1, got {self._chunk_size}")
        (names, loaded, self._total_rows), self._digests = _cached_load(paths, columns, digests)
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
    def digests(self) -> list[str] | None:
        """The sha256 of each input that the columns were read back or parsed
        from, or None if the column cache was not used or an input changed
        meanwhile: what :func:`cached_result` may look a result up under."""
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


def _path_list(paths) -> list[str]:
    """A lone path or a sequence of them as a list of text paths, so that a
    message names a bytes path as it names the others."""
    return list(map(os.fsdecode, [paths] if isinstance(paths, (str, bytes, os.PathLike))
                    else paths))


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
    try:
        mode = os.stat(path).st_mode
    except (OSError, ValueError):  # ValueError: a NUL in the path
        raise MissingFile(f"input file {path} does not exist") from None
    if not stat.S_ISREG(mode):  # a pipe or a directory: the parse may open it again
        raise MissingFile(f"input file {path} is not a regular file")
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


def cached_result(paths, tag: str, sources: Sequence[str],
                  derive: Callable[[Callable[[], Datastore]], _T],
                  pack: Callable[[_T], tuple[dict, list]],
                  unpack: Callable[[dict, list], _T | None],
                  columns: Iterable[str] | None = None,
                  digests: list[str] | None = None) -> _T:
    """What ``derive(open_table)`` gives, kept in the column cache beside the inputs.

    ``open_table()`` opens a datastore over the columns of ``paths`` named in
    ``columns`` (every column if None) in one chunk, through the parse's own
    entry; a ``derive`` that has the columns already need not call it.
    ``digests``, the :attr:`Datastore.digests` of an open of ``paths`` just
    now, spare hashing the inputs again; a ``derive`` that uses columns of
    an open whose digests are None, because an input changed while it was
    read, must not be kept under the inputs' new bytes.  The result is an entry of its own,
    keyed on ``tag``, a name, which no column selection can be, and on the
    bytes of the files ``sources`` besides what a parse's entry is keyed on
    (see :func:`_cached`).  ``pack(result)`` gives the entry's JSON fields
    and its arrays, and ``unpack(fields, arrays)`` makes the result of them
    again, or None if they disagree.  A hit hashes each input at most once
    and opens no datastore.  A result that ``derive`` does not return,
    because it raised, is not kept.
    """
    paths = _path_list(paths)
    return _cached(paths, tag,
                   lambda inputs: derive(lambda: Datastore(paths, sys.maxsize, columns,
                                                           digests=inputs)),
                   pack, unpack, sources, digests)[0]


def _cached_load(paths, wanted=None, inputs=None):
    """What ``_load`` gives, read back from the column cache when it holds it,
    and the digests it is keyed on (see :func:`_cached`)."""
    return _cached(paths, None if wanted is None else sorted(set(wanted)),
                   lambda _: _load(paths, wanted), _pack_columns, _unpack_columns,
                   inputs=inputs)


def _cached(paths, tag, make, pack, unpack, sources=(), inputs=None):
    """What ``make(inputs)`` gives, read back from the column cache when it
    holds it, and the input digests that it is made of, or None if unknown.

    An entry is the file ``_CACHE_DIR/<signature>`` in the first input's
    directory.  The signature is a sha256 of the absolute input paths in
    order, ``tag`` (the set of columns asked for, or the name of a derived
    result), the interpreter's version and byte order, this module's source
    and the bytes of the files ``sources``, so an edit to the rules retires
    every old entry.  The entry holds the sha256 of each input's bytes, which
    are hashed again on every open, unless the caller hashed them just now
    and passes them as ``inputs``.  An entry that is missing or fails a
    check is made anew and written again, once the inputs are seen to hash
    as they did before ``make`` ran.  Inputs that are not all regular
    files, and an OSError on the cache, leave ``make(None)`` to give the
    result; so do inputs in this package's directory, such as the bundled
    samples, where an installed package is no place for an entry.
    """
    if not paths:
        return make(None), None
    try:
        entry, key = _entry(paths, tag, sources)
        if _in_package(entry):
            inputs = None
        elif inputs is None:
            inputs = _input_digests(paths)
    except (OSError, ValueError):  # ValueError: a NUL in a path
        inputs = None
    if inputs is None:
        return make(None), None
    found = _read_entry(entry, key, inputs, unpack)
    if found is not None:
        return found, inputs
    made = make(inputs)
    try:
        if _input_digests(paths) != inputs:
            return made, None  # an input changed while it was read
    except OSError:
        return made, None  # or went away
    try:
        _write_entry(entry, key, inputs, *pack(made))
    except OSError:
        pass  # a read-only or full directory, or a file where the cache goes
    return made, inputs


def _entry(paths, tag, sources=()) -> tuple[str, str]:
    """The cache entry for ``tag`` made of ``paths``, and its signature."""
    absolute = list(map(os.path.abspath, paths))
    signature = hashlib.sha256(json.dumps([absolute, tag, sys.version, sys.byteorder]).encode())
    signature.update(_source())
    for source in sources:
        with open(source, "rb") as fh:
            signature.update(fh.read())
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


def _write_entry(entry: str, key: str, inputs: list[str], fields: dict, blobs: list) -> None:
    """Keep ``fields`` and the arrays ``blobs``, made of inputs whose digests are ``inputs``.

    The entry is one line of JSON (the signature, the input digests,
    ``fields``, and the type code and byte length of each array), then each
    array as raw bytes, then a sha256 of all that.  It is written to a file
    of its own and moved into place, so a reader finds a whole entry or none.
    """
    views = list(map(memoryview, blobs))
    head = json.dumps({
        "signature": key, "inputs": inputs, **fields,
        "types": [view.format for view in views], "lengths": [view.nbytes for view in views],
    }).encode() + b"\n"
    os.makedirs(os.path.dirname(entry), exist_ok=True)
    temp = f"{entry}.{os.getpid()}-{os.urandom(4).hex()}"
    fh = open(temp, "xb")
    try:
        with fh:
            digest = hashlib.sha256(head)
            fh.write(head)
            for view in views:
                fh.write(view)
                digest.update(view)
            fh.write(digest.digest())
        os.replace(temp, entry)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _read_entry(entry: str, key: str, inputs: list[str], unpack):
    """``unpack(fields, arrays)`` of the entry ``entry``, or None if there is
    none, it fails a check or ``unpack`` gives None.

    The checks: the signature and the input digests that the entry was
    written for, the byte lengths against the file's size, and the sha256
    over the whole entry.  An array of type ``B`` comes back as a
    ``bytearray``, any other as an ``array`` of that type, each read
    straight into its final place.
    """
    try:
        with open(entry, "rb") as fh:
            line = fh.readline()
            head = json.loads(line)
            if head["signature"] != key or head["inputs"] != inputs:
                return None
            lengths = head["lengths"]
            if (min(lengths, default=0) < 0
                    or len(line) + sum(lengths) + 32 != os.fstat(fh.fileno()).st_size):
                return None
            digest = hashlib.sha256(line)
            blobs = []
            for code, length in zip(head["types"], lengths, strict=True):
                blob = (bytearray(length) if code == "B"
                        else array(code, [0]) * (length // array(code).itemsize))
                if memoryview(blob).nbytes != length or fh.readinto(blob) != length:
                    return None
                digest.update(blob)
                blobs.append(blob)
            if fh.read() != digest.digest():
                return None
            return unpack(head, blobs)
    except (OSError, ValueError, LookupError, TypeError):
        return None


def _pack_columns(loaded) -> tuple[dict, list]:
    """A parse's entry: the names, kinds and row count, each text column's
    words, and each column's values (numbers, or text codes) and flags."""
    names, columns, rows = loaded
    fields = {"names": names, "rows": rows, "kinds": [col.kind for col in columns],
              "words": [col.values.words if col.kind == TEXT else None for col in columns]}
    return fields, [blob for col in columns
                    for blob in (col.values.codes if col.kind == TEXT else col.values, col.flags)]


def _unpack_columns(head: dict, blobs: list):
    """The parse an entry keeps, or None if its arrays disagree with its row
    count and kinds, or a text code is past its column's words."""
    names, kinds, words, rows = head["names"], head["kinds"], head["words"], head["rows"]
    types = [code for kind in kinds for code in ("I" if kind == TEXT else "d", "B")]
    if head["types"] != types or head["lengths"] != [rows * array(code).itemsize
                                                     for code in types]:
        return None
    columns = []
    # strict: as many names, kinds and word lists as there are columns
    for _, kind, text, values, flags in zip(names, kinds, words, blobs[::2], blobs[1::2],
                                            strict=True):
        col = _Column()
        col.kind, col.values, col.flags = kind, values, flags
        if kind == TEXT:
            if rows and max(values) >= len(text):
                return None
            col.values = _Text(values, text)
        columns.append(col)
    return names, columns, rows
