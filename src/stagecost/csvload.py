"""The CSV parser: a datastore's files read into columns, by the rules ``datastore`` describes.

``datastore`` imports this module only to parse, when the column cache holds
no entry for the files and columns asked for, so an open that reads its
columns back compiles no parser and loads no ``csv``.
"""

from __future__ import annotations

import codecs
import csv
import math
import os
import stat
from array import array
from itertools import compress, islice
from operator import itemgetter
from typing import Sequence

from .datastore import MISSING_MARKER, NUMERIC, TEXT, ColumnSchema, TableChunk, _Text
from .errors import EmptyInput, HeaderMismatch, MalformedCSV, MissingFile

# Records read, transposed and converted at a time.  Small blocks keep few row
# lists alive, and the cyclic garbage collector walks every live one: on a
# 2-vCPU VM, reading and transposing 40k rows took 46-80 ms in blocks of 512
# to 2048 rows and 79-98 ms in blocks of 16k rows or more.
_BLOCK_ROWS = 1024
_NAN_FOR_MISSING = {MISSING_MARKER: math.nan}
# Bytes decoded at a time when a file fails to decode, to find its bad line.
_SCAN_BYTES = 1 << 16


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
        """Append the cells as numbers; if one is neither NA nor finite, or once
        stripped holds a ``_`` or a character past ASCII, append nothing and
        return False.  ``float`` sees each cell once, in C."""
        joined = "".join(cells)  # one scan a block; a cell is looked at only if it fails
        if ("_" in joined or not joined.isascii()) and not all(
                "_" not in cell and cell.strip().isascii() for cell in cells):
            return False  # float reads 2023_01 as 202301, and digits of every script
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


def _load(paths, wanted=None) -> tuple[TableChunk, int]:
    """The table of the CSV files ``paths`` as one chunk, text as codes, and its
    number of data rows: all columns, or those named in ``wanted``, in header order.

    An input that changes while it is read is the column cache's to see: it
    hashes the inputs before the parse and again after it."""
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
    if late:
        _reread_text(paths, late, rows)
    schema = tuple(map(ColumnSchema, compress(header, keep), [col.kind for col in columns]))
    return TableChunk(schema, tuple(col.values for col in columns),
                      tuple(col.flags for col in columns)), rows


def _reread_text(paths, late: list[tuple[int, _Column]], rows: int) -> None:
    """Read again, as text, each (header index, column) that turned text late."""
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
    """The number of the line that holds the first byte of ``path`` not in UTF-8.

    A line ends at LF, at CR LF or at a bare CR, as the CSV reader's lines
    do.  The file is decoded ``_SCAN_BYTES`` at a time, so the scan's memory
    does not grow with the file.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    ends, after_cr = 0, False  # the line ends so far; whether the text so far ends in \r
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_SCAN_BYTES)
            try:
                text, bad = decoder.decode(block, final=not block), False
            except UnicodeDecodeError as exc:  # its object is the decoder's bytes and the block
                text, bad = exc.object[:exc.start].decode("utf-8"), True
            # a \r at the end of a block was counted as a bare one
            ends += (text.count("\n") + text.count("\r") - text.count("\r\n")
                     - (after_cr and text[:1] == "\n"))
            if bad:
                return ends + 1
            if not block:
                return 0  # the file changed since it failed to decode
            if text:
                after_cr = text[-1] == "\r"
