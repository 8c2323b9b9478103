"""Deterministic map-reduce over datastore chunks, as one fold.

A job is one pass over the whole datastore, wherever its cursor stood: it
rewinds the cursor and reads every chunk.  The mapper folds each chunk, in
table order, into ``partials``: one dict, of one running value per key,
that it changes in place.  So a job holds one value per distinct key,
however many chunks it reads.  After the last chunk each key is named by
``format_cell`` and the pairs, sorted by name alone, are the result.  A
count or a maximum keeps its answer as its partial; a mean or a variance
keeps a fixed tuple, such as (n, mean, M2), that its caller finishes.

A job reports its progress to a sink by the one rule that ``progress``
states.  A built-in mapper finds and checks its columns once per table it
folds, on the first chunk.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, not_
from typing import Any, Callable, NamedTuple, Optional

from .datastore import Datastore, TableChunk, format_cell
from .progress import ProgressEvent, steps

MAX_KEY = "MaxElapsedTime"  # key under which the built-in max job reports


class JobResult(NamedTuple):
    """Named (key, value) pairs, keys in lexicographic order."""

    pairs: tuple[tuple[str, object], ...]

    def readall(self) -> list[tuple[str, object]]:
        return list(self.pairs)

    def value(self, key: str):
        for k, v in self.pairs:
            if k == key:
                return v
        raise KeyError(key)


Mapper = Callable[[TableChunk, dict], None]
ProgressSink = Optional[Callable[[ProgressEvent], None]]


def map_reduce(ds: Datastore, mapper: Mapper, progress_sink: ProgressSink = None) -> JobResult:
    """Fold every chunk of ``ds`` into one running value per key with ``mapper``.

    The job rewinds ``ds`` and reads it to the end, then sends ``progress_sink``
    the job's events, if it is given.
    """
    ds.reset()
    read, partials, chunks = ds.read, {}, ds.chunks_left
    for _ in range(chunks):
        mapper(read(), partials)
    pairs = tuple(sorted(((format_cell(key), value) for key, value in partials.items()),
                         key=itemgetter(0)))
    if progress_sink is not None:
        for event, repeats in steps(chunks, len(pairs)):
            for _ in range(repeats):
                progress_sink(event)
    return JobResult(pairs=pairs)


# -- built-in jobs -------------------------------------------------------------


def _once_per_table(find: Callable[[TableChunk], Any]) -> Callable[[TableChunk], Any]:
    """``find(chunk)``, called again only for a chunk of another table.

    A table's chunks share one schema object, so ``find`` runs on each
    table's first chunk and its answer serves the table's other chunks.
    """
    found: list = [None, None]  # [schema, find's answer for it]

    def cached(chunk: TableChunk) -> Any:
        if chunk.schema is not found[0]:
            found[:] = chunk.schema, find(chunk)
        return found[1]

    return cached


def builtin_max_mapper(column: str) -> Mapper:
    """Running maximum of a numeric column; an all-missing chunk leaves it as it was."""

    def find(chunk: TableChunk) -> int:
        chunk.numeric(column)  # an unknown or text column raises here
        return chunk.column_index(column)

    where = _once_per_table(find)

    def mapper(chunk: TableChunk, partials: dict) -> None:
        i = where(chunk)
        values, flags = chunk.columns[i], chunk.missing[i]
        if 1 in flags:
            values = list(compress(values, map(not_, flags)))
        if values:
            top = max(values)
            # the old value first: of equal maxima (-0 and 0) the earlier one stays
            partials[MAX_KEY] = max(partials.get(MAX_KEY, top), top)

    return mapper


def builtin_keycount_mapper(key_column: str, value_column: str | None = None) -> Mapper:
    """Running row counts grouped by ``key_column``.

    When ``value_column`` is given, only rows with a non-missing cell there
    are counted.  Rows whose key cell is missing are skipped.
    """

    def find(chunk: TableChunk) -> tuple[int, int]:
        key_i = chunk.column_index(key_column)
        # no value column: the key's own flags are checked in its place
        return key_i, key_i if value_column is None else chunk.column_index(value_column)

    where = _once_per_table(find)

    def mapper(chunk: TableChunk, counts: dict) -> None:
        key_i, val_i = where(chunk)
        # a numeric key is counted as a float: 0.0 and -0.0 are one key, and
        # distinct floats are named by distinct text
        for key, key_miss, val_miss in zip(
            chunk.columns[key_i], chunk.missing[key_i], chunk.missing[val_i]
        ):
            if not (key_miss or val_miss):
                counts[key] = counts.get(key, 0) + 1

    return mapper
