"""Deterministic map-reduce over datastore chunks, as one fold.

A job is one pass over the whole datastore, wherever its cursor stood: it
rewinds the cursor, then reads, folds and reports each chunk before it reads
the next.  The mapper folds each chunk, in table order, into ``partials``:
one dict, of one running value per key, that it changes in place.  So a job
holds one value per distinct key, however many chunks it reads.  After the
last chunk each key is named by ``format_cell`` and the pairs, sorted by name
alone, are the result.  A count or a maximum keeps its answer as its partial;
a mean or a variance keeps a fixed tuple, such as (n, mean, M2), that its
caller finishes.

Progress is reported as whole percentages: a (0, 0) event once the first
chunk is mapped, one event after every mapped chunk, and one after every key
of the result; the final event is always (100, 100).  The mapper checks the
job's columns on the first chunk, so a job it refuses reports no progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, not_
from typing import Callable, Optional

from .datastore import Datastore, TableChunk, format_cell

MAX_KEY = "MaxElapsedTime"  # key under which the built-in max job reports


@dataclass
class ProgressEvent:
    map_pct: int
    reduce_pct: int


@dataclass(frozen=True)
class JobResult:
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

    The job rewinds ``ds`` and reads it to the end.  Each chunk is read,
    folded and reported before the next one is read; the first (0, 0) event
    waits until the first chunk is folded.
    """
    ds.reset()
    n = ds.chunks_left

    def emit(map_pct: int, reduce_pct: int) -> None:
        if progress_sink is not None:
            progress_sink(ProgressEvent(map_pct, reduce_pct))

    partials: dict = {}
    for done in range(1, n + 1):
        mapper(ds.read(), partials)
        if done == 1:
            emit(0, 0)
        emit(100 * done // n, 0)

    pairs = sorted(((format_cell(key), value) for key, value in partials.items()),
                   key=itemgetter(0))
    for done in range(1, len(pairs) + 1):
        emit(100, 100 * done // len(pairs))
    if not pairs:
        emit(100, 100)  # nothing to reduce still finishes the job
    return JobResult(pairs=tuple(pairs))


# -- built-in jobs -------------------------------------------------------------


def builtin_max_mapper(column: str) -> Mapper:
    """Running maximum of a numeric column; an all-missing chunk leaves it as it was."""

    def mapper(chunk: TableChunk, partials: dict) -> None:
        values, flags = chunk.numeric(column)
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

    def mapper(chunk: TableChunk, counts: dict) -> None:
        key_i = chunk.column_index(key_column)
        # no value column: the key's own flags are checked in its place
        val_i = key_i if value_column is None else chunk.column_index(value_column)
        # a numeric key is counted as a float: 0.0 and -0.0 are one key, and
        # distinct floats are named by distinct text
        for key, key_miss, val_miss in zip(
            chunk.columns[key_i], chunk.missing[key_i], chunk.missing[val_i]
        ):
            if not (key_miss or val_miss):
                counts[key] = counts.get(key, 0) + 1

    return mapper
