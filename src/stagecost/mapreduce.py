"""Deterministic map-reduce over datastore chunks.

A job is one in-order fold over the datastore, starting at its cursor: each
chunk is read, mapped and reported before the next one is read.  Mapped
values are appended to their key's list as they are emitted, so every key's
values reach the reducer in chunk order, then emission order within a
chunk.  Keys are reduced in lexicographic order.

Progress is reported as whole percentages: a (0, 0) event once the first
chunk is mapped, one event after every mapped chunk, and one after every
reduced key; the final event is always (100, 100).  The mapper checks the
job's columns on the first chunk, so a job it refuses reports no progress.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Callable, Iterable, Optional

from .datastore import NUMERIC, Datastore, TableChunk, format_cell
from .errors import EmptyJob

MAX_KEY = "MaxElapsedTime"  # key under which the built-in max job reports


@dataclass
class ProgressEvent:
    map_pct: int
    reduce_pct: int


@dataclass(frozen=True)
class JobResult:
    """Reduced (key, value) pairs, keys in lexicographic order."""

    pairs: tuple[tuple[str, object], ...]

    def readall(self) -> list[tuple[str, object]]:
        return list(self.pairs)

    def value(self, key: str):
        for k, v in self.pairs:
            if k == key:
                return v
        raise KeyError(key)


class _Collector:
    """Appends each mapped (key, value) pair to its key's list as it arrives."""

    def __init__(self):
        self.values: dict[str, list] = defaultdict(list)

    def add(self, key: str, value) -> None:
        self.values[key].append(value)


Mapper = Callable[[TableChunk, _Collector], None]
Reducer = Callable[[str, list], object]
ProgressSink = Optional[Callable[[ProgressEvent], None]]


def map_reduce(
    ds: Datastore,
    mapper: Mapper,
    reducer: Reducer,
    progress_sink: ProgressSink = None,
) -> JobResult:
    """Run ``mapper`` over every remaining chunk of ``ds``, then ``reducer``.

    Each chunk is read, mapped and reported before the next one is read; the
    first (0, 0) event waits until the first chunk is mapped.  Raises
    ``EmptyJob`` if the cursor has nothing left to read.
    """
    n = ds.chunks_left
    if n == 0:
        raise EmptyJob("the datastore has no chunks left to map")

    def emit(map_pct: int, reduce_pct: int) -> None:
        if progress_sink is not None:
            progress_sink(ProgressEvent(map_pct, reduce_pct))

    out = _Collector()
    for done in range(1, n + 1):
        mapper(ds.read(), out)
        if done == 1:
            emit(0, 0)
        emit(100 * done // n, 0)

    keys = sorted(out.values)
    pairs = []
    for done, key in enumerate(keys, start=1):
        pairs.append((key, reducer(key, out.values[key])))
        emit(100, 100 * done // len(keys))
    if not keys:
        emit(100, 100)  # nothing to reduce still finishes the job
    return JobResult(pairs=tuple(pairs))


# -- built-in jobs -------------------------------------------------------------


def builtin_max_mapper(column: str) -> Mapper:
    """Per-chunk maximum of a numeric column; all-missing chunks emit nothing."""

    def mapper(chunk: TableChunk, store: _Collector) -> None:
        values, flags = chunk.numeric(column)
        if 1 in flags:
            values = list(compress(values, map(not_, flags)))
        if values:
            store.add(MAX_KEY, max(values))

    return mapper


def builtin_max_reducer(key: str, values: list) -> float:
    return max(values)


def builtin_keycount_mapper(key_column: str, value_column: str | None = None) -> Mapper:
    """Per-chunk row counts grouped by ``key_column``.

    When ``value_column`` is given, only rows with a non-missing cell there
    are counted.  Rows whose key cell is missing are skipped.
    """

    def mapper(chunk: TableChunk, store: _Collector) -> None:
        key_i = chunk.column_index(key_column)
        # no value column: the key's own flags are checked in its place
        val_i = key_i if value_column is None else chunk.column_index(value_column)
        counts: dict = defaultdict(int)
        for key, key_miss, val_miss in zip(
            chunk.columns[key_i], chunk.missing[key_i], chunk.missing[val_i]
        ):
            if not (key_miss or val_miss):
                counts[key] += 1
        # a numeric key is counted as a float, and distinct floats print as
        # distinct text (0.0 and -0.0 are one key either way)
        numeric = chunk.schema[key_i].kind == NUMERIC
        for key, count in counts.items():
            store.add(format_cell(key) if numeric else key, count)

    return mapper


def builtin_sum_reducer(key: str, values: Iterable) -> float:
    return sum(values)
