"""Deterministic map-reduce over datastore chunks.

A job is one in-order fold over the datastore, starting at its cursor: each
chunk is read, mapped and reported before the next one is read.  Mapped
values are appended to their key's list as they are emitted, so every key's
values reach the reducer in chunk order, then emission order within a
chunk.  Keys are reduced in lexicographic order.

Progress is reported as whole percentages: an initial (0, 0) event, one
event after every mapped chunk, and one after every reduced key; the final
event is always (100, 100).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .datastore import NUMERIC, Datastore, TableChunk
from .errors import EmptyJob, TypeMismatch

MAX_KEY = "MaxElapsedTime"  # key under which the built-in max job reports


@dataclass(frozen=True)
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
        self.values[str(key)].append(value)


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

    Each chunk is read, mapped and reported before the next one is read.
    Raises ``EmptyJob`` if the cursor has nothing left to read.
    """
    n = ds.chunks_left
    if n == 0:
        raise EmptyJob("the datastore has no chunks left to map")

    def emit(map_pct: int, reduce_pct: int) -> None:
        if progress_sink is not None:
            progress_sink(ProgressEvent(map_pct, reduce_pct))

    emit(0, 0)
    out = _Collector()
    for done in range(1, n + 1):
        mapper(ds.read(), out)
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


def _numeric_cells(chunk: TableChunk, column: str) -> list[float]:
    i = chunk.column_index(column)
    if chunk.schema[i].kind != NUMERIC:
        raise TypeMismatch(f"column {column!r} is not numeric")
    return [v for v, miss in zip(chunk.columns[i], chunk.missing[i]) if not miss]


def builtin_max_mapper(column: str) -> Mapper:
    """Per-chunk maximum of a numeric column; all-missing chunks emit nothing."""

    def mapper(chunk: TableChunk, store: _Collector) -> None:
        cells = _numeric_cells(chunk, column)
        if cells:
            store.add(MAX_KEY, max(cells))

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
        counts: dict[str, int] = defaultdict(int)
        for key, key_miss, val_miss in zip(
            chunk.columns[key_i], chunk.missing[key_i], chunk.missing[val_i]
        ):
            if not (key_miss or val_miss):
                counts[_key_text(key)] += 1
        for key in sorted(counts):
            store.add(key, counts[key])

    return mapper


def builtin_sum_reducer(key: str, values: Iterable) -> float:
    return sum(values)


def _key_text(value) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return str(value)
