"""The progress of a map-reduce job, as whole percentages.

Each event is a named tuple (map_pct, reduce_pct): a (0, 0) event once the
first chunk is mapped, one event after every mapped chunk, and one after
every key of the result; the final event is always (100, 100).
:func:`steps` is the one schedule of these events, as runs of equal ones.
``map_reduce`` runs its fold through :func:`run_job`, which sends them one
by one.  ``stagecost mapreduce run`` takes a run at a time once the job's
answer is known, whether it folded the table or read the answer back from
the column cache, so its writes grow with the runs, not the chunks.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple


class ProgressEvent(NamedTuple):
    map_pct: int
    reduce_pct: int


def _runs(n: int) -> Iterator[tuple[int, int]]:
    """``(p, count)`` for each percentage p = 100 * d // n of d in 1..n, in
    order, where count is the number of d that give p: those from
    ceil(p * n / 100) to ceil((p + 1) * n / 100) - 1, clipped to [1, n]."""
    for p in range(101):
        first, last = max(1, -(-p * n // 100)), min(n, -(-(p + 1) * n // 100) - 1)
        if first <= last:
            yield p, last - first + 1


def steps(chunks: int, keys: Callable[[], int]) -> Iterator[tuple[ProgressEvent, int]]:
    """The events of a job of ``chunks`` chunks, in order, as steps ``(event,
    repeats)``; ``keys()``, the number of keys, is called after the map's steps."""
    if chunks:
        yield ProgressEvent(0, 0), 1
    for pct, repeats in _runs(chunks):
        yield ProgressEvent(pct, 0), repeats
    n = keys()
    for pct, repeats in _runs(n):
        yield ProgressEvent(100, pct), repeats
    if not n:
        yield ProgressEvent(100, 100), 1  # nothing to reduce still finishes the job


def run_job(chunks: int, map_chunk: Callable[[], object], reduce: Callable[[], int],
            sink: Callable[[ProgressEvent], object]) -> None:
    """Call ``map_chunk()`` ``chunks`` times, then ``reduce()``, which gives the
    number of keys, and send ``sink`` each event of :func:`steps` as it
    happens: each chunk is mapped just before its own event, and the first
    one before (0, 0) too."""
    mapped = sent = 0
    for event, repeats in steps(chunks, reduce):
        for _ in range(repeats):
            if mapped < chunks and sent != 1:  # (0, 0) and the first chunk's event share it
                map_chunk()
                mapped += 1
            sink(event)
            sent += 1
