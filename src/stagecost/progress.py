"""The progress of a map-reduce job, as whole percentages.

Each event is a named tuple (map_pct, reduce_pct): a (0, 0) event, one
event per chunk, then one per key of the result; the final event is always
(100, 100).  A job's events come from its chunk and key counts once its
answer is known, and a job that fails sends none.  :func:`steps` is the
one schedule of these events, as runs of equal ones: ``map_reduce`` sends
its sink each event of each run, and ``stagecost mapreduce run``, whether
it folded the table or read the answer back from the column cache, writes
each run at once, so its writes grow with the runs, not the chunks.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple


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


def steps(chunks: int, keys: int) -> Iterator[tuple[ProgressEvent, int]]:
    """The events of a job of ``chunks`` chunks and ``keys`` keys, in order,
    as steps ``(event, repeats)``."""
    if chunks:
        yield ProgressEvent(0, 0), 1
    for pct, repeats in _runs(chunks):
        yield ProgressEvent(pct, 0), repeats
    for pct, repeats in _runs(keys):
        yield ProgressEvent(100, pct), repeats
    if not keys:
        yield ProgressEvent(100, 100), 1  # nothing to reduce still finishes the job
