"""The progress of a map-reduce job, as whole percentages.

Each event is a named tuple (map_pct, reduce_pct): a (0, 0) event once the
first chunk is mapped, one event after every mapped chunk, and one after
every key of the result; the final event is always (100, 100).
:func:`run_job` is the one schedule of these events.  ``map_reduce`` runs
its fold through it, and a command that reads a job's answer back from the
column cache runs it with nothing to fold, so it reports the events of the
fold without loading the datastore or ``mapreduce``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class ProgressEvent(NamedTuple):
    map_pct: int
    reduce_pct: int


def run_job(chunks: int, map_chunk: Callable[[], object], reduce: Callable[[], int],
            sink: Callable[[ProgressEvent], object]) -> None:
    """Call ``map_chunk()`` ``chunks`` times, then ``reduce()``, which gives the
    number of keys, and send ``sink`` each event of the job as it happens."""
    for done in range(1, chunks + 1):
        map_chunk()
        if done == 1:
            sink(ProgressEvent(0, 0))
        sink(ProgressEvent(100 * done // chunks, 0))
    keys = reduce()
    for done in range(1, keys + 1):
        sink(ProgressEvent(100, 100 * done // keys))
    if not keys:
        sink(ProgressEvent(100, 100))  # nothing to reduce still finishes the job
