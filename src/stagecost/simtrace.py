"""The event log of a simulation run, written to a file as a TSV trace.

``sim.write_trace`` imports this module on its first call, so a run without a
trace never compiles it.  The log (ticks and the three stations' completions)
is rebuilt from a ``sim.EventLog``, the ticks and every station's departure
times, which ``sim.event_log`` computes.  ``write`` cuts it at multiples of
the tick into one part per usable CPU and formats the parts at once, this
process the first and forked children the others.  Each part is cut the same
way into windows of about ``_WINDOW_EVENTS`` events, and written a window at a
time: one stable sort puts a window's events in time order, and one join
makes its text.  The parts are copied in order into the trace, which holds
the bytes of one stable sort over the whole log.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sim import EventLog

#: Ticks of a run for each part that ``write`` cuts its trace into.  The
#: fork-versus-format break-even lies between 500 and 1000 ticks a part: in a
#: 48 MB process on a 2-vCPU VM, two parts took 1.44 times the one-part time
#: on a 1000-tick run and 0.81 times on a 2000-tick run (medians of 15).
_PART_TICKS = 1000

#: Events of a part that are sorted and formatted at a time.  A window's
#: pairs and lines are most of what the writer holds: over the whole
#: 250,000-event log of a simulate-long run, written in one part, the
#: tracemalloc peak was 0.45 to 0.46 MiB at 2048 events and 0.79 to 0.80 MiB
#: at 4096 (perfbench seeds 1 to 4).
_WINDOW_EVENTS = 2048


def write(log: EventLog, path: str) -> None:
    """Write the event log to ``path`` as TSV (time, kind, payload_mb).

    The log is cut at multiples of the tick into one part per usable CPU,
    and at most one per ``_PART_TICKS`` ticks, each part holding about as
    many events as the next.  This process writes the first part, and forked
    children format the others at the same time, each into an unlinked
    temporary file that is appended to the trace when it is done.  The bytes
    are those of one stable sort by time over the whole log.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    _write_parts(log, path, max(1, min(cpus, log.n_ticks // _PART_TICKS)))


def _part_ranges(log: EventLog, parts: int) -> list:
    """Cut the log at multiples of the tick into ``parts`` parts of about equal events.

    Part k holds every event at a time in ``[tick * lo_k, tick * lo_{k+1})``;
    the last part has no upper end.  Every stream is sorted, so its cut at a
    time is a ``bisect_left``: an event at a boundary opens the later part,
    where the stable sort of its window puts it after the same time's events
    of earlier streams, as one sort over the whole log would.  ``lo_k`` is
    the first multiple with at least k / parts of the events before it, so
    the cuts of ``parts * m`` parts include those of ``parts``: ``_part_windows``
    cuts each part into windows that way.  An overloaded station's jobs end
    ever later than their ticks, so equal numbers of ticks would not make
    equal parts, and its jobs may end long after the last tick: ``lo_k`` may
    pass ``n_ticks``, up to just past the last departure, and a part that
    starts there holds no tick.
    Returns each part's index range in each stream, for ``_event_stream``.
    """
    n, tick = log.n_ticks, log.tick
    ingest, analyze, drain = streams = [log.departures[name]
                                        for name in ("ssd_ingest", "ssd_analyze", "ssd_drain")]
    events = n + sum(map(len, streams))
    last = max((times[-1] for times in streams if times), default=0.0)
    # a multiple of the tick past every departure; a range's length fits in sys.maxsize
    top = max(n, int(min(last / tick, sys.maxsize - 1)) + 1)

    def cuts(j):  # how many of each stream's events come before time tick * j
        t = tick * j
        return [min(j, n), bisect_left(ingest, t), bisect_left(analyze, t), bisect_left(drain, t)]

    def before(j):
        return sum(cuts(j))

    bounds, j = [[0] * 4], 0
    for k in range(1, parts):
        # Each cut is at or past the one before it.  Up to the last tick each
        # tick is an event, so the cut is at most as many ticks further as
        # events are still wanted.
        target = k * events // parts
        end = j + max(0, target - sum(bounds[-1]))
        j = bisect_left(range(top), target, j, end if end <= n else top, key=before)
        bounds.append(cuts(j))
    bounds.append([n, *map(len, streams)])
    return [tuple(zip(bounds[k], bounds[k + 1])) for k in range(parts)]


def _part_windows(log: EventLog, parts: int) -> list:
    """The log cut into ``parts`` parts, each a list of windows of about ``_WINDOW_EVENTS`` events.

    The windows are the ``parts * m`` parts of ``_part_ranges``, and part k
    is windows ``k * m`` to ``(k + 1) * m``.  Window ``k * m``'s cut aims at
    ``k * m * events // (parts * m)``, which is ``k * events // parts``, so
    every part starts where ``_part_ranges(log, parts)`` starts it.
    """
    events = log.n_ticks + sum(map(len, log.departures.values()))
    m = max(1, events // (parts * _WINDOW_EVENTS))
    windows = _part_ranges(log, parts * m)
    return [windows[k * m:(k + 1) * m] for k in range(parts)]


def _event_stream(log: EventLog, windows):
    """The events of one part of a run's log as the text of its TSV trace, a window at a time.

    ``windows`` gives each window's index range in each of the log's four
    streams: the ticks, then the ingest, analyze and drain departures, each
    read through a memoryview rather than copied.  Each stream's payload is
    fixed (the drain's by its source), so the text after the time is built
    once per stream and source, not once per event.  A window's events are
    put in time order by one ``sorted`` call, which is stable: the streams
    are chained in the order of ``sim.EVENT_KINDS``, so the log follows it
    at equal times.
    """
    tick = log.tick
    ingest, analyze, drain = (memoryview(log.departures[name])
                              for name in ("ssd_ingest", "ssd_analyze", "ssd_drain"))
    sources = memoryview(log.drain_sources)
    tick_tail = f"\tgeneration_tick\t{log.batch_mb!r}\n"
    stage_tail = f"\tstage_complete\t{log.batch_mb!r}\n"
    analyze_tail = f"\tanalyze_complete\t{log.analysis_mb!r}\n"
    drain_tails = tuple(f"\tdrain_complete\t{mb!r}\n" for mb in log.drain_mb)
    for (t0, t1), (s0, s1), (a0, a1), (d0, d1) in windows:
        pairs = chain(zip(map(tick.__mul__, range(t0, t1)), repeat(tick_tail)),
                      zip(ingest[s0:s1], repeat(stage_tail)),
                      zip(analyze[a0:a1], repeat(analyze_tail)),
                      zip(drain[d0:d1], map(drain_tails.__getitem__, sources[d0:d1])))
        # one expression, so that no name holds the sorted pairs or the lines
        # once the text is joined
        yield "".join([f"{t!r}{tail}" for t, tail in sorted(pairs, key=itemgetter(0))])


def _write_parts(log: EventLog, path: str, parts: int) -> None:
    """``write`` with the log cut into ``parts`` parts.

    Parts after the first are forked off only when this process may fork
    (``_may_fork``); a part whose child failed or could not start is written
    by this process in its turn.  However the writer leaves, no child
    outlives it.
    """
    part_windows = _part_windows(log, parts)
    with open(path, "w", encoding="utf-8") as fh:
        children = []
        try:
            if parts > 1 and _may_fork():
                for windows in part_windows[1:]:
                    children.append(_Child(log, windows))
            fh.write("time\tkind\tpayload_mb\n")
            fh.writelines(_event_stream(log, part_windows[0]))
            for k, windows in enumerate(part_windows[1:]):
                fh.flush()  # the text written so far goes first
                if not (children and children[k].append_to(fh.buffer)):
                    fh.writelines(_event_stream(log, windows))
        finally:
            for child in children:
                child.close()


def _may_fork() -> bool:
    """Whether this process can fork safely: ``os.fork`` exists and it runs one OS thread.

    A child gets only the forking thread, and every lock that another thread
    held at the fork stays held in it for good.  Threads started outside
    Python, such as numpy's OpenBLAS pool, show only in ``/proc/self/task``.
    """
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc
        import threading

        return threading.active_count() == 1


class _Child:
    """A forked child that formats one part of a trace into an unlinked temporary file.

    The child leaves only by ``os._exit``: it never flushes this process's
    buffers nor runs its ``atexit`` hooks.  ``pid`` is None once the child
    is reaped, or when no temporary file or child could be made.
    """

    def __init__(self, log: EventLog, windows) -> None:
        import tempfile

        self.pid = self.file = None
        try:
            self.file = tempfile.TemporaryFile()
            pid = os.fork()
        except OSError:  # no usable temporary directory, or no room for a process
            return
        if pid == 0:
            status = 1
            try:
                with open(self.file.fileno(), "w", encoding="utf-8", closefd=False) as out:
                    out.writelines(_event_stream(log, windows))
                status = 0
            finally:
                os._exit(status)
        self.pid = pid

    def append_to(self, out) -> bool:
        """Wait for the child, then copy its part to the binary file ``out``; False if none."""
        if self.pid is None:
            return False
        try:
            _, status = os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped elsewhere, as when SIGCHLD is ignored
            status = -1
        self.pid = None
        if status != 0:
            return False
        import shutil  # tempfile imported it already

        self.file.seek(0)
        shutil.copyfileobj(self.file, out)
        return True

    def close(self) -> None:
        """Kill and reap the child if it still runs, and drop its file."""
        if self.pid is not None:
            import signal

            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass
            self.pid = None
        if self.file is not None:
            self.file.close()
