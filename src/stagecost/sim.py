"""Queueing simulation of the SSD staging tier.

The tier is modelled as three FIFO stations with fixed service rates, fed by
fixed-tick data generation:

* ``ssd_ingest``  - staging node output, rate ``bw_host2ssd``
* ``ssd_analyze`` - flash -> controller -> memory -> kernel pipeline,
  rate ``1 / (1/bw_fm2c + 1/bw_c2m + 1/t_ssd_k)``
* ``ssd_drain``   - writing to the PFS at the tier's ``S * bw_pfs / N`` share

Each station's departures follow Lindley's recursion
``d_i = max(a_i, d_{i-1}) + mb_i / rate``: ingest serves the ticks, analyze
the staged analysis data, and drain the checkpoints and analysis output in
arrival order.  Busy seconds are the sum of each station's service times
``mb / rate``, counted job by job rather than taken from the closed-form
model, which is what makes this module a usable cross-check for it.
Energies are exactly ``p_ssd_busy * busy_seconds``.

A run keeps numbers only: each station's departure times in an ``array('d')``
(8 bytes a job) and one byte per drain job naming its source.  The event log
(ticks and the three stations' completions) is rebuilt from them only when
``write_trace`` writes it to a file.  It cuts the log at multiples of the
tick into one part per usable CPU and formats the parts at once, this process
the first and forked children the others; each part streams its lines, and
the parts are joined in order into the bytes of one merge over the whole log.
"""

from __future__ import annotations

import errno
import heapq
import math
import os
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter, sub

from .config import SystemConfig, Workload, validate
from .errors import ConfigError, InfeasibleConfig, NonPositiveTick, TickMismatch, TooManyTicks

EVENT_KINDS = ("generation_tick", "stage_complete", "analyze_complete", "drain_complete")

#: Largest number of ticks one run may have; a finer tick is rejected before
#: anything is allocated (a run stores four departure times and one byte per
#: tick).
MAX_TICKS = 10**6

#: Ticks of a run for each part that ``write_trace`` cuts its trace into.  The
#: fork-versus-format break-even lies between 500 and 1000 ticks a part: in a
#: 48 MB process on a 2-vCPU VM, two parts took 1.44 times the one-part time
#: on a 1000-tick run and 0.81 times on a 2000-tick run (medians of 15).
_PART_TICKS = 1000

#: Source of a drain job, as stored in ``SimReport.drain_sources``.
CHECKPOINT, OUTPUT = 0, 1

#: SimReport term -> closed-form term it must agree with.
TERM_TO_ANALYTIC = {
    "ssd_ingest": "e_node2ssd",
    "ssd_analyze": "e_active_ssd",
    "ssd_drain": "e_ssd2pfs",
}


@dataclass(frozen=True)
class SimReport:
    """The outcome of one run, and the numbers its event log is built from.

    ``departures`` maps each station to its departure times in service order
    (``array('d')``), and ``drain_sources`` holds one byte per drain job,
    ``CHECKPOINT`` or ``OUTPUT``, whose size ``drain_mb`` gives in that order.
    Every tick generates ``batch_mb``, of which ``analysis_mb`` is analysed.
    """

    busy_seconds: dict[str, float]
    energies: dict[str, float]
    backlog_mb_max: float
    completed: bool
    tick: float
    n_ticks: int
    batch_mb: float
    analysis_mb: float
    drain_mb: tuple[float, float]
    departures: dict[str, array]
    drain_sources: bytearray


@dataclass(frozen=True)
class DiscrepancyReport:
    relative: dict[str, float]
    tolerance: float
    passed: bool
    failed_terms: tuple[str, ...]


def _fifo(arrivals, mb: float, rate: float) -> tuple[array, float]:
    """Serve jobs of ``mb`` each, arriving at ``arrivals`` in order, on one FIFO server.

    Departures follow Lindley's recursion ``d_i = max(a_i, d_{i-1}) + mb / rate``.
    Returns the departure times and the busy seconds, the sum of the service
    times: n copies of one service time sum to the correctly rounded n times
    it, or inf past the float range.  Jobs of no size are not served.
    """
    done = array("d")
    if not mb > 0:
        return done, 0.0
    service = mb / rate
    append = done.append
    d = 0.0
    for a in arrivals:
        d = (d if d > a else a) + service
        append(d)
    return done, len(done) * service


def _drain(checkpoints, outputs, mb: tuple[float, float], rate: float):
    """Serve checkpoints and analysis output on one FIFO server, in arrival order.

    ``mb`` is the size of a checkpoint and of an output job; at equal arrival
    times the checkpoint goes first.  Both arrival streams are sorted, so
    before each output the checkpoints that arrived by then are served, then
    the checkpoints left after the last output.  The recursion is that of
    ``_fifo``.  Returns the departure times, the source of each job
    (``CHECKPOINT`` or ``OUTPUT``) and the busy seconds.
    """
    cp = checkpoints if mb[CHECKPOINT] > 0 else ()
    out = outputs if mb[OUTPUT] > 0 else ()
    s_cp, s_out = mb[CHECKPOINT] / rate, mb[OUTPUT] / rate
    done = array("d")
    sources = bytearray()
    append, mark = done.append, sources.append
    d = 0.0
    i, n_cp = 0, len(cp)
    for b in out:
        while i < n_cp and cp[i] <= b:
            a = cp[i]
            i += 1
            d = (d if d > a else a) + s_cp
            append(d)
            mark(CHECKPOINT)
        d = (d if d > b else b) + s_out
        append(d)
        mark(OUTPUT)
    for a in cp[i:]:
        d = (d if d > a else a) + s_cp
        append(d)
        mark(CHECKPOINT)
    try:
        busy = math.fsum(chain(repeat(s_cp, n_cp), repeat(s_out, len(out))))
    except OverflowError:  # the terms are positive, so their sum is past the float range
        busy = math.inf
    return done, sources, busy


def simulate(cfg: SystemConfig, wl: Workload, kernel: str, tick: float) -> SimReport:
    """Run the tier for ``tsim`` seconds of generation at the given tick.

    ``tick`` must be positive, divide ``tsim`` and give at most
    ``MAX_TICKS`` ticks, and every station's rate must come out positive
    and finite.  Generation happens at the start of each interval;
    the run itself continues past ``tsim`` until all queues drain, so busy
    seconds always cover the whole workload.
    """
    if not tick > 0:
        raise NonPositiveTick(f"tick must be > 0, got {tick!r}")
    k = wl.kernel(kernel)
    if not cfg.tsim / tick <= MAX_TICKS:
        raise TooManyTicks(
            f"tick {tick!r} gives more than MAX_TICKS={MAX_TICKS} ticks over tsim {cfg.tsim!r}"
        )
    n_ticks = round(cfg.tsim / tick)
    if n_ticks < 1 or abs(n_ticks * tick - cfg.tsim) > 1e-9 * cfg.tsim:
        raise TickMismatch(f"tick {tick!r} does not divide tsim {cfg.tsim!r}")

    rates = {
        "ssd_ingest": cfg.bw_host2ssd,
        "ssd_analyze": 1.0 / (1.0 / cfg.bw_fm2c + 1.0 / cfg.bw_c2m + 1.0 / k.t_ssd_k),
        "ssd_drain": cfg.staging_ssds * cfg.bw_pfs / cfg.compute_nodes,
    }
    for name, rate in rates.items():
        if not 0 < rate < math.inf:
            raise ConfigError(
                f"station {name} has rate {rate!r} MB/s; it must be positive and finite"
            )
    analysis_per_tick = cfg.compute_nodes * wl.lambda_a * tick
    checkpoint_per_tick = cfg.compute_nodes * wl.lambda_c * tick
    batch_mb = analysis_per_tick + checkpoint_per_tick
    drain_mb = (checkpoint_per_tick, wl.alpha * analysis_per_tick)

    # Generation ticks arrive at ingest; every staged batch sends its analysis
    # data to the analyzer and its checkpoint to the drain, which also takes
    # each analysed batch's output.
    busy = {}
    ticks = map(tick.__mul__, range(n_ticks))
    staged, busy["ssd_ingest"] = _fifo(ticks, batch_mb, rates["ssd_ingest"])
    analyzed, busy["ssd_analyze"] = _fifo(staged, analysis_per_tick, rates["ssd_analyze"])
    drained, sources, busy["ssd_drain"] = _drain(staged, analyzed, drain_mb, rates["ssd_drain"])

    # Unfinished ingest work just before each tick: the previous batch's
    # departure minus the tick time, times the rate.  Below ``dust`` it is
    # float noise, not real backlog.  Rounding is monotone, so the largest
    # product is the product of the largest gap.
    dust = 1e-9 * max(batch_mb, 1.0)
    gaps = map(sub, staged, map(tick.__mul__, range(1, n_ticks)))
    backlog_max = max(gaps, default=0.0) * rates["ssd_ingest"]
    if backlog_max <= dust:
        backlog_max = 0.0
    overrun = (staged[-1] if staged else 0.0) - cfg.tsim
    completed = overrun <= 1e-9 * cfg.tsim
    if not completed:
        # After the final arrival the ingest server works without a break,
        # so the leftover at tsim is just the overrun times the rate.
        backlog_max = max(backlog_max, overrun * rates["ssd_ingest"])

    return SimReport(
        busy_seconds=busy,
        energies={name: cfg.p_ssd_busy * busy[name] for name in rates},
        backlog_mb_max=backlog_max,
        completed=completed,
        tick=tick,
        n_ticks=n_ticks,
        batch_mb=batch_mb,
        analysis_mb=analysis_per_tick,
        drain_mb=drain_mb,
        departures={"ssd_ingest": staged, "ssd_analyze": analyzed, "ssd_drain": drained},
        drain_sources=sources,
    )


def _event_stream(report: SimReport, ranges):
    """The events of one part of a run's log as lines of its TSV trace, in time order.

    ``ranges`` gives the part's index range in each of the log's four
    streams: the ticks, then the ingest, analyze and drain departures, each
    read through a memoryview rather than copied.  Each stream's payload is
    fixed (the drain's by its source), so the text after the time is built
    once per stream and source, not once per event.  heapq.merge is lazy and
    stable: at equal times it yields the stream passed first, so the log
    follows the order of EVENT_KINDS.
    """
    (t0, t1), (s0, s1), (a0, a1), (d0, d1) = ranges
    dep = report.departures
    drain_tails = tuple(f"\tdrain_complete\t{mb!r}\n" for mb in report.drain_mb)
    stream = heapq.merge(
        zip(map(report.tick.__mul__, range(t0, t1)),
            repeat(f"\tgeneration_tick\t{report.batch_mb!r}\n")),
        zip(memoryview(dep["ssd_ingest"])[s0:s1],
            repeat(f"\tstage_complete\t{report.batch_mb!r}\n")),
        zip(memoryview(dep["ssd_analyze"])[a0:a1],
            repeat(f"\tanalyze_complete\t{report.analysis_mb!r}\n")),
        zip(memoryview(dep["ssd_drain"])[d0:d1],
            map(drain_tails.__getitem__, memoryview(report.drain_sources)[d0:d1])),
        key=itemgetter(0),
    )
    return (f"{t!r}{tail}" for t, tail in stream)


def compare_energies(
    sim_energies: dict[str, float], analytic: dict[str, float], tol: float
) -> DiscrepancyReport:
    """Relative per-term gap between simulated and closed-form busy energies."""
    relative = {}
    for term in TERM_TO_ANALYTIC:
        a = analytic[term]
        s = sim_energies[term]
        scale = max(abs(a), abs(s))
        relative[term] = abs(s - a) / scale if scale > 0 else 0.0
    failed = tuple(t for t, r in relative.items() if r > tol)
    return DiscrepancyReport(
        relative=relative, tolerance=tol, passed=not failed, failed_terms=failed
    )


def validate_against_analytic(
    cfg: SystemConfig, wl: Workload, kernel: str, tol: float = 1e-9, ticks: int = 50
) -> DiscrepancyReport:
    """Cross-check the closed-form busy terms against a simulation run.

    Only feasible configs qualify: with a growing staging backlog the two
    sides measure different things, so the check refuses to run.  Idle
    energy is excluded; it is a budget remainder, not a busy term.
    """
    from . import energy  # here, so that simulate never loads the closed form

    report = validate(cfg, wl)
    if not report.feasible:
        raise InfeasibleConfig(
            "generation outruns bw_host2ssd; busy terms are not comparable"
        )
    sim = simulate(cfg, wl, kernel, tick=cfg.tsim / ticks)
    analytic = {
        "ssd_ingest": energy.e_node2ssd(cfg, wl),
        "ssd_analyze": energy.e_active_ssd(cfg, wl, kernel),
        "ssd_drain": energy.e_ssd2pfs(cfg, wl),
    }
    return compare_energies(sim.energies, analytic, tol)


def write_trace(report: SimReport, path: str) -> None:
    """Write the event log to ``path`` as TSV (time, kind, payload_mb).

    The log is cut at multiples of the tick into one part per usable CPU,
    and at most one per ``_PART_TICKS`` ticks, each part holding about as
    many events as the next.  This process writes the first part, and forked
    children format the others at the same time, each into an unlinked
    temporary file that is appended to the trace when it is done.  The bytes
    are those of one merge over the whole log.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    _write_parts(report, path, max(1, min(cpus, report.n_ticks // _PART_TICKS)))


def _part_ranges(report: SimReport, parts: int) -> list:
    """Cut the log at multiples of the tick into ``parts`` parts of about equal events.

    Part k holds every event at a time in ``[tick * lo_k, tick * lo_{k+1})``;
    the last part has no upper end.  Every stream is sorted, so its cut at a
    time is a ``bisect_left``: an event at a boundary opens the later part,
    where the merge puts it after the same time's events of earlier streams,
    as the merge over the whole log does.  ``lo_k`` is the first multiple
    with at least k / parts of the events before it.  An overloaded
    station's jobs end ever later than their ticks, so equal numbers of
    ticks would not make equal parts, and its jobs may end long after the
    last tick: ``lo_k`` may pass ``n_ticks``, up to just past the last
    departure, and a part that starts there holds no tick.
    Returns each part's index range in each stream, for ``_event_stream``.
    """
    from bisect import bisect_left

    n = report.n_ticks
    streams = [report.departures[name] for name in ("ssd_ingest", "ssd_analyze", "ssd_drain")]
    events = n + sum(map(len, streams))
    last = max((times[-1] for times in streams if times), default=0.0)
    # a multiple of the tick past every departure; a range's length fits in sys.maxsize
    top = max(n, int(min(last / report.tick, sys.maxsize - 1)) + 1)

    def cuts(j):  # how many of each stream's events come before time tick * j
        return [min(j, n), *(bisect_left(times, report.tick * j) for times in streams)]

    def before(j):
        return sum(cuts(j))

    bounds = [[0] * 4]
    for k in range(1, parts):
        bounds.append(cuts(bisect_left(range(top), k * events // parts, key=before)))
    bounds.append([n, *map(len, streams)])
    return [tuple(zip(bounds[k], bounds[k + 1])) for k in range(parts)]


def _write_parts(report: SimReport, path: str, parts: int) -> None:
    """``write_trace`` with the log cut into ``parts`` parts.

    Parts after the first are forked off only when this process may fork
    (``_may_fork``); a part whose child failed, or could not start, or whose
    file cannot be appended with ``os.sendfile``, is written by this process
    in its turn.  However the writer leaves, no child outlives it.
    """
    ranges = _part_ranges(report, parts)
    with open(path, "w", encoding="utf-8") as fh:
        children = []
        try:
            if parts > 1 and _may_fork():
                for r in ranges[1:]:
                    children.append(_Child(report, r))
            fh.write("time\tkind\tpayload_mb\n")
            fh.writelines(_event_stream(report, ranges[0]))
            for k, r in enumerate(ranges[1:]):
                fh.flush()  # the text written so far goes first
                if not (children and children[k].append_to(fh.fileno())):
                    fh.writelines(_event_stream(report, r))
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

    def __init__(self, report: SimReport, ranges) -> None:
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
                    out.writelines(_event_stream(report, ranges))
                status = 0
            finally:
                os._exit(status)
        self.pid = pid

    def append_to(self, fd: int) -> bool:
        """Wait for the child, then append its part to ``fd``; False if there is none to append.

        An output that ``os.sendfile`` refuses (/dev/full; on macOS and the
        BSDs, anything but a socket) gets no part either, provided nothing
        was sent yet.
        """
        if self.pid is None:
            return False
        try:
            _, status = os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped elsewhere, as when SIGCHLD is ignored
            status = -1
        self.pid = None
        if status != 0:
            return False
        size, sent = os.fstat(self.file.fileno()).st_size, 0
        try:
            while sent < size:
                sent += os.sendfile(fd, self.file.fileno(), sent, size - sent)
        except OSError as exc:
            if sent or exc.errno not in (errno.EINVAL, errno.ENOSYS, errno.ENOTSOCK,
                                         errno.EOPNOTSUPP):
                raise
            return False
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
