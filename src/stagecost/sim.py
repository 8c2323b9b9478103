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
``mb / rate``, summed over the jobs each station serves rather than taken
from the closed-form model, which is what makes this module a usable
cross-check for it.  Energies are exactly ``p_ssd_busy * busy_seconds``.

A run computes only what it reports.  Its backlog and completion come from
the ingest departures, which it keeps in an ``array('d')`` (8 bytes a tick);
the analyze and drain busy seconds need only the number of jobs of each
size, not when they end.  So the analyze and drain recursions run only in
``event_log``, which ``write_trace`` calls to write the event log (ticks and
the three stations' completions) to a file, through ``simtrace``.
"""

from __future__ import annotations

import math
from array import array
from operator import sub
from typing import NamedTuple

from .config import SystemConfig, Workload, validate
from .errors import ConfigError, InfeasibleConfig, NonPositiveTick, TickMismatch, TooManyTicks

EVENT_KINDS = ("generation_tick", "stage_complete", "analyze_complete", "drain_complete")

#: Largest number of ticks one run may have; a finer tick is rejected before
#: anything is allocated (a run stores one departure time per tick, and its
#: event log three more and two bytes).
MAX_TICKS = 10**6

#: Source of a drain job, as stored in ``EventLog.drain_sources``.
CHECKPOINT, OUTPUT = 0, 1

#: SimReport term -> closed-form term it must agree with.
TERM_TO_ANALYTIC = {
    "ssd_ingest": "e_node2ssd",
    "ssd_analyze": "e_active_ssd",
    "ssd_drain": "e_ssd2pfs",
}


class SimReport(NamedTuple):
    """The outcome of one run, and the numbers its event log is built from.

    Every tick generates ``batch_mb``, staged at the times in ``staged``
    (the ingest departures, ``array('d')``), of which ``analysis_mb`` is
    analysed at ``analyze_rate``.  The drain serves checkpoints and analysis
    output, of the sizes ``drain_mb`` gives in that order, at ``drain_rate``.
    ``event_log`` runs those two stations from these numbers.
    ``completed`` and ``backlog_mb_max`` describe the ingest station only:
    analyze and drain may still be busy past ``tsim`` (see ROADMAP item 6).
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
    staged: array
    analyze_rate: float
    drain_rate: float


class EventLog(NamedTuple):
    """The numbers a run's event log is written from, by ``simtrace``.

    ``departures`` maps each station to its departure times in service order
    (``array('d')``), and ``drain_sources`` holds one byte per drain job,
    ``CHECKPOINT`` or ``OUTPUT``, whose size ``drain_mb`` gives in that order.
    The other fields are those of the ``SimReport``.
    """

    tick: float
    n_ticks: int
    batch_mb: float
    analysis_mb: float
    drain_mb: tuple[float, float]
    departures: dict[str, array]
    drain_sources: bytearray


class DiscrepancyReport(NamedTuple):
    """Each busy term's relative gap between simulation and closed form, and the verdict."""

    relative: dict[str, float]
    tolerance: float
    passed: bool
    failed_terms: tuple[str, ...]


def _fifo(arrivals, mb: float, rate: float) -> array:
    """Serve jobs of ``mb`` each, arriving at ``arrivals`` in order, on one FIFO server.

    Departures follow Lindley's recursion ``d_i = max(a_i, d_{i-1}) + mb / rate``.
    Returns the departure times.  Jobs of no size are not served.
    """
    done = array("d")
    if not mb > 0:
        return done
    service = mb / rate
    append = done.append
    d = 0.0
    for a in arrivals:
        d = (d if d > a else a) + service
        append(d)
    return done


def _busy(jobs: int, mb: float, rate: float) -> float:
    """The busy seconds of ``_fifo`` serving ``jobs`` jobs of ``mb`` each.

    That is the sum of their service times: n copies of one service time sum
    to the correctly rounded n times it, or inf past the float range.  Jobs
    of no size are not served.
    """
    return jobs * (mb / rate) if mb > 0 else 0.0


def _drain_busy(checkpoints: int, outputs: int, mb: tuple[float, float], rate: float) -> float:
    """The busy seconds of ``_drain`` serving ``checkpoints`` and ``outputs`` jobs.

    That is the correctly rounded sum of their service times, one integer
    division of the exact fraction.  Jobs of no size are not served.
    """
    s_cp = mb[CHECKPOINT] / rate if checkpoints and mb[CHECKPOINT] > 0 else 0.0
    s_out = mb[OUTPUT] / rate if outputs and mb[OUTPUT] > 0 else 0.0
    try:
        (p1, q1), (p2, q2) = s_cp.as_integer_ratio(), s_out.as_integer_ratio()
        return (checkpoints * p1 * q2 + outputs * p2 * q1) / (q1 * q2)
    except OverflowError:  # a service time of inf, or a sum past the float range
        return math.inf


def _drain(checkpoints, outputs, mb: tuple[float, float], rate: float):
    """Serve checkpoints and analysis output on one FIFO server, in arrival order.

    ``mb`` is the size of a checkpoint and of an output job; at equal arrival
    times the checkpoint goes first.  Both arrival streams are sorted, so
    before each output the checkpoints that arrived by then are served, then
    the checkpoints left after the last output.  The recursion is that of
    ``_fifo``.  Returns the departure times and the source of each job
    (``CHECKPOINT`` or ``OUTPUT``).
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
    return done, sources


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
    # each analysed batch's output.  Only ingest's departure times are needed
    # here: the other two stations' busy seconds follow from their job counts.
    staged = _fifo(map(tick.__mul__, range(n_ticks)), batch_mb, rates["ssd_ingest"])
    analyzed = len(staged) if analysis_per_tick > 0 else 0
    busy = {
        "ssd_ingest": _busy(len(staged), batch_mb, rates["ssd_ingest"]),
        "ssd_analyze": _busy(len(staged), analysis_per_tick, rates["ssd_analyze"]),
        "ssd_drain": _drain_busy(len(staged), analyzed, drain_mb, rates["ssd_drain"]),
    }

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
        staged=staged,
        analyze_rate=rates["ssd_analyze"],
        drain_rate=rates["ssd_drain"],
    )


def event_log(report: SimReport) -> EventLog:
    """The numbers of a run's event log: every station's departure times.

    Runs the analyze and drain stations, with the recursions of ``_fifo`` and
    ``_drain``, on the run's staged batches; ``simulate`` needs only their
    job counts.
    """
    staged = report.staged
    analyzed = _fifo(staged, report.analysis_mb, report.analyze_rate)
    drained, sources = _drain(staged, analyzed, report.drain_mb, report.drain_rate)
    return EventLog(
        tick=report.tick,
        n_ticks=report.n_ticks,
        batch_mb=report.batch_mb,
        analysis_mb=report.analysis_mb,
        drain_mb=report.drain_mb,
        departures={"ssd_ingest": staged, "ssd_analyze": analyzed, "ssd_drain": drained},
        drain_sources=sources,
    )


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

    The log is ``event_log(report)``, and the writer ``simtrace.write``,
    imported on the first call, so that a run without a trace never runs the
    analyze and drain stations nor compiles the writer.
    """
    from . import simtrace

    simtrace.write(event_log(report), path)
