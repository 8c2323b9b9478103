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
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from . import energy
from .config import SystemConfig, Workload, validate
from .errors import ConfigError, InfeasibleConfig, NonPositiveTick, TickMismatch, TooManyTicks

EVENT_KINDS = ("generation_tick", "stage_complete", "analyze_complete", "drain_complete")

#: Largest number of ticks one run may have; a finer tick is rejected before
#: anything is allocated (the event log holds up to five events per tick).
MAX_TICKS = 10**6

#: SimReport term -> closed-form term it must agree with.
TERM_TO_ANALYTIC = {
    "ssd_ingest": "e_node2ssd",
    "ssd_analyze": "e_active_ssd",
    "ssd_drain": "e_ssd2pfs",
}


@dataclass(frozen=True, slots=True)
class SimEvent:
    time: float
    kind: str
    payload_mb: float


@dataclass(frozen=True)
class SimReport:
    busy_seconds: dict[str, float]
    energies: dict[str, float]
    backlog_mb_max: float
    completed: bool
    events: tuple[SimEvent, ...]


@dataclass(frozen=True)
class DiscrepancyReport:
    relative: dict[str, float]
    tolerance: float
    passed: bool
    failed_terms: tuple[str, ...]


def _fifo(jobs, rate: float, kind: str) -> tuple[list[SimEvent], float]:
    """Serve ``(arrival, mb)`` jobs, in arrival order, on one FIFO server.

    Departures follow Lindley's recursion ``d_i = max(a_i, d_{i-1}) + mb_i / rate``.
    Returns a ``kind`` event at the departure of every job of positive size
    and the busy seconds, the sum of the service times.
    """
    done = []
    d = 0.0
    for a, mb in jobs:
        if mb > 0:
            d = max(a, d) + mb / rate
            done.append(SimEvent(d, kind, mb))
    return done, math.fsum(ev.payload_mb / rate for ev in done)


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

    # heapq.merge is stable: at equal times it yields the stream passed first,
    # so stage completions reach the drain before analysis output, and the
    # event log follows the order of EVENT_KINDS.
    by_time = attrgetter("time")
    busy = {}
    ticks = [SimEvent(i * tick, "generation_tick", batch_mb) for i in range(n_ticks)]
    staged, busy["ssd_ingest"] = _fifo(
        ((ev.time, batch_mb) for ev in ticks), rates["ssd_ingest"], "stage_complete"
    )
    analyzed, busy["ssd_analyze"] = _fifo(
        ((ev.time, analysis_per_tick) for ev in staged), rates["ssd_analyze"], "analyze_complete"
    )
    to_drain = heapq.merge(
        ((ev.time, checkpoint_per_tick) for ev in staged),
        ((ev.time, wl.alpha * ev.payload_mb) for ev in analyzed),
        key=itemgetter(0),
    )
    drained, busy["ssd_drain"] = _fifo(to_drain, rates["ssd_drain"], "drain_complete")

    # Unfinished ingest work just before each tick: the previous batch's
    # departure minus the tick time, times the rate.  Below ``dust`` it is
    # float noise, not real backlog.
    dust = 1e-9 * max(batch_mb, 1.0)
    backlog_max = max(
        ((done.time - ev.time) * rates["ssd_ingest"] for done, ev in zip(staged, ticks[1:])),
        default=0.0,
    )
    if backlog_max <= dust:
        backlog_max = 0.0
    overrun = (staged[-1].time if staged else 0.0) - cfg.tsim
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
        events=tuple(heapq.merge(ticks, staged, analyzed, drained, key=by_time)),
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
    """Dump the event log as TSV (time, kind, payload_mb)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time\tkind\tpayload_mb\n")
        for ev in report.events:
            fh.write(f"{ev.time!r}\t{ev.kind}\t{ev.payload_mb!r}\n")
