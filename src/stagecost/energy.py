"""Closed-form energy model for SSD-staged (in-situ) vs offline analysis.

Every term is a power multiplied by a busy (or idle) time, so the results
come out in joules.  Busy times are volumes divided by bandwidths:

* ``e_node2ssd``   - staging all generated data into the SSD tier
* ``e_active_ssd`` - moving analysis data through flash -> controller ->
  memory and running the kernel on it, at the staging tier
* ``e_ssd2pfs``    - draining analysis output and checkpoints to the PFS
* ``e_idle_ssd``   - the remainder of the tier's time budget, at idle power
* ``e_io_saving``  - compute-node idle energy not spent waiting on the PFS
  because the SSD tier absorbs writes faster

``insitu_breakdown`` combines them; ``offline_report`` prices the same
analysis done after the run on a pool of server nodes, and ``compare``
puts the two side by side.  The reports are frozen dataclasses, printed by
``asdict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SystemConfig, Workload
from .errors import InfeasibleUtilization, ToolkitError

#: Two totals closer than this (relatively) are reported as a tie.
TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class EnergyBreakdown:
    """The in-situ terms in joules, their signed sum, and the share of tsim saved on I/O."""

    e_node2ssd: float
    e_active_ssd: float
    e_ssd2pfs: float
    e_idle_ssd: float
    e_io_saving: float
    e_ssd_total: float
    t_io_saving: float


@dataclass(frozen=True)
class OfflineReport:
    """The same analysis done after the run on the server pool: its data, time and energy."""

    kernel: str
    data_total: float   # MB written for post-hoc analysis
    t_offline: float    # s, wall time of the offline pass
    e_offline: float    # J, energy of the offline pass


@dataclass(frozen=True)
class ComparisonReport:
    """In-situ against offline, and which of them wins on energy and on time."""

    insitu: EnergyBreakdown
    offline: OfflineReport
    winner_by_energy: str   # "insitu" | "offline" | "tie"
    winner_by_time: str


def e_node2ssd(cfg: SystemConfig, wl: Workload) -> float:
    """Energy to stage all node output into the SSD tier.

    busy time = N * (lambda_a + lambda_c) / bw_host2ssd * tsim
    """
    rate = cfg.compute_nodes * (wl.lambda_a + wl.lambda_c)
    return cfg.p_ssd_busy * (rate / cfg.bw_host2ssd) * cfg.tsim


def e_active_ssd(cfg: SystemConfig, wl: Workload, kernel: str) -> float:
    """Energy to run the named kernel on the staged analysis data.

    Each analysed MB crosses flash->controller, controller->memory and the
    kernel itself, so the per-MB time is the sum of the three reciprocals.
    """
    k = wl.kernel(kernel)
    per_mb = 1.0 / cfg.bw_fm2c + 1.0 / cfg.bw_c2m + 1.0 / k.t_ssd_k
    return cfg.p_ssd_busy * cfg.compute_nodes * wl.lambda_a * per_mb * cfg.tsim


def e_ssd2pfs(cfg: SystemConfig, wl: Workload) -> float:
    """Energy to drain analysis output plus checkpoints to the PFS.

    Each SSD serves N / S nodes and writes at its S * bw_pfs / N share,
    which makes the tier total scale with N^2.
    """
    drained = wl.alpha * wl.lambda_a + wl.lambda_c
    n = float(cfg.compute_nodes)  # n * n overflows to inf, not OverflowError
    return (
        cfg.p_ssd_busy
        * n
        * n
        * drained
        * cfg.tsim
        / (cfg.staging_ssds * cfg.bw_pfs)
    )


def e_idle_ssd(cfg: SystemConfig, e_active: float, e_drain: float) -> float:
    """Idle energy of the tier: the time budget minus analyse/drain busy time.

    The budget is (N / S) * tsim device-seconds.  If the busy time implied
    by the two energies exceeds it, the utilisation is infeasible.
    """
    budget = (cfg.compute_nodes / cfg.staging_ssds) * cfg.tsim
    busy = (e_active + e_drain) / cfg.p_ssd_busy if e_active + e_drain else 0.0
    if busy > budget:
        raise InfeasibleUtilization(
            f"busy time {busy:g} s exceeds the idle budget {budget:g} s"
        )
    return cfg.p_ssd_idle * (budget - busy)


def t_io_saving(cfg: SystemConfig, wl: Workload) -> float:
    """Fraction of tsim each node saves by writing to SSDs instead of the PFS.

    Negative when the SSD tier is actually slower than the PFS for this load.
    """
    rate = wl.lambda_a + wl.lambda_c
    return (
        cfg.compute_nodes * rate / cfg.bw_pfs
        - cfg.staging_ssds * rate / cfg.bw_ssd
    )


def e_io_saving(cfg: SystemConfig, wl: Workload) -> float:
    """Compute-node idle energy reclaimed over the run by faster staging."""
    return cfg.compute_nodes * t_io_saving(cfg, wl) * cfg.p_server_idle * cfg.tsim


def insitu_breakdown(cfg: SystemConfig, wl: Workload, kernel: str) -> EnergyBreakdown:
    """All in-situ terms plus their signed sum.

    ``e_ssd_total = e_node2ssd + e_active_ssd + e_ssd2pfs + e_idle_ssd
    - e_io_saving`` holds exactly (same additions, same order).
    """
    n2s = e_node2ssd(cfg, wl)
    act = e_active_ssd(cfg, wl, kernel)
    drain = e_ssd2pfs(cfg, wl)
    # An overflowed term would otherwise pass for an infinite busy time.
    for name, value in (("e_node2ssd", n2s), ("e_active_ssd", act), ("e_ssd2pfs", drain)):
        if not math.isfinite(value):
            raise ToolkitError(f"energy term {name} is not finite ({value!r} J)")
    idle = e_idle_ssd(cfg, act, drain)
    saving = e_io_saving(cfg, wl)
    return EnergyBreakdown(
        e_node2ssd=n2s,
        e_active_ssd=act,
        e_ssd2pfs=drain,
        e_idle_ssd=idle,
        e_io_saving=saving,
        e_ssd_total=n2s + act + drain + idle - saving,
        t_io_saving=t_io_saving(cfg, wl),
    )


def offline_report(cfg: SystemConfig, wl: Workload, kernel: str) -> OfflineReport:
    """Time and energy to redo the analysis on M server nodes after the run.

    The analysis output (alpha * N * lambda_a * tsim MB) is read back from
    the PFS, whose bandwidth is split evenly across the M nodes, then pushed
    through the kernel at its server-side rate.
    """
    k = wl.kernel(kernel)
    data_total = wl.alpha * cfg.compute_nodes * wl.lambda_a * cfg.tsim
    share = data_total / cfg.offline_nodes
    t_off = share * (1.0 / (cfg.bw_pfs / cfg.offline_nodes) + 1.0 / k.t_server_k)
    e_off = cfg.offline_nodes * cfg.p_server_busy * t_off
    return OfflineReport(
        kernel=k.name, data_total=data_total, t_offline=t_off, e_offline=e_off
    )


def _winner(insitu_metric: float, offline_metric: float) -> str:
    gap = abs(insitu_metric - offline_metric)
    scale = max(abs(insitu_metric), abs(offline_metric))
    if gap <= TIE_REL_TOL * scale:
        return "tie"
    return "insitu" if insitu_metric < offline_metric else "offline"


def compare(cfg: SystemConfig, wl: Workload, kernel: str) -> ComparisonReport:
    """Compare in-situ against offline by total energy and by busy time.

    The in-situ time metric is the tier's busy device-seconds (staging +
    analysis + drain); lower is better on both axes.
    """
    ins = insitu_breakdown(cfg, wl, kernel)
    off = offline_report(cfg, wl, kernel)
    busy_energy = ins.e_node2ssd + ins.e_active_ssd + ins.e_ssd2pfs
    insitu_time = busy_energy / cfg.p_ssd_busy if cfg.p_ssd_busy > 0 else 0.0
    return ComparisonReport(
        insitu=ins,
        offline=off,
        winner_by_energy=_winner(ins.e_ssd_total, off.e_offline),
        winner_by_time=_winner(insitu_time, off.t_offline),
    )
