"""Machine and workload parameters for the staging-energy model.

A :class:`SystemConfig` describes the cluster: compute nodes that generate
data, an SSD staging tier that absorbs it, and a pool of server nodes that
can do the same analysis after the fact.  A :class:`Workload` describes what
the nodes produce per second and which analysis kernels may run on it.

Both are frozen dataclasses, whose fields the benchmark under ``perfbench/``
reads through ``dataclasses``.  ``validate`` never raises:
it returns a report listing every violated invariant, plus a feasibility
flag saying whether the staging tier can absorb the offered load at all.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError, KernelNotFound


@dataclass(frozen=True)
class KernelRate:
    """Processing rates (MB/s) of one analysis kernel.

    ``t_ssd_k`` is the rate when the kernel runs on the staging tier,
    ``t_server_k`` the rate on an offline server node.
    """

    name: str
    t_ssd_k: float
    t_server_k: float


@dataclass(frozen=True)
class SystemConfig:
    """The cluster: compute nodes, the SSD staging tier, the offline servers and the PFS."""

    compute_nodes: int        # N, nodes producing data
    staging_ssds: int         # S, SSDs in the staging tier
    offline_nodes: int        # M, server nodes used for offline analysis
    bw_host2ssd: float        # MB/s, aggregate node -> SSD tier
    bw_fm2c: float            # MB/s, flash medium -> SSD controller
    bw_c2m: float             # MB/s, SSD controller -> memory
    bw_ssd: float             # MB/s, sustained bandwidth of one SSD
    bw_pfs: float             # MB/s, aggregate parallel file system
    p_ssd_busy: float         # W, one SSD while busy
    p_ssd_idle: float         # W, one SSD while idle
    p_server_busy: float      # W, one server node while busy
    p_server_idle: float      # W, one server node while idle
    tsim: float               # s, length of the modelled run


@dataclass(frozen=True)
class Workload:
    """What each compute node produces per second, and the kernels that may analyse it."""

    lambda_a: float                   # MB/s per node, data to be analysed
    lambda_c: float                   # MB/s per node, checkpoint data
    alpha: float                      # output/input ratio of analysis, in (0, 1]
    kernels: tuple[KernelRate, ...]

    def kernel(self, name: str) -> KernelRate:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KernelNotFound(f"kernel {name!r} is not part of the workload")


@dataclass(frozen=True)
class ValidationReport:
    """The invariants a config violates, and whether the staging tier can keep up."""

    passed: bool
    violations: tuple[str, ...]
    feasible: bool


def validate(cfg: SystemConfig, wl: Workload) -> ValidationReport:
    """Check every model invariant and the staging feasibility condition.

    Feasibility (``compute_nodes * (lambda_a + lambda_c) <= bw_host2ssd``)
    is reported as a flag, not a violation: an infeasible system is still a
    meaningful thing to simulate, it just cannot keep up.
    """
    bad: list[str] = []

    def check(ok: bool, rule: str) -> None:
        if not ok:
            bad.append(rule)

    check(cfg.compute_nodes >= 1, "compute_nodes >= 1")
    check(cfg.staging_ssds >= 1, "staging_ssds >= 1")
    check(cfg.offline_nodes >= 1, "offline_nodes >= 1")
    check(cfg.bw_host2ssd > 0, "bw_host2ssd > 0")
    check(cfg.bw_fm2c > 0, "bw_fm2c > 0")
    check(cfg.bw_c2m > 0, "bw_c2m > 0")
    check(cfg.bw_ssd > 0, "bw_ssd > 0")
    check(cfg.bw_pfs > 0, "bw_pfs > 0")
    check(cfg.tsim > 0, "tsim > 0")
    # busy time is recovered as energy / p_ssd_busy, so a zero power would hide it
    check(cfg.p_ssd_busy > 0, "p_ssd_busy > 0")
    check(cfg.p_ssd_idle >= 0, "p_ssd_idle >= 0")
    check(cfg.p_ssd_idle <= cfg.p_ssd_busy, "p_ssd_idle <= p_ssd_busy")
    check(cfg.p_server_idle >= 0, "p_server_idle >= 0")
    check(cfg.p_server_idle <= cfg.p_server_busy, "p_server_idle <= p_server_busy")
    check(wl.lambda_a >= 0, "lambda_a >= 0")
    check(wl.lambda_c >= 0, "lambda_c >= 0")
    check(wl.lambda_a + wl.lambda_c > 0, "lambda_a + lambda_c > 0")
    check(0 < wl.alpha <= 1, "alpha in (0, 1]")
    check(len(wl.kernels) > 0, "kernels non-empty")
    for k in wl.kernels:
        check(k.t_ssd_k > 0, f"kernels[{k.name}].t_ssd_k > 0")
        check(k.t_server_k > 0, f"kernels[{k.name}].t_server_k > 0")
    numbers = {f: getattr(cfg, f) for f in _CFG_FIELDS}
    numbers.update(lambda_a=wl.lambda_a, lambda_c=wl.lambda_c, alpha=wl.alpha)
    for k in wl.kernels:
        numbers[f"kernels[{k.name}].t_ssd_k"] = k.t_ssd_k
        numbers[f"kernels[{k.name}].t_server_k"] = k.t_server_k
    for name, value in numbers.items():
        check(math.isfinite(value), f"{name} is finite")

    feasible = cfg.compute_nodes * (wl.lambda_a + wl.lambda_c) <= cfg.bw_host2ssd
    return ValidationReport(passed=not bad, violations=tuple(bad), feasible=feasible)


_CFG_FIELDS = tuple(SystemConfig.__dataclass_fields__)
_WL_FIELDS = ("lambda_a", "lambda_c", "alpha", "kernels")
_INT_FIELDS = {"compute_nodes", "staging_ssds", "offline_nodes"}
_KERNEL_FIELDS = ("name", "t_ssd_k", "t_server_k")


def load_config(path: str | os.PathLike) -> tuple[SystemConfig, Workload]:
    """Load a flat JSON document holding both system and workload fields.

    Keys must match the field names exactly; ``kernels`` is a list of
    ``{"name": ..., "t_ssd_k": ..., "t_server_k": ...}`` objects.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text ({exc.reason})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")

    wanted = set(_CFG_FIELDS) | set(_WL_FIELDS)
    missing = sorted(wanted - set(doc))
    unknown = sorted(set(doc) - wanted)
    if missing:
        raise ConfigError("config is missing keys: " + ", ".join(missing))
    if unknown:
        raise ConfigError("config has unknown keys: " + ", ".join(unknown))

    def num(v, name: str) -> float:
        if not isinstance(v, bool) and isinstance(v, (int, float)):
            try:
                if math.isfinite(v):
                    if name not in _INT_FIELDS:
                        return float(v)
                    if v == int(v):
                        return int(v)
                    raise ConfigError(f"config key {name!r} must be a whole number")
            except OverflowError:  # an integer beyond the float range
                pass
        raise ConfigError(f"config key {name!r} must be a finite number")

    kernels = doc["kernels"]
    if not isinstance(kernels, list):
        raise ConfigError("config key 'kernels' must be a list")
    rates = []
    for i, entry in enumerate(kernels):
        if not isinstance(entry, dict) or set(entry) != set(_KERNEL_FIELDS):
            raise ConfigError(
                f"kernels[{i}] must be an object with keys {', '.join(_KERNEL_FIELDS)}"
            )
        if not isinstance(entry["name"], str):
            raise ConfigError(f"kernels[{i}].name must be a string")
        if any(k.name == entry["name"] for k in rates):
            raise ConfigError(f"kernels[{i}].name {entry['name']!r} is a duplicate")
        rates.append(
            KernelRate(
                name=entry["name"],
                t_ssd_k=num(entry["t_ssd_k"], f"kernels[{i}].t_ssd_k"),
                t_server_k=num(entry["t_server_k"], f"kernels[{i}].t_server_k"),
            )
        )

    cfg = SystemConfig(**{f: num(doc[f], f) for f in _CFG_FIELDS})
    wl = Workload(
        lambda_a=num(doc["lambda_a"], "lambda_a"),
        lambda_c=num(doc["lambda_c"], "lambda_c"),
        alpha=num(doc["alpha"], "alpha"),
        kernels=tuple(rates),
    )
    return cfg, wl
