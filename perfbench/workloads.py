"""Seeded inputs, command sequences and output checks for each workload.

``build(workload, seed, directory)`` writes every input the program will see
(JSON configs, CSV tables) into ``directory`` and returns a :class:`Plan`: the
ordered ``stagecost`` commands of one pass, and for each a check that compares
the command's exit code, stdout, stderr and output files with values computed
here, independently of the command.  The same seed always gives the same
files and the same expectations.

The workloads, and the layers each one loads:

* ``plan-sweep``: energy/compare/short simulate on seeded configs, where
  interpreter start and imports dominate and the data layers are idle;
* ``simulate-long``: long simulate runs, where the event loop and the trace
  writer dominate;
* ``table-scan``: map-reduce, regress and plotdata on a long, narrow table:
  CSV parsing, chunk reads, map-reduce and OLS;
* ``wide-pca``: pca on a short, wide table: per-column re-scans and the
  Jacobi solver, which table-scan leaves idle.

Input sizes are fixed; the seed changes only the contents, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from stagecost import energy
from stagecost.config import KernelRate, SystemConfig, Workload, validate
from stagecost.errors import ToolkitError

WORKLOADS = ("plan-sweep", "simulate-long", "table-scan", "wide-pca")

# Sizes, chosen so that one pass of each workload takes a few seconds on a
# 2-core machine and a 20 s run holds several passes.
SWEEP_CONFIGS = 10          # plan-sweep: configs, each run by energy/compare/simulate
SWEEP_TICKS = 100           # plan-sweep: ticks of each short simulate (tick = tsim/100)
LONG_TICKS = 50_000         # simulate-long: ticks of each of its three simulate runs
SCAN_ROWS = 40_000          # table-scan: rows over both CSV files
SCAN_KEYS = 300             # table-scan: distinct values of the text key
SCAN_NA_SHARE = 0.02        # table-scan: share of missing cells in the Gap column
SCAN_BIG_CHUNK = 4096       # table-scan: the large chunk size of the second keycount
PCA_ROWS = 1500             # wide-pca: rows
PCA_COLUMNS = 64            # wide-pca: numeric columns

# Nominal share of a run taken by one pass of each workload on a 2-core
# machine, with its share of the probes and start-up of run.py.  A run of S
# seconds makes round(S / PASS_SECONDS) passes (20 s: 1, 4, 4, 5), so the
# number of passes, and with it the statistic behind every metric, depends
# only on S and never on how fast the program is.
PASS_SECONDS = {"plan-sweep": 14.0, "simulate-long": 5.0, "table-scan": 5.0, "wide-pca": 4.0}

WARNING = "warning: generation rate exceeds bw_host2ssd (staging infeasible)"
SIM_REL_TOL = 1e-9          # simulated vs closed-form busy energies (criterion 04)
PRINTED_REL_TOL = 1e-5      # values the CLI prints with 6 significant digits

Check = Callable[[int, str, str], Optional[str]]


@dataclass(frozen=True)
class Command:
    name: str        # label used in failure reports
    argv: tuple      # arguments after the program name
    check: Check     # (exit code, stdout, stderr) -> None if correct, else a reason


@dataclass(frozen=True)
class Plan:
    commands: tuple
    work: float      # units of work in one pass (see WORK_UNITS)
    sizes: dict      # generated input sizes, reported with every result


WORK_UNITS = {
    "plan-sweep": "commands",
    "simulate-long": "simulated ticks",
    "table-scan": "CSV rows x commands",
    "wide-pca": "CSV cells x commands",
}


def build(workload: str, seed: int, directory: str) -> Plan:
    """Write the inputs of ``workload`` for ``seed`` and return its plan."""
    rng = random.Random(f"{workload}/{seed}")
    nrng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return _GENERATORS[workload](rng, nrng, directory)


def describe(workload: str, plan: Plan, generate_s: float) -> dict:
    """The plan's part of the run context; generate_s is kept out of every metric."""
    return {"inputs": plan.sizes, "work_unit": WORK_UNITS[workload], "work_per_pass": plan.work,
            "commands_per_pass": len(plan.commands), "generate_s": generate_s}


def verdict(command: Command, code: int, out: str, err: str) -> Optional[str]:
    """None when the command behaved correctly, else why not."""
    if "Traceback" in err:
        return "traceback on stderr"
    try:
        return command.check(code, out, err)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"output missing or unparsable: {exc!r}"


# -- shared checks ---------------------------------------------------------------


def _close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= abs_ + rel * abs(want)


def _expect_error(code: int, err: str) -> Optional[str]:
    if code != 1:
        return f"exit {code}, expected 1"
    lines = err.splitlines()
    if not lines or not lines[-1].startswith("error: "):
        return "rejection without an 'error:' line"
    return None


def _expect_ok(code: int) -> Optional[str]:
    return None if code == 0 else f"exit {code}, expected 0"


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


# -- energy model workloads --------------------------------------------------------

_INT_FIELDS = ("compute_nodes", "staging_ssds", "offline_nodes")
_INVALID = (
    ("alpha", lambda doc, rng: rng.uniform(1.5, 3.0)),
    ("p_ssd_idle", lambda doc, rng: doc["p_ssd_busy"] + rng.uniform(1.0, 5.0)),
    ("bw_pfs", lambda doc, rng: -rng.uniform(100.0, 1000.0)),
    ("staging_ssds", lambda doc, rng: 0),
)


_ENERGY_TERMS = {"e_node2ssd": "ssd_ingest", "e_active_ssd": "ssd_analyze",
                 "e_ssd2pfs": "ssd_drain"}


def _busy_seconds(doc: dict, kernel: dict) -> dict:
    """Closed-form busy seconds of the three stations over the whole run."""
    n, tsim = doc["compute_nodes"], doc["tsim"]
    per_mb = 1.0 / doc["bw_fm2c"] + 1.0 / doc["bw_c2m"] + 1.0 / kernel["t_ssd_k"]
    drained = doc["alpha"] * doc["lambda_a"] + doc["lambda_c"]
    return {
        "ssd_ingest": n * (doc["lambda_a"] + doc["lambda_c"]) / doc["bw_host2ssd"] * tsim,
        "ssd_analyze": n * doc["lambda_a"] * per_mb * tsim,
        "ssd_drain": n * n * drained * tsim / (doc["staging_ssds"] * doc["bw_pfs"]),
    }


def _config_doc(rng: random.Random, kind: str, n_kernels: int) -> dict:
    """A config in the ranges of the test suite's random_feasible.

    ``kind`` is "feasible" (staging keeps up and the tier's idle budget is
    not exceeded), "overloaded" (generation outruns bw_host2ssd) or
    "invalid" (one invariant that validate checks is violated).
    """
    n = rng.randint(1, 8)
    tick = rng.choice([0.5, 1.0, 2.0])
    doc = {
        "compute_nodes": n,
        "staging_ssds": rng.randint(1, 4),
        "offline_nodes": rng.randint(1, 4),
        "bw_host2ssd": rng.uniform(500.0, 20000.0),
        "bw_fm2c": rng.uniform(100.0, 5000.0),
        "bw_c2m": rng.uniform(100.0, 5000.0),
        "bw_ssd": rng.uniform(100.0, 5000.0),
        "bw_pfs": rng.uniform(1000.0, 20000.0),
        "p_ssd_busy": rng.uniform(5.0, 20.0),
        "p_ssd_idle": rng.uniform(0.0, 5.0),
        "p_server_busy": rng.uniform(50.0, 200.0),
        "p_server_idle": rng.uniform(1.0, 20.0),
        "tsim": tick * rng.randint(20, 60),
    }
    load = rng.uniform(1.2, 2.0) if kind == "overloaded" else rng.uniform(0.1, 0.9)
    lam_total = doc["bw_host2ssd"] / n * load
    lam_a = lam_total * rng.uniform(0.05, 0.95)
    doc.update(
        lambda_a=lam_a,
        lambda_c=lam_total - lam_a,
        alpha=rng.uniform(0.1, 1.0),
        kernels=[
            {"name": f"k{i + 1}", "t_ssd_k": rng.uniform(50.0, 2000.0),
             "t_server_k": rng.uniform(50.0, 2000.0)}
            for i in range(n_kernels)
        ],
    )
    if kind != "overloaded":
        # Scale the rates down until analysis and drain fit in the idle budget.
        budget = n / doc["staging_ssds"] * doc["tsim"]
        busy = max(
            _busy_seconds(doc, k)["ssd_analyze"] + _busy_seconds(doc, k)["ssd_drain"]
            for k in doc["kernels"]
        )
        if busy > 0.8 * budget:
            shrink = 0.8 * budget / busy
            doc["lambda_a"] *= shrink
            doc["lambda_c"] *= shrink
    if kind == "invalid":
        field, bad = rng.choice(_INVALID)
        doc[field] = bad(doc, rng)
    return doc


def _model(doc: dict) -> tuple[SystemConfig, Workload]:
    """The config and workload a JSON document describes, built in-process."""
    cfg = SystemConfig(**{
        f: int(doc[f]) if f in _INT_FIELDS else float(doc[f])
        for f in SystemConfig.__dataclass_fields__
    })
    wl = Workload(
        lambda_a=float(doc["lambda_a"]),
        lambda_c=float(doc["lambda_c"]),
        alpha=float(doc["alpha"]),
        kernels=tuple(KernelRate(k["name"], float(k["t_ssd_k"]), float(k["t_server_k"]))
                      for k in doc["kernels"]),
    )
    return cfg, wl


def _write_config(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _energy_check(doc: dict, kernel: str, call) -> Check:
    """energy/compare: stdout equals asdict of the in-process call exactly,
    and its busy terms agree with the closed form written out here."""
    cfg, wl = _model(doc)
    report = validate(cfg, wl)
    expected, busy = None, {}  # expected None: the command must reject the config
    if report.passed:
        try:
            expected = asdict(call(cfg, wl, kernel))
        except ToolkitError:
            pass
        k = next(k for k in doc["kernels"] if k["name"] == kernel)
        busy = _busy_seconds(doc, k)

    def check(code: int, out: str, err: str) -> Optional[str]:
        if not report.passed or expected is None:
            return _expect_error(code, err)
        if (WARNING in err) == report.feasible:
            return "feasibility warning wrong"
        failure = _expect_ok(code)
        if failure:
            return failure
        payload = json.loads(out)
        if payload != expected:
            return "JSON differs from the in-process result"
        terms = payload.get("insitu", payload)
        for term, station in _ENERGY_TERMS.items():
            if not _close(terms[term], doc["p_ssd_busy"] * busy[station], SIM_REL_TOL):
                return f"{term} is off the closed form by more than {SIM_REL_TOL:g}"
        return None

    return check


def _simulate_check(doc: dict, kernel: str, ticks: int, trace: Optional[str]) -> Check:
    """simulate: energies against the closed form, backlog, completion, trace."""
    cfg, wl = _model(doc)
    report = validate(cfg, wl)
    k = next(k for k in doc["kernels"] if k["name"] == kernel)
    busy = _busy_seconds(doc, k) if report.passed else {}
    generated = doc["compute_nodes"] * (doc["lambda_a"] + doc["lambda_c"]) * doc["tsim"]
    excess = generated - doc["bw_host2ssd"] * doc["tsim"]
    # generation + stage, then analyze and two drains when their volumes are non-zero
    per_tick = (2 + (doc["lambda_a"] > 0) + (doc["lambda_c"] > 0)
                + (doc["alpha"] * doc["lambda_a"] > 0))

    def check(code: int, out: str, err: str) -> Optional[str]:
        if not report.passed:
            return _expect_error(code, err)
        if (WARNING in err) == report.feasible:
            return "feasibility warning wrong"
        failure = _expect_ok(code)
        if failure:
            return failure
        payload = json.loads(out)
        if report.feasible:
            if payload["completed"] is not True or payload["backlog_mb_max"] != 0.0:
                return "feasible run did not drain cleanly"
            for term, seconds in busy.items():
                if not _close(payload["energies"][term], doc["p_ssd_busy"] * seconds, SIM_REL_TOL):
                    return f"{term} energy is off the closed form by more than {SIM_REL_TOL:g}"
        else:
            if payload["completed"] is not False:
                return "overloaded run reports completed"
            if not _close(payload["backlog_mb_max"], excess, SIM_REL_TOL):
                return "backlog differs from the generated excess"
        if trace is not None:
            lines = _count_lines(trace)
            if lines != ticks * per_tick + 1:
                return f"trace has {lines} lines, expected events + 1 = {ticks * per_tick + 1}"
        return None

    return check


def _plan_sweep(rng: random.Random, nrng, directory: str) -> Plan:
    # About 10% invalid and 20% overloaded configs, at seeded positions.
    kinds = ["invalid"] * (SWEEP_CONFIGS // 10) + ["overloaded"] * (SWEEP_CONFIGS // 5)
    kinds += ["feasible"] * (SWEEP_CONFIGS - len(kinds))
    rng.shuffle(kinds)
    commands = []
    kernels = size = 0
    for i, kind in enumerate(kinds):
        doc = _config_doc(rng, kind, rng.randint(1, 8))
        kernels += len(doc["kernels"])
        path = _write_config(directory, f"sweep{i:02d}.json", doc)
        size += os.path.getsize(path)
        kernel = rng.choice(doc["kernels"])["name"]
        common = ("--config", path, "--kernel", kernel)
        commands += [
            Command(f"energy[{i}]", ("energy",) + common,
                    _energy_check(doc, kernel, energy.insitu_breakdown)),
            Command(f"compare[{i}]", ("compare",) + common,
                    _energy_check(doc, kernel, energy.compare)),
            Command(f"simulate[{i}]",
                    ("simulate",) + common + ("--tick", repr(doc["tsim"] / SWEEP_TICKS)),
                    _simulate_check(doc, kernel, SWEEP_TICKS, None)),
        ]
    sizes = {"configs": SWEEP_CONFIGS, "kernels": kernels, "bytes": size,
             "ticks_per_simulate": SWEEP_TICKS, "invalid": kinds.count("invalid"),
             "overloaded": kinds.count("overloaded")}
    return Plan(tuple(commands), float(len(commands)), sizes)


def _simulate_long(rng: random.Random, nrng, directory: str) -> Plan:
    trace = os.path.join(directory, "events.tsv")
    commands = []
    for kind, trace_path in (("feasible", None), ("overloaded", None), ("feasible", trace)):
        doc = _config_doc(rng, kind, 1)
        path = _write_config(directory, f"long-{kind}-{len(commands)}.json", doc)
        argv = ("simulate", "--config", path, "--kernel", "k1",
                "--tick", repr(doc["tsim"] / LONG_TICKS))
        if trace_path:
            argv += ("--trace", trace_path)
        name = f"simulate[{kind}{', trace' if trace_path else ''}]"
        commands.append(Command(name, argv, _simulate_check(doc, "k1", LONG_TICKS, trace_path)))
    sizes = {"simulate_runs": len(commands), "ticks_per_run": LONG_TICKS}
    return Plan(tuple(commands), float(len(commands) * LONG_TICKS), sizes)


# -- table workloads ------------------------------------------------------------------


def _write_csv(path: str, header: list, columns: list) -> int:
    """Write columns of Python values (None for a missing cell); returns bytes."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join("NA" if v is None else (v if isinstance(v, str) else repr(v))
                              for v in row))
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    return len(data.encode())


def _progress_lines(n_chunks: int, n_keys: int) -> list:
    lines = ["Map 0% Reduce 0%"]
    lines += [f"Map {100 * d // n_chunks}% Reduce 0%" for d in range(1, n_chunks + 1)]
    lines += [f"Map 100% Reduce {100 * d // n_keys}%" for d in range(1, n_keys + 1)]
    return lines if n_keys else lines + ["Map 100% Reduce 100%"]


def _mapreduce_check(progress: list, results: list) -> Check:
    def check(code: int, out: str, err: str) -> Optional[str]:
        failure = _expect_ok(code)
        if failure:
            return failure
        lines = out.splitlines()
        if lines[:len(progress)] != progress:
            return "progress trace differs"
        if lines[len(progress):] != results:
            return "job result differs from the generated table"
        return None

    return check


def _fmt6(value: float) -> str:
    return format(float(value), ".6g")


def _regress_check(n: int, names: list, coef, r_square: float, f_stat: float,
                   sig_f: float) -> Check:
    def check(code: int, out: str, err: str) -> Optional[str]:
        failure = _expect_ok(code)
        if failure:
            return failure
        lines = out.splitlines()
        fields = {}
        for line in lines:
            tokens = line.split()
            if line.startswith("R Square"):
                fields["r_square"] = float(tokens[-1])
            elif line.startswith("Observations"):
                fields["n"] = int(tokens[-1])
            elif tokens[:1] == ["Regression"] and len(tokens) == 6:
                fields["f"], fields["sig_f"] = float(tokens[4]), float(tokens[5])
        got = dict(line.split() for line in lines[lines.index("Coefficients") + 1:])
        if fields["n"] != n:
            return "wrong observation count"
        if not _close(fields["r_square"], r_square, PRINTED_REL_TOL, 1e-12):
            return "R Square differs from lstsq"
        if not _close(fields["f"], f_stat, PRINTED_REL_TOL):
            return "F differs from lstsq"
        if not _close(fields["sig_f"], sig_f, PRINTED_REL_TOL, 1e-12):
            return "Significance F differs from scipy.stats.f.sf"
        for name, want in zip(["Intercept"] + names, coef):
            if not _close(float(got[name]), want, PRINTED_REL_TOL, 1e-12):
                return f"coefficient {name} differs from lstsq"
        return None

    return check


def _plotdata_check(path: str, x: list, y: list, intercept: float, slope: float) -> Check:
    def check(code: int, out: str, err: str) -> Optional[str]:
        failure = _expect_ok(code)
        if failure:
            return failure
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "x\ty\tfitted" or len(lines) != len(x) + 1:
            return "plot file has the wrong header or length"
        for line, xv, yv in zip(lines[1:], x, y):
            xs, ys, fs = line.split("\t")
            if float(xs) != xv or float(ys) != yv:
                return "plot series differs from the input columns"
            if not _close(float(fs), intercept + slope * xv, 1e-9, 1e-9 * abs(intercept)):
                return "fitted line differs from lstsq"
        return None

    return check


def _table_scan(rng: random.Random, nrng, directory: str) -> Plan:
    rows = SCAN_ROWS
    weights = 1.0 / np.arange(1, SCAN_KEYS + 1) ** 0.8
    keys = [f"K{int(i):03d}" for i in nrng.choice(SCAN_KEYS, size=rows, p=weights / weights.sum())]
    gap = np.round(nrng.gamma(2.0, 30.0, rows), 2).tolist()
    gap = [None if miss else v for v, miss in zip(gap, nrng.random(rows) < SCAN_NA_SHARE)]
    x = np.round(nrng.normal(0.0, 1.0, (rows, 3)) * [10.0, 5.0, 2.0] + [50.0, 20.0, 0.0], 4)
    # Weak effects, so that Significance F is a real tail probability rather
    # than 0: each predictor adds about 2 to the expected F.
    half = rows // 2
    beta = [rng.uniform(1.0, 2.0) * math.sqrt(2.0 / half) / s for s in (10.0, 5.0, 2.0)]
    y = np.round(1.5 + x @ beta + nrng.normal(0.0, 1.0, rows), 4)
    header = ["Key", "Gap", "X1", "X2", "X3", "Y"]
    columns = [keys, gap] + [x[:, j].tolist() for j in range(3)] + [y.tolist()]
    part1, part2 = os.path.join(directory, "scan-1.csv"), os.path.join(directory, "scan-2.csv")
    size = _write_csv(part1, header, [c[:half] for c in columns])
    size += _write_csv(part2, header, [c[half:] for c in columns])

    counts = Counter(k for k, g in zip(keys, gap) if g is not None)
    key_lines = [f"{k}\t{_fmt6(counts[k])}" for k in sorted(counts)]
    max_line = [f"MaxElapsedTime\t{_fmt6(max(g for g in gap if g is not None))}"]

    xs, ys = x[:half], y[:half]
    design = np.hstack([np.ones((half, 1)), xs])
    coef = np.linalg.lstsq(design, ys, rcond=None)[0]
    ss_res = float(((ys - design @ coef) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    f_stat = (ss_tot - ss_res) / 3 / (ss_res / (half - 4))
    from scipy.stats import f as f_dist  # oracle only; the program never uses scipy
    sig_f = float(f_dist.sf(f_stat, 3, half - 4))
    line = np.linalg.lstsq(design[:, :2], ys, rcond=None)[0]

    plot = os.path.join(directory, "plot.tsv")
    both = ("--input", part1, part2)
    keycount = ("mapreduce", "run", "--job", "keycount", "--key", "Key", "--column", "Gap")
    chunks = lambda size: -(-rows // size)  # noqa: E731
    commands = (
        Command("keycount[chunk 4]", keycount + both,
                _mapreduce_check(_progress_lines(chunks(4), len(counts)), key_lines)),
        Command(f"keycount[chunk {SCAN_BIG_CHUNK}]",
                keycount + both + ("--chunk-size", str(SCAN_BIG_CHUNK)),
                _mapreduce_check(_progress_lines(chunks(SCAN_BIG_CHUNK), len(counts)), key_lines)),
        Command("max[chunk 4]", ("mapreduce", "run", "--job", "max", "--column", "Gap") + both,
                _mapreduce_check(_progress_lines(chunks(4), 1), max_line)),
        Command("regress", ("regress", "--input", part1, "--dependent", "Y",
                            "--independents", "X1", "X2", "X3"),
                _regress_check(half, ["X1", "X2", "X3"], coef.tolist(),
                               1.0 - ss_res / ss_tot, f_stat, sig_f)),
        Command("plotdata", ("plotdata", "--input", part1, "--x", "X1", "--y", "Y",
                             "--fit", "--output", plot),
                _plotdata_check(plot, xs[:, 0].tolist(), ys.tolist(), float(line[0]),
                                float(line[1]))),
    )
    sizes = {"rows": rows, "columns": len(header), "bytes": size, "keys": len(counts),
             "missing_cells": sum(g is None for g in gap), "regress_rows": half}
    return Plan(commands, float(3 * rows + 2 * half), sizes)


def _pca_check(p: int, eigenvalues: list, cumulative: list, threshold: float) -> Check:
    # The selected count is only checked where the oracle is clear of the
    # threshold, so rounding cannot flip it.
    clear = all(abs(c - threshold) > 1e-9 for c in cumulative)
    selected = next(m for m, c in enumerate(cumulative, start=1) if c >= threshold or m == p)

    def check(code: int, out: str, err: str) -> Optional[str]:
        failure = _expect_ok(code)
        if failure:
            return failure
        lines = out.splitlines()
        if lines[0].split() != ["Component", "Eigenvalue", "CumulativeVariance"]:
            return "pca header differs"
        got = [float(line.split()[1]) for line in lines[1:p + 1]]
        for value, want in zip(got, eigenvalues):
            if not _close(value, want, PRINTED_REL_TOL, 1e-9):
                return "eigenvalues differ from numpy.linalg.eigvalsh"
        if not _close(sum(got), p, PRINTED_REL_TOL):
            return "eigenvalues do not sum to p"
        count = int(lines[p + 1].rsplit(":", 1)[1])
        if clear and count != selected:
            return "selected component count differs"
        if len(json.loads("\n".join(lines[p + 2:]))["dimensions"]) != count:
            return "schema suggestion has the wrong number of dimensions"
        return None

    return check


def _wide_pca(rng: random.Random, nrng, directory: str) -> Plan:
    n, p = PCA_ROWS, PCA_COLUMNS
    rank = rng.randint(3, 6)
    factors = nrng.normal(0.0, 1.0, (n, rank))
    loadings = nrng.normal(0.0, 1.0, (p, rank)) * nrng.uniform(0.3, 1.5, rank)
    data = np.round(factors @ loadings.T + nrng.normal(0.0, rng.uniform(0.3, 1.0), (n, p)), 5)
    path = os.path.join(directory, "wide.csv")
    size = _write_csv(path, [f"V{j + 1:02d}" for j in range(p)],
                      [data[:, j].tolist() for j in range(p)])
    eigenvalues = np.sort(np.linalg.eigvalsh(np.corrcoef(data, rowvar=False)))[::-1]
    cumulative = (np.cumsum(eigenvalues) / p).tolist()
    commands = tuple(
        Command(f"pca[threshold {threshold}]",
                ("pca", "--input", path, "--threshold", str(threshold), "--cutoff", str(cutoff)),
                _pca_check(p, eigenvalues.tolist(), cumulative, threshold))
        for threshold, cutoff in ((0.8, 0.5), (0.9, 0.3))
    )
    sizes = {"rows": n, "columns": p, "bytes": size, "rank": rank}
    return Plan(commands, float(len(commands) * n * p), sizes)


_GENERATORS = {
    "plan-sweep": _plan_sweep,
    "simulate-long": _simulate_long,
    "table-scan": _table_scan,
    "wide-pca": _wide_pca,
}
