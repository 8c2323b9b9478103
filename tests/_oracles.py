"""Independent reference computations the tests check the library against.

Nothing here imports from the package's numeric internals: the F CDF is
integrated numerically instead of using a continued fraction, the CSV
reference parse is a plain one-shot reader with no chunking or cursor, and
the staging-tier simulation builds one event object per event and merges
the streams on a heap.  The column cache's reference is the same code with
the cache out of reach, so that every result is made, none read back.
"""

from __future__ import annotations

import csv
import heapq
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import pytest

from stagecost import colcache
from stagecost.datastore import open_datastore
from stagecost.errors import ToolkitError


# -- F distribution by quadrature ------------------------------------------------


def f_cdf_by_quadrature(x: float, d1: float, d2: float, tol: float = 1e-11) -> float:
    """P(F <= x) by adaptive Simpson integration of the F density.

    Substituting t = u**2 removes the integrable endpoint singularity the
    density has at 0 for d1 == 1, so plain Simpson converges everywhere.
    """
    if x <= 0.0:
        return 0.0
    a, b = d1 / 2.0, d2 / 2.0
    lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = 2.0 * math.exp(lognorm) * (d1 / d2) ** a

    def integrand(u: float) -> float:
        return front * u ** (2.0 * a - 1.0) * (1.0 + d1 * u * u / d2) ** (-(a + b))

    return _adaptive_simpson(integrand, 0.0, math.sqrt(x), tol)


def _adaptive_simpson(f, lo: float, hi: float, tol: float) -> float:
    def simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        mid = 0.5 * (a + b)
        lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a, mid)
        right = simpson(fm, frm, fb, mid, b)
        gap = left + right - whole
        if depth >= 60 or abs(gap) <= 15.0 * eps:
            return left + right + gap / 15.0
        return recurse(a, mid, fa, flm, fm, left, eps / 2.0, depth + 1) + recurse(
            mid, b, fm, frm, fb, right, eps / 2.0, depth + 1
        )

    mid = 0.5 * (lo + hi)
    fa, fm, fb = f(lo), f(mid), f(hi)
    return recurse(lo, hi, fa, fm, fb, simpson(fa, fm, fb, lo, hi), tol, 0)


# -- plain CSV reference parse -----------------------------------------------------


def read_csv_table(paths, markers=("NA",)):
    """One-shot parse of CSV files sharing a header.

    Returns (names, kinds, rows, missing) where kinds[i] is "numeric" or
    "text", missing numeric cells are None, and a column counts as numeric
    when every non-missing cell is ASCII with no ``_`` and parses as a
    finite float.
    """
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    markers = set(markers)
    names = None
    raw = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [c.strip() for c in next(reader)]
            if names is None:
                names = header
            assert header == names
            raw.extend([c.strip() for c in row] for row in reader if row)

    def parses(cell):
        if "_" in cell or not cell.isascii():
            return False
        try:
            return math.isfinite(float(cell))
        except ValueError:
            return False

    kinds = []
    for i in range(len(names)):
        cells = [row[i] for row in raw if row[i] not in markers]
        kinds.append("numeric" if all(parses(c) for c in cells) else "text")

    rows, missing = [], []
    for row in raw:
        values, flags = [], []
        for i, cell in enumerate(row):
            if cell in markers:
                values.append(None)
                flags.append(True)
            else:
                values.append(float(cell) if kinds[i] == "numeric" else cell)
                flags.append(False)
        rows.append(tuple(values))
        missing.append(tuple(flags))
    return names, kinds, rows, missing


def chunk_as_plain(chunk):
    """Datastore chunk -> (names, rows-with-None-for-missing, flags) for comparison.

    The chunk holds columns; the reference parse holds rows, so both the
    values and the flags are turned into one tuple per row.
    """
    names = [col.name for col in chunk.schema]
    flags = list(zip(*chunk.missing))
    rows = []
    for row, row_flags in zip(zip(*chunk.columns), flags):
        rows.append(tuple(None if miss else v for v, miss in zip(row, row_flags)))
    return names, rows, flags


# -- the column cache out of reach -------------------------------------------------


def _unreachable(paths, tag):
    raise PermissionError("the cache is out of reach")


@contextmanager
def cache_out_of_reach():
    """Run the block as the code runs when the column cache cannot be reached:
    every lookup meets an OSError, so no entry is read or written."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(colcache, "_entry", _unreachable)
        yield


def chunk_cells(chunk):
    """A chunk's values, numbers as their bytes so that NaN equals NaN, and its flags."""
    values = [v.tobytes() if isinstance(v, array) else v for v in chunk.columns]
    return chunk.schema, values, chunk.missing


def everything(paths, chunk_size, columns=None):
    """The schema, row count and chunks of an open, or the error that it or a read raised."""
    try:
        ds = open_datastore(paths, chunk_size, columns)
        chunks = []
        while ds.has_data():
            chunks.append(chunk_cells(ds.read()))
        return ds.schema, ds.total_rows, chunks
    except ToolkitError as exc:  # the error is the result to compare
        return type(exc), str(exc)


def parsed(paths, chunk_size=100, columns=None):
    """``everything`` of an open that parses: the column cache is out of reach."""
    with cache_out_of_reach():
        return everything(paths, chunk_size, columns)


# -- staging tier by event objects -------------------------------------------------


@dataclass(frozen=True, slots=True)
class Event:
    time: float
    kind: str
    payload_mb: float


@dataclass(frozen=True)
class EventRun:
    busy_seconds: dict
    energies: dict
    backlog_mb_max: float
    completed: bool
    events: tuple


def _serve(jobs, rate, kind):
    # Lindley's recursion over (arrival, mb) jobs; one event per served job.
    done = []
    d = 0.0
    for a, mb in jobs:
        if mb > 0:
            d = max(a, d) + mb / rate
            done.append(Event(d, kind, mb))
    return done, math.fsum(ev.payload_mb / rate for ev in done)


def simulate_by_events(cfg, wl, kernel, tick):
    """The three-station staging tier with a full event log, for valid inputs only.

    Every tick, stage, analysis and drain completion is an ``Event``; the
    drain's arrivals and the log are stable ``heapq.merge``s keyed on time, so
    at equal times checkpoints reach the drain before analysis output and the
    log lists ticks, stages, analyses and drains in that order.
    """
    k = next(k for k in wl.kernels if k.name == kernel)
    n_ticks = round(cfg.tsim / tick)
    rates = {
        "ssd_ingest": cfg.bw_host2ssd,
        "ssd_analyze": 1.0 / (1.0 / cfg.bw_fm2c + 1.0 / cfg.bw_c2m + 1.0 / k.t_ssd_k),
        "ssd_drain": cfg.staging_ssds * cfg.bw_pfs / cfg.compute_nodes,
    }
    analysis = cfg.compute_nodes * wl.lambda_a * tick
    checkpoint = cfg.compute_nodes * wl.lambda_c * tick
    batch = analysis + checkpoint

    by_time = attrgetter("time")
    busy = {}
    ticks = [Event(i * tick, "generation_tick", batch) for i in range(n_ticks)]
    staged, busy["ssd_ingest"] = _serve(
        ((ev.time, batch) for ev in ticks), rates["ssd_ingest"], "stage_complete"
    )
    analyzed, busy["ssd_analyze"] = _serve(
        ((ev.time, analysis) for ev in staged), rates["ssd_analyze"], "analyze_complete"
    )
    to_drain = heapq.merge(
        ((ev.time, checkpoint) for ev in staged),
        ((ev.time, wl.alpha * ev.payload_mb) for ev in analyzed),
        key=itemgetter(0),
    )
    drained, busy["ssd_drain"] = _serve(to_drain, rates["ssd_drain"], "drain_complete")

    dust = 1e-9 * max(batch, 1.0)
    backlog = max(
        ((done.time - ev.time) * rates["ssd_ingest"] for done, ev in zip(staged, ticks[1:])),
        default=0.0,
    )
    if backlog <= dust:
        backlog = 0.0
    overrun = (staged[-1].time if staged else 0.0) - cfg.tsim
    completed = overrun <= 1e-9 * cfg.tsim
    if not completed:
        backlog = max(backlog, overrun * rates["ssd_ingest"])
    return EventRun(
        busy_seconds=busy,
        energies={name: cfg.p_ssd_busy * busy[name] for name in rates},
        backlog_mb_max=backlog,
        completed=completed,
        events=tuple(heapq.merge(ticks, staged, analyzed, drained, key=by_time)),
    )


def trace_bytes(events) -> bytes:
    """The TSV trace of an event log, as ``write_trace`` lays it out."""
    lines = ["time\tkind\tpayload_mb\n"]
    lines += [f"{ev.time!r}\t{ev.kind}\t{ev.payload_mb!r}\n" for ev in events]
    return "".join(lines).encode("utf-8")
