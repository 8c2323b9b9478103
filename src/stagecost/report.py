"""Record-level reports: delay summaries and x/y plot series.

numpy is loaded only for a plot series with a fit, through ``stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .datastore import Datastore, format_cell
from .errors import EmptyInput, LengthMismatch, MissingData, TypeMismatch

# -- delay records ---------------------------------------------------------------


@dataclass(frozen=True)
class DelayRecord:
    unique_carrier: str
    server_num: int
    sending_delay: float
    receiving_delay: float
    origin: str


@dataclass(frozen=True)
class DelayStats:
    mean: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class DelaySummary:
    records: int
    overall: dict
    per_origin: dict


DELAY_COLUMNS = ("UniqueCarrier", "ServerNum", "SendingDelay", "ReceivingDelay", "Origin")


def delay_records(ds: Datastore) -> list[DelayRecord]:
    """Materialise delay records from the standard columns of a datastore, found by name."""
    ds.reset()
    records = []
    while ds.has_data():
        chunk = ds.read()
        at = [chunk.column_index(name) for name in DELAY_COLUMNS]
        for name in ("ServerNum", "SendingDelay", "ReceivingDelay"):
            chunk.numeric(name)  # raises on a text column
        rows = zip(*(chunk.columns[i] for i in at))
        for row, flags in zip(rows, zip(*(chunk.missing[i] for i in at))):
            if any(flags):
                raise MissingData("delay records must not have missing cells")
            carrier, server, sending, receiving, origin = row
            if not server.is_integer():
                raise TypeMismatch(f"column 'ServerNum' holds {server!r}, not a whole number")
            records.append(DelayRecord(format_cell(carrier), int(server), float(sending),
                                       float(receiving), format_cell(origin)))
    return records


def _both_delays(records: Sequence[DelayRecord]) -> dict[str, DelayStats]:
    delays = {"sending": [r.sending_delay for r in records],
              "receiving": [r.receiving_delay for r in records]}
    return {name: DelayStats(sum(v) / len(v), min(v), max(v)) for name, v in delays.items()}


def delay_summary(records: Sequence[DelayRecord]) -> DelaySummary:
    """Mean/min/max of both delays, overall and per origin."""
    if not records:
        raise EmptyInput("no delay records")
    by_origin: dict[str, list[DelayRecord]] = {}
    for r in records:
        by_origin.setdefault(r.origin, []).append(r)
    return DelaySummary(
        records=len(records),
        overall=_both_delays(records),
        per_origin={origin: _both_delays(by_origin[origin]) for origin in sorted(by_origin)},
    )


# -- plot data ---------------------------------------------------------------------


@dataclass(frozen=True)
class PlotSeries:
    x: tuple[float, ...]
    y: tuple[float, ...]
    fitted: Optional[tuple[float, ...]]
    intercept: Optional[float]
    slope: Optional[float]


def emit_plot_data(
    x: Sequence[float], y: Sequence[float], with_fit: bool = False
) -> PlotSeries:
    """Pair up a series for plotting, optionally with a least-squares line."""
    xs = tuple(float(v) for v in x)
    ys = tuple(float(v) for v in y)
    if len(xs) != len(ys):
        raise LengthMismatch(f"x has {len(xs)} points, y has {len(ys)}")
    if not with_fit:
        return PlotSeries(x=xs, y=ys, fitted=None, intercept=None, slope=None)
    from . import stats

    intercept, slope = stats.ols_coefficients([xs], ys)
    fitted = tuple(intercept + slope * v for v in xs)
    return PlotSeries(x=xs, y=ys, fitted=fitted, intercept=intercept, slope=slope)


def write_plot_tsv(series: PlotSeries, fh) -> None:
    """A header line, then one line per point, each value as its ``repr``."""
    columns = {"x": series.x, "y": series.y}
    if series.fitted is not None:
        columns["fitted"] = series.fitted
    fh.write("\t".join(columns) + "\n")
    for row in zip(*columns.values()):
        fh.write("\t".join(map(repr, row)) + "\n")
