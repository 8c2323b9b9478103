"""Delay summaries, each one map-reduce pass over the whole table, and x/y plot series.

Both are named tuples.  numpy is loaded only for a plot series with a fit,
through ``stats``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .datastore import Datastore, TableChunk
from .errors import LengthMismatch, MissingData, TypeMismatch

# -- delay summaries ---------------------------------------------------------------


class DelayStats(NamedTuple):
    mean: float
    minimum: float
    maximum: float


class DelaySummary(NamedTuple):
    records: int
    overall: dict
    per_origin: dict


DELAY_COLUMNS = ("UniqueCarrier", "ServerNum", "SendingDelay", "ReceivingDelay", "Origin")


def delay_summary(ds: Datastore) -> DelaySummary:
    """Mean/min/max of both delays, overall and per origin, over the whole table.

    One fold keeps a list per origin, and one of every row: the row count, then
    the sum (in row order), min and max (the first of equals) of each delay.
    """
    from .mapreduce import map_reduce

    no_rows = (0, 0.0, math.inf, -math.inf, 0.0, math.inf, -math.inf)
    overall = list(no_rows)

    def fold(chunk: TableChunk, by_origin: dict) -> None:
        at = [chunk.column_index(name) for name in DELAY_COLUMNS]
        # ServerNum, SendingDelay and ReceivingDelay; a text column raises
        server, sending, receiving = (chunk.numeric(name)[0] for name in DELAY_COLUMNS[1:4])
        # unpacked from a list: from a generator, each chunk would leave a
        # shrunken tuple in the interpreter's free list
        gaps = map(any, zip(*[chunk.missing[i] for i in at]))
        for origin, srv, s, r, gap in zip(chunk.columns[at[4]], server, sending, receiving, gaps):
            if gap:
                raise MissingData("delay records must not have missing cells")
            if not srv.is_integer():
                raise TypeMismatch(f"column 'ServerNum' holds {srv!r}, not a whole number")
            group = by_origin.get(origin) or by_origin.setdefault(origin, list(no_rows))
            for acc in (group, overall):
                acc[0] += 1
                acc[1] += s
                if s < acc[2]:
                    acc[2] = s
                if s > acc[3]:
                    acc[3] = s
                acc[4] += r
                if r < acc[5]:
                    acc[5] = r
                if r > acc[6]:
                    acc[6] = r

    per_origin = map_reduce(ds, fold).pairs  # named as written and sorted by name
    return DelaySummary(records=overall[0], overall=_both_delays(overall),
                        per_origin={origin: _both_delays(acc) for origin, acc in per_origin})


def _both_delays(acc: list) -> dict[str, DelayStats]:
    count, s_sum, s_min, s_max, r_sum, r_min, r_max = acc
    return {"sending": DelayStats(s_sum / count, s_min, s_max),
            "receiving": DelayStats(r_sum / count, r_min, r_max)}


# -- plot data ---------------------------------------------------------------------


class PlotSeries(NamedTuple):
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
