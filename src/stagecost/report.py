"""Delay summaries, each one map-reduce pass over the whole table, and x/y plot series.

Both are named tuples.  A plot series holds its points as two ``array('d')``
and its line as its coefficients; the fitted values are computed a block at
a time as the TSV is written, so no column is copied into Python floats and
this module loads no numpy.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import LengthMismatch, MissingData, TypeMismatch

if TYPE_CHECKING:  # so a delay summary read back from the column cache loads no datastore
    from .datastore import Datastore, TableChunk

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
    x: array  # array('d')
    y: array  # array('d')
    intercept: Optional[float]  # the line's, or None without one
    slope: Optional[float]


# Lines of a plot TSV formatted and written at a time: one write per block,
# and never the whole of a long series as one string.
_PLOT_BLOCK_ROWS = 4096


def emit_plot_data(
    x: Sequence[float], y: Sequence[float], coefficients: Optional[Sequence[float]] = None
) -> PlotSeries:
    """Pair up a series for plotting, with the line ``coefficients``, an
    (intercept, slope) pair such as ``stats.ols_coefficients([x], y)``, if given.

    An ``array('d')`` is kept as it is, not copied; any other sequence is
    converted by ``float`` into one.
    """
    xs, ys = (v if isinstance(v, array) and v.typecode == "d" else array("d", map(float, v))
              for v in (x, y))
    if len(xs) != len(ys):
        raise LengthMismatch(f"x has {len(xs)} points, y has {len(ys)}")
    intercept, slope = (None, None) if coefficients is None else coefficients
    return PlotSeries(x=xs, y=ys, intercept=intercept, slope=slope)


def write_plot_tsv(series: PlotSeries, fh) -> None:
    """A header line, then one line per point, each value as its ``repr``.

    With a line, each point's fitted value ``intercept + slope * x`` follows.
    The lines are written a block of ``_PLOT_BLOCK_ROWS`` at a time.
    """
    xs, ys, intercept, slope = series
    fh.write("x\ty\n" if intercept is None else "x\ty\tfitted\n")
    for start in range(0, len(xs), _PLOT_BLOCK_ROWS):
        rows = slice(start, start + _PLOT_BLOCK_ROWS)
        if intercept is None:
            lines = [f"{x!r}\t{y!r}\n" for x, y in zip(xs[rows], ys[rows])]
        else:
            lines = [f"{x!r}\t{y!r}\t{intercept + slope * x!r}\n"
                     for x, y in zip(xs[rows], ys[rows])]
        fh.write("".join(lines))
