"""The table commands: mapreduce, regress, delays and plotdata.

``cli`` imports this module only when one of them runs, so a model command
never compiles it; ``pca``'s handler is in ``pcacmd``.  Each handler takes
the parsed arguments, imports the stagecost modules it calls and returns the
exit status.  What numpy computes for a command is kept in the column cache
beside the table: ``regress``'s fit and ``plotdata --fit``'s line.  So a
later run on the same bytes and columns reads it back and imports no numpy;
a ``regress`` that does loads no datastore either.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import partial
from typing import TYPE_CHECKING, Sequence

from .cli import _fmt6, _json_text
from .errors import ConfigError

if TYPE_CHECKING:
    from . import report, stats

# Rows per chunk that delays folds: a chunk copies the rows it holds, so on
# a 10^6-row table this peaks at 53 MB max RSS, against 98 MB in one chunk.
_DELAYS_CHUNK = 4096


def _fit_tag(kind: str, names: Sequence[str]) -> str:
    """The column cache's name for the fit of ``kind`` on the columns ``names``, in order."""
    return json.dumps([kind, *names])


def cmd_mapreduce(args) -> int:
    from . import mapreduce
    from .datastore import open_datastore

    needed = [args.column] if args.job == "max" else [args.key, args.column]
    # None is an option not given; '' names a column, as in the header ` ,a`.
    # The file is read first, so a bad row is reported ahead of a missing option.
    ds = open_datastore(args.input, chunk_size=args.chunk_size,
                        columns=[name for name in needed if name is not None])
    # the mapper checks the columns on the first chunk, before any progress
    if args.job == "max":
        if args.column is None:
            raise ConfigError("--column is required for the max job")
        mapper = mapreduce.builtin_max_mapper(args.column)
    else:
        if args.key is None:
            raise ConfigError("--key is required for the keycount job")
        mapper = mapreduce.builtin_keycount_mapper(args.key, args.column)

    # one event a chunk, but at most ~200 distinct lines: a new line is written
    # at once, and its repeats are held until the next new line or the end
    line = "Map {}% Reduce {}%\n".format
    held, count = None, 0  # the last line's event, and its repeats not yet written

    def show(event: mapreduce.ProgressEvent) -> None:
        nonlocal held, count
        if event == held:
            count += 1
        else:
            release(line(*event))
            held = event

    def release(new: str = "") -> None:  # zeroed first: a write that raised is not tried again
        nonlocal count
        text, count = (line(*held) * count if count else "") + new, 0
        if text:
            sys.stdout.write(text)

    try:
        result = mapreduce.map_reduce(ds, mapper, progress_sink=show)
    finally:
        release()  # the held lines go out before any error line
    sys.stdout.write("".join(f"{key}\t{_fmt6(value)}\n" for key, value in result.readall()))
    return 0


def _print_regression(summary: stats.RegressionSummary, table: stats.AnovaTable,
                      labels: Sequence[str] = ()) -> None:
    print("Regression Statistics")
    for label, value in (
        ("Multiple R", summary.multiple_r),
        ("R Square", summary.r_square),
        ("Adjusted R Square", summary.adjusted_r_square),
        ("Standard Error", summary.standard_error),
        ("Observations", summary.n),
    ):
        print(f"{label:<18} {_fmt6(value)}")
    print()
    print("ANOVA")
    header = ("", "df", "SS", "MS", "F", "Significance F")
    rows = [
        ("Regression", table.regression.df, table.regression.ss, table.regression.ms,
         table.f_statistic, table.significance_f),
        ("Residual", table.residual.df, table.residual.ss, table.residual.ms, "", ""),
        ("Total", table.total.df, table.total.ss, "", "", ""),
    ]
    text = [[_fmt6(c) if c != "" else "" for c in row] for row in [header, *rows]]
    widths = [max(len(row[i]) for row in text) for i in range(len(header))]
    for row in text:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    if summary.coefficients is not None:
        print()
        print("Coefficients")
        for name, coef in zip(["Intercept", *labels], summary.coefficients):
            print(f"{name:<18} {_fmt6(coef)}")


def cmd_regress(args) -> int:
    from . import stats

    if args.from_ss:
        try:
            ss_reg, ss_total = float(args.from_ss[0]), float(args.from_ss[1])
            n, k = int(args.from_ss[2]), int(args.from_ss[3])
        except ValueError as exc:
            raise ConfigError(f"--from-ss expects SS_REG SS_TOTAL N K: {exc}") from None
        summary, table = stats.summary_from_ss(ss_reg, ss_total, n, k)
        _print_regression(summary, table)
        return 0
    if not (args.input and args.dependent and args.independents):
        raise ConfigError(
            "regress needs either --from-ss or --input/--dependent/--independents"
        )
    from .colcache import cached_result

    names = [args.dependent, *args.independents]

    def fit(inputs: list[str] | None) -> stats.OlsTerms:
        from .datastore import Datastore, _numeric_columns

        y, *columns = _numeric_columns(Datastore(args.input, columns=names, digests=inputs),
                                       names)
        return stats.ols_terms(columns, y)

    # a run on the same bytes and names reads the fit back: no datastore, no numpy
    terms, _ = cached_result(args.input, _fit_tag("regress", names), fit, _pack_terms,
                             partial(_unpack_terms, len(names)))
    summary, table = stats.summarise_ols(terms)
    _print_regression(summary, table, labels=args.independents)
    return 0


def _pack_terms(terms: stats.OlsTerms) -> tuple[dict, list]:
    """A fit's cache entry: n, and the coefficients and the two sums as one array of float64."""
    return {"n": terms.n}, [array("d", [*terms.coefficients, terms.ss_res, terms.ss_total])]


def _unpack_terms(width: int, fields: dict, blobs: list) -> stats.OlsTerms | None:
    """The fit an entry keeps, or None if its array is not ``width`` coefficients and two sums."""
    from .colcache import _floats
    from .stats import OlsTerms

    flat = _floats(blobs, width + 2)
    return None if flat is None else OlsTerms(tuple(flat[:width]), *flat[width:], fields["n"])


def cmd_delays(args) -> int:
    from .datastore import open_datastore
    from .report import DELAY_COLUMNS, delay_summary

    path = args.input
    if path is None:
        from . import fixtures

        path = str(fixtures.path("delays.csv"))
    ds = open_datastore(path, chunk_size=_DELAYS_CHUNK, columns=DELAY_COLUMNS)
    print(_json_text(_delays_doc(delay_summary(ds))))
    return 0


def _delays_doc(summary: report.DelaySummary) -> dict:
    """The JSON object that delays prints: the summary's fields, each DelayStats an object."""

    def both(delays: dict) -> dict:
        return {name: delay._asdict() for name, delay in delays.items()}

    return {**summary._asdict(), "overall": both(summary.overall),
            "per_origin": {origin: both(delays) for origin, delays in summary.per_origin.items()}}


def cmd_plotdata(args) -> int:
    """plotdata: the fitted line's coefficients are kept in the column cache,
    so a ``--fit`` on the same bytes and columns reads them back and loads no numpy."""
    from .colcache import cached_result
    from .datastore import _numeric_columns, open_datastore
    from .report import emit_plot_data, write_plot_tsv

    names = [args.x, args.y]
    ds = open_datastore(args.input, columns=names)
    xs, ys = _numeric_columns(ds, names)
    digests = ds.digests
    del ds  # the stored columns stay, and the missing flags go before the fit
    line = None
    if args.fit:
        def fit(_: list[str] | None = None) -> tuple[float, ...]:
            from .stats import ols_coefficients

            return ols_coefficients([xs], ys)

        # the columns are read already, so a miss fits them and opens nothing; only
        # columns read under known digests (not of an input that went away) key a line
        line = fit() if digests is None else cached_result(
            args.input, _fit_tag("plotdata", names), fit, _pack_line, _unpack_line,
            inputs=digests)[0]
    series = emit_plot_data(xs, ys, coefficients=line)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_plot_tsv(series, fh)
    else:
        write_plot_tsv(series, sys.stdout)
    return 0


def _pack_line(line: tuple[float, ...]) -> tuple[dict, list]:
    """A fitted line's cache entry: the intercept and the slope as one array of float64."""
    return {}, [array("d", line)]


def _unpack_line(fields: dict, blobs: list) -> tuple[float, ...] | None:
    """The line an entry keeps, or None if its array is not two floats."""
    from .colcache import _floats

    flat = _floats(blobs, 2)
    return None if flat is None else tuple(flat)
