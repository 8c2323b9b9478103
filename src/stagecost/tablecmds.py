"""The table commands: mapreduce, regress, delays and plotdata.

``cli`` imports this module only when one of them runs, so a model command
never compiles it; ``pca``'s handler is in ``pcacmd``.  Each handler takes
the parsed arguments, imports the stagecost modules it calls and returns the
exit status.  What a command derives from its table is kept in the column
cache beside the table: ``regress``'s fit and ``plotdata --fit``'s line,
which numpy computes, and the answer of a ``mapreduce`` job or of
``delays``, which a fold over every row computes.  So a later run on the
same bytes and columns reads it back and imports no numpy; a ``regress``, a
job or a ``delays`` that does loads no datastore either, and a job loads no
``mapreduce``.  A job prints its progress lines from the table's row count
once its answer is known, whether it folded or read the answer back.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .cli import _fmt6, _json_text
from .errors import ConfigError, InvalidParameter

if TYPE_CHECKING:
    from . import report, stats

# Rows per chunk that a job or delays folds: a chunk copies the rows it holds,
# so delays on a 10^6-row table peaks at 53 MB max RSS, against 98 MB in one chunk.
_FOLD_CHUNK = 4096


def _fit_tag(kind: str, names: Sequence[str | None]) -> str:
    """The column cache's name for the result of ``kind`` on the columns ``names``, in order."""
    return json.dumps([kind, *names])


def cmd_mapreduce(args) -> int:
    """mapreduce run: the job's answer is kept in the column cache under a tag
    without the chunk size, which changes the progress lines alone, so a job
    on the same bytes and columns at any chunk size reads it back.  A miss
    folds the table in chunks of ``_FOLD_CHUNK`` rows; a miss and a hit then
    print the events of ``progress.steps`` for the chunk size's chunk count,
    one write per run of equal lines, and one for the result."""
    from .colcache import cached_result
    from .progress import steps

    if args.chunk_size < 1:  # refused before the inputs are hashed, as an open refuses it
        raise InvalidParameter(f"chunk_size must be >= 1, got {args.chunk_size}")
    needed = [args.column] if args.job == "max" else [args.key, args.column]

    def fold(inputs: list[str] | None) -> tuple[int, tuple]:
        from . import mapreduce
        from .datastore import Datastore

        # None is an option not given; '' names a column, as in the header ` ,a`.
        # The file is read first, so a bad row is reported ahead of a missing option.
        ds = Datastore(args.input, _FOLD_CHUNK, [name for name in needed if name is not None],
                       digests=inputs)
        if args.job == "max":
            if args.column is None:
                raise ConfigError("--column is required for the max job")
            mapper = mapreduce.builtin_max_mapper(args.column)
        else:
            if args.key is None:
                raise ConfigError("--key is required for the keycount job")
            mapper = mapreduce.builtin_keycount_mapper(args.key, args.column)
        return ds.total_rows, mapreduce.map_reduce(ds, mapper).pairs

    code = "d" if args.job == "max" else "q"  # a float64 maximum, or int64 counts
    (rows, pairs), _ = cached_result(args.input, _fit_tag(args.job, needed), fold,
                                     partial(_pack_job, code), partial(_unpack_job, code))
    # a job that fails has raised by now, so it prints nothing on stdout
    for event, runs in groupby(steps(-(-rows // args.chunk_size), len(pairs)),
                               itemgetter(0)):
        sys.stdout.write("Map {}% Reduce {}%\n".format(*event) * sum(n for _, n in runs))
    sys.stdout.write("".join(f"{key}\t{_fmt6(value)}\n" for key, value in pairs))
    return 0


def _pack_job(code: str, job: tuple[int, tuple]) -> tuple[dict, list]:
    """A job's cache entry: the table's row count and the key names, and the
    values as one array of type ``code``."""
    rows, pairs = job
    return {"rows": rows, "keys": [key for key, _ in pairs]}, [
        array(code, [value for _, value in pairs])]


def _unpack_job(code: str, fields: dict, blobs: list) -> tuple[int, tuple] | None:
    """The row count and the pairs an entry keeps, or None if its array is not
    one value of type ``code`` per key."""
    (values,) = blobs
    keys = fields["keys"]
    if memoryview(values).format != code or len(values) != len(keys):
        return None
    return fields["rows"], tuple(zip(keys, values))


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
    """delays: the summary is kept in the column cache, so a run on the same
    bytes reads it back and loads neither the datastore nor ``mapreduce``."""
    from .colcache import cached_result
    from .report import DELAY_COLUMNS

    path = args.input
    if path is None:
        from . import fixtures

        path = str(fixtures.path("delays.csv"))

    def summarise(inputs: list[str] | None) -> report.DelaySummary:
        from .datastore import Datastore
        from .report import delay_summary

        return delay_summary(Datastore(path, _FOLD_CHUNK, DELAY_COLUMNS, digests=inputs))

    summary, _ = cached_result(path, _fit_tag("delays", DELAY_COLUMNS), summarise,
                               _pack_delays, _unpack_delays)
    print(_json_text(_delays_doc(summary)))
    return 0


def _pack_delays(summary: report.DelaySummary) -> tuple[dict, list]:
    """A delay summary's cache entry: the record count and the origins, and
    the mean, minimum and maximum of each delay, overall and then per origin,
    as one array of float64."""
    groups = [summary.overall, *summary.per_origin.values()]
    return {"records": summary.records, "origins": list(summary.per_origin)}, [
        array("d", [value for group in groups for delay in group.values() for value in delay])]


def _unpack_delays(fields: dict, blobs: list) -> report.DelaySummary | None:
    """The summary an entry keeps, or None if its array is not six floats per group."""
    from .colcache import _floats
    from .report import DelayStats, DelaySummary

    origins = fields["origins"]
    flat = _floats(blobs, 6 * (len(origins) + 1))
    if flat is None:
        return None
    overall, *groups = ({"sending": DelayStats(*flat[at:at + 3]),
                         "receiving": DelayStats(*flat[at + 3:at + 6])}
                        for at in range(0, len(flat), 6))
    return DelaySummary(fields["records"], overall, dict(zip(origins, groups)))


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
