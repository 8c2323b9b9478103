"""The table commands: mapreduce, regress, pca, delays and plotdata.

``cli`` imports this module only when one of them runs, so a model command
never compiles it.  Each handler takes the parsed arguments, imports the
stagecost modules it calls and returns the exit status.  What numpy computes
for a command is kept in the column cache beside the table: ``pca``'s factor
table, ``regress``'s fit and ``plotdata --fit``'s line.  So a later run on
the same bytes and columns reads it back and imports no numpy.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Callable, Sequence

from .cli import _json_text
from .errors import ConfigError, MissingData, TypeMismatch

if TYPE_CHECKING:
    from . import pca, report, stats
    from .datastore import Datastore

# Chunk size for commands that need whole columns: the table is one chunk.
_WHOLE_TABLE = sys.maxsize
# Rows per chunk that delays folds: a chunk copies the rows it holds, so on
# a 10^6-row table this peaks at 53 MB max RSS, against 98 MB in one chunk.
_DELAYS_CHUNK = 4096
# The column cache's name for pca's factor table: a name, which no column selection can be.
_FACTORS = "pca factors"


def _fit_tag(kind: str, names: Sequence[str]) -> str:
    """The column cache's name for the fit of ``kind`` on the columns ``names``, in order."""
    return json.dumps([kind, *names])


def _sources(module: str) -> list[str]:
    """The files that a result kept in the column cache depends on besides the
    datastore: ``module``, the stagecost module that derives it, this one,
    which picks its columns and refuses missing cells, and numpy's
    ``version.py``, found without importing numpy."""
    from importlib.util import find_spec

    here = os.path.dirname(__file__)
    return [os.path.join(here, f"{module}.py"), __file__,
            os.path.join(os.path.dirname(find_spec("numpy").origin), "version.py")]


def _floats(blobs: list, count: int) -> array | None:
    """An entry's one array, if it is ``count`` float64s, else None."""
    (flat,) = blobs
    return flat if memoryview(flat).format == "d" and len(flat) == count else None


def _fmt6(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _numeric_columns(ds: Datastore, names: Sequence[str]) -> list[list[float]]:
    """The values of each named numeric column, found by name in ``ds``'s one chunk.

    ``ds`` must hold its whole table in one chunk, unread.  The chunk checks
    each column's kind; an error names the first column in ``names`` that is
    unknown, is text or has a missing cell.
    """
    chunk = ds.read()
    columns: list[list[float]] = []
    for name in names:
        values, flags = chunk.numeric(name)
        if any(flags):
            raise MissingData(f"column {name!r} has missing cells")
        columns.append(values)
    return columns


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
    from .datastore import cached_result

    names = [args.dependent, *args.independents]

    def fit(open_table: Callable[[], Datastore]) -> stats.OlsTerms:
        # the columns are copies, so the datastore is let go before the fit
        y, *columns = _numeric_columns(open_table(), names)
        return stats.ols_terms(columns, y)

    # a run on the same bytes and names reads the fit back: no columns, no numpy
    terms = cached_result(args.input, _fit_tag("regress", names), _sources("stats"), fit,
                          _pack_terms, partial(_unpack_terms, len(names)), columns=names)
    summary, table = stats.summarise_ols(terms)
    _print_regression(summary, table, labels=args.independents)
    return 0


def _pack_terms(terms: stats.OlsTerms) -> tuple[dict, list]:
    """A fit's cache entry: n, and the coefficients and the two sums as one array of float64."""
    return {"n": terms.n}, [array("d", [*terms.coefficients, terms.ss_res, terms.ss_total])]


def _unpack_terms(width: int, fields: dict, blobs: list) -> stats.OlsTerms | None:
    """The fit an entry keeps, or None if its array is not ``width`` coefficients and two sums."""
    from .stats import OlsTerms

    flat = _floats(blobs, width + 2)
    return None if flat is None else OlsTerms(tuple(flat[:width]), *flat[width:], fields["n"])


def cmd_pca(args) -> int:
    """pca: the factorization is kept in the column cache, so a run on inputs
    whose bytes are unchanged, at any threshold and cutoff, reads it back
    and loads neither the table's columns nor numpy."""
    from . import pca
    from .datastore import NUMERIC, cached_result

    threshold = pca.DEFAULT_VARIANCE_THRESHOLD if args.threshold is None else args.threshold
    cutoff = pca.DEFAULT_LOADING_CUTOFF if args.cutoff is None else args.cutoff

    def factor(open_table: Callable[[], Datastore]) -> pca.FactorTable:
        ds = open_table()
        numeric = [col.name for col in ds.schema if col.kind == NUMERIC]
        if not numeric:
            raise TypeMismatch("input has no numeric columns")
        corr = pca.correlation_matrix(_numeric_columns(ds, numeric), names=numeric)
        model = pca.extract_factors(corr, variance_threshold=threshold)
        pca.suggest_schema(model, loading_cutoff=cutoff)  # so no table is kept for a bad cutoff
        return pca.FactorTable.of(model)

    table = cached_result(args.input, _FACTORS, _sources("pca"), factor, _pack_factors,
                          _unpack_factors)
    selected, suggestion = table.suggest(threshold, cutoff)
    print("Component  Eigenvalue  CumulativeVariance")
    for i, row in enumerate(table.rows, start=1):
        print(f"{i:<9}  {_fmt6(row[0]):<10}  {_fmt6(row[1])}")
    print(f"Selected components: {selected}")
    print()
    print(_json_text({**suggestion._asdict(),
                      "dimensions": [dim._asdict() for dim in suggestion.dimensions]}))
    return 0


def _pack_factors(table: pca.FactorTable) -> tuple[dict, list]:
    """A factor table's cache entry: the names, and the rows as one array of float64."""
    return {"names": table.names}, [array("d", chain.from_iterable(table.rows))]


def _unpack_factors(fields: dict, blobs: list) -> pca.FactorTable | None:
    """The factor table an entry keeps, or None if its array is not p rows of p + 2 floats."""
    from .pca import FactorTable

    names = tuple(fields["names"])
    width = len(names) + 2
    flat = _floats(blobs, len(names) * width)
    if flat is None:
        return None
    return FactorTable(names, [flat[start:start + width] for start in range(0, len(flat), width)])


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
    from .datastore import cached_result, open_datastore
    from .report import emit_plot_data, write_plot_tsv

    names = [args.x, args.y]
    ds = open_datastore(args.input, chunk_size=_WHOLE_TABLE, columns=names)
    xs, ys = _numeric_columns(ds, names)
    digests = ds.digests
    del ds  # the columns are copies, so the datastore is let go before the fit
    line = None
    if args.fit:
        def fit(_: Callable[[], Datastore] | None = None) -> tuple[float, ...]:
            from .stats import ols_coefficients

            return ols_coefficients([xs], ys)

        # the columns are read already, so a miss fits them and opens nothing; only
        # columns read under known digests (not of an input that changed meanwhile) key a line
        line = fit() if digests is None else cached_result(
            args.input, _fit_tag("plotdata", names), _sources("stats"), fit, _pack_line,
            _unpack_line, digests=digests)
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
    flat = _floats(blobs, 2)
    return None if flat is None else tuple(flat)
