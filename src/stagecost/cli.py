"""Command-line front end.

Subcommands: energy, compare, simulate, mapreduce, regress, pca, delays,
plotdata.  Structured reports go to stdout as JSON with full float
precision; human-readable tables round to 6 significant digits; plot data
is TSV.  Exit codes: 0 on success, 1 on domain errors, 2 on usage errors.

A command runs as a fresh process, and its start-up, the interpreter and the
imports, is most of the time a model command takes.  So this module imports
only the standard library and ``errors`` at its top, and each handler imports
the stagecost modules it calls: a command loads no module it does not use.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigError, MissingData, ToolkitError, TypeMismatch

if TYPE_CHECKING:
    from . import stats
    from .datastore import Datastore

PROG = "stagecost"

# Chunk size for commands that need whole columns: the table is one chunk.
_WHOLE_TABLE = sys.maxsize
# Rows per chunk that delays folds: a chunk copies the rows it holds, so on
# a 10^6-row table this peaks at 53 MB max RSS, against 98 MB in one chunk.
_DELAYS_CHUNK = 4096

# The variables OpenBLAS reads for its thread count, in its order; an empty
# value counts as unset, as it does for OpenBLAS.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fmt6(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


# -- shared command plumbing --------------------------------------------------------


def _load_validated(path):
    from .config import load_config, validate

    cfg, wl = load_config(path)
    report = validate(cfg, wl)
    if not report.passed:
        raise ConfigError("config violates invariants: " + "; ".join(report.violations))
    if not report.feasible:
        print("warning: generation rate exceeds bw_host2ssd (staging infeasible)",
              file=sys.stderr)
    return cfg, wl


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:  # raised for an infinite or NaN float
        raise ToolkitError("the result holds an infinite or NaN number") from None


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


# -- subcommand handlers ------------------------------------------------------------


def _cmd_model(args) -> int:
    """energy and compare: ``args.model`` names the energy-model function to report."""
    from . import energy

    cfg, wl = _load_validated(args.config)
    print(_json_text(asdict(getattr(energy, args.model)(cfg, wl, args.kernel))))
    return 0


def _cmd_simulate(args) -> int:
    from . import sim

    cfg, wl = _load_validated(args.config)
    report = sim.simulate(cfg, wl, args.kernel, args.tick)
    # checked before the trace is written, so a failed run leaves no trace file
    text = _json_text({"busy_seconds": report.busy_seconds, "energies": report.energies,
                       "backlog_mb_max": report.backlog_mb_max,
                       "completed": report.completed})
    if args.trace is not None:
        sim.write_trace(report, args.trace)
    print(text)
    return 0


def _cmd_mapreduce(args) -> int:
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
    held, count = None, 0  # the last line's percentages, and its repeats not yet written

    def show(event: mapreduce.ProgressEvent) -> None:
        nonlocal held, count
        pct = event.map_pct, event.reduce_pct
        if pct == held:
            count += 1
        else:
            release(line(*pct))
            held = pct

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


def _cmd_regress(args) -> int:
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
    from .datastore import open_datastore

    # the columns are copies, so the datastore is let go before the fit
    names = [args.dependent, *args.independents]
    y, *columns = _numeric_columns(
        open_datastore(args.input, chunk_size=_WHOLE_TABLE, columns=names), names)
    summary, table = stats.fit_ols(columns, y)
    _print_regression(summary, table, labels=args.independents)
    return 0


def _cmd_pca(args) -> int:
    from . import pca
    from .datastore import NUMERIC, open_datastore

    ds = open_datastore(args.input, chunk_size=_WHOLE_TABLE)
    numeric = [col.name for col in ds.schema if col.kind == NUMERIC]
    if not numeric:
        raise TypeMismatch("input has no numeric columns")
    corr = pca.correlation_matrix(_numeric_columns(ds, numeric), names=numeric)
    threshold = pca.DEFAULT_VARIANCE_THRESHOLD if args.threshold is None else args.threshold
    cutoff = pca.DEFAULT_LOADING_CUTOFF if args.cutoff is None else args.cutoff
    model = pca.extract_factors(corr, variance_threshold=threshold)
    suggestion = pca.suggest_schema(model, loading_cutoff=cutoff)

    print("Component  Eigenvalue  CumulativeVariance")
    for i, (value, cum) in enumerate(
        zip(model.eigenvalues, model.cumulative_variance), start=1
    ):
        print(f"{i:<9}  {_fmt6(float(value)):<10}  {_fmt6(float(cum))}")
    print(f"Selected components: {model.selected_components}")
    print()
    print(_json_text(asdict(suggestion)))
    return 0


def _cmd_delays(args) -> int:
    from .datastore import open_datastore
    from .report import DELAY_COLUMNS, delay_summary

    path = args.input
    if path is None:
        from . import fixtures

        path = str(fixtures.path("delays.csv"))
    ds = open_datastore(path, chunk_size=_DELAYS_CHUNK, columns=DELAY_COLUMNS)
    print(_json_text(asdict(delay_summary(ds))))
    return 0


def _cmd_plotdata(args) -> int:
    from .datastore import open_datastore
    from .report import emit_plot_data, write_plot_tsv

    names = [args.x, args.y]
    xs, ys = _numeric_columns(
        open_datastore(args.input, chunk_size=_WHOLE_TABLE, columns=names), names)
    series = emit_plot_data(xs, ys, with_fit=args.fit)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_plot_tsv(series, fh)
    else:
        write_plot_tsv(series, sys.stdout)
    return 0


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Staging-energy modelling and desk-scale data analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_args = argparse.ArgumentParser(add_help=False)
    config_args.add_argument("--config", required=True)
    config_args.add_argument("--kernel", required=True)

    p = sub.add_parser("energy", parents=[config_args], help="in-situ staging energy breakdown")
    p.set_defaults(handler=_cmd_model, model="insitu_breakdown")

    p = sub.add_parser("compare", parents=[config_args], help="in-situ vs offline energy and time")
    p.set_defaults(handler=_cmd_model, model="compare")

    p = sub.add_parser("simulate", parents=[config_args],
                       help="queueing simulation of the staging tier")
    p.add_argument("--tick", type=float, required=True)
    p.add_argument("--trace", help="write the event log as TSV to this path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("mapreduce", help="keyed aggregation over CSV chunks")
    run = p.add_subparsers(dest="action", required=True)
    r = run.add_parser("run", help="run a built-in job")
    r.add_argument("--job", choices=("max", "keycount"), required=True)
    r.add_argument("--column", help="numeric column (max) or counted column (keycount)")
    r.add_argument("--key", help="grouping column for the keycount job")
    r.add_argument("--input", nargs="+", required=True)
    r.add_argument("--chunk-size", type=int, default=4)
    r.set_defaults(handler=_cmd_mapreduce)

    p = sub.add_parser("regress", help="least-squares fit or summary from sums")
    p.add_argument("--from-ss", nargs=4, metavar=("SS_REG", "SS_TOTAL", "N", "K"))
    p.add_argument("--input")
    p.add_argument("--dependent")
    p.add_argument("--independents", nargs="+")
    p.set_defaults(handler=_cmd_regress)

    p = sub.add_parser("pca", help="correlation factoring and schema grouping")
    p.add_argument("--input", required=True)
    # None stands for pca's defaults, filled in by _cmd_pca: building the
    # parser imports no stagecost module.
    p.add_argument("--threshold", type=float)
    p.add_argument("--cutoff", type=float)
    p.set_defaults(handler=_cmd_pca)

    p = sub.add_parser("delays", help="summarise sending/receiving delay records")
    p.add_argument("--input", help="CSV of delay records (bundled sample by default)")
    p.set_defaults(handler=_cmd_delays)

    p = sub.add_parser("plotdata", help="x/y series as TSV, optionally with a fit")
    p.add_argument("--input", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_plotdata)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Parse and run one command; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ToolkitError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The process entry point: runs ``dispatch`` on one BLAS thread and without cyclic GC.

    numpy's OpenBLAS starts a pool of one thread per core when numpy is first
    imported, and its idle workers spin after every call.  The commands run
    single-threaded Python and make only small BLAS calls, so the pool adds
    CPU time and saves no wall time.  The pool is sized from the environment
    at that import, so one thread is asked for here, before any handler
    imports numpy, unless the caller has set a variable OpenBLAS reads.

    A command leaves the same few hundred cyclic objects (the argument
    parser's) whatever the size of its input, so the collector, run during
    the command and again over every live object at interpreter exit, finds
    nothing worth its time.  It is switched off while ``dispatch`` runs; then
    ``gc.freeze()`` moves every object to the permanent generation, which the
    exit collections skip, and the collector is set back to the state it had.
    ``atexit`` hooks still run.  ``dispatch`` and library callers keep their
    collector: they may run for as long as they like.
    """
    if not any(os.environ.get(name) for name in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    enabled = gc.isenabled()
    gc.disable()
    try:
        status = dispatch(sys.argv[1:])
    finally:
        gc.freeze()
        if enabled:
            gc.enable()
    sys.exit(status)
