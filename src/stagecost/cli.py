"""Command-line front end and record-level reporting helpers.

Subcommands: energy, compare, simulate, mapreduce, regress, pca, delays,
plotdata.  Structured reports go to stdout as JSON with full float
precision; human-readable tables round to 6 significant digits; plot data
is TSV.  Exit codes: 0 on success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

# stats and pca import numpy, so only the commands that use them import them.
from . import energy, fixtures, mapreduce, sim
from .config import load_config, validate
from .datastore import NUMERIC, Datastore, open_datastore
from .errors import (
    ConfigError,
    EmptyInput,
    LengthMismatch,
    MissingData,
    ToolkitError,
    TypeMismatch,
    UnknownVariable,
)

PROG = "stagecost"

# Chunk size for commands that need whole columns: the table is one chunk.
_WHOLE_TABLE = sys.maxsize


def _fmt6(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


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


_DELAY_COLUMNS = ("UniqueCarrier", "ServerNum", "SendingDelay", "ReceivingDelay", "Origin")


def delay_records(ds: Datastore) -> list[DelayRecord]:
    """Materialise delay records from a datastore with the standard columns."""
    ds.select_variables(list(_DELAY_COLUMNS))
    kinds = {col.name: col.kind for col in ds.schema}
    for name in ("ServerNum", "SendingDelay", "ReceivingDelay"):
        if kinds[name] != NUMERIC:
            raise TypeMismatch(f"column {name!r} is not numeric")
    ds.reset()
    records = []
    while ds.has_data():
        chunk = ds.read()
        for row, flags in zip(zip(*chunk.columns), zip(*chunk.missing)):
            if any(flags):
                raise MissingData("delay records must not have missing cells")
            carrier, server, sending, receiving, origin = row
            if not server.is_integer():
                raise TypeMismatch(f"column 'ServerNum' holds {server!r}, not a whole number")
            records.append(
                DelayRecord(
                    unique_carrier=str(carrier),
                    server_num=int(server),
                    sending_delay=float(sending),
                    receiving_delay=float(receiving),
                    origin=str(origin),
                )
            )
    return records


def _fold(values: Sequence[float]) -> DelayStats:
    return DelayStats(
        mean=sum(values) / len(values), minimum=min(values), maximum=max(values)
    )


def delay_summary(records: Sequence[DelayRecord]) -> DelaySummary:
    """Mean/min/max of both delays, overall and per origin."""
    if not records:
        raise EmptyInput("no delay records")
    overall = {
        "sending": _fold([r.sending_delay for r in records]),
        "receiving": _fold([r.receiving_delay for r in records]),
    }
    per_origin = {}
    for origin in sorted({r.origin for r in records}):
        mine = [r for r in records if r.origin == origin]
        per_origin[origin] = {
            "sending": _fold([r.sending_delay for r in mine]),
            "receiving": _fold([r.receiving_delay for r in mine]),
        }
    return DelaySummary(records=len(records), overall=overall, per_origin=per_origin)


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

    intercept, slope = stats.ols_coefficients([[v] for v in xs], ys)
    fitted = tuple(intercept + slope * v for v in xs)
    return PlotSeries(x=xs, y=ys, fitted=fitted, intercept=intercept, slope=slope)


def write_plot_tsv(series: PlotSeries, fh) -> None:
    if series.fitted is None:
        fh.write("x\ty\n")
        for xv, yv in zip(series.x, series.y):
            fh.write(f"{xv!r}\t{yv!r}\n")
    else:
        fh.write("x\ty\tfitted\n")
        for xv, yv, fv in zip(series.x, series.y, series.fitted):
            fh.write(f"{xv!r}\t{yv!r}\t{fv!r}\n")


# -- shared command plumbing --------------------------------------------------------


def _load_validated(path):
    cfg, wl = load_config(path)
    report = validate(cfg, wl)
    if not report.passed:
        raise ConfigError(
            "config violates invariants: " + "; ".join(report.violations)
        )
    if not report.feasible:
        print(
            "warning: generation rate exceeds bw_host2ssd (staging infeasible)",
            file=sys.stderr,
        )
    return cfg, wl


def _print_json(payload) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:  # raised for an infinite or NaN float
        raise ToolkitError("the result holds an infinite or NaN number") from None
    print(text)


def _numeric_columns(ds: Datastore, names: Sequence[str]) -> list[list[float]]:
    """The values of each named numeric column, from ``ds``'s one chunk.

    ``ds`` must hold its whole table in one chunk.  An error names the first
    column in ``names`` that is unknown, is text or has a missing cell.
    """
    kinds = {col.name: col.kind for col in ds.schema}
    good = list(itertools.takewhile(lambda name: kinds.get(name) == NUMERIC, names))
    columns: list[list[float]] = []
    if good:
        ds.select_variables(good)
        ds.reset()
        chunk = ds.read()
        for name, flags in zip(good, chunk.missing):
            if any(flags):
                raise MissingData(f"column {name!r} has missing cells")
        columns = list(chunk.columns)
    if len(good) < len(names):
        name = names[len(good)]
        if name in kinds:
            raise TypeMismatch(f"column {name!r} is not numeric")
        raise UnknownVariable(f"no column named {name!r}")
    return columns


# -- subcommand handlers ------------------------------------------------------------


def _cmd_energy(args) -> int:
    cfg, wl = _load_validated(args.config)
    _print_json(asdict(energy.insitu_breakdown(cfg, wl, args.kernel)))
    return 0


def _cmd_compare(args) -> int:
    cfg, wl = _load_validated(args.config)
    _print_json(asdict(energy.compare(cfg, wl, args.kernel)))
    return 0


def _cmd_simulate(args) -> int:
    cfg, wl = _load_validated(args.config)
    report = sim.simulate(cfg, wl, args.kernel, args.tick)
    if args.trace:
        sim.write_trace(report, args.trace)
    _print_json(
        {
            "busy_seconds": report.busy_seconds,
            "energies": report.energies,
            "backlog_mb_max": report.backlog_mb_max,
            "completed": report.completed,
        }
    )
    return 0


def _cmd_mapreduce(args) -> int:
    ds = open_datastore(args.input, chunk_size=args.chunk_size)
    if args.job == "max":
        if not args.column:
            raise ConfigError("--column is required for the max job")
        ds.select_variables([args.column])
        mapper = mapreduce.builtin_max_mapper(args.column)
        reducer = mapreduce.builtin_max_reducer
    else:
        if not args.key:
            raise ConfigError("--key is required for the keycount job")
        selected = [args.key] + ([args.column] if args.column else [])
        ds.select_variables(selected)
        mapper = mapreduce.builtin_keycount_mapper(args.key, args.column)
        reducer = mapreduce.builtin_sum_reducer

    def show(event: mapreduce.ProgressEvent) -> None:
        print(f"Map {event.map_pct}% Reduce {event.reduce_pct}%")

    result = mapreduce.map_reduce(ds, mapper, reducer, progress_sink=show)
    for key, value in result.readall():
        print(f"{key}\t{_fmt6(float(value))}")
    return 0


def _print_regression(summary: stats.RegressionSummary, table: stats.AnovaTable,
                      labels: Optional[list[str]] = None) -> None:
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
        names = ["Intercept"] + (labels or
                                 [f"X{i}" for i in range(1, len(summary.coefficients))])
        for name, coef in zip(names, summary.coefficients):
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
    ds = open_datastore(args.input, chunk_size=_WHOLE_TABLE)
    y, *columns = _numeric_columns(ds, [args.dependent, *args.independents])
    x = list(zip(*columns))
    summary, table = stats.fit_ols(x, y)
    _print_regression(summary, table, labels=list(args.independents))
    return 0


def _cmd_pca(args) -> int:
    from . import pca

    ds = open_datastore(args.input, chunk_size=_WHOLE_TABLE)
    numeric = [col.name for col in ds.schema if col.kind == NUMERIC]
    if not numeric:
        raise TypeMismatch("input has no numeric columns")
    data = list(zip(*_numeric_columns(ds, numeric)))
    corr = pca.correlation_matrix(data, names=numeric)
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
    _print_json(asdict(suggestion))
    return 0


def _cmd_delays(args) -> int:
    path = args.input if args.input else str(fixtures.path("delays.csv"))
    records = delay_records(open_datastore(path, chunk_size=_WHOLE_TABLE))
    _print_json(asdict(delay_summary(records)))
    return 0


def _cmd_plotdata(args) -> int:
    ds = open_datastore(args.input, chunk_size=_WHOLE_TABLE)
    xs, ys = _numeric_columns(ds, [args.x, args.y])
    series = emit_plot_data(xs, ys, with_fit=args.fit)
    if args.output:
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

    p = sub.add_parser("energy", help="in-situ staging energy breakdown")
    p.add_argument("--config", required=True)
    p.add_argument("--kernel", required=True)
    p.set_defaults(handler=_cmd_energy)

    p = sub.add_parser("compare", help="in-situ vs offline energy and time")
    p.add_argument("--config", required=True)
    p.add_argument("--kernel", required=True)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("simulate", help="queueing simulation of the staging tier")
    p.add_argument("--config", required=True)
    p.add_argument("--kernel", required=True)
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
    # parser must not import pca (and numpy).
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
    sys.exit(dispatch(sys.argv[1:]))
