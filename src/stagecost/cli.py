"""Command-line front end.

Subcommands: energy, compare, simulate, mapreduce, regress, pca, delays,
plotdata.  Structured reports go to stdout as JSON with full float
precision; human-readable tables round to 6 significant digits; plot data
is TSV.  Exit codes: 0 on success, 1 on domain errors, 2 on usage errors.

A command runs as a fresh process, and its start-up, the interpreter and the
imports, is most of the time a model command takes.  So this module imports
only the standard library and ``errors`` at its top, and each handler imports
the stagecost modules it calls: a command loads no module it does not use.
Only the model commands, whose records are dataclasses, load ``dataclasses``.
The handlers of the table commands live in ``tablecmds``, which only they
import, but ``pca``'s is in ``pcacmd``, so that a ``pca`` that reads its
factor table back compiles no other handler.  A command builds the parser of
its own subcommand alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Sequence

from .errors import ConfigError, ToolkitError

PROG = "stagecost"

#: The subcommands, in the order the usage line and the help list them.
_COMMANDS = ("energy", "compare", "simulate", "mapreduce", "regress", "pca", "delays",
             "plotdata")

# The variables OpenBLAS reads for its thread count, in its order; an empty
# value counts as unset, as it does for OpenBLAS.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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


def _fmt6(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:  # raised for an infinite or NaN float
        raise ToolkitError("the result holds an infinite or NaN number") from None


# -- subcommand handlers ------------------------------------------------------------


def _cmd_model(args) -> int:
    """energy and compare: ``args.model`` names the energy-model function to report."""
    from dataclasses import asdict

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


def _cmd_table(args) -> int:
    """The table commands: ``args.table_handler`` names the handler in ``tablecmds``."""
    from . import tablecmds

    return getattr(tablecmds, args.table_handler)(args)


def _cmd_pca(args) -> int:
    from .pcacmd import cmd_pca

    return cmd_pca(args)


# -- parser -----------------------------------------------------------------------


def _config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--kernel", required=True)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names one.

    A parser of one subcommand builds in about a sixth of the time of all
    eight, and it prints the same texts for that subcommand: its usage line
    still lists every command.  The full parser names the choices itself, as
    a metavar would rename the argument in its errors ("argument command:
    invalid choice", "required: command"), which only it can raise.
    """
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Staging-energy modelling and desk-scale data analysis.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    wanted = _COMMANDS if command is None else (command,)

    if "energy" in wanted:
        p = sub.add_parser("energy", help="in-situ staging energy breakdown")
        _config_options(p)
        p.set_defaults(handler=_cmd_model, model="insitu_breakdown")

    if "compare" in wanted:
        p = sub.add_parser("compare", help="in-situ vs offline energy and time")
        _config_options(p)
        p.set_defaults(handler=_cmd_model, model="compare")

    if "simulate" in wanted:
        p = sub.add_parser("simulate", help="queueing simulation of the staging tier")
        _config_options(p)
        p.add_argument("--tick", type=float, required=True)
        p.add_argument("--trace", help="write the event log as TSV to this path")
        p.set_defaults(handler=_cmd_simulate)

    if "mapreduce" in wanted:
        p = sub.add_parser("mapreduce", help="keyed aggregation over CSV chunks")
        run = p.add_subparsers(dest="action", required=True)
        r = run.add_parser("run", help="run a built-in job")
        r.add_argument("--job", choices=("max", "keycount"), required=True)
        r.add_argument("--column", help="numeric column (max) or counted column (keycount)")
        r.add_argument("--key", help="grouping column for the keycount job")
        r.add_argument("--input", nargs="+", required=True)
        r.add_argument("--chunk-size", type=int, default=4)
        r.set_defaults(handler=_cmd_table, table_handler="cmd_mapreduce")

    if "regress" in wanted:
        p = sub.add_parser("regress", help="least-squares fit or summary from sums")
        p.add_argument("--from-ss", nargs=4, metavar=("SS_REG", "SS_TOTAL", "N", "K"))
        p.add_argument("--input")
        p.add_argument("--dependent")
        p.add_argument("--independents", nargs="+")
        p.set_defaults(handler=_cmd_table, table_handler="cmd_regress")

    if "pca" in wanted:
        p = sub.add_parser("pca", help="correlation factoring and schema grouping")
        p.add_argument("--input", required=True)
        # None stands for pca's defaults, filled in by pcacmd.cmd_pca:
        # building the parser imports no stagecost module.
        p.add_argument("--threshold", type=float)
        p.add_argument("--cutoff", type=float)
        p.set_defaults(handler=_cmd_pca)

    if "delays" in wanted:
        p = sub.add_parser("delays", help="summarise sending/receiving delay records")
        p.add_argument("--input", help="CSV of delay records (bundled sample by default)")
        p.set_defaults(handler=_cmd_table, table_handler="cmd_delays")

    if "plotdata" in wanted:
        p = sub.add_parser("plotdata", help="x/y series as TSV, optionally with a fit")
        p.add_argument("--input", required=True)
        p.add_argument("--x", required=True)
        p.add_argument("--y", required=True)
        p.add_argument("--fit", action="store_true")
        p.add_argument("--output")
        p.set_defaults(handler=_cmd_table, table_handler="cmd_plotdata")

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Parse and run one command; returns the process exit status.

    The parser of every subcommand is built only when the first argument
    names none: to print the top-level help or refuse the command.
    """
    argv = list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
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
