"""Traced in-process run of one workload; started by run.py with --trace 1.

    python -X importtime perfbench/traced.py --workload W --seed N --seconds S --dir D

The first thing this process does is import ``stagecost.cli``, timed, between
two marker lines on stderr, so that run.py can read the import cost of numpy
from the ``-X importtime`` lines between them.  It then builds the workload's
inputs in D (run.py does not build them for a traced run) and runs the
command sequence in pairs of passes through ``stagecost.cli.dispatch``: one
untraced, one traced, until S seconds have passed.  Every output is
checked.  The last stdout line is the JSON result with the per-pass
per-layer metrics.
"""

import os
import time

IMPORT_BEGIN = b"perfbench: import stagecost.cli begin\n"
IMPORT_END = b"perfbench: import stagecost.cli end\n"

os.write(2, IMPORT_BEGIN)
_start = time.perf_counter()
import stagecost.cli  # noqa: E402  (timed: every command pays this import)
IMPORT_S = time.perf_counter() - _start
os.write(2, IMPORT_END)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_inprocess(argv) -> tuple:
    """(exit code, stdout, stderr) of one command run through the CLI dispatcher."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = stagecost.cli.dispatch(list(argv))
        except Exception:  # a crash is a failed command, reported with its traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    plan = workloads.build(args.workload, args.seed, args.dir)
    generate_s = time.perf_counter() - start
    tr = tracer.Tracer()
    wall = {False: 0.0, True: 0.0}
    attempted, failures, passes = 0, [], 0
    deadline = time.perf_counter() + args.seconds
    while True:
        # Alternate which pass of a pair goes first, so that warm-up and drift
        # do not fall on one side of the overhead ratio.
        for traced in ((False, True), (True, False))[passes % 2]:
            if traced:
                tr.install()
            try:
                for command in plan.commands:
                    start = time.perf_counter()
                    code, out, err = run_inprocess(command.argv)
                    wall[traced] += time.perf_counter() - start
                    attempted += 1
                    reason = workloads.verdict(command, code, out, err)
                    if reason:
                        failures.append(f"{command.name}: {reason}")
            finally:
                tr.remove()
        passes += 1
        if time.perf_counter() >= deadline:
            break

    metrics = tr.metrics(passes)
    metrics["cli.import_s"] = IMPORT_S
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    print(json.dumps({
        "plan": workloads.describe(args.workload, plan, generate_s),
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "not_traced": tr.missing_targets + sorted(tr.hook_errors),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
