"""The stagecost benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload plan-sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/`` and
writes its generated inputs to a working directory under ``.perfbench_tmp/``,
which it removes on exit.

With ``--trace 0`` every ``stagecost`` command runs as a fresh process,
``python -c "from stagecost.cli import main; main()" ...`` with
``PYTHONPATH=src``, in a closed loop: one caller, one command at a time, the
next started when the previous has exited.  The workload's command sequence
is repeated ``round(seconds / workloads.PASS_SECONDS[workload])`` times (at
least once), a number that depends on ``--seconds`` alone, so that every
commit is measured by the same statistic.  ``SETUP_PROBES`` fresh-interpreter
``import stagecost.cli`` probes and ``REFERENCE_PROBES`` reference probes are
spread evenly between the commands.  Every command's output is checked.

The speed of a shared 2-vCPU machine drifts by tens of percent over minutes:
a fixed pure-Python loop timed over 8 minutes had an interquartile range of
about 0.2 of its median for every window length from 5 s to 90 s, so no run
length averages the drift away.  The reference probe is a fixed piece of
work that does not touch the program (a fresh interpreter that imports numpy
and runs a short heap-and-parse loop in Python), timed between the commands
of the same run.  Every command and import probe is scaled by
``REFERENCE_S / reference time``, the reference time being the mean of the
reference probes just before and just after it: it then reads in seconds on
a machine on which the reference takes ``REFERENCE_S``, and a change to the
program moves it in the same proportion as the unscaled time.  The unscaled
values and the median reference time are in the run context.  The
end-to-end metrics are:

* ``wall_s``       wall time of one pass over the command sequence: the sum
                   over its commands of each command's median wall time over
                   the passes, scaled
* ``cmd_p50_s``    median over the sequence's commands of that median time,
                   scaled
* ``cpu_s``        user + sys CPU of one pass, summed the same way as wall_s
                   (child rusage; counts every thread numpy's BLAS starts),
                   scaled
* ``peak_rss_mb``  highest max-RSS of any command process
* ``setup_s``      median wall time of the import probes, scaled
* ``ok_ratio``     commands whose output passed its check / commands run
* ``work_per_s``   work of one pass / wall_s; the unit of work is per
                   workload (workloads.WORK_UNITS)

With ``--trace 1`` the workload runs in-process in one fresh child
(traced.py), alternating untraced and traced passes, and the per-layer
metrics of tracer.PER_LAYER are reported instead.

The last line of stdout is the result object; the line before it is the run
context (seed, input sizes, nproc, versions, BLAS thread settings, input
generation time, passes, failures).  Input generation is never inside a
measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace

SRC = os.path.abspath("src")
WORKDIR = os.path.abspath(".perfbench_tmp")
HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = "from stagecost.cli import main; main()"
PROBE = "import stagecost.cli"
SETUP_PROBES = 9
REFERENCE = ("import heapq, numpy\n"
             "q = [(i * 7919 % 30011, i) for i in range(30011)]\n"
             "heapq.heapify(q)\n"
             "d = {}\n"
             "while q: k, i = heapq.heappop(q); d[str(k)] = float(i)\n")
REFERENCE_PROBES = 16       # one more follows the last command
REFERENCE_S = 0.30          # nominal reference time that the scaled metrics assume
COMMAND_TIMEOUT_S = 60.0
TRACED_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0         # no pass starts after this, so a run ends in time
CONTEXT_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "1",
    "work_per_s": "1/s",
}


@dataclass(frozen=True)
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str
    err: str
    scale: float = 1.0  # REFERENCE_S / reference time around this sample


def spawn(args: list, env: dict, timeout: float) -> Sample:
    """Run ``python args...`` to completion: wall time, CPU time, max RSS, output.

    The child is reaped with wait4, so that its CPU time and max RSS are its
    own; the max RSS of all of this process's children would include the
    probes, which are not program commands.  It is killed after ``timeout``.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode, out.read().decode(errors="replace"),
                      err.read().decode(errors="replace"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def passes_for(workload: str, seconds: float) -> int:
    import workloads

    return max(1, round(seconds / workloads.PASS_SECONDS[workload]))


def probe(code: str, env: dict) -> Sample:
    """A fresh interpreter running ``code``; exits if it fails."""
    sample = spawn(["-c", code], env, COMMAND_TIMEOUT_S)
    if sample.code != 0:
        sys.stderr.write(sample.err[-4000:])
        raise SystemExit(f"perfbench: a fresh interpreter cannot run {code!r}")
    return sample


def spread_evenly(count: int, turn: int, total: int) -> int:
    """How many of ``count`` probes go before turn ``turn`` of ``total``; the first goes first."""
    return -(-(turn + 1) * count // total) + (-turn * count // total)


def measure(plan, passes: int, env: dict) -> tuple:
    """Closed loop: ``passes`` passes over the plan with evenly spread probes.

    Returns the samples of each command and of the import probes, each with
    the scale of the reference probes around it, the reference times and
    the failures.
    """
    import workloads

    samples = [[] for _ in plan.commands]
    probes, references, failures = [], [], []
    pending = []  # (list it belongs to, sample) taken since the last reference probe

    def reference() -> None:
        wall = probe(REFERENCE, env).wall
        if references:
            scale = REFERENCE_S / ((references[-1] + wall) / 2)
            for target, sample in pending:
                target.append(replace(sample, scale=scale))
            pending.clear()
        references.append(wall)

    probe(PROBE, env)  # warm the file cache
    probe(REFERENCE, env)
    total = passes * len(plan.commands)
    start = time.perf_counter()
    for turn in range(total):
        if turn % len(plan.commands) == 0 and time.perf_counter() - start > RUN_LIMIT_S:
            break
        for _ in range(spread_evenly(REFERENCE_PROBES, turn, total)):
            reference()
        for _ in range(spread_evenly(SETUP_PROBES, turn, total)):
            pending.append((probes, probe(PROBE, env)))
        index = turn % len(plan.commands)
        command = plan.commands[index]
        sample = spawn(["-c", LAUNCH, *command.argv], env, COMMAND_TIMEOUT_S)
        reason = workloads.verdict(command, sample.code, sample.out, sample.err)
        if reason:
            failures.append(f"{command.name}: {reason}")
        pending.append((samples[index], sample))
    reference()
    return samples, probes, references, failures


def end_to_end(plan, samples: list, probes: list, failed: int, scaled: bool) -> dict:
    def median(values: list, field: str) -> float:
        return statistics.median(getattr(s, field) * (s.scale if scaled else 1.0) for s in values)

    # Each command's time is its median over the run's passes.
    wall = [median(per_command, "wall") for per_command in samples]
    attempted = sum(len(per_command) for per_command in samples)
    return {
        "wall_s": sum(wall),
        "cmd_p50_s": statistics.median(wall),
        "cpu_s": sum(median(per_command, "cpu") for per_command in samples),
        "peak_rss_mb": max(s.rss_mb for per_command in samples for s in per_command),
        "setup_s": median(probes, "wall"),
        "ok_ratio": (attempted - failed) / attempted,
        "work_per_s": plan.work / sum(wall),
    }


def numpy_import_s(importtime_log: str) -> float:
    """Cumulative ``-X importtime`` of numpy between the traced child's markers."""
    inside, total_us = False, 0
    for line in importtime_log.splitlines():
        if line.startswith("perfbench: import stagecost.cli"):
            inside = line.endswith("begin")
        elif inside and line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                total_us += int(fields[1])
    return total_us / 1e6


def traced(args, directory: str, env: dict) -> tuple:
    import tracer

    sample = spawn(["-X", "importtime", os.path.join(HERE, "traced.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--dir", directory],
                   env, TRACED_TIMEOUT_S)
    if sample.code != 0:
        sys.stderr.write(sample.err[-4000:])
        raise SystemExit(f"perfbench: traced run exited {sample.code}")
    report = json.loads(sample.out.splitlines()[-1])
    metrics = report["metrics"]
    metrics["cli.numpy_import_s"] = numpy_import_s(sample.err)
    units = {name: spec[0] for name, spec in tracer.PER_LAYER.items()}
    context = dict(report["plan"], passes=report["passes"], failures=report["failures"],
                   not_traced=report["not_traced"])
    return report["attempted"], report["failed"], metrics, units, context


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "stagecost", "cli.py")):
        raise SystemExit("perfbench: src/stagecost not found; run from the repository root")
    sys.path.insert(0, SRC)
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(WORKDIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    env = child_env()
    try:
        context = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "env": {name: os.environ.get(name) for name in CONTEXT_VARS},
        }
        if args.trace:
            attempted, failed, values, units, extra = traced(args, directory, env)
        else:
            start = time.perf_counter()
            plan = workloads.build(args.workload, args.seed, directory)
            generate_s = time.perf_counter() - start
            samples, probes, references, failures = measure(
                plan, passes_for(args.workload, args.seconds), env)
            attempted, failed = sum(len(s) for s in samples), len(failures)
            values = end_to_end(plan, samples, probes, failed, scaled=True)
            units = END_TO_END_UNITS
            extra = dict(workloads.describe(args.workload, plan, generate_s),
                         passes=len(samples[-1]), setup_probes=len(probes),
                         reference_probes=len(references),
                         reference_s=statistics.median(references),
                         unscaled=end_to_end(plan, samples, probes, failed, scaled=False),
                         failures=failures[:20])
        context.update(extra, failed_ratio=failed / attempted)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another run is using it
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
