"""Self-test of the benchmark; run from the repository root.

    python3 perfbench/selftest.py

Checks that
1. BENCHMARK.json declares exactly the metrics, with the same units, that
   run.py (end to end) and tracer.PER_LAYER (per layer) report;
2. every check rejects a command that exits 2 or prints a traceback;
3. a short untraced run of every workload is correct and reports every
   end-to-end metric, none of them zero;
4. a short traced run of every workload is correct, reports every per-layer
   metric, and each metric mapped to that workload in tracer.PER_LAYER is
   non-zero, so that a span or counter that silently stopped matching the
   program shows up here.
Exits 1 on the first list of problems.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def result_of(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    problems = []
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if declared != {name: spec[:2] for name, spec in tracer.PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    os.makedirs(run.WORKDIR, exist_ok=True)
    directory = tempfile.mkdtemp(dir=run.WORKDIR, prefix="selftest-")
    try:
        for workload in workloads.WORKLOADS:
            for command in workloads.build(workload, 1, directory).commands:
                for code, err in ((2, ""), (0, "Traceback (most recent call last):\n")):
                    if workloads.verdict(command, code, "", err) is None:
                        problems.append(f"{workload} {command.name}: check accepts exit {code}")
    finally:
        shutil.rmtree(directory)
        os.rmdir(run.WORKDIR)

    for workload in workloads.WORKLOADS:
        result = result_of(workload, 0)
        metrics = result["metrics"]
        if not result["correct"]:
            problems.append(f"{workload}: untraced run not correct")
        if set(metrics) != set(run.END_TO_END_UNITS):
            problems.append(f"{workload}: end-to-end metrics missing or extra")
        problems += [f"{workload}: {name} is zero" for name, m in metrics.items()
                     if m["value"] == 0]

        result = result_of(workload, 1)
        metrics = result["metrics"]
        if not result["correct"]:
            problems.append(f"{workload}: traced run not correct")
        if set(metrics) != set(tracer.PER_LAYER):
            problems.append(f"{workload}: per-layer metrics missing or extra")
        problems += [f"{workload}: {name} is zero where it is mapped"
                     for name, (_, _, mapped) in tracer.PER_LAYER.items()
                     if workload in mapped and not metrics.get(name, {}).get("value")]
        print(f"{workload}: checked", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
