"""Repeatability check for the end-to-end metrics of BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 --out first.json
    python3 perfbench/spread.py --seeds 11-20 --out second.json --compare first.json

Runs ``perfbench/run.py --trace 0`` once per workload and seed, interleaving
workloads (seed-major, with the workload order rotated each seed) so that a
slow spell of a shared machine is spread over all of them.  For each
workload and metric it prints the median of the values and their spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound.  With ``--compare`` it also prints how far each median moved
from the earlier set, as a share of the earlier median, in the metric's
worse direction.  Exits 1 if a run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", help="write every run's result here as JSON")
    parser.add_argument("--compare", help="results file of an earlier set")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {name: [] for name in names}
    ok = True
    for turn, seed in enumerate(args.seeds):
        for name in names[turn % len(names):] + names[:turn % len(names)]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            results[name].append({"seed": seed, **result})
            print(f"{name} seed {seed} ({time.perf_counter() - start:.1f} s): "
                  f"correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)

    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
    print(f"\n{'workload':<14} {'metric':<12} {'median':>12} {'spread':>7} {'bound':>6}"
          + ("  moved" if earlier else ""))
    for name in names:
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results[name]]
            if len(values) < 2:
                continue
            median = statistics.median(values)
            line = (f"{name:<14} {metric['name']:<12} {median:>12.5g} "
                    f"{spread(values):>7.3f} {metric['bound']:>6}")
            if earlier:
                before = statistics.median(
                    r["metrics"][metric["name"]]["value"] for r in earlier[name])
                worse = (median - before) / before
                line += f"  {worse if metric['better'] == 'lower' else -worse:+.3f}"
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
