"""Steadiness command: repeat workloads over seeds and report spreads.

Usage (from the root of a source checkout)::

    python3 perfbench/steady.py --runs 10 \\
        --workload forest-oneshot --workload serve-delta

Runs ``perfbench/run.py`` once per seed (1 to ``--runs``), one run at a
time, for the ``run_seconds`` that ``BENCHMARK.json`` declares, and prints
for every end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  The ``call/calib`` row
divides each run's ``call_ms.p50`` by its ``host.calib_ms``, which
shows how much of the spread is the host rather than the program.  The
last line is the same summary as JSON.  The bounds in
``BENCHMARK.json`` are set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
CALIB = re.compile(r"host\.calib_ms start=([\d.]+) end=([\d.]+)")


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_workload(workload, runs, seconds):
    per_metric, failed_share = {}, []
    for seed in range(1, runs + 1):
        began = time.perf_counter()
        done = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit "
                             f"{done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(done.stderr)
        failed_share.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
        calib = CALIB.search(done.stderr)
        if calib:
            host = (float(calib.group(1)) + float(calib.group(2))) / 2
            per_metric.setdefault("call/calib", []).append(
                result["metrics"]["call_ms.p50"]["value"] / host)
        print(f"{workload} seed {seed} "
              f"({time.perf_counter() - began:.0f} s): " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    summary = {name: summarize(values) for name, values in per_metric.items()}
    summary["failed_share"] = sorted(set(failed_share))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    report = {}
    for workload in args.workload:
        summary = run_workload(workload, args.runs, seconds)
        report[workload] = summary
        print(f"\n{workload}  (failed share per run: "
              f"{summary['failed_share']})")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}")
        for name, s in summary.items():
            if name == "failed_share":
                continue
            print(f"  {name:<16}{s['median']:>12.4g}{s['q1']:>12.4g}"
                  f"{s['q3']:>12.4g}{s['spread']:>9.3f}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
