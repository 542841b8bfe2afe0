"""End-to-end benchmark of ``repro``: one workload per invocation.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload forest-oneshot --seed 1 \\
        --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with tracing off; ``--trace 1``
reports the per-layer metrics of a traced run.  Diagnostics go to
standard error.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("forest-oneshot", "star-oneshot", "orient-hpartition",
             "serve-delta")

END_TO_END = {
    "setup_s": "s",
    "call_ms.p50": "ms",
    "rss_peak_mb": "MB",
    "colors_used": "count",
    "local_rounds": "count",
}

PASSES = {
    "forest": ("setup", "algorithm2", "leftover_recolor", "diameter_reduce",
               "finalize"),
    "star_forest": ("setup", "orient", "sample", "matchings", "assemble",
                    "leftover_recolor", "finalize"),
    "orientation": ("setup", "decompose", "orient", "finalize"),
}

PER_LAYER = (
    "nashwilliams.arboricity_ms",
    "nashwilliams.pseudoarboricity_ms",
    "graph.flow_ms",
    "graph.flow_calls",
    "graph.snapshot_ms",
    "graph.power_graph_ms",
    "graph.neighborhood_set_ms",
    "graph.neighborhood_set_calls",
    "graph.io.read_ms",
    "decomposition.network_decomposition_ms",
    "decomposition.h_partition_ms",
    "decomposition.lll_ms",
    "core.algorithm2_ms",
    "core.augment_edge_ms",
    "core.augment_edge_calls",
    "core.cut_ms",
    *(f"pipeline.{task}.{p}_ms" for task, names in PASSES.items()
      for p in names),
    "pipeline.outside_passes_ms",
    "service.apply_ms",
    "service.journal_ms",
    "service.checkpoint_ms",
    "service.patch_snapshot_ms",
    "service.repair_waves_ms",
    "service.summarize_ms",
    "service.protocol_ms",
    "service.dirty_vertices",
    "service.incremental_batches",
    "service.batches",
    "service.write_ms.p50",
    "service.write_ms.p90",
    "service.read_ms.p50",
    "service.read_ms.p90",
    "verify.validate_ms",
    "unattributed_ms",
    "host.calib_ms",
    "trace.overhead_ms",
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "ms" if "_ms" in name else "count"


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def calibrate():
    """Milliseconds per repeat of the host reference kernel
    (``calib.py``), run in a child process that ends before this
    returns."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "calib.py")],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``VmHWM``)."""
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log(f"no repro sources under {os.path.join(ROOT, 'src')}; run "
            "from the root of a source checkout")
        return 2
    # SIGTERM unwinds like an exception, so the daemon and the scratch
    # directory are cleaned up by the finally blocks below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(HERE))
    import repro  # noqa: F401  (import cost stays out of setup_s)
    from perfbench import oneshot, serve

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        calib = calibrate()
        if args.workload == "serve-delta":
            outcome = serve.run(args.seed, args.seconds, args.trace, tmpdir,
                                log, ROOT)
        else:
            outcome = oneshot.run(args.workload, args.seed, args.seconds,
                                  args.trace, tmpdir, log)
        rss = peak_rss_mb()
        calib_end = calibrate()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    attempted, failed, correct, e2e, layers = outcome
    e2e.setdefault("rss_peak_mb", rss)
    calib_ms = statistics.median(calib + calib_end)
    log(f"host.calib_ms start={statistics.median(calib):.2f} "
        f"end={statistics.median(calib_end):.2f}")

    if args.trace:
        layers["host.calib_ms"] = calib_ms
        layers["decomposition.lll_ms"] = (
            layers.get("pipeline.star_forest.sample_ms", 0.0)
            + layers.get("pipeline.star_forest.matchings_ms", 0.0))
        metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
