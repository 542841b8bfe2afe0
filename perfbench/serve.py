"""The ``serve-delta`` workload: the ``repro serve`` daemon as a
subprocess, one closed-loop client alternating writes and reads.

The daemon journals to a checkpoint directory and holds a union of
``K`` random spanning trees on ``N`` vertices.  It watches
``orientation`` and ``pseudoforest`` (method ``hpartition``, α* pinned
to ``K``).  Each write deletes ``BATCH`` random live edges and re-inserts
the ``BATCH`` pairs the previous write deleted (the batch mix of the
delta benchmark in ``benchmarks/bench_kernel.py``), so the graph always
stays inside the original union: α* stays ``K`` (the pin stays right)
and ``m > (K-1)n`` keeps the density bound at ``K``.  Each read is a
``current`` of one watched task, alternating between the two.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time

from . import check, inputs
from .trace import self_times

N, K, BATCH = 60_000, 4, 4
TASKS = ("orientation", "pseudoforest")
#: daemon lifecycles timed for ``setup_s``; the last one serves the run
SETUPS = 2
READY_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` subprocess and a client connected to it."""

    def __init__(self, root, workdir, spans_path=None) -> None:
        from repro.service.client import ServeClient

        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        command = [sys.executable]
        if spans_path is None:
            command += ["-m", "repro"]
        else:
            command += [os.path.join(root, "perfbench", "tracedaemon.py"),
                        spans_path]
        command += ["serve", "--port", "0", "--checkpoint-dir",
                    os.path.join(workdir, "checkpoint")]
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        self.client = None
        try:
            ready, _, _ = select.select(
                [self.process.stdout], [], [], READY_TIMEOUT_S)
            line = self.process.stdout.readline() if ready else ""
            if "port=" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            port = int(line.split("port=")[1].split()[0])
            self.client = ServeClient("127.0.0.1", port, timeout=120.0)
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status",
                  encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """Shut down through the protocol, then wait for the exit."""
        try:
            self.client.shutdown()
            self.client.close()
            self.process.wait(timeout=120)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def _start(root, workdir, path, spans_path=None):
    """Start a daemon, load the graph and watch both tasks."""
    daemon = Daemon(root, workdir, spans_path)
    try:
        ids = [daemon.client.load_graph(path=path)["id"]]
        for task in TASKS:
            ids.append(daemon.client.watch(
                task, method="hpartition", pseudoarboricity=K)["id"])
    except BaseException:
        daemon.kill()
        raise
    return daemon, ids


def check_maintained(client, pairs, n) -> None:
    """Full results of both watches pass the independent checks;
    ``pairs`` maps every live edge id to its endpoints."""
    m = len(pairs)
    check.require(math.ceil(m / n) == K,
                  f"density bound {math.ceil(m / n)} != pinned alpha* {K}")
    for task in TASKS:
        reply = client.current(task, include="full")
        full = reply["full"]
        coloring = {eid: color for eid, color in full["coloring"]}
        if task == "orientation":
            bound = full["bound"]
            eps = full["config"]["epsilon"]
            check.orientation(pairs, coloring, bound)
            check.require(bound <= math.floor((2 + eps) * K),
                          f"bound {bound} exceeds floor((2+eps)alpha*)")
        else:
            classes = check.pseudoforests(pairs, coloring)
            check.require(classes <= full["k"],
                          f"{classes} pseudoforests exceed k={full['k']}")


class _Mirror:
    """The client's copy of the live edge set, with O(1) random picks."""

    def __init__(self, edges) -> None:
        self.pairs = dict(enumerate(edges))
        self.alive = list(self.pairs)

    def take(self, rng):
        """Remove a uniformly random live edge; returns ``(eid, pair)``."""
        i = rng.randrange(len(self.alive))
        eid = self.alive[i]
        self.alive[i] = self.alive[-1]
        self.alive.pop()
        return eid, self.pairs.pop(eid)

    def add(self, eid, pair) -> None:
        self.pairs[eid] = pair
        self.alive.append(eid)

    def __len__(self) -> int:
        return len(self.pairs)


def run(seed, seconds, trace, tmpdir, log, root):
    """Run ``serve-delta``; see ``run.py`` for the result."""
    n, edges, _ = inputs.forest_union(N, K, seed)
    path = os.path.join(tmpdir, "graph.txt")
    inputs.write_edge_list(path, n, edges)
    spans_path = os.path.join(tmpdir, "spans.json") if trace else None

    setups = []
    daemon = None
    try:
        for attempt in range(SETUPS):
            workdir = os.path.join(tmpdir, f"daemon{attempt}")
            os.mkdir(workdir)
            start = time.perf_counter()
            daemon, setup_ids = _start(root, workdir, path, spans_path)
            setups.append(time.perf_counter() - start)
            if attempt < SETUPS - 1:
                daemon.stop()
                daemon = None
        result = _loop(daemon, seed, seconds, n, edges, log)
        rss = daemon.peak_rss_mb()
        daemon.stop()
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()

    attempted, failed, correct, loop = result
    med = statistics.median
    e2e = {
        "setup_s": med(setups),
        "call_ms.p50": med([w + r for w, r in zip(loop["write"],
                                                  loop["read"])] or [0.0])
        * 1000.0,
        "rss_peak_mb": rss,
        "colors_used": statistics.fmean(loop["colors"] or [0]),
        "local_rounds": statistics.fmean(loop["rounds"] or [0]),
    }
    layers = {}
    if trace:
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        layers = _service_layers(spans, setup_ids, loop)
    return attempted, failed, correct, e2e, layers


def _loop(daemon, seed, seconds, n, edges, log):
    from repro.service.client import ServeError

    mirror = _Mirror(edges)
    rng = random.Random(seed)
    loop = {key: [] for key in (
        "write", "read", "colors", "rounds", "reports",
        "write_ids", "read_ids")}
    attempted = failed = 0
    correct = True
    pending = []
    deadline = time.perf_counter() + seconds
    iterations = []
    while not iterations or (
            time.perf_counter() + statistics.median(iterations) <= deadline):
        began = time.perf_counter()
        attempted += 1
        task = TASKS[len(iterations) % 2]
        try:
            problem = _iteration(daemon.client, mirror, rng, pending, n,
                                 loop, task)
        except (ServeError, OSError) as error:
            failed += 1
            log(f"round {attempted}: {type(error).__name__}: {error}")
            if daemon.process.poll() is not None:
                break
        else:
            if problem:
                failed, correct = failed + 1, False
                log(problem)
        iterations.append(time.perf_counter() - began)
    attempted += 1
    try:
        check_maintained(daemon.client, mirror.pairs, n)
    except check.CheckFailed as error:
        failed, correct = failed + 1, False
        log(f"maintained results after the run: {error}")
    except (ServeError, OSError) as error:
        failed += 1
        log(f"final check: {type(error).__name__}: {error}")
    return attempted, failed, correct, loop


def _iteration(client, mirror, rng, pending, n, loop, task):
    """One closed-loop round: a write, then a read of ``task``.

    ``pending`` holds the pairs to re-insert; once the write is
    acknowledged it holds the pairs this write deleted.  Returns a
    description of the mismatch if the daemon's n and m differ from the
    client's mirror, else None."""
    deleted = [mirror.take(rng) for _ in range(BATCH)]
    start = time.perf_counter()
    try:
        reply = client.apply_delta(inserts=pending,
                                   deletes=[eid for eid, _ in deleted])
    except BaseException:
        # the daemon rejects a failed batch whole: nothing was deleted
        for eid, pair in deleted:
            mirror.add(eid, pair)
        raise
    wrote = time.perf_counter()
    report = reply["report"]
    for eid, pair in zip(report["inserted"], pending):
        mirror.add(eid, pair)
    pending[:] = [pair for _, pair in deleted]
    start_read = time.perf_counter()
    current = client.current(task)
    done = time.perf_counter()
    loop["write"].append(wrote - start)
    loop["read"].append(done - start_read)
    loop["reports"].append(report)
    loop["write_ids"].append(reply["id"])
    loop["read_ids"].append(current["id"])
    summary = current["result"]
    if task == "orientation":
        loop["colors"].append(summary["bound"])
        loop["rounds"].append(summary["rounds"])
    problem = None
    if summary["n"] != n or summary["m"] != len(mirror):
        problem = (f"after batch {report['seq']}: daemon has "
                   f"n={summary['n']} m={summary['m']}, client mirror "
                   f"n={n} m={len(mirror)}")
    return problem


def _service_layers(spans, setup_ids, loop):
    """Per-layer figures from the daemon's spans and the client's view."""
    roots = {}
    for index, (name, start, end, parent, tag) in enumerate(spans):
        if parent < 0 and name == "service.handle" and end is not None:
            roots[tag] = (index, end - start)
    setup_roots = {roots[i][0] for i in setup_ids if i in roots}
    write_roots = {roots[i][0] for i in loop["write_ids"] if i in roots}
    read_roots = {roots[i][0] for i in loop["read_ids"] if i in roots}
    setup = self_times(spans, lambda r: r in setup_roots)
    writes = self_times(spans, lambda r: r in write_roots)
    reads = self_times(spans, lambda r: r in read_roots)
    batches = max(1, len(loop["write"]))
    nreads = max(1, len(loop["read"]))

    def ms(totals, name, per):
        return totals.get(name, [0.0, 0])[0] * 1000.0 / per

    rtt = dict(zip(loop["write_ids"], loop["write"]))
    rtt.update(zip(loop["read_ids"], loop["read"]))
    protocol = [rtt[i] - roots[i][1] for i in rtt if i in roots]
    reports = loop["reports"]
    return {
        "graph.io.read_ms": ms(setup, "graph.io.read", 1),
        "graph.snapshot_ms": ms(setup, "graph.snapshot", 1),
        "decomposition.h_partition_ms": ms(setup, "decomposition.h_partition",
                                           1),
        "service.apply_ms": statistics.fmean(r["wall_ms"] for r in reports),
        "service.journal_ms": ms(writes, "service.journal", batches),
        "service.checkpoint_ms": ms(writes, "service.checkpoint", batches),
        "service.patch_snapshot_ms": ms(writes, "service.patch_snapshot",
                                        batches),
        "service.repair_waves_ms": ms(writes, "service.repair_waves",
                                      batches),
        "service.summarize_ms": ms(reads, "service.summarize", nreads),
        "service.protocol_ms": statistics.fmean(protocol) * 1000.0,
        "service.dirty_vertices": statistics.fmean(
            r["dirty_vertices"] for r in reports),
        "service.incremental_batches": sum(
            r["mode"] == "incremental" for r in reports),
        "service.batches": len(reports),
        "service.write_ms.p50": statistics.median(loop["write"]) * 1000.0,
        "service.write_ms.p90": _p90(loop["write"]) * 1000.0,
        "service.read_ms.p50": statistics.median(loop["read"]) * 1000.0,
        "service.read_ms.p90": _p90(loop["read"]) * 1000.0,
        "unattributed_ms": (ms(writes, "service.handle", 1)
                            + ms(reads, "service.handle", 1))
        / (batches + nreads),
    }


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]
