"""One-shot workloads: one default-config ``repro.decompose`` call per
fresh input graph, closed loop, one call at a time."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import statistics
import time

from . import check, inputs
from .trace import Tracer, self_times

#: ingests timed per input; ``setup_s`` is the median over all of them
INGESTS = 3

WORKLOADS = {
    "forest-oneshot": dict(
        task="forest", kwargs={},
        make=lambda seed: inputs.forest_union(1000, 3, seed),
        warm=lambda: inputs.forest_union(60, 3, 0),
    ),
    "star-oneshot": dict(
        task="star_forest", kwargs={},
        make=lambda seed: inputs.forest_union(500, 5, seed, simple=True),
        warm=lambda: inputs.forest_union(60, 5, 0, simple=True),
    ),
    "orient-hpartition": dict(
        task="orientation", kwargs={"method": "hpartition"},
        make=lambda seed: inputs.preferential_attachment(10000, 3, seed),
        warm=lambda: inputs.preferential_attachment(60, 3, 0),
    ),
}


def check_result(task, n, edges, cert, result, session) -> int:
    """Independent checks of one result; returns the colors it used
    (forests, star forests, or the orientation bound)."""
    pairs = dict(enumerate(edges))
    check.require(result.graph.n == n and result.graph.m == len(edges),
                  "ingested graph differs from the generated one")
    eps = result.config.epsilon
    if task == "orientation":
        check.orientation(pairs, result.coloring, result.bound)
        check.require(result.bound <= math.floor((2 + eps) * cert),
                      f"bound {result.bound} exceeds floor((2+eps)alpha*)")
        check.pseudoarboricity_certified(
            n, len(edges), cert, session.pseudoarboricity())
        return result.bound
    check.arboricity_certified(n, len(edges), cert, session.arboricity())
    if task == "star_forest":
        return check.star_forests(pairs, result.coloring)
    colors = check.forests(pairs, result.coloring)
    budget = math.ceil((1 + eps) * cert)
    check.require(colors <= budget,
                  f"{colors} forests exceed ceil((1+eps)alpha)={budget}")
    return colors


def _call(spec, graph, tracer=None):
    import repro

    session = repro.Session(graph)
    gc.collect()
    scope = tracer.region("call") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with scope:
        result = repro.decompose(graph, task=spec["task"], session=session,
                                 **spec["kwargs"])
    return result, session, time.perf_counter() - start


class _Samples:
    def __init__(self, seed) -> None:
        self.seed = seed
        self.setup, self.calls = [], []
        self.colors, self.rounds, self.outside = [], [], []
        self.passes = {}
        self.overhead, self.validate = [], []
        self.attempted = self.failed = 0
        self.correct = True


def _traced_call(spec, graph, tracer, samples):
    tracer.install()
    try:
        result, _, wall = _call(spec, graph, tracer)
    finally:
        tracer.remove()
    start = time.perf_counter()
    result.validate("basic")
    samples.validate.append(time.perf_counter() - start)
    return wall


def _one_input(spec, path, samples, tracer, trace, log):
    # looked up through the module, so the tracer's wrapper is seen
    from repro.graph import io as graph_io

    n, edges, cert = spec["make"](samples.seed * 1_000_003
                                  + samples.attempted)
    inputs.write_edge_list(path, n, edges)
    # the calls use the last graph read (the last two when traced);
    # older ones are dropped so they stay out of rss_peak_mb
    graphs, keep = [], 2 if trace else 1
    if trace:
        tracer.install()
    try:
        for _ in range(INGESTS):
            gc.collect()
            start = time.perf_counter()
            graphs.append(graph_io.read_edge_list(path))
            samples.setup.append(time.perf_counter() - start)
            del graphs[:-keep]
    finally:
        tracer.remove()
    try:
        traced_wall = None
        if trace and samples.attempted % 2:
            traced_wall = _traced_call(spec, graphs[1], tracer, samples)
        result, session, wall = _call(spec, graphs[0])
        if trace and traced_wall is None:
            traced_wall = _traced_call(spec, graphs[1], tracer, samples)
        colors = check_result(spec["task"], n, edges, cert, result, session)
    except check.CheckFailed as error:
        samples.failed += 1
        samples.correct = False
        log(f"check failed on input {samples.attempted}: {error}")
        return
    except Exception as error:  # noqa: BLE001 -- counted, the run goes on
        samples.failed += 1
        log(f"input {samples.attempted} raised {type(error).__name__}: "
            f"{error}")
        return
    samples.calls.append(wall)
    samples.colors.append(colors)
    samples.rounds.append(result.rounds.total)
    pass_walls = {p.name: p.wall_ms for p in result.stats.passes}
    samples.outside.append(wall * 1000.0 - sum(pass_walls.values()))
    for pass_name, ms in pass_walls.items():
        samples.passes.setdefault(pass_name, []).append(ms)
    if trace:
        samples.overhead.append(traced_wall - wall)


def run(name, seed, seconds, trace, tmpdir, log):
    """Run one-shot workload ``name``; see ``run.py`` for the result."""
    from repro.graph.io import read_edge_list

    spec = WORKLOADS[name]
    # Untimed warm-up: lazy imports and first-use allocations.
    n, edges, _ = spec["warm"]()
    path = os.path.join(tmpdir, "input.txt")
    inputs.write_edge_list(path, n, edges)
    _call(spec, read_edge_list(path))

    tracer = Tracer()
    samples = _Samples(seed)
    deadline = time.perf_counter() + seconds
    iterations = []
    while not iterations or (
            time.perf_counter() + statistics.median(iterations) <= deadline):
        began = time.perf_counter()
        samples.attempted += 1
        _one_input(spec, path, samples, tracer, trace, log)
        iterations.append(time.perf_counter() - began)

    s = samples
    med = statistics.median
    e2e = {
        "setup_s": med(s.setup),
        "call_ms.p50": med(s.calls) * 1000.0 if s.calls else 0.0,
        "colors_used": statistics.fmean(s.colors) if s.colors else 0,
        "local_rounds": statistics.fmean(s.rounds) if s.rounds else 0,
    }
    layers = {}
    if trace:
        per = max(1, len(s.validate))
        for key, (secs, count) in self_times(tracer.spans).items():
            # ingests are per input, INGESTS of them; the rest per call
            scale = per * INGESTS if key == "graph.io.read" else per
            layers[f"{key}_ms"] = secs * 1000.0 / scale
            layers[f"{key}_calls"] = count / scale
        layers["unattributed_ms"] = layers.pop("call_ms", 0.0)
        layers.pop("call_calls", None)
        for pass_name, values in s.passes.items():
            layers[f"pipeline.{spec['task']}.{pass_name}_ms"] = (
                statistics.fmean(values))
        layers["pipeline.outside_passes_ms"] = (
            statistics.fmean(s.outside) if s.outside else 0.0)
        layers["trace.overhead_ms"] = (
            med(s.overhead) * 1000.0 if s.overhead else 0.0)
        layers["verify.validate_ms"] = (
            med(s.validate) * 1000.0 if s.validate else 0.0)
    return s.attempted, s.failed, s.correct, e2e, layers
