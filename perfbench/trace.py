"""Span tracing by wrapping public functions from outside the program.

:class:`Tracer` replaces each target with a wrapper that records a span
(name, start, end, parent span, tag) in memory.  A module-level function
is replaced in its defining module *and* in every loaded ``repro``
module that imported it by name, since callers look it up there; a
method is replaced on its class.  :meth:`Tracer.remove` restores every
original, so one process can alternate traced and untraced calls.

A span's self time is its duration minus the durations of its direct
children; :func:`self_times` sums it per span name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: (span name, module, attribute) -- ``Class.method`` for methods.
LAYER_TARGETS = (
    ("nashwilliams.arboricity", "repro.nashwilliams.arboricity",
     "exact_arboricity"),
    ("nashwilliams.pseudoarboricity", "repro.nashwilliams.pseudoarboricity",
     "exact_pseudoarboricity"),
    ("graph.flow", "repro.graph.flow", "FlowNetwork.max_flow"),
    ("graph.snapshot", "repro.graph.csr", "CSRGraph.from_multigraph"),
    ("graph.power_graph", "repro.graph.traversal", "power_graph"),
    ("graph.neighborhood_set", "repro.graph.csr",
     "CSRGraph.neighborhood_set"),
    ("graph.io.read", "repro.graph.io", "read_edge_list"),
    ("decomposition.network_decomposition",
     "repro.decomposition.network_decomposition", "network_decomposition"),
    ("decomposition.h_partition", "repro.decomposition.hpartition",
     "h_partition"),
    ("core.algorithm2", "repro.core.forest_decomposition", "algorithm2"),
    ("core.augment_edge", "repro.core.augmenting", "augment_edge"),
    ("core.cut", "repro.core.cut", "CutController.cut"),
)

#: daemon-side targets, traced in addition to the layers above
SERVICE_TARGETS = (
    ("service.handle", "repro.service.server", "ReproServer.handle"),
    ("service.apply", "repro.core.session", "Session.apply_delta"),
    ("service.summarize", "repro.service.server", "_summarize"),
    ("service.journal", "repro.service.checkpoint", "Checkpointer.journal"),
    ("service.checkpoint", "repro.service.checkpoint",
     "Checkpointer.checkpoint"),
    ("service.patch_snapshot", "repro.service.delta", "patched_snapshot"),
    ("service.repair_waves", "repro.service.delta", "repair_waves"),
)

# Modules whose by-name imports must be patched too; importing them
# first makes sure they are in sys.modules when the tracer scans it.
CALLER_MODULES = (
    "repro.core.session",
    "repro.core.forest_decomposition",
    "repro.core.star_forest",
    "repro.core.orientation",
    "repro.service.server",
    "repro.service.delta",
)


class Tracer:
    """In-memory span recorder over wrapped targets."""

    def __init__(self, targets=LAYER_TARGETS) -> None:
        self.targets = targets
        #: [name, start, end, parent index or -1, tag]
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    # -- recording ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, tag=None) -> int:
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else -1, tag]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def region(self, name):
        """Record one span around a ``with`` block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, tag_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name, tag_of(args) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        for module in CALLER_MODULES:
            importlib.import_module(module)
        for name, module_name, attr in self.targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name)
                original = cls.__dict__[method]
                tag_of = _request_id if attr == "ReproServer.handle" else None
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(name, original.__func__, tag_of))
                else:
                    wrapped = self._wrap(name, original, tag_of)
                setattr(cls, method, wrapped)
                self._undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original):
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans, keep=None):
    """``name -> [self seconds, calls]`` over the closed ``spans``.

    ``keep(root)`` selects by the index of each span's root span (a span
    opened with no enclosing span on its thread is its own root).
    """
    root = []
    child_time = defaultdict(float)
    for index, (_name, start, end, parent, _tag) in enumerate(spans):
        root.append(index if parent < 0 else root[parent])
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    totals = defaultdict(lambda: [0.0, 0])
    for index, (name, start, end, _parent, _tag) in enumerate(spans):
        if end is None or (keep is not None and not keep(root[index])):
            continue
        total = totals[name]
        total[0] += (end - start) - child_time[index]
        total[1] += 1
    return totals


def _request_id(args):
    request = args[1] if len(args) > 1 else None
    return request.get("id") if isinstance(request, dict) else None
