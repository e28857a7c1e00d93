"""Span tracing from outside the program: wrap layer entry points.

The program has no tracer of its own, so the traced run installs
wrappers around the public entry points of each layer and records a
span per call: name, start, end, parent span and the benchmark
operation it belongs to.  Spans stay in memory and are written once,
at exit, as Chrome trace-event JSON (Perfetto and chrome://tracing
open it).

Wrappers go where callers look the name up at call time.  A module
that did ``from x import f`` holds its own binding, so e.g. the serve
layer's engine entry is wrapped as ``repro.serve.server.engine_run``
and the numpy kernels as attributes of the backend instance.  Every
wrapper is removed by :meth:`Tracer.uninstall`, so untraced work in the
same process runs the program's own functions.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Optional

from .inputs import DDS_SOLVERS, UDS_SOLVERS

#: Solvers whose functions get a ``solver.<name>`` span, by kind: every
#: solver a workload runs.
TRACED_SOLVERS = {"uds": UDS_SOLVERS, "dds": DDS_SOLVERS}
KERNEL_OPS = ("sweep_values", "segment_h_index", "induced_edge_count")
RUNTIME_SPANS = ("runtime.parfor", "runtime.par_tasks", "runtime.charge_serial")

_MISSING = object()


class Tracer:
    """In-memory span recorder plus per-layer counters.

    ``spans`` holds ``[name, start, end, parent, op]`` rows in opening
    order; ``parent`` is the row index of the enclosing span or -1.
    ``op`` is the benchmark operation id the workload sets with
    :meth:`operation`.  ``counts`` accumulates the counters the
    wrappers observe (calls, hits, slots, iterations, ...).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._undo: list = []
        self.op = -1
        self.active = True

    # -- recording -----------------------------------------------------
    def operation(self, op_id: int) -> None:
        """Tag the spans that follow with benchmark operation ``op_id``."""
        self.op = op_id

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span called ``name``; return its result."""
        if not self.active:
            return func(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        row = [name, self._clock(), 0.0, parent, self.op]
        self.spans.append(row)
        self._stack.append(index)
        try:
            return func(*args, **kwargs)
        finally:
            row[2] = self._clock()
            self._stack.pop()

    # -- installation ---------------------------------------------------
    def _spanning(self, name: str, func: Callable,
                  after: Optional[Callable] = None) -> Callable:
        """``func`` wrapped in a span; ``after`` records counters.

        ``after(tracer, result, args, kwargs)`` runs outside the span,
        only while the tracer is active.
        """
        @wraps(func)
        def wrapper(*args, **kwargs):
            result = self.call(name, func, *args, **kwargs)
            if after is not None and self.active:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = vars(owner).get(attr, _MISSING)

        def restore():
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

        self._undo.append(restore)
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (function, method or bound method)."""
        self._patch(owner, attr, self._spanning(name, getattr(owner, attr), after))

    def wrap_classmethod(self, cls: type, attr: str, name: str,
                         after: Optional[Callable] = None) -> None:
        """Like :meth:`wrap` for a classmethod defined on ``cls``."""
        func = vars(cls)[attr].__func__
        self._patch(cls, attr, classmethod(self._spanning(name, func, after)))

    def wrap_solver(self, spec: Any) -> None:
        """Span a registered solver's function (``SolverSpec`` is frozen)."""
        original = spec.func

        def count(tracer, result, args, kwargs):
            _count_solver(tracer, spec.name, result)

        object.__setattr__(spec, "func",
                           self._spanning(f"solver.{spec.name}", original, count))
        self._undo.append(lambda: object.__setattr__(spec, "func", original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- aggregation ----------------------------------------------------
    def self_times(self, start: int = 0) -> dict:
        """Self seconds per span name over spans ``start:``.

        A span's self time is its duration minus the durations of its
        direct children, so self times over a span tree add up to the
        root spans' total with nothing counted twice.
        """
        rows = self.spans[start:]
        child_time = [0.0] * len(rows)
        for row in rows:
            parent = row[3] - start
            if parent >= 0:
                child_time[parent] += row[2] - row[1]
        totals: dict = defaultdict(float)
        for i, row in enumerate(rows):
            totals[row[0]] += (row[2] - row[1]) - child_time[i]
        return totals

    def inclusive_times(self, start: int = 0) -> dict:
        """Inclusive seconds per span name over spans ``start:``."""
        totals: dict = defaultdict(float)
        for row in self.spans[start:]:
            totals[row[0]] += row[2] - row[1]
        return totals

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write all spans as Chrome trace-event JSON (complete events)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "op": op},
            }
            for index, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")


# ----------------------------------------------------------------------
# counter hooks (run outside the spans)
# ----------------------------------------------------------------------


def _count_solver(tracer: Tracer, name: str, result: Any) -> None:
    counts = tracer.counts
    counts[f"solver.{name}.runs"] += 1
    counts[f"solver.{name}.iterations"] += int(result.iterations)
    counts["runtime.simulated_s"] += float(result.simulated_seconds or 0.0)
    extras = result.extras or {}
    if "supersteps" in extras:
        counts["distributed.supersteps"] += int(extras["supersteps"])
        shard_stats = extras.get("shard_stats") or {}
        counts["distributed.boundary_bytes"] += int(
            shard_stats.get("boundary_messages_bytes", 0)
        )


def _count(key: str) -> Callable:
    def hook(tracer, result, args, kwargs):
        tracer.counts[key] += 1
    return hook


def _count_reader(tracer, result, args, kwargs):
    tracer.counts["store.reader.calls"] += 1
    stream = args[0]
    tracer.counts["store.reader.bytes"] += os.fstat(stream.fileno()).st_size


def _count_memo_get(tracer, result, args, kwargs):
    if args[1] is None:
        return
    key = "store.memo.misses" if result is None else "store.memo.hits"
    tracer.counts[key] += 1


def _count_invalidated(tracer, result, args, kwargs):
    tracer.counts["store.memo.invalidated"] += int(result)


def _count_sweep(tracer, result, args, kwargs):
    graph = args[0]
    vertices = args[2] if len(args) > 2 else kwargs.get("vertices")
    tracer.counts["kernels.sweep_values.calls"] += 1
    if vertices is None:
        slots = int(graph.indptr[-1])
    else:
        slots = int(graph.degrees()[vertices].sum())
    tracer.counts["kernels.sweep_values.slots"] += slots


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point (undo with ``uninstall``)."""
    import repro.engine
    import repro.graph.directed
    import repro.graph.undirected
    import repro.serve.server
    import repro.store.reader
    from repro.backends import get_backend
    from repro.core.dynamic import DynamicKStarCore
    from repro.engine.spec import get_solver
    from repro.graph.directed import DirectedGraph
    from repro.graph.undirected import UndirectedGraph
    from repro.runtime.simruntime import SimRuntime
    from repro.serve.server import DsdServer
    from repro.store.memo import ResultCache
    from repro.store.shard import ShardedGraph
    from repro.stream import StreamSession

    tracer.wrap(repro.store.reader, "read_edges_vectorized",
                "store.reader.parse", _count_reader)
    for cls in (UndirectedGraph, DirectedGraph):
        tracer.wrap_classmethod(cls, "from_edges", "store.csr.build",
                                _count("store.csr.builds"))
    for module in (repro.graph.undirected, repro.graph.directed):
        tracer.wrap(module, "fingerprint_arrays", "store.fingerprint",
                    _count("store.fingerprint.calls"))
    tracer.wrap(ResultCache, "get", "store.memo.get", _count_memo_get)
    tracer.wrap(ResultCache, "put", "store.memo.put")
    tracer.wrap(ResultCache, "invalidate_fingerprint",
                "store.memo.invalidate", _count_invalidated)
    _wrap_memo_evictions(tracer, ResultCache)
    tracer.wrap(ShardedGraph, "shard", "store.shard.shard")
    tracer.wrap(repro.engine, "run", "engine.run", _count("engine.runs"))
    tracer.wrap(repro.serve.server, "engine_run", "engine.run",
                _count("engine.runs"))
    for kind, names in TRACED_SOLVERS.items():
        for name in names:
            tracer.wrap_solver(get_solver(kind, name))
    backend = get_backend("numpy")
    tracer.wrap(backend, "sweep_values", "kernels.sweep_values", _count_sweep)
    for op in KERNEL_OPS[1:]:
        tracer.wrap(backend, op, f"kernels.{op}", _count(f"kernels.{op}.calls"))
    tracer.wrap(SimRuntime, "parfor", "runtime.parfor",
                _count("runtime.parfor.calls"))
    tracer.wrap(SimRuntime, "par_tasks", "runtime.par_tasks")
    tracer.wrap(SimRuntime, "charge_serial", "runtime.charge_serial")
    tracer.wrap(DsdServer, "submit", "serve.submit")
    tracer.wrap(DsdServer, "drain", "serve.drain")
    tracer.wrap(StreamSession, "apply", "stream.apply")
    tracer.wrap(StreamSession, "query", "stream.query")
    tracer.wrap(DynamicKStarCore, "graph", "core.dynamic.graph")
    tracer.wrap(DynamicKStarCore, "densest_subgraph", "core.dynamic.densest")
    # Private steps inside graph(): the k*-core refresh and the CSR
    # materialization.  A rename makes the traced run fail loudly here.
    tracer.wrap(DynamicKStarCore, "_refresh", "core.dynamic.refresh")
    tracer.wrap(DynamicKStarCore, "_materialize", "core.dynamic.materialize")


def _wrap_memo_evictions(tracer: Tracer, cache_cls: type) -> None:
    """Count capacity evictions from outside: entries that ``put`` dropped."""
    traced_put = cache_cls.put

    def put(cache, key, result):
        before = len(cache)
        fresh = key is not None and key not in cache._entries
        traced_put(cache, key, result)
        if tracer.active:
            dropped = before + int(fresh) - len(cache)
            tracer.counts["store.memo.evictions"] += max(0, dropped)

    tracer._patch(cache_cls, "put", put)
