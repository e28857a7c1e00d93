"""``stream``: a sliding-window edge stream through ``StreamSession``.

The documented path, ``StreamSession.from_graph(graph,
cache=ResultCache())``, on a ~40k-edge power-law graph with a planted
dense block.  The benchmark owns the timeline: a seeded permutation of
the edge universe with an 80% window.  Batches are mostly 8 arrivals +
8 expiries; every ``burst_every``-th batch slides the window by
``burst`` edges, enough to trip the session's rebuild fallback.

Each batch is applied, then read once fresh (``query()``, which must
reflect the batch) and ``REPEAT_READS`` more times.  Closed loop: the
next batch is applied only after the reads return, because a single
synchronous session's queueing delay is a function of its service time
alone.  Reads and writes share the memo layer: every mutation
invalidates it and the fresh read refills it.

One chunk replays the first ``batches`` batches of the timeline on a
freshly seeded session, so chunks repeat their counts exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import inputs, oracle
from .common import Chunk, Probe, Tally

SALT = 0x57EA
REPEAT_READS = 2


@dataclass(frozen=True)
class Scale:
    """Sizes of the stream workload."""

    num_vertices: int
    num_edges: int
    block: int
    batches: int
    batch_size: int
    burst_every: int
    burst: int
    checkpoint_every: int


FULL = Scale(3_000, 40_000, 80, 400, 8, 50, 400, 25)
TINY = Scale(300, 2_400, 24, 12, 4, 6, 100, 4)


@dataclass
class State:
    """The timeline, its base graph and the session seeded in setup."""

    scale: Scale
    timeline: inputs.Timeline
    base: object
    session: object

    def describe(self) -> dict:
        """Input sizes for the run report."""
        sizes = self.timeline.sizes
        return {
            "n": self.scale.num_vertices,
            "m_universe": int(self.timeline.order.shape[0]),
            "window_edges": self.timeline.window,
            "batches_per_chunk": len(sizes),
            "updates_per_chunk": 2 * int(sum(sizes)),
            "burst_batches_per_chunk": sum(1 for s in sizes if s == self.scale.burst),
        }


def _seed_session(base):
    from repro.store.memo import ResultCache
    from repro.stream import StreamSession

    session = StreamSession.from_graph(base, cache=ResultCache())
    session.query()
    return session


def setup(seed: int, workdir, scale: Scale = FULL) -> State:
    """Make the timeline and seed a session with its initial window."""
    from repro.graph.undirected import UndirectedGraph

    rng = np.random.default_rng([seed, SALT])
    timeline = inputs.stream_timeline(
        rng, scale.num_vertices, scale.num_edges, scale.block,
        scale.batches, scale.batch_size, scale.burst_every, scale.burst,
    )
    base = UndirectedGraph.from_edges(scale.num_vertices, timeline.initial())
    return State(scale, timeline, base, _seed_session(base))


def _check_checkpoint(session, fresh, window: np.ndarray) -> list:
    """Full comparison with a direct ``engine.run("pkmc")`` of the graph."""
    import repro.engine as engine

    problems = []
    graph = session.graph()
    if graph.num_edges != window.shape[0]:
        problems.append(
            f"session holds {graph.num_edges} edges, the window {window.shape[0]}"
        )
    direct = engine.run("pkmc", graph)
    if not np.array_equal(np.sort(direct.vertices), np.sort(fresh.vertices)):
        problems.append("query() vertices differ from engine.run('pkmc')")
    if float(direct.density) != float(fresh.density):
        problems.append("query() density differs from engine.run('pkmc')")
    return problems


def run_chunk(state: State, tally: Tally, probe: Probe, first_op: int) -> Chunk:
    """Replay the chunk's batches on a freshly seeded session."""
    scale = state.scale
    timeline = state.timeline
    session = state.session
    state.session = None
    if session is None:
        with probe.paused():
            session = _seed_session(state.base)
    chunk = Chunk()
    offset = 0
    stats_before = session.stats()
    for index, size in enumerate(timeline.sizes):
        arrive, expire = timeline.batch(offset, size)
        insertions, deletions = arrive.tolist(), expire.tolist()
        offset += size
        probe.operation(first_op + index)
        tally.attempt()
        started = time.perf_counter()
        try:
            session.apply(insertions=insertions, deletions=deletions)
            fresh = session.query()
            read = time.perf_counter()
            repeats = [session.query() for _ in range(REPEAT_READS)]
            done = time.perf_counter()
        except Exception:  # noqa: BLE001 - counted, the replay goes on
            chunk.replay_s += time.perf_counter() - started
            tally.raised(f"stream batch {index}")
            continue
        chunk.samples.append(read - started)
        chunk.replay_s += done - started
        chunk.work += 2 * size
        with probe.paused():
            window = timeline.window_at(offset)
            problems = oracle.check_uds(window, scale.num_vertices,
                                        fresh.vertices, fresh.density,
                                        k_star=fresh.k_star)
            key = oracle.answer_key(fresh)
            if any(oracle.answer_key(r) != key for r in repeats):
                problems.append("a repeat read differs from the fresh read")
            if (index + 1) % scale.checkpoint_every == 0:
                problems += _check_checkpoint(session, fresh, window)
            if problems:
                tally.fail(f"stream batch {index}", problems)
    stats = session.stats()
    chunk.counts = {
        f"core.dynamic.{key}": stats[key] - stats_before[key]
        for key in ("affected_total", "rebuilds", "incremental_refreshes",
                    "total_sweeps")
    }
    return chunk


def summary(chunks: list, end_to_end: dict) -> dict:
    """The workload's own names for its end-to-end figures."""
    return {
        "stream_updates_per_s": (end_to_end["ops_per_s"], "updates/s"),
        "stream_fresh_p50_s": (end_to_end["latency_p50_s"], "s"),
        "stream_fresh_p95_s": (end_to_end["latency_tail_s"], "s"),
    }
