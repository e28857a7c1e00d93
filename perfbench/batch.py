"""``batch``: the analyst's path, edge-list text to answer at ~1M edges.

One chunk is a round of four jobs over the same two inputs:

* ``uds``: undirected text -> ``read_undirected_edgelist`` ->
  ``engine.run("pkmc")`` (what ``repro-dsd graph.txt`` does by default);
* ``dds``: directed text -> ``read_directed_edgelist`` ->
  ``engine.run("pwc")`` (``repro-dsd --directed``);
* ``ooc-uds`` / ``ooc-dds``: the same graphs as 8-shard snapshots,
  opened with ``load_sharded(..., memory_budget_bytes=B)`` and solved
  with ``pkmc-bsp`` / ``pwc-bsp`` over the shards.  ``B`` is a third of
  the shards' total bytes, below the monolithic CSR size, so shards
  really get evicted and reloaded.

No cache or session stands in front of the solvers here: parsing, CSR
building, the sweep kernels, SimRuntime accounting and the shard layer
do all the work.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import inputs, oracle
from .common import Chunk, Probe, Tally, median

SALT = 0xBA7C4


@dataclass(frozen=True)
class Scale:
    """Input sizes of the batch workload."""

    num_vertices: int
    num_edges: int
    uds_block: int
    uds_p: float
    dds_block: int
    shards: int


FULL = Scale(200_000, 1_000_000, 400, 0.25, 120, 8)
TINY = Scale(3_000, 15_000, 60, 0.5, 20, 4)

JOBS = ("uds", "dds", "ooc-uds", "ooc-dds")


@dataclass
class State:
    """Inputs of one batch run (files live in ``workdir``)."""

    scale: Scale
    uds_edges: np.ndarray
    dds_arcs: np.ndarray
    uds_text: Path
    dds_text: Path
    uds_shards: Path
    dds_shards: Path
    uds_budget: int
    dds_budget: int
    uds_csr_bytes: int
    dds_csr_bytes: int

    def describe(self) -> dict:
        """Input sizes for the run report."""
        return {
            "n": self.scale.num_vertices,
            "m_uds": int(self.uds_edges.shape[0]),
            "m_dds": int(self.dds_arcs.shape[0]),
            "uds_text_bytes": self.uds_text.stat().st_size,
            "dds_text_bytes": self.dds_text.stat().st_size,
            "shards": self.scale.shards,
            "uds_budget_bytes": self.uds_budget,
            "dds_budget_bytes": self.dds_budget,
            "uds_csr_bytes": self.uds_csr_bytes,
            "dds_csr_bytes": self.dds_csr_bytes,
        }


def _shard_budget(directory: Path) -> int:
    """A third of the shards' bytes, but at least the largest shard."""
    manifest = json.loads((directory / "manifest.json").read_text())
    sizes = [int(record["nbytes"]) for record in manifest["shards"]]
    return max(sum(sizes) // 3, max(sizes))


def setup(seed: int, workdir: Path, scale: Scale = FULL) -> State:
    """Write both edge-list texts and both sharded snapshots."""
    from repro.graph.directed import DirectedGraph
    from repro.graph.undirected import UndirectedGraph
    from repro.store.shard import save_sharded

    rng = np.random.default_rng([seed, SALT])
    n = scale.num_vertices
    uds_edges = inputs.undirected_edges(rng, n, scale.num_edges,
                                        scale.uds_block, scale.uds_p)
    dds_arcs = inputs.directed_edges(rng, n, scale.num_edges, scale.dds_block)
    workdir.mkdir(parents=True, exist_ok=True)
    uds_text = workdir / "uds.txt"
    dds_text = workdir / "dds.txt"
    uds_text.write_bytes(inputs.edge_text(uds_edges, rng))
    dds_text.write_bytes(inputs.edge_text(dds_arcs, rng))
    uds_graph = UndirectedGraph.from_edges(n, uds_edges)
    dds_graph = DirectedGraph.from_edges(n, dds_arcs)
    uds_shards = workdir / "uds.shards"
    dds_shards = workdir / "dds.shards"
    save_sharded(uds_graph, uds_shards, shards=scale.shards)
    save_sharded(dds_graph, dds_shards, shards=scale.shards)
    return State(
        scale=scale,
        uds_edges=uds_edges,
        dds_arcs=dds_arcs,
        uds_text=uds_text,
        dds_text=dds_text,
        uds_shards=uds_shards,
        dds_shards=dds_shards,
        uds_budget=_shard_budget(uds_shards),
        dds_budget=_shard_budget(dds_shards),
        uds_csr_bytes=uds_graph.memory_bytes(include_scratch=False),
        dds_csr_bytes=dds_graph.memory_bytes(include_scratch=False),
    )


def _token_ids(labels: list, ids) -> np.ndarray:
    """Map the reader's dense ids back to the benchmark's ids (the tokens)."""
    tokens = np.asarray(labels).astype(np.int64)
    return tokens[np.asarray(ids, dtype=np.int64)]


def _run_job(job: str, state: State):
    """Execute one job; return ``(result, labels or shard stats)``."""
    import repro.engine as engine
    from repro.graph.io import read_directed_edgelist, read_undirected_edgelist
    from repro.store.shard import load_sharded

    if job == "uds":
        graph, labels = read_undirected_edgelist(state.uds_text)
        return engine.run("pkmc", graph), labels
    if job == "dds":
        graph, labels = read_directed_edgelist(state.dds_text)
        return engine.run("pwc", graph), labels
    if job == "ooc-uds":
        graph = load_sharded(state.uds_shards, memory_budget_bytes=state.uds_budget)
        return engine.run("pkmc-bsp", graph), graph.stats()
    graph = load_sharded(state.dds_shards, memory_budget_bytes=state.dds_budget)
    return engine.run("pwc-bsp", graph), graph.stats()


def _check(job: str, result, aux, state: State, answers: dict) -> list:
    """Oracle for one job; ``answers`` carries the round's monolithic answers."""
    n = state.scale.num_vertices
    if job == "uds":
        vertices = _token_ids(aux, result.vertices)
        answers["uds"] = (np.sort(vertices), float(result.density))
        return oracle.check_uds(state.uds_edges, n, vertices, result.density,
                                k_star=result.k_star)
    if job == "dds":
        s, t = _token_ids(aux, result.s), _token_ids(aux, result.t)
        answers["dds"] = float(result.density)
        return oracle.check_dds(state.dds_arcs, n, s, t, result.density,
                                result.x, result.y)
    if job == "ooc-uds":
        problems = oracle.check_uds(state.uds_edges, n, result.vertices,
                                    result.density, k_star=result.k_star)
        mono = answers.get("uds")
        if mono is None:
            problems.append("no monolithic answer to compare with")
        elif not (np.array_equal(np.sort(result.vertices), mono[0])
                  and float(result.density) == mono[1]):
            problems.append("sharded answer differs from monolithic pkmc")
        return problems
    problems = oracle.check_dds(state.dds_arcs, n, result.s, result.t,
                                result.density, result.x, result.y)
    mono = answers.get("dds")
    if mono is None:
        problems.append("no monolithic answer to compare with")
    elif float(result.density) != mono:
        problems.append("sharded density differs from monolithic pwc")
    return problems


def run_chunk(state: State, tally: Tally, probe: Probe, first_op: int) -> Chunk:
    """One round of the four jobs, each timed from input to answer."""
    chunk = Chunk()
    answers: dict = {}
    job_s: dict = {}
    peak_resident = 0
    for offset, job in enumerate(JOBS):
        probe.operation(first_op + offset)
        tally.attempt()
        started = time.perf_counter()
        try:
            result, aux = _run_job(job, state)
        except Exception:  # noqa: BLE001 - a failed job is counted, never fatal
            chunk.replay_s += time.perf_counter() - started
            tally.raised(f"batch job {job}")
            continue
        elapsed = time.perf_counter() - started
        job_s[job] = elapsed
        chunk.replay_s += elapsed
        chunk.work += state.scale.num_edges
        with probe.paused():
            problems = _check(job, result, aux, state, answers)
        if problems:
            tally.fail(f"batch job {job}", problems)
        if job.startswith("ooc"):
            for key, stat in (("loads", "shard_loads"), ("evictions", "evictions")):
                name = f"store.shard.{key}"
                chunk.counts[name] = chunk.counts.get(name, 0) + aux[stat]
            peak_resident = max(peak_resident, aux["peak_resident_bytes"])
    chunk.counts["store.shard.peak_resident_bytes"] = peak_resident
    chunk.samples.append(chunk.replay_s)
    chunk.extra = {"job_s": job_s}
    return chunk


def summary(chunks: list, end_to_end: dict) -> dict:
    """Per-job figures, which the end-to-end metrics fold into one round."""
    def job_median(*jobs):
        rounds = [c.extra["job_s"] for c in chunks]
        return median([sum(r[j] for j in jobs) for r in rounds
                       if all(j in r for j in jobs)])

    return {
        "batch_uds_s": (job_median("uds"), "s"),
        "batch_dds_s": (job_median("dds"), "s"),
        "batch_ooc_s": (job_median("ooc-uds", "ooc-dds"), "s"),
        "ooc_peak_resident_bytes": (
            max(c.counts["store.shard.peak_resident_bytes"] for c in chunks),
            "bytes",
        ),
    }
