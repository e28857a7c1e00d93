"""Storage-layer bench-regression harness (``repro-bench store``).

Measures the PR-5 storage layer (:mod:`repro.store`) against the
pre-storage-layer formulations that are kept in-tree as references:

* **text ingestion** — the vectorized chunked reader
  (:func:`repro.store.reader.read_edges_vectorized`) versus the strict
  line-by-line parser, both measured stream -> interned edge ids +
  labels (the graph construction that follows is shared code),
  acceptance floor 2x; the full file -> graph pipeline is reported as a
  secondary ``end_to_end`` metric;
* **CSR construction** — the O(m) counting-sort builder
  (:func:`repro.store.csr.csr_from_sorted_canonical`) versus the
  ``lexsort`` reference (:func:`~repro.store.csr.reference_csr_from_canonical`),
  acceptance floor 2x;
* **snapshot reload** — mmap-backed :func:`repro.graph.io.load_npz`
  versus re-parsing the text edge list, acceptance floor 5x;
* **index compaction** — graph bytes under forced int64 versus the
  automatic int32 narrowing, acceptance floor ~2x (1.8x gate);
* **result memoization** — engine wall clock on a cache hit versus a
  cold solve of the same ``(fingerprint, solver, context)`` key.

``run_store_bench`` returns the ``BENCH_store.json`` payload and
``HARNESS`` registers it with :mod:`repro.bench.gates`.  Every fast path
is checked for exact agreement with its reference before being timed.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..engine import ExecutionContext
from ..engine import run as engine_run
from ..graph import chung_lu_undirected
from ..graph.builder import GraphBuilder
from ..graph.io import (
    _parse_lines,
    load_npz,
    read_undirected_edgelist,
    save_npz,
    write_edgelist,
)
from ..store.reader import read_edges_vectorized
from ..store.compact import forced_int64
from ..store.csr import csr_from_sorted_canonical, reference_csr_from_canonical
from ..store.memo import ResultCache
from .config import DEFAULT_THREADS
from .gates import FLOOR, RELATIVE, Gate, Harness, alternating_medians, ratio

__all__ = ["run_store_bench", "render_store_report", "HARNESS"]

#: Timed samples per leg, chosen by resampling alternating, warmed
#: samples of the default workload on a 2-vCPU host: with 3 per leg the
#: csr_build and snapshot ratios fell below their gates in 4% and 8% of
#: resampled runs, with 11 per leg in none (any gated ratio in <= 2%).
DEFAULT_REPEATS = 11


def _check_graph_equal(fast, strict) -> None:
    graph_a, labels_a = fast
    graph_b, labels_b = strict
    if labels_a != labels_b:
        raise AssertionError("vectorized reader interned different labels")
    if not (
        np.array_equal(graph_a.indptr, graph_b.indptr)
        and np.array_equal(graph_a.indices, graph_b.indices)
    ):
        raise AssertionError("vectorized reader built a different graph")


def run_store_bench(
    num_vertices: int = 20_000,
    num_edges: int = 100_000,
    repeats: int = DEFAULT_REPEATS,
    threads: int = DEFAULT_THREADS,
) -> dict:
    """Run the storage benches; return the ``BENCH_store.json`` payload."""
    graph = chung_lu_undirected(num_vertices, num_edges, seed=1)

    with tempfile.TemporaryDirectory() as tmp:
        text_path = Path(tmp) / "graph.txt"
        npz_path = Path(tmp) / "graph.npz"
        write_edgelist(graph, text_path)
        save_npz(graph, npz_path)

        # --- text ingestion: vectorized reader vs line-by-line -----------
        _check_graph_equal(
            read_undirected_edgelist(text_path, vectorized=True),
            read_undirected_edgelist(text_path, vectorized=False),
        )

        def _parse_strict() -> None:
            builder = GraphBuilder()
            with open(text_path, "r", encoding="utf-8") as stream:
                _parse_lines(stream, builder, str(text_path))

        def _parse_fast() -> None:
            with open(text_path, "r", encoding="utf-8") as stream:
                read_edges_vectorized(stream, str(text_path))

        parse_strict, parse_fast = alternating_medians(
            [_parse_strict, _parse_fast], repeats
        )

        # --- CSR construction: counting sort vs lexsort reference --------
        canon = graph.edges()
        ref_indptr, ref_indices = reference_csr_from_canonical(
            num_vertices, canon
        )
        new_indptr, new_indices = csr_from_sorted_canonical(
            num_vertices, canon
        )
        if not (
            np.array_equal(ref_indptr, new_indptr)
            and np.array_equal(ref_indices, new_indices)
        ):
            raise AssertionError(
                "counting-sort CSR disagrees with the lexsort reference"
            )
        csr_ref, csr_fast = alternating_medians(
            [
                lambda: reference_csr_from_canonical(num_vertices, canon),
                lambda: csr_from_sorted_canonical(num_vertices, canon),
            ],
            repeats,
        )

        # --- file -> graph: line-by-line, vectorized, snapshot reload -----
        # One alternation: the vectorized leg is the fast side of
        # end_to_end and the slow side of snapshot.
        reloaded = load_npz(npz_path)
        if not (
            np.array_equal(reloaded.indptr, graph.indptr)
            and np.array_equal(reloaded.indices, graph.indices)
        ):
            raise AssertionError("snapshot reload built a different graph")
        ingest_strict, ingest_fast, snapshot_load = alternating_medians(
            [
                lambda: read_undirected_edgelist(text_path, vectorized=False),
                lambda: read_undirected_edgelist(text_path, vectorized=True),
                lambda: load_npz(npz_path),
            ],
            repeats,
        )

    # --- index compaction: automatic int32 vs forced int64 ---------------
    edges = graph.edges()
    narrow = type(graph).from_edges(num_vertices, edges)
    with forced_int64():
        wide = type(graph).from_edges(num_vertices, edges)
    narrow_bytes = narrow.memory_bytes(include_scratch=False)
    wide_bytes = wide.memory_bytes(include_scratch=False)

    # --- result memoization: cache hit vs cold solve ----------------------
    cache = ResultCache()
    warm_ctx = ExecutionContext(num_threads=threads, cache=cache)
    warm = engine_run("pkmc", graph, warm_ctx)

    def _cold() -> None:
        engine_run("pkmc", graph, ExecutionContext(num_threads=threads))

    def _hit() -> None:
        ctx = ExecutionContext(num_threads=threads, cache=cache)
        result = engine_run("pkmc", graph, ctx)
        if not result.report.cache_hit:
            raise AssertionError("memoized rerun missed the result cache")
        if result.density != warm.density:  # repro-lint: disable=R004 (cache hits must be bit-identical clones)
            raise AssertionError("memoized rerun changed the density")

    cache_cold, cache_hit = alternating_medians([_cold, _hit], repeats)

    return {
        "schema": 1,
        "workload": {
            "num_vertices": num_vertices,
            "num_edges_requested": num_edges,
            "num_edges": graph.num_edges,
            "generator": "chung_lu_undirected(seed=1)",
            "threads": threads,
            "repeats": repeats,
        },
        "wall_clock": {
            "ingestion": {
                "line_by_line_s": parse_strict,
                "vectorized_s": parse_fast,
                "speedup": ratio(parse_strict, parse_fast),
            },
            "end_to_end": {
                "line_by_line_s": ingest_strict,
                "vectorized_s": ingest_fast,
                "speedup": ratio(ingest_strict, ingest_fast),
            },
            "csr_build": {
                "lexsort_s": csr_ref,
                "counting_sort_s": csr_fast,
                "speedup": ratio(csr_ref, csr_fast),
            },
            "snapshot": {
                "text_parse_s": ingest_fast,
                "npz_load_s": snapshot_load,
                "speedup": ratio(ingest_fast, snapshot_load),
            },
            "cache": {
                "cold_s": cache_cold,
                "hit_s": cache_hit,
                "speedup": ratio(cache_cold, cache_hit),
            },
        },
        "memory": {
            "int32_bytes": narrow_bytes,
            "int64_bytes": wide_bytes,
            "ratio": ratio(wide_bytes, narrow_bytes),
            "index_dtype": str(narrow.indptr.dtype),
        },
    }


def render_store_report(payload: dict) -> str:
    """Readable summary of a store-bench payload."""
    wall = payload["wall_clock"]
    memory = payload["memory"]
    rows = [
        ("ingestion", "line-by-line", "line_by_line_s", "vectorized", "vectorized_s"),
        ("end to end", "line-by-line", "line_by_line_s", "vectorized", "vectorized_s"),
        ("csr build", "lexsort", "lexsort_s", "counting sort", "counting_sort_s"),
        ("snapshot", "text parse", "text_parse_s", "npz mmap", "npz_load_s"),
        ("cache", "cold solve", "cold_s", "cache hit", "hit_s"),
    ]
    lines = [
        "store bench "
        f"({payload['workload']['num_vertices']} vertices, "
        f"{payload['workload']['num_edges']} edges)"
    ]
    sections = {
        "ingestion": wall["ingestion"],
        "end to end": wall["end_to_end"],
        "csr build": wall["csr_build"],
        "snapshot": wall["snapshot"],
        "cache": wall["cache"],
    }
    for title, slow_name, slow_key, fast_name, fast_key in rows:
        section = sections[title]
        lines.append(
            f"  {title:<10}: {slow_name} "
            f"{section[slow_key] * 1e3:8.2f} ms | {fast_name} "
            f"{section[fast_key] * 1e3:8.2f} ms | {section['speedup']:6.2f}x"
        )
    lines.append(
        f"  memory    : int64 {memory['int64_bytes']:>9} B | int32 "
        f"{memory['int32_bytes']:>9} B | {memory['ratio']:6.2f}x "
        f"(dtype {memory['index_dtype']})"
    )
    return "\n".join(lines)


HARNESS = Harness(
    "store", run_store_bench, render_store_report, tolerance=0.25, gates=(
        # Acceptance floors of the storage layer (speedups, memory ratio).
        # Cache hits run in microseconds, so that ratio is timer noise: it
        # gets a generous absolute floor and no baseline-relative row.
        *(
            Gate(FLOOR, f"wall_clock.{section}.speedup",
                 f"{section} speedup is below the acceptance floor", floor=floor)
            for section, floor in (
                ("ingestion", 2.0), ("csr_build", 2.0), ("snapshot", 5.0), ("cache", 50.0),
            )
        ),
        *(
            Gate(RELATIVE, f"wall_clock.{section}.speedup",
                 f"wall-clock {section} speedup regressed")
            for section in ("ingestion", "end_to_end", "csr_build", "snapshot")
        ),
        Gate(FLOOR, "memory.ratio",
             "int32 compaction ratio is below the acceptance floor", floor=1.8),
        Gate(RELATIVE, "memory.int32_bytes", "int32 graph footprint grew",
             lower_is_better=True, tolerance=0.0),
    ),
)
