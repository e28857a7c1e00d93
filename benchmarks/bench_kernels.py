"""Wall-clock microbenchmarks of the library's hot kernels.

Unlike the experiment benches (which report *simulated* parallel time),
these measure real host wall-clock time of the serial/vectorised kernels
with pytest-benchmark's statistics, guarding against performance
regressions in the implementation itself.
"""

import numpy as np
import pytest

from repro.algorithms.undirected.charikar import charikar_peel
from repro.bench.kernels import (
    _run_tail_frontier,
    _run_tail_lexsort,
    _warm_tail_state,
)
from repro.core import pkmc, pwc, synchronous_sweep, wstar_subgraph, xy_core
from repro.datasets import load_directed, load_undirected
from repro.graph import chung_lu_directed, chung_lu_undirected
from repro.kernels import reference_segment_h_index


@pytest.fixture(scope="module")
def medium_undirected():
    return chung_lu_undirected(20_000, 100_000, seed=1)


@pytest.fixture(scope="module")
def medium_directed():
    return chung_lu_directed(20_000, 100_000, seed=2)


def test_kernel_hindex_sweep(benchmark, medium_undirected):
    """One vectorised h-index sweep over 100k edges (sort-free kernel)."""
    h = medium_undirected.degrees().astype(np.int64)
    result = benchmark(synchronous_sweep, medium_undirected, h)
    assert result.shape == h.shape


def test_kernel_hindex_sweep_lexsort_reference(benchmark, medium_undirected):
    """The same sweep via the pre-kernel-layer O(m log m) lexsort path."""
    graph = medium_undirected
    h = graph.degrees().astype(np.int64)
    result = benchmark(
        reference_segment_h_index,
        graph.indptr,
        h[graph.indices],
        graph.heads(),
    )
    assert np.array_equal(result, synchronous_sweep(graph, h))


def test_kernel_tail_frontier(benchmark, medium_undirected):
    """Convergence-tail sweeps via the frontier path (the PR-2 hot case)."""
    h_warm, frontier_warm = _warm_tail_state(medium_undirected)
    _, sweeps = benchmark(
        _run_tail_frontier, medium_undirected, h_warm, frontier_warm
    )
    assert sweeps >= 1


def test_kernel_tail_lexsort_reference(benchmark, medium_undirected):
    """The same convergence tail via repeated full lexsort sweeps."""
    h_warm, _ = _warm_tail_state(medium_undirected)
    _, sweeps = benchmark(_run_tail_lexsort, medium_undirected, h_warm)
    assert sweeps >= 1


def test_kernel_charikar_peel(benchmark, medium_undirected):
    """Charikar's serial min-degree peel plus its best-prefix scan, 100k edges."""
    result = benchmark.pedantic(
        charikar_peel, args=(medium_undirected,), rounds=3, iterations=1
    )
    assert result.iterations == medium_undirected.num_vertices


def test_kernel_pkmc_end_to_end(benchmark, medium_undirected):
    """Full PKMC on a 100k-edge power-law graph."""
    result = benchmark.pedantic(pkmc, args=(medium_undirected,), rounds=3, iterations=1)
    assert result.k_star >= 1


def test_kernel_wstar_subgraph(benchmark, medium_directed):
    """Algorithm 3 (w*-induced subgraph) on a 100k-edge digraph."""
    result = benchmark.pedantic(
        wstar_subgraph, args=(medium_directed,), rounds=3, iterations=1
    )
    assert result.w_star >= medium_directed.max_degree()


def test_kernel_pwc_end_to_end(benchmark, medium_directed):
    """Full PWC on a 100k-edge power-law digraph."""
    result = benchmark.pedantic(pwc, args=(medium_directed,), rounds=3, iterations=1)
    assert result.density > 0


def test_kernel_xy_core_peel(benchmark, medium_directed):
    """One [2, 2]-core peel over the full digraph."""
    result = benchmark.pedantic(
        xy_core, args=(medium_directed, 2, 2), rounds=3, iterations=1
    )
    assert result.edge_mask.size == medium_directed.num_edges


def test_kernel_graph_construction(benchmark):
    """CSR construction from 200k random edges."""
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 30_000, size=(200_000, 2))

    from repro.graph import DirectedGraph

    result = benchmark.pedantic(
        DirectedGraph.from_edges, args=(30_000, edges), rounds=3, iterations=1
    )
    assert result.num_vertices == 30_000


def test_kernel_dataset_generation(benchmark):
    """Replica generation cost (PT, cache bypassed)."""
    from repro.datasets.registry import get_spec
    from repro.datasets.synth import build_undirected_replica

    spec = get_spec("PT")

    def build():
        return build_undirected_replica(
            spec.num_vertices,
            spec.target_edges,
            exponent=spec.exponent,
            max_weight=spec.max_weight,
            clique_size=spec.clique_size,
            path_length=spec.path_length,
            seed=spec.seed,
        )

    result = benchmark.pedantic(build, rounds=3, iterations=1)
    assert result.num_edges > 0
