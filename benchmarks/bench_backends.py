"""Wall-clock microbenchmarks of the array-backend dispatch layer.

Companion to ``repro-bench backends`` (the committed-baseline gate):
pytest-benchmark statistics for the numpy reference vs the multiproc
thread pool on a single full h-index sweep, plus the dispatch
overhead of routing a kernel call through ``get_backend()``.  Like
``bench_kernels.py`` these measure *real* host wall-clock, so absolute
numbers are host-specific; the committed acceptance gate compares
speedup ratios, never raw seconds.
"""

import numpy as np
import pytest

from repro.backends import use_backend
from repro.backends.multiproc import MultiprocBackend
from repro.backends.numpy_backend import NumpyBackend, sweep_values_numpy
from repro.core import synchronous_sweep
from repro.graph import chung_lu_undirected


@pytest.fixture(scope="module")
def medium_undirected():
    return chung_lu_undirected(20_000, 100_000, seed=1)


@pytest.fixture(scope="module")
def pool():
    backend = MultiprocBackend(workers=2)
    yield backend
    backend.close()


def test_backend_sweep_numpy(benchmark, medium_undirected):
    """One full sweep on the single-threaded numpy reference backend."""
    graph = medium_undirected
    h = graph.degrees().astype(np.int64)
    backend = NumpyBackend()
    result = benchmark(backend.sweep_values, graph, h)
    assert result.shape == h.shape


def test_backend_sweep_multiproc(benchmark, medium_undirected, pool):
    """The same sweep fanned out over the backend's thread pool.

    Note: elapsed wall time.  On hosts with fewer free cores than
    workers the pool threads time-slice, so compare against the
    ``critical_path_s`` view in ``BENCH_backends.json`` before reading
    this as a regression.
    """
    graph = medium_undirected
    h = graph.degrees().astype(np.int64)
    pool.sweep_values(graph, h)  # warm: pool threads + range layouts
    result = benchmark(pool.sweep_values, graph, h)
    assert np.array_equal(result, sweep_values_numpy(graph, h))


def test_backend_dispatch_overhead(benchmark, medium_undirected):
    """Kernel entry point through the dispatch vs the raw formulation.

    The difference between this and ``test_backend_sweep_numpy`` is the
    price of ``get_backend()`` resolution — it must stay in the noise.
    """
    graph = medium_undirected
    h = graph.degrees().astype(np.int64)
    with use_backend("numpy"):
        result = benchmark(synchronous_sweep, graph, h)
    assert np.array_equal(result, sweep_values_numpy(graph, h))
