"""Pin the decision that peeling stays inline (docs/performance.md).

Two halves: the array backend must be *irrelevant* to peeling results
(bit-identical under numpy and multiproc), and the peeling module must
stay free of backend dispatch — its bucket peel is data-dependent
and strictly sequential, so routing it through the pool would change
removal order and break bit-identity.
"""

import inspect

import numpy as np
import pytest

from repro.backends import use_backend
from repro.engine import ExecutionContext
from repro.engine import run as engine_run
from repro.graph import peeling
from repro.graph.generators import chung_lu_undirected
from repro.graph.peeling import min_degree_order


@pytest.fixture(scope="module")
def graph():
    return chung_lu_undirected(400, 1_800, seed=81)


class TestBackendIrrelevance:
    @pytest.mark.parametrize("backend", ["numpy", "multiproc"])
    def test_charikar_bit_identical_across_backends(self, graph, backend):
        reference = engine_run("charikar", graph, ExecutionContext())
        with use_backend(backend):
            result = engine_run(
                "charikar", graph, ExecutionContext(backend=backend)
            )
        assert result.density == reference.density
        assert np.array_equal(result.vertices, reference.vertices)
        assert result.vertices.dtype == reference.vertices.dtype

    def test_bucket_queue_order_is_deterministic(self, graph):
        orders = [min_degree_order(graph) for _ in range(2)]
        assert np.array_equal(orders[0], orders[1])


class TestStaysInline:
    def test_peeling_module_has_no_backend_dispatch(self):
        source = inspect.getsource(peeling)
        assert "get_backend" not in source
        assert "use_backend" not in source
        assert "repro.backends" not in source

    def test_rationale_is_documented(self):
        from pathlib import Path

        import repro

        doc = Path(repro.__file__).parents[2] / "docs" / "performance.md"
        text = doc.read_text(encoding="utf-8")
        assert "Why the peeling kernels stay inline" in text
