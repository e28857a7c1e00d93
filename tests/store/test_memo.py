"""Result memoization: keys, LRU behaviour, and engine integration.

The cache contract: a second ``engine.run`` of the same (graph
fingerprint, solver, context, options) answers from the cache with
``report.cache_hit`` set, bit-identical results and no additional
simulated work; any structural mutation or context change misses.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DynamicKStarCore
from repro.engine import ExecutionContext
from repro.engine import run as engine_run
from repro.graph import UndirectedGraph
from repro.store.memo import ResultCache, make_cache_key

EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 3)]


@pytest.fixture
def graph():
    return UndirectedGraph.from_edges(5, EDGES)


class TestMakeCacheKey:
    def test_key_covers_identity(self, graph):
        ctx = ExecutionContext(num_threads=4)
        key = make_cache_key(graph.fingerprint(), "uds", "pkmc", ctx, {})
        assert key is not None
        assert graph.fingerprint() in key
        assert "pkmc" in key

    def test_preset_runtime_is_uncacheable(self, graph):
        ctx = ExecutionContext(num_threads=4)
        ctx.runtime = object()
        assert make_cache_key(graph.fingerprint(), "uds", "pkmc", ctx, {}) is None

    def test_unhashable_option_is_uncacheable(self, graph):
        ctx = ExecutionContext()
        key = make_cache_key(
            graph.fingerprint(), "uds", "pkmc", ctx, {"hook": object()}
        )
        assert key is None

    def test_context_fields_change_the_key(self, graph):
        fp = graph.fingerprint()
        base = make_cache_key(fp, "uds", "pkmc", ExecutionContext(), {})
        variants = [
            ExecutionContext(num_threads=8),
            ExecutionContext(seed=7),
            ExecutionContext(sanitize=True),
            ExecutionContext(time_limit=1.0),
            ExecutionContext(memory_limit_bytes=1e9),
        ]
        keys = {make_cache_key(fp, "uds", "pkmc", ctx, {}) for ctx in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_options_change_the_key(self, graph):
        fp = graph.fingerprint()
        ctx = ExecutionContext()
        assert make_cache_key(fp, "uds", "pbu", ctx, {"epsilon": 0.5}) != (
            make_cache_key(fp, "uds", "pbu", ctx, {"epsilon": 0.1})
        )


class TestResultCache:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_lru_eviction_order(self, graph):
        cache = ResultCache(max_entries=2)
        result = engine_run("pkmc", graph, ExecutionContext())
        keys = [("k", i) for i in range(3)]
        cache.put(keys[0], result)
        cache.put(keys[1], result)
        assert cache.get(keys[0]) is not None  # refresh key 0
        cache.put(keys[2], result)  # evicts key 1, the LRU entry
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None
        assert len(cache) == 2

    def test_hit_returns_an_isolated_clone(self, graph):
        cache = ResultCache()
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        first = cache.get(("k",))
        first.vertices[0] = 99
        second = cache.get(("k",))
        assert second.vertices[0] != 99

    def test_put_clones_the_stored_copy(self, graph):
        cache = ResultCache()
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        result.vertices[0] = 77
        assert cache.get(("k",)).vertices[0] != 77

    def test_counters_and_clear(self, graph):
        cache = ResultCache()
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        cache.get(("k",))
        cache.get(("missing",))
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_none_key_is_a_no_op(self, graph):
        cache = ResultCache()
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(None, result)
        assert len(cache) == 0
        assert cache.get(None) is None


class TestEngineIntegration:
    def test_second_run_hits_with_identical_results(self, graph):
        cache = ResultCache()
        cold = engine_run("pkmc", graph, ExecutionContext(cache=cache))
        hit = engine_run("pkmc", graph, ExecutionContext(cache=cache))
        assert not cold.report.cache_hit
        assert hit.report.cache_hit
        assert hit.density == cold.density  # repro-lint: disable=R004 (cache hits must be bit-identical clones)
        assert np.array_equal(hit.vertices, cold.vertices)
        # No additional simulated work: the report is the cold report
        # except for the hit marker.
        assert replace(hit.report, cache_hit=False) == cold.report

    def test_differing_context_misses(self, graph):
        cache = ResultCache()
        engine_run("pkmc", graph, ExecutionContext(num_threads=2, cache=cache))
        other = engine_run(
            "pkmc", graph, ExecutionContext(num_threads=4, cache=cache)
        )
        assert not other.report.cache_hit

    def test_dynamic_mutation_invalidates(self):
        core = DynamicKStarCore(6)
        core.insert_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        cache = ResultCache()
        before = core.graph().fingerprint()
        engine_run("pkmc", core.graph(), ExecutionContext(cache=cache))
        warm = engine_run("pkmc", core.graph(), ExecutionContext(cache=cache))
        assert warm.report.cache_hit

        assert core.insert_edge(3, 4)
        mutated = core.graph()
        assert mutated.fingerprint() != before
        fresh = engine_run("pkmc", mutated, ExecutionContext(cache=cache))
        assert not fresh.report.cache_hit

        # Deleting the edge restores the old structure — and the old
        # fingerprint makes the original entry reachable again.
        assert core.delete_edge(3, 4)
        restored = engine_run("pkmc", core.graph(), ExecutionContext(cache=cache))
        assert restored.report.cache_hit

    def test_no_context_cache_means_no_caching(self, graph):
        cold = engine_run("pkmc", graph, ExecutionContext())
        again = engine_run("pkmc", graph, ExecutionContext())
        assert not cold.report.cache_hit
        assert not again.report.cache_hit

    def test_uncacheable_run_with_preset_runtime(self, graph):
        from repro.runtime import SimRuntime

        cache = ResultCache()
        ctx = ExecutionContext(cache=cache)
        ctx.runtime = SimRuntime(num_threads=2)
        engine_run("pkmc", graph, ctx)
        assert len(cache) == 0


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTtl:
    def test_rejects_non_positive_ttl(self):
        with pytest.raises(ValueError):
            ResultCache(ttl=0.0)
        with pytest.raises(ValueError):
            ResultCache(ttl=-1.0)

    def test_entry_expires_after_ttl(self, graph):
        clock = FakeClock()
        cache = ResultCache(ttl=10.0, clock=clock)
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        clock.advance(10.0)  # exactly at the TTL: still servable
        assert cache.get(("k",)) is not None
        clock.advance(0.5)  # past it: expired
        assert cache.get(("k",)) is None
        assert cache.expired == 1
        assert len(cache) == 0

    def test_expiry_counts_as_a_miss(self, graph):
        clock = FakeClock()
        cache = ResultCache(ttl=1.0, clock=clock)
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        cache.get(("k",))
        clock.advance(2.0)
        cache.get(("k",))
        assert (cache.hits, cache.misses, cache.expired) == (1, 1, 1)

    def test_hit_refreshes_lru_but_not_the_stamp(self, graph):
        clock = FakeClock()
        cache = ResultCache(ttl=10.0, clock=clock)
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        for _ in range(5):
            clock.advance(3.0)
            cache.get(("k",))  # repeated hits do not re-arm the TTL
        assert cache.get(("k",)) is None  # age 15s > ttl 10s
        assert cache.expired == 1

    def test_re_put_rearms_the_ttl(self, graph):
        clock = FakeClock()
        cache = ResultCache(ttl=10.0, clock=clock)
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        clock.advance(8.0)
        cache.put(("k",), result)
        clock.advance(8.0)  # 16s since first put, 8s since re-put
        assert cache.get(("k",)) is not None

    def test_overflow_purges_expired_before_live(self, graph):
        clock = FakeClock()
        cache = ResultCache(max_entries=2, ttl=5.0, clock=clock)
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("dead",), result)
        clock.advance(6.0)
        cache.put(("live",), result)
        # "dead" has expired; inserting a third entry must evict it, not
        # the LRU-oldest *live* entry.
        cache.put(("newer",), result)
        assert cache.get(("live",)) is not None
        assert cache.get(("newer",)) is not None
        assert cache.get(("dead",)) is None
        assert cache.expired == 1

    def test_purge_expired_is_eager_and_counted(self, graph):
        clock = FakeClock()
        cache = ResultCache(ttl=1.0, clock=clock)
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("a",), result)
        cache.put(("b",), result)
        clock.advance(2.0)
        assert cache.purge_expired() == 2
        assert (len(cache), cache.expired) == (0, 2)
        assert ResultCache().purge_expired() == 0  # no TTL: no-op

    def test_no_ttl_never_expires(self, graph):
        clock = FakeClock()
        cache = ResultCache(clock=clock)
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        clock.advance(1e9)
        assert cache.get(("k",)) is not None
        assert cache.expired == 0

    def test_clear_resets_expired_counter(self, graph):
        clock = FakeClock()
        cache = ResultCache(ttl=1.0, clock=clock)
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put(("k",), result)
        clock.advance(2.0)
        cache.get(("k",))
        cache.clear()
        assert (cache.hits, cache.misses, cache.expired) == (0, 0, 0)

    def test_engine_run_treats_expired_as_cold(self, graph):
        clock = FakeClock()
        cache = ResultCache(ttl=10.0, clock=clock)
        warm = engine_run("pkmc", graph, ExecutionContext(cache=cache))
        hit = engine_run("pkmc", graph, ExecutionContext(cache=cache))
        assert hit.report.cache_hit
        clock.advance(11.0)
        refreshed = engine_run("pkmc", graph, ExecutionContext(cache=cache))
        assert not refreshed.report.cache_hit
        assert refreshed.density == warm.density  # repro-lint: disable=R004 (recompute of identical input)


class TestFingerprintInvalidation:
    """Streaming-layer invalidation: fingerprint-granular, counted."""

    def test_drops_only_matching_fingerprint_keys(self, graph):
        cache = ResultCache()
        result = engine_run("pkmc", graph, ExecutionContext())
        fp = graph.fingerprint()
        cache.put((fp, "uds", "pkmc"), result)
        cache.put((fp, "uds", "pkmc", "stream"), result)
        cache.put(("other-fp", "uds", "pkmc"), result)
        assert cache.invalidate_fingerprint(fp) == 2
        assert cache.invalidated == 2
        assert len(cache) == 1
        assert cache.get(("other-fp", "uds", "pkmc")) is not None
        # idempotent: nothing left under that fingerprint
        assert cache.invalidate_fingerprint(fp) == 0
        assert cache.invalidated == 2

    def test_clear_resets_the_invalidated_counter(self, graph):
        cache = ResultCache()
        result = engine_run("pkmc", graph, ExecutionContext())
        cache.put((graph.fingerprint(), "uds", "pkmc"), result)
        cache.invalidate_fingerprint(graph.fingerprint())
        assert cache.invalidated == 1
        cache.clear()
        assert cache.invalidated == 0

    def test_delete_then_reinsert_restores_the_entry(self):
        # The mirror image of TestEngineIntegration's insert-then-delete:
        # removing an edge and putting it back returns the graph to its
        # original fingerprint, so the original cache entry re-hits.
        core = DynamicKStarCore(6)
        core.insert_edges(EDGES)
        cache = ResultCache()
        original = core.graph().fingerprint()
        engine_run("pkmc", core.graph(), ExecutionContext(cache=cache))

        assert core.delete_edge(1, 3)
        smaller = engine_run("pkmc", core.graph(), ExecutionContext(cache=cache))
        assert not smaller.report.cache_hit

        assert core.insert_edge(1, 3)
        assert core.graph().fingerprint() == original
        restored = engine_run("pkmc", core.graph(), ExecutionContext(cache=cache))
        assert restored.report.cache_hit
