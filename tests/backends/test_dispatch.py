"""Backend selection: precedence, scoping, availability, engine threading."""

import dataclasses

import numpy as np
import pytest

from repro import backends
from repro.backends import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    available_backends,
    backend_name,
    get_backend,
    resolve_backend_name,
    use_backend,
)
from repro.engine import ExecutionContext, run
from repro.errors import BackendError
from repro.graph import chung_lu_undirected
from repro.store.memo import make_cache_key


@pytest.fixture(autouse=True)
def clean_selection(monkeypatch):
    """Each test starts from the stock state: no env var, no override."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    saved = list(backends._override)
    backends._override.clear()
    yield
    backends._override[:] = saved


@pytest.fixture(scope="module")
def graph():
    return chung_lu_undirected(600, 2_400, seed=5)


class TestPrecedence:
    def test_default_is_numpy(self):
        assert DEFAULT_BACKEND == "numpy"
        assert backend_name() == "numpy"
        assert get_backend().name == "numpy"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "multiproc")
        assert backend_name() == "multiproc"

    def test_explicit_name_beats_override_and_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "multiproc")
        with use_backend("multiproc"):
            assert resolve_backend_name("numpy") == "numpy"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        with use_backend("multiproc"):
            assert backend_name() == "multiproc"

    def test_empty_env_falls_through(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "  ")
        assert backend_name() == DEFAULT_BACKEND


class TestScoping:
    def test_use_backend_restores_on_exit(self):
        with use_backend("multiproc"):
            assert backend_name() == "multiproc"
        assert backend_name() == DEFAULT_BACKEND

    def test_use_backend_nests(self):
        with use_backend("multiproc"):
            with use_backend("numpy"):
                assert backend_name() == "numpy"
            assert backend_name() == "multiproc"

    def test_use_backend_none_is_noop_scope(self):
        with use_backend("multiproc"):
            with use_backend(None) as active:
                assert active.name == "multiproc"
                assert backend_name() == "multiproc"

    def test_use_backend_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_backend("multiproc"):
                raise RuntimeError("boom")
        assert backend_name() == DEFAULT_BACKEND


class TestValidation:
    def test_unknown_name_raises(self):
        with pytest.raises(BackendError, match="unknown backend 'cuda'"):
            resolve_backend_name("cuda")
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("cuda")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(BackendError, match="unknown backend 'gpu'"):
            backend_name()

    def test_use_backend_validates_before_entering(self):
        with pytest.raises(BackendError):
            with use_backend("cuda"):
                raise AssertionError("the body must never run")
        assert backend_name() == DEFAULT_BACKEND

    def test_engine_rejects_unknown_backend_before_running(self, graph):
        with pytest.raises(BackendError, match="unknown backend"):
            run("pkmc", graph, ExecutionContext(backend="cuda"))

    def test_available_backends_covers_registry(self):
        report = available_backends()
        assert report == {"numpy": True, "multiproc": True}


class TestEngineThreading:
    def test_report_records_backend(self, graph):
        result = run("pkmc", graph, ExecutionContext(backend="numpy"))
        assert result.report.backend == "numpy"
        assert result.report.as_dict()["backend"] == "numpy"

    def test_report_defaults_to_active_backend(self, graph):
        result = run("pkmc", graph, ExecutionContext())
        assert result.report.backend == "numpy"

    def test_env_var_reaches_report_through_engine(self, graph, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "multiproc")
        result = run("pkmc", graph, ExecutionContext())
        assert result.report.backend == "multiproc"

    def test_results_and_simulated_seconds_backend_invariant(self, graph):
        ctx_numpy = ExecutionContext(num_threads=4)
        ctx_multi = ExecutionContext(num_threads=4, backend="multiproc")
        reference = run("pkmc", graph, ctx_numpy)
        parallel = run("pkmc", graph, ctx_multi)
        assert np.array_equal(reference.vertices, parallel.vertices)
        assert reference.density == parallel.density
        assert reference.iterations == parallel.iterations
        # The cost model is a property of the algorithm, never of the
        # executor: simulated clocks must agree to the last float.
        assert ctx_numpy.simulated_seconds == ctx_multi.simulated_seconds
        # Reports differ only in the backend field.
        assert dataclasses.replace(reference.report, backend="x") == (
            dataclasses.replace(parallel.report, backend="x")
        )

    def test_cache_key_distinguishes_backends(self, graph):
        ctx = ExecutionContext()
        key_numpy = make_cache_key("fp", "uds", "pkmc", ctx, {}, backend="numpy")
        key_multi = make_cache_key(
            "fp", "uds", "pkmc", ctx, {}, backend="multiproc"
        )
        assert key_numpy != key_multi
