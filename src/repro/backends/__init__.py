"""Pluggable array backends for the kernel hot path.

The kernel layer (:mod:`repro.kernels`) states *what* every sweep
computes; this package decides *how* — the shape of dgl's ``backend/``
package, one module per implementation:

* :mod:`~repro.backends.numpy_backend` — single-threaded vectorised
  NumPy, the default and the bit-identity reference;
* :mod:`~repro.backends.multiproc` — process-parallel execution over
  shared-memory views of the frozen CSR buffers.

Selection precedence (first match wins):

1. an explicit name — ``ExecutionContext(backend=...)`` /
   ``repro-dsd --backend`` / the :func:`use_backend` context manager;
2. the ``REPRO_BACKEND`` environment variable;
3. the default, ``numpy``.

Backends only change wall-clock execution.  Results are bit-identical
across backends and :class:`~repro.runtime.simruntime.SimRuntime`
charging lives in the solvers, so simulated seconds are
backend-invariant by construction (see ``tests/backends/``).
"""

from __future__ import annotations

import atexit
import os
import threading
from contextlib import contextmanager
from importlib import import_module

from ..errors import BackendError
from .base import ArrayBackend

__all__ = [
    "ArrayBackend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_name",
    "get_backend",
    "resolve_backend_name",
    "set_backend",
    "use_backend",
]

BACKEND_ENV_VAR = "REPRO_BACKEND"
DEFAULT_BACKEND = "numpy"

#: name -> (module, class); implementations import lazily so selecting
#: numpy never pays for multiprocessing machinery.
_REGISTRY: dict[str, tuple[str, str]] = {
    "numpy": ("repro.backends.numpy_backend", "NumpyBackend"),
    "multiproc": ("repro.backends.multiproc", "MultiprocBackend"),
}

_instances: dict[str, ArrayBackend] = {}
_lock = threading.Lock()
# Process-wide override stack: ``set_backend`` pushes a session default,
# ``use_backend`` pushes/pops around a block.  Empty -> env/default.
_override: list[str] = []


def _env_name() -> str | None:
    raw = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return raw or None


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve a possibly-absent backend name through the precedence chain.

    ``name`` (the context kwarg) wins over any :func:`set_backend` /
    :func:`use_backend` override, which wins over ``REPRO_BACKEND``,
    which wins over the ``numpy`` default.  Unknown names raise
    :class:`~repro.errors.BackendError` listing the registry.
    """
    resolved = (
        name
        or (_override[-1] if _override else None)
        or _env_name()
        or DEFAULT_BACKEND
    )
    if resolved not in _REGISTRY:
        raise BackendError(
            f"unknown backend {resolved!r}; expected one of "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return resolved


def get_backend(name: str | None = None) -> ArrayBackend:
    """Return the active backend instance (lazily constructed singleton)."""
    resolved = resolve_backend_name(name)
    instance = _instances.get(resolved)
    if instance is None:
        with _lock:
            instance = _instances.get(resolved)
            if instance is None:
                module_name, class_name = _REGISTRY[resolved]
                instance = getattr(import_module(module_name), class_name)()
                _instances[resolved] = instance
    return instance


def backend_name() -> str:
    """Name the next kernel call would dispatch to."""
    return resolve_backend_name()


def set_backend(name: str | None) -> None:
    """Install (or with ``None`` clear) a process-wide backend override."""
    _override.clear()
    if name is not None:
        get_backend(name)  # validate eagerly
        _override.append(resolve_backend_name(name))


@contextmanager
def use_backend(name: str | None):
    """Scope a backend selection to a ``with`` block (re-entrant).

    ``None`` is a no-op scope, so callers can unconditionally wrap
    ``with use_backend(ctx.backend): ...``.
    """
    if name is None:
        yield get_backend()
        return
    instance = get_backend(name)  # validate before entering
    _override.append(resolve_backend_name(name))
    try:
        yield instance
    finally:
        _override.pop()


def available_backends() -> dict[str, bool]:
    """Map every registered backend name to host availability.

    Every registered backend needs only numpy and the standard library,
    so each one is available; ``repro-bench backends`` records the map
    beside its timings.
    """
    return {registered: True for registered in sorted(_REGISTRY)}


@atexit.register
def _close_all() -> None:  # pragma: no cover - interpreter shutdown
    for instance in list(_instances.values()):
        try:
            instance.close()
        except Exception:  # repro-lint: disable=R002 (best-effort atexit teardown)
            pass
