"""Query/response records for the DSD serving layer.

A :class:`Query` names *what* to compute — dataset (or explicit graph),
registry solver name, solver options, and the tenant submitting it — and
deliberately carries none of the *how* (threads, backend, cache): those
are server policy, fixed per :class:`~repro.serve.server.DsdServer` so
that identical queries from different users are identical work and can
be coalesced.  A :class:`Response` pairs the query with either the
engine result (its report carrying a
:class:`~repro.engine.report.ServeRecord` stamped through
:func:`repro.engine.report.stamp_report`) or a structured rejection
mirroring :class:`~repro.errors.ServeRejected`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Query", "Response"]


@dataclass(frozen=True)
class Query:
    """One densest-subgraph request in a serving stream.

    ``dataset`` is a graph name the server can resolve (a replica
    abbreviation like ``"PT"`` by default, or any key of the server's
    explicit graph table); ``solver`` is a registry name (``"pkmc"``,
    ``"charikar"``, ...); ``params`` are solver options forwarded to
    :func:`repro.engine.run` and participate in the single-flight key,
    so two queries differing only in ``params`` never coalesce;
    ``tenant`` is the quota-accounting principal.
    """

    dataset: str
    solver: str
    params: Mapping[str, Any] = field(default_factory=dict)
    tenant: str = "default"

    def __post_init__(self):
        # Defensive copy: queries are shared across the queue and
        # responses, so a caller mutating its dict must not retroactively
        # change an enqueued query (or its flight key).
        object.__setattr__(self, "params", dict(self.params))


@dataclass
class Response:
    """Outcome of one submitted query.

    ``status`` is ``"ok"``, ``"rejected"`` or ``"failed"``.  For ``"ok"``, ``result``
    is the engine result (bit-identical to a direct ``engine.run`` of
    the same query) and ``result.report.serve`` holds the serve
    statistics, which :attr:`queue_wait_s`, :attr:`batch_size` and
    :attr:`coalesced` read.  For ``"rejected"``, ``result`` is None,
    ``reason``/``retry_after_s`` carry the admission-control verdict
    (see :class:`~repro.errors.ServeRejected`) and the serve statistics
    read 0.  For ``"failed"``, the query's flight raised: ``result`` is
    None and ``reason`` names the exception's type and message.
    ``latency_s`` is wall-clock submit-to-completion time under the
    server's clock (0.0 for rejections, which never enter the queue).
    """

    query: Query
    status: str
    result: Any = None
    reason: str | None = None
    retry_after_s: float | None = None
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the query was admitted and served."""
        return self.status == "ok"

    def _serve_stat(self, name: str) -> Any:
        record = self.result.report.serve if self.result is not None else None
        return 0 if record is None else getattr(record, name)

    @property
    def queue_wait_s(self) -> float:
        """Seconds the query waited for its flight (0 for a rejection)."""
        return self._serve_stat("queue_wait_s")

    @property
    def batch_size(self) -> int:
        """Queries in the query's graph batch (0 for a rejection)."""
        return self._serve_stat("batch_size")

    @property
    def coalesced(self) -> int:
        """Queries its single flight answered (0 for a rejection)."""
        return self._serve_stat("coalesced")
