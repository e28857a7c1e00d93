"""repro.stream — batched edge updates with incremental k*-core answers.

The streaming layer (ROADMAP item 3) turns the densest-subgraph answer
into a *maintained* object: a :class:`StreamSession` absorbs batches of
edge insertions/deletions and serves ``k_star()`` / ``core_numbers()`` /
``query()`` from the localized dynamic maintainer
(:class:`~repro.core.dynamic.DynamicKStarCore`) instead of re-running a
solver per batch — falling back to a full rebuild only when an affected
region grows past a configured fraction of the vertex set.  See
``docs/streaming.md`` for the affected-region bounds and the committed
``BENCH_stream.json`` gate (``repro-bench stream``) for the measured
incremental-vs-rebuild win.

Typical use::

    from repro.datasets import load_undirected
    from repro.stream import StreamSession

    session = StreamSession.from_graph(load_undirected("PT"))
    session.apply(insertions=[(0, 1)], deletions=[(2, 3)])
    result = session.query()          # warm answer, streaming report
    print(result.k_star, result.report.stream.updates_applied)
"""

from .session import StreamSession

__all__ = ["StreamSession"]
