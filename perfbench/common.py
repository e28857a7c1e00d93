"""Shared pieces of the workloads: operation tally, chunks, statistics."""

from __future__ import annotations

import contextlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spans import Tracer


@dataclass
class Tally:
    """Operations attempted and failed in one run.

    An operation fails when it raises, is rejected, or returns an answer
    the oracle refuses; ``wrong`` counts the refusals alone.  The run
    reports ``correct`` only when no operation failed.  Failures never
    abort the run; the first few are echoed to stderr.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def attempt(self) -> None:
        """Count one operation as attempted."""
        self.attempted += 1

    def fail(self, what: str, problems: Optional[list] = None) -> None:
        """Count one failed operation; ``problems`` marks an oracle refusal."""
        self.failed += 1
        if problems:
            self.wrong += 1
            what = f"{what}: {'; '.join(problems)}"
        if len(self.notes) < 20:
            self.notes.append(what)
            print(f"[perfbench] FAILED {what}", file=sys.stderr)

    def raised(self, what: str) -> None:
        """Count the operation whose exception is being handled as failed."""
        self.fail(f"{what} raised {traceback.format_exc(limit=3).strip()}")


@dataclass
class Chunk:
    """One deterministic unit of replayed work and what it measured.

    ``replay_s`` sums the timed spans only (oracle checks excluded);
    ``samples`` are per-operation latencies; ``work`` counts the
    workload's unit of work (input edges answered, queries completed,
    edge updates applied); ``counts`` holds layer counters read from the
    program's own stats surfaces; ``extra`` holds named sample lists.
    A traced chunk also carries the tracer's counters and times.
    """

    replay_s: float = 0.0
    samples: list = field(default_factory=list)
    work: float = 0.0
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    traced: bool = False
    layer_counts: dict = field(default_factory=dict)
    self_times: dict = field(default_factory=dict)
    inclusive_times: dict = field(default_factory=dict)


class Probe:
    """The tracer seen from workload code; a no-op when the chunk is untraced."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer

    def operation(self, op_id: int) -> None:
        """Tag following spans with ``op_id`` (traced chunks only)."""
        if self.tracer is not None:
            self.tracer.operation(op_id)

    @contextlib.contextmanager
    def paused(self):
        """Run oracle work without spans, so it is not attributed to layers."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation; NaN when empty."""
    return float(np.quantile(values, q)) if len(values) else math.nan


def median(values) -> float:
    """The median; NaN when empty."""
    return quantile(values, 0.5)
