"""Accounting records produced by the simulated runtime.

A :class:`TimeBreakdown` splits simulated elapsed time into the components
that explain *why* an algorithm scales the way it does: useful parallel
work, idle time from load imbalance, synchronisation overhead (spawns,
barriers, atomics) and serial sections.  The benchmark reports surface these
so the paper's qualitative explanations (e.g. "PXY suffers load imbalance",
"PKC's tiny iterations drown in scheduling overhead") are checkable numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TimeBreakdown", "RunMetrics"]


@dataclass
class TimeBreakdown:
    """Simulated elapsed time split by cause (all values in seconds)."""

    work: float = 0.0
    imbalance: float = 0.0
    spawn: float = 0.0
    barrier: float = 0.0
    atomic: float = 0.0
    serial: float = 0.0

    @property
    def total(self) -> float:
        """Total simulated elapsed seconds."""
        return (
            self.work
            + self.imbalance
            + self.spawn
            + self.barrier
            + self.atomic
            + self.serial
        )

    def as_dict(self) -> dict[str, float]:
        """Return the breakdown as a plain dict (for reports)."""
        return {
            "work": self.work,
            "imbalance": self.imbalance,
            "spawn": self.spawn,
            "barrier": self.barrier,
            "atomic": self.atomic,
            "serial": self.serial,
            "total": self.total,
        }


@dataclass
class RunMetrics:
    """Aggregate counters for one simulated algorithm run."""

    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    parallel_loops: int = 0
    items_processed: int = 0
    max_parfor_items: int = 0
    atomic_ops: int = 0
    peak_memory_bytes: int = 0

    def as_dict(self) -> dict[str, float | int]:
        """Return all counters flattened into one dict (for reports)."""
        flat: dict[str, float | int] = dict(self.breakdown.as_dict())
        flat.update(
            parallel_loops=self.parallel_loops,
            items_processed=self.items_processed,
            max_parfor_items=self.max_parfor_items,
            atomic_ops=self.atomic_ops,
            peak_memory_bytes=self.peak_memory_bytes,
        )
        return flat
