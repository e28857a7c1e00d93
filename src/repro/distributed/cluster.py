"""Simulated BSP cluster (the paper's GraphX future-work direction).

The paper's conclusion proposes porting PKMC/PWC to a distributed
platform "when the graph is too large to be kept by a single machine".
This module is the cost side of that study: a deterministic
bulk-synchronous-parallel (BSP / Pregel-style) cluster model in the
same spirit as :class:`~repro.runtime.SimRuntime` — vertex-centric
programs execute their kernels once, while the accountant charges per
superstep:

    T_superstep = max_w(compute_w) / core_speed
                + max_w(bytes_out_w) / bandwidth
                + network latency (one exchange round)
                + barrier + aggregator round-trip

which captures the two facts any distributed port must confront: the
slowest partition gates every superstep, and message volume — not work —
usually dominates for sparse iterative algorithms.  Who the workers are
is the solver's business (hash partition in RAM, one worker per shard
out of core); the accountant only sees per-worker totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..errors import SimulationError

__all__ = ["ClusterConfig", "BSPAccountant"]

#: Smallest legal value per ClusterConfig field; the rest must be >= 0.
_LEAST_VALUE = {"num_workers": 1, "bytes_per_message": 1}


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware model of the simulated cluster."""

    num_workers: int = 8
    work_unit_seconds: float = 5e-9
    """Per work unit (one adjacency touch) on a worker core."""

    network_bandwidth_bytes_per_s: float = 1.25e9
    """Per-worker NIC bandwidth (10 GbE)."""

    network_latency_seconds: float = 5e-5
    """One bulk message exchange round (within-rack RTT)."""

    barrier_seconds: float = 1e-4
    """Global superstep barrier (coordinator round)."""

    aggregator_seconds: float = 5e-5
    """Cost of one global aggregation (h_max / counts) per superstep."""

    bytes_per_message: int = 12
    """One (target vertex id, value) message record."""

    def __post_init__(self):
        # Every constant feeds the superstep clock, which must stay a
        # finite, non-decreasing number of seconds (as SimRuntime's does);
        # the bandwidth is a divisor.
        bandwidth = self.network_bandwidth_bytes_per_s
        if not bandwidth > 0:
            raise SimulationError(
                f"network_bandwidth_bytes_per_s must be > 0, got {bandwidth!r}"
            )
        for spec in fields(self):
            value = getattr(self, spec.name)
            least = _LEAST_VALUE.get(spec.name, 0)
            if not (math.isfinite(value) and value >= least):
                raise SimulationError(
                    f"{spec.name} must be a finite number >= {least}, got {value!r}"
                )


class BSPAccountant:
    """Superstep clock over per-worker compute and message totals.

    Each :meth:`superstep` charges the busiest worker's compute, the
    busiest worker's outgoing message bytes plus one latency round, the
    barrier and the aggregator round-trip.  The bill is kept as three
    separate sums (compute, exchange, overhead) so reports can tell
    computation from boundary traffic; :attr:`now` is their total.
    """

    def __init__(self, config: ClusterConfig, num_workers: int):
        self.config = config
        self.num_workers = num_workers
        self.compute_seconds = 0.0
        self.exchange_seconds = 0.0
        self.overhead_seconds = 0.0
        self.supersteps = 0
        self.total_messages = 0

    @property
    def now(self) -> float:
        """Simulated seconds elapsed across all supersteps."""
        return self.compute_seconds + self.exchange_seconds + self.overhead_seconds

    def superstep(
        self, compute_units: np.ndarray, message_counts: np.ndarray
    ) -> None:
        """Account one superstep from per-worker work and message totals.

        ``message_counts[w]`` counts the messages worker ``w`` sends to
        other workers; same-worker delivery is free.
        """
        config = self.config
        compute = np.asarray(compute_units, dtype=np.float64)
        messages = np.asarray(message_counts, dtype=np.float64)
        if compute.shape != (self.num_workers,) or messages.shape != compute.shape:
            raise SimulationError(
                f"expected per-worker totals of shape ({self.num_workers},)"
            )
        self.compute_seconds += float(compute.max()) * config.work_unit_seconds
        self.exchange_seconds += (
            float(messages.max())
            * config.bytes_per_message
            / config.network_bandwidth_bytes_per_s
            + config.network_latency_seconds
        )
        self.overhead_seconds += config.barrier_seconds
        self.overhead_seconds += config.aggregator_seconds
        self.supersteps += 1
        self.total_messages += int(messages.sum())

    def extras(self, shard_stats: dict | None = None) -> dict:
        """The clock's counters, as a BSP result carries them in ``extras``.

        A run over a :class:`~repro.store.shard.ShardedGraph` passes the
        facade's ``stats()``; they come back as ``shard_stats`` with the
        bytes this clock charged for boundary messages added.
        """
        extras = {
            "supersteps": self.supersteps,
            "total_messages": self.total_messages,
            "num_workers": self.num_workers,
            "compute_seconds": self.compute_seconds,
            "exchange_seconds": self.exchange_seconds,
            "overhead_seconds": self.overhead_seconds,
        }
        if shard_stats is not None:
            extras["shard_stats"] = {
                **shard_stats,
                "boundary_messages_bytes": (
                    self.total_messages * self.config.bytes_per_message
                ),
            }
        return extras
