"""The gate layer shared by the ``repro-bench`` regression harnesses.

Each harness (kernels, store, backends, serve, shard, stream) measures
its workload and returns a JSON payload; the committed ``BENCH_*.json``
files are such payloads.  This module owns the three decisions every
harness would otherwise make for itself:

* **comparison** — :meth:`Harness.check` compares a fresh payload with
  its committed baseline through the harness's table of :class:`Gate`
  rows.  There are four kinds of row: an absolute ``FLOOR``, a
  baseline-``RELATIVE`` ratio within the harness's tolerance, an exact
  ``PIN`` and a required ``FLAG``.  Floor and flag rows run over every
  entry of the fresh payload; relative and pin rows over every entry of
  either side.  A key missing on either side is a named failure, never a
  ``KeyError``.
* **sampling** — :func:`alternating_samples` is the one timing loop for
  the legs of a wall-clock ratio.  The legs take turns, so drift in host
  load lands on every leg alike, and by default each timed call follows
  one untimed call of the same leg, so a leg never times the caches and
  allocator state the previous leg left behind.  Wall-clock gates are
  ratios of legs measured this way, never raw seconds, so a slower host
  cannot fail them spuriously.
* **the registry** — :data:`NAMES` lists the harnesses in the order
  ``repro-bench all --check`` runs them, and :func:`harness` maps a name
  to its :class:`Harness`: run function, render function, gate rows,
  tolerance and baseline file.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "FLOOR", "RELATIVE", "PIN", "FLAG", "Gate", "Harness", "NAMES", "harness",
    "alternating_samples", "alternating_medians", "ratio",
]

FLOOR = "floor"
RELATIVE = "relative"
PIN = "pin"
FLAG = "flag"

#: The committed bench-regression harnesses, in the order ``all --check``
#: runs them.  Each name is a module of this package that defines
#: ``HARNESS``, and ``BENCH_<name>.json`` is its committed baseline.
NAMES = ("kernels", "store", "backends", "serve", "shard", "stream")

_MISSING = object()


@dataclass(frozen=True)
class Gate:
    """One row of a harness's gate table.

    ``path`` is a dotted payload path.  A ``*`` segment matches every key
    of a mapping or every index of a list, and an integer segment indexes
    a list.  ``label`` states the failure; ``{key}`` in it names the
    entry the ``*`` matched.

    * ``FLOOR``: the value must reach ``floor`` — a number, or the name of
      a sibling key whose value is the floor, compared with relative
      ``slack``;
    * ``RELATIVE``: the value may trail the baseline's by at most the
      tolerance (``tolerance``, else the harness's), upward when
      ``lower_is_better``;
    * ``PIN``: the value must equal the baseline's;
    * ``FLAG``: the value must be true.
    """

    kind: str
    path: str
    label: str
    floor: float | str | None = None
    slack: float = 0.0
    lower_is_better: bool = False
    tolerance: float | None = None

    def failures(
        self, current: dict, baseline: dict, tolerance: float | None
    ) -> Iterator[str]:
        """Failure messages of this row for one fresh/baseline pair."""
        parts = self.path.split(".")
        if self.kind in (FLOOR, FLAG):
            for where, key, value in _expand(current, parts):
                label = self.label.format(key=key)
                if value is _MISSING:
                    yield f"{where} missing from the fresh payload"
                elif self.kind == FLAG:
                    if not value:
                        yield f"{label}: {where} is {value!r}"
                else:
                    yield from self._floor_failure(label, where, value, current)
            return
        fresh = {where: value for where, _, value in _expand(current, parts)}
        for where, key, base in _expand(baseline, parts):
            label = self.label.format(key=key)
            value = fresh.pop(where, _MISSING)
            if base is _MISSING:
                yield f"{where} missing from the committed baseline"
            elif value is _MISSING:
                yield f"{where} missing from the fresh payload"
            elif self.kind == PIN:
                if value != base:
                    yield f"{label}: {where} = {value!r} vs baseline {base!r}"
            else:
                yield from self._relative_failure(label, where, value, base, tolerance)
        for where in fresh:
            yield f"{where} missing from the committed baseline"

    def _floor_failure(self, label, where, value, current) -> Iterator[str]:
        floor, source = self.floor, ""
        if isinstance(floor, str):
            sibling = f"{where.rpartition('.')[0]}.{floor}"
            floor, source = next(_expand(current, sibling.split(".")))[2], f" ({sibling})"
            if floor is _MISSING:
                yield f"{sibling} missing from the fresh payload"
                return
        if value * (1.0 + self.slack) < floor:
            yield f"{label}: {where} = {value:.4g}, the gate requires >= {floor:.4g}{source}"

    def _relative_failure(self, label, where, value, base, tolerance) -> Iterator[str]:
        if self.tolerance is not None:
            tolerance = self.tolerance
        bound = 1.0 + tolerance
        if value > base * bound if self.lower_is_better else value < base / bound:
            yield (
                f"{label}: {where} = {value:.4g} vs baseline {base:.4g} "
                f"(tolerance {tolerance:.0%})"
            )


def _expand(node, parts, prefix=(), key="") -> Iterator[tuple[str, str, Any]]:
    """``(concrete path, key the last * matched, value)`` per match.

    A path that does not resolve yields one entry whose value is
    ``_MISSING``, named as far as it resolved plus the unresolved rest.
    """
    if not parts:
        yield ".".join(prefix), key, node
        return
    head, rest = parts[0], parts[1:]
    if head == "*" and isinstance(node, (dict, list)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for item in keys:
            yield from _expand(node[item], rest, prefix + (str(item),), str(item))
        return
    child = _MISSING
    if isinstance(node, dict):
        child = node.get(head, _MISSING)
    elif isinstance(node, list) and head.lstrip("-").isdigit():
        if -len(node) <= int(head) < len(node):
            child = node[int(head)]
    if child is _MISSING:
        yield ".".join(prefix + tuple(parts)), key, _MISSING
    else:
        yield from _expand(child, rest, prefix + (head,), key)


@dataclass(frozen=True)
class Harness:
    """One registered bench-regression harness.

    ``run()`` measures the workload and returns the payload, ``render``
    formats a payload for humans, ``gates`` is the gate table and
    ``tolerance`` the relative slack of its ``RELATIVE`` rows.
    """

    name: str
    run: Callable[[], dict]
    render: Callable[[dict], str]
    gates: tuple[Gate, ...]
    tolerance: float | None = None

    @property
    def baseline(self) -> str:
        """File name of the committed baseline, ``BENCH_<name>.json``."""
        return f"BENCH_{self.name}.json"

    def check(self, current: dict, baseline: dict) -> list[str]:
        """Failures of ``current`` against ``baseline``; empty means pass."""
        return [
            failure
            for gate in self.gates
            for failure in gate.failures(current, baseline, self.tolerance)
        ]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, infinite when the denominator is 0."""
    return numerator / denominator if denominator else float("inf")


def harness(name: str) -> Harness:
    """The registry entry of harness ``name`` (imports its module)."""
    if name not in NAMES:
        raise KeyError(f"unknown bench harness {name!r}")
    return importlib.import_module(f"{__package__}.{name}").HARNESS


def alternating_samples(
    legs, repeats: int, *, setups=None, warmup: bool = True
) -> list[list[tuple[float, Any]]]:
    """``repeats`` timed ``(seconds, return value)`` samples per leg.

    The legs take turns, one timed call each per round.  With ``warmup``
    each timed call follows one untimed call of the same leg.  When
    ``setups`` is given, ``setups[i]()`` runs untimed before every call of
    ``legs[i]`` and its result is the leg's argument.  A timed call's
    return value stays alive in its sample, so a leg returns only the
    small record its caller reads, or ``None``.
    """
    setups = setups or [None] * len(legs)
    samples: list[list[tuple[float, Any]]] = [[] for _ in legs]
    for _ in range(repeats):
        for fn, setup, leg_samples in zip(legs, setups, samples):
            if warmup:
                fn(*(() if setup is None else (setup(),)))
            args = () if setup is None else (setup(),)
            started = time.perf_counter()  # repro-lint: disable=R001 (real wall-clock measurement)
            value = fn(*args)
            leg_samples.append((time.perf_counter() - started, value))  # repro-lint: disable=R001 (real wall-clock measurement)
    return samples


def alternating_medians(legs, repeats: int) -> list[float]:
    """Median seconds per leg of warmed :func:`alternating_samples`.

    Each leg's result is released inside its timed call, as a plain
    statement call releases it, so no leg measures memory the previous
    results still hold.
    """

    def _released(fn):
        def leg() -> None:
            fn()

        return leg

    return [
        statistics.median(seconds for seconds, _ in leg_samples)
        for leg_samples in alternating_samples([_released(fn) for fn in legs], repeats)
    ]
