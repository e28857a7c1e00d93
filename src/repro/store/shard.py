"""Sharded CSR storage: partitioned ``.npz`` snapshots behind a facade.

This module is the out-of-core substrate under the BSP solvers
(ROADMAP item 2).  A built graph is partitioned into ``P`` contiguous
vertex ranges of balanced *edge mass* — the ranges come from
:func:`repro.store.csr.balanced_bounds`, the partitioner the array
backend also splits sweeps with — and each range is persisted as its own
uncompressed ``.npz`` shard holding:

* the range's **local CSR slice** (``indptr`` rebased to the range, the
  global-id ``indices`` slice, and for directed graphs the matching
  ``out_edge_ids`` slice);
* a **boundary-edge table** (``boundary_src`` / ``boundary_dst``): every
  adjacency slot whose tail lives outside the range.  For undirected
  graphs the table is symmetric across shards — the cross edge
  ``{u, v}`` appears as ``(u, v)`` in u's shard and ``(v, u)`` in v's —
  and it is what the distributed layer's boundary h-value exchange is
  accounted from.

A ``manifest.json`` records the partition bounds and one content
fingerprint per shard, chained into a single ``chain_fingerprint``; it
also carries the *monolithic* graph fingerprint, so a
:class:`ShardedGraph` fingerprints identically to the in-RAM container
it was sharded from and the engine's memo cache is shared between
sharded and monolithic runs of the same graph.

:class:`ShardedGraph` mmap-loads shards on demand and keeps them in a
resident set governed by a hard ``memory_budget_bytes``, evicting the
least recently used shard first.  "Resident" means the summed
``nbytes`` of a shard's loaded members; O(n) driver vectors (the
assembled degree arrays) are deliberately exempt — the budget bounds the
O(m) adjacency structure, which is what exceeds RAM on massive graphs.

All shard-member access goes through this module: lint rule R014 flags
any other code opening ``shard_*.npz`` members directly.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import GraphError, GraphFormatError
from .csr import balanced_bounds
from .fingerprint import fingerprint_arrays
from .snapshot import _load_arrays

__all__ = [
    "SHARD_FORMAT_VERSION",
    "MANIFEST_NAME",
    "shard_bounds",
    "save_sharded",
    "load_sharded",
    "GraphShard",
    "ShardedGraph",
]

PathLike = Union[str, Path]

SHARD_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

_UNDIRECTED_MEMBERS = ("indptr", "indices", "boundary_src", "boundary_dst")
_DIRECTED_MEMBERS = (
    "out_indptr",
    "out_indices",
    "out_edge_ids",
    "boundary_src",
    "boundary_dst",
)

_MANIFEST_KEYS = (
    "format_version",
    "kind",
    "num_vertices",
    "num_edges",
    "index_dtype",
    "num_shards",
    "bounds",
    "graph_fingerprint",
    "chain_fingerprint",
    "shards",
)


def _shard_file_name(index: int) -> str:
    return f"shard_{index:05d}.npz"


def _members_for(kind: str) -> tuple:
    return _UNDIRECTED_MEMBERS if kind == "undirected" else _DIRECTED_MEMBERS


def shard_bounds(cumulative_mass: np.ndarray, parts: int) -> np.ndarray:
    """Contiguous vertex ranges of balanced edge mass.

    ``cumulative_mass`` is a non-decreasing array of ``n + 1`` entries
    (a CSR ``indptr`` is exactly that: ``indptr[v]`` is the adjacency
    mass of vertices ``0..v-1``).  Returns ``parts + 1`` int64 bounds
    with ``bounds[0] == 0`` and ``bounds[-1] == n``; shard ``i`` owns
    the vertex range ``[bounds[i], bounds[i + 1])``.

    The split is :func:`~repro.store.csr.balanced_bounds`, the same
    partitioner the array backend splits sweeps with, so a shard boundary
    lands wherever a worker boundary would: equal shares of adjacency
    slots, not of vertices.
    """
    cumulative = np.ascontiguousarray(cumulative_mass, dtype=np.int64)
    if cumulative.ndim != 1 or cumulative.size == 0:
        raise GraphError("cumulative_mass must be a 1-D array with >= 1 entry")
    if parts < 1:
        raise GraphError(f"shard count must be >= 1, got {parts}")
    num_vertices = cumulative.size - 1
    if parts > max(num_vertices, 1):
        raise GraphError(
            f"cannot split {num_vertices} vertices into {parts} shards"
        )
    return balanced_bounds(cumulative, parts)


def _shard_payload(graph, kind: str, lo: int, hi: int) -> dict:
    """The member arrays of one shard (contiguous, storage dtypes)."""
    if kind == "undirected":
        indptr, indices = graph.indptr, graph.indices
        start, stop = int(indptr[lo]), int(indptr[hi])
        local_indptr = np.ascontiguousarray(indptr[lo:hi + 1] - indptr[lo])
        local_indices = np.ascontiguousarray(indices[start:stop])
        heads = np.repeat(
            np.arange(lo, hi, dtype=indptr.dtype), np.diff(indptr[lo:hi + 1])
        )
        cross = (local_indices < lo) | (local_indices >= hi)
        return {
            "indptr": local_indptr,
            "indices": local_indices,
            "boundary_src": np.ascontiguousarray(heads[cross]),
            "boundary_dst": np.ascontiguousarray(local_indices[cross]),
        }
    indptr, indices = graph.out_indptr, graph.out_indices
    start, stop = int(indptr[lo]), int(indptr[hi])
    local_indptr = np.ascontiguousarray(indptr[lo:hi + 1] - indptr[lo])
    local_indices = np.ascontiguousarray(indices[start:stop])
    heads = np.repeat(
        np.arange(lo, hi, dtype=indptr.dtype), np.diff(indptr[lo:hi + 1])
    )
    cross = (local_indices < lo) | (local_indices >= hi)
    return {
        "out_indptr": local_indptr,
        "out_indices": local_indices,
        "out_edge_ids": np.ascontiguousarray(graph.out_edge_ids[start:stop]),
        "boundary_src": np.ascontiguousarray(heads[cross]),
        "boundary_dst": np.ascontiguousarray(local_indices[cross]),
    }


def _shard_fingerprint(
    kind: str, num_vertices: int, lo: int, hi: int, arrays: dict
) -> str:
    """Content fingerprint of one shard's member arrays."""
    members = _members_for(kind)
    return fingerprint_arrays(
        f"{kind}-shard",
        num_vertices,
        np.array([lo, hi], dtype=np.int64),
        *(np.ascontiguousarray(arrays[name]) for name in members),
    )


def _chain(kind: str, num_vertices: int, shard_fingerprints: list) -> str:
    """Chain per-shard fingerprints into the one graph-level digest."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(kind.encode("ascii"))
    digest.update(str(num_vertices).encode("ascii"))
    digest.update(str(len(shard_fingerprints)).encode("ascii"))
    for fingerprint in shard_fingerprints:
        digest.update(fingerprint.encode("ascii"))
    return digest.hexdigest()


def save_sharded(graph, directory: PathLike, shards: int = 8) -> str:
    """Partition ``graph`` into ``shards`` vertex ranges on disk.

    Writes ``shard_00000.npz .. shard_<P-1>.npz`` plus ``manifest.json``
    into ``directory`` (created if needed; stale ``shard_*.npz`` files
    from an earlier, differently-sized sharding are removed).  Returns
    the chain fingerprint.  Accepts the same graph types as
    :func:`~repro.store.snapshot.save_snapshot`.
    """
    from ..graph.directed import DirectedGraph
    from ..graph.undirected import UndirectedGraph

    if isinstance(graph, UndirectedGraph):
        kind, masses = "undirected", graph.indptr
    elif isinstance(graph, DirectedGraph):
        kind, masses = "directed", graph.out_indptr
    else:
        raise GraphError(f"cannot shard object of type {type(graph)!r}")

    bounds = shard_bounds(masses, shards)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in sorted(directory.glob("shard_*.npz")):
        stale.unlink()

    records = []
    fingerprints = []
    for index in range(shards):
        lo, hi = int(bounds[index]), int(bounds[index + 1])
        payload = _shard_payload(graph, kind, lo, hi)
        fingerprint = _shard_fingerprint(
            kind, graph.num_vertices, lo, hi, payload
        )
        file_name = _shard_file_name(index)
        np.savez(directory / file_name, **payload)
        fingerprints.append(fingerprint)
        records.append(
            {
                "file": file_name,
                "fingerprint": fingerprint,
                "lo": lo,
                "hi": hi,
                "entries": int(payload[_members_for(kind)[1]].size),
                "boundary_entries": int(payload["boundary_src"].size),
                "nbytes": int(sum(a.nbytes for a in payload.values())),
            }
        )

    index_dtype = (
        graph.indptr.dtype if kind == "undirected" else graph.out_indptr.dtype
    )
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "kind": kind,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "index_dtype": index_dtype.str,
        "num_shards": int(shards),
        "bounds": [int(b) for b in bounds],
        "graph_fingerprint": graph.fingerprint(),
        "chain_fingerprint": _chain(kind, graph.num_vertices, fingerprints),
        "shards": records,
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return manifest["chain_fingerprint"]


def _validate_manifest(directory: Path, manifest: dict) -> None:
    """Structural validation of a shard manifest against the directory."""
    prefix = str(directory)
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise GraphFormatError(f"{prefix}: manifest is missing {key!r}")
    if manifest["format_version"] != SHARD_FORMAT_VERSION:
        raise GraphFormatError(
            f"{prefix}: unsupported shard format version "
            f"{manifest['format_version']!r}"
        )
    kind = manifest["kind"]
    if kind not in ("undirected", "directed"):
        raise GraphFormatError(f"{prefix}: unknown graph kind {kind!r}")
    try:
        np.dtype(manifest["index_dtype"])
    except TypeError as exc:
        raise GraphFormatError(
            f"{prefix}: bad index_dtype {manifest['index_dtype']!r}"
        ) from exc
    num_shards = manifest["num_shards"]
    bounds = manifest["bounds"]
    records = manifest["shards"]
    if len(records) != num_shards or len(bounds) != num_shards + 1:
        raise GraphFormatError(
            f"{prefix}: manifest lists {len(records)} shards and "
            f"{len(bounds)} bounds for num_shards={num_shards}"
        )
    if bounds[0] != 0 or bounds[-1] != manifest["num_vertices"]:
        raise GraphFormatError(
            f"{prefix}: shard bounds do not cover the vertex range"
        )
    if any(bounds[i] > bounds[i + 1] for i in range(num_shards)):
        raise GraphFormatError(f"{prefix}: shard bounds must be non-decreasing")
    for index, record in enumerate(records):
        expected = _shard_file_name(index)
        if record.get("file") != expected:
            raise GraphFormatError(
                f"{prefix}: shard {index} is recorded as "
                f"{record.get('file')!r}; expected {expected!r} — shard "
                "files are renamed, reordered or missing from the manifest"
            )
        if record.get("lo") != bounds[index] or record.get("hi") != bounds[index + 1]:
            raise GraphFormatError(
                f"{prefix}: shard {index} range does not match the bounds"
            )
        if not (directory / expected).is_file():
            raise GraphFormatError(
                f"{prefix}: manifest lists {expected} but the file is missing"
            )
    listed = {record["file"] for record in records}
    on_disk = {path.name for path in directory.glob("shard_*.npz")}
    extras = sorted(on_disk - listed)
    if extras:
        raise GraphFormatError(
            f"{prefix}: shard files not listed in the manifest: "
            f"{', '.join(extras)}"
        )


def load_sharded(
    directory: PathLike,
    memory_budget_bytes: int | None = None,
) -> "ShardedGraph":
    """Open a sharded snapshot directory as a :class:`ShardedGraph`.

    Validates the manifest against the directory contents (missing,
    extra, renamed or reordered shard files all raise
    :class:`~repro.errors.GraphFormatError`) without touching any shard
    payload; shards are mmap-loaded lazily on first access.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise GraphFormatError(
            f"{directory}: not a sharded snapshot directory"
        )
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise GraphFormatError(
            f"{directory}: missing {MANIFEST_NAME}; not a sharded snapshot"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise GraphFormatError(
            f"{manifest_path}: unreadable shard manifest ({exc})"
        ) from exc
    if not isinstance(manifest, dict):
        raise GraphFormatError(f"{manifest_path}: manifest is not an object")
    _validate_manifest(directory, manifest)
    return ShardedGraph(
        directory, manifest, memory_budget_bytes=memory_budget_bytes
    )


class GraphShard:
    """One resident vertex-range shard of a :class:`ShardedGraph`.

    Exposes the shard's member arrays as attributes (``indptr`` /
    ``indices`` / ``boundary_src`` / ``boundary_dst`` for undirected
    graphs; ``out_indptr`` / ``out_indices`` / ``out_edge_ids`` plus the
    boundary table for directed ones).  The local ``indptr`` is rebased
    to the range — row ``v`` of the shard is global vertex ``lo + v`` —
    while ``indices`` / ``boundary_*`` keep *global* vertex ids.
    """

    __slots__ = ("index", "lo", "hi", "arrays", "nbytes")

    def __init__(self, index: int, lo: int, hi: int, arrays: dict):
        self.index = index
        self.lo = lo
        self.hi = hi
        self.arrays = arrays
        self.nbytes = int(sum(a.nbytes for a in arrays.values()))

    def __getattr__(self, name: str):
        arrays = object.__getattribute__(self, "arrays")
        try:
            return arrays[name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the shard's range ``[lo, hi)``."""
        return self.hi - self.lo

    def __repr__(self) -> str:
        return (
            f"GraphShard(index={self.index}, range=[{self.lo}, {self.hi}), "
            f"nbytes={self.nbytes})"
        )


class ShardedGraph:
    """Facade over a sharded snapshot: on-demand mmap shards + budget.

    ``shard(i)`` returns shard ``i``, loading it if absent and evicting
    resident shards, least recently used first, until the summed member
    bytes fit the hard ``memory_budget_bytes``.  A single shard larger
    than the budget raises :class:`~repro.errors.GraphError` — the
    budget is a real ceiling, not advisory.  ``memory_budget_bytes=None``
    keeps every touched shard resident.

    ``fingerprint()`` returns the *monolithic* graph fingerprint from
    the manifest, so engine memo-cache keys are identical for sharded
    and monolithic runs of the same graph; the shard-level integrity
    story (per-shard fingerprints chained into ``chain_fingerprint``)
    is checked by :meth:`verify`.
    """

    def __init__(
        self,
        directory: PathLike,
        manifest: dict,
        memory_budget_bytes: int | None = None,
    ):
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise GraphError("memory_budget_bytes must be positive or None")
        self._directory = Path(directory)
        self._manifest = manifest
        self.memory_budget_bytes = memory_budget_bytes
        self.bounds = np.asarray(manifest["bounds"], dtype=np.int64)
        self.index_dtype = np.dtype(manifest["index_dtype"])
        self._resident: "OrderedDict[int, GraphShard]" = OrderedDict()
        self._resident_bytes = 0
        self._shard_loads = 0
        self._evictions = 0
        self._peak_resident_bytes = 0
        self._degrees: np.ndarray | None = None
        self._in_degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Identity / geometry
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"undirected"`` or ``"directed"``."""
        return self._manifest["kind"]

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n`` of the full graph."""
        return int(self._manifest["num_vertices"])

    @property
    def num_edges(self) -> int:
        """Number of edges ``m`` of the full graph."""
        return int(self._manifest["num_edges"])

    @property
    def num_shards(self) -> int:
        """Number of vertex-range shards ``P``."""
        return int(self._manifest["num_shards"])

    @property
    def chain_fingerprint(self) -> str:
        """The manifest's chained per-shard fingerprint digest."""
        return self._manifest["chain_fingerprint"]

    def fingerprint(self) -> str:
        """The monolithic graph fingerprint recorded in the manifest.

        This is what makes sharded and monolithic runs share engine
        memo-cache entries: :func:`~repro.store.memo.make_cache_key`
        sees the same fingerprint either way.
        """
        return self._manifest["graph_fingerprint"]

    def owners(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Shard index of every given global vertex id (int64 array)."""
        ids = np.asarray(vertex_ids, dtype=np.int64)
        return np.searchsorted(self.bounds, ids, side="right") - 1

    def cross_adjacency_fraction(self) -> float:
        """Fraction of adjacency slots whose tail lives on another shard."""
        entries = sum(r["entries"] for r in self._manifest["shards"])
        boundary = sum(r["boundary_entries"] for r in self._manifest["shards"])
        return boundary / entries if entries else 0.0

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def _load_members(self, index: int, names: tuple) -> dict:
        """Load member arrays of shard ``index`` (mmap, uncounted)."""
        record = self._manifest["shards"][index]
        path = self._directory / record["file"]
        try:
            return _load_arrays(str(path), names, mmap=True)
        except KeyError as exc:
            raise GraphFormatError(f"{path}: missing member {exc}") from exc
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise GraphFormatError(
                f"{path}: not a valid shard file ({exc})"
            ) from exc

    def shard(self, index: int) -> GraphShard:
        """Return shard ``index``, loading and admitting it if needed."""
        if not 0 <= index < self.num_shards:
            raise GraphError(
                f"shard index {index} out of range for {self.num_shards} shards"
            )
        resident = self._resident.get(index)
        if resident is not None:
            self._resident.move_to_end(index)
            return resident
        arrays = self._load_members(index, _members_for(self.kind))
        shard = GraphShard(
            index, int(self.bounds[index]), int(self.bounds[index + 1]), arrays
        )
        self._admit(shard)
        return shard

    def _admit(self, shard: GraphShard) -> None:
        budget = self.memory_budget_bytes
        if budget is not None and shard.nbytes > budget:
            raise GraphError(
                f"shard {shard.index} needs {shard.nbytes} bytes alone, "
                f"over memory_budget_bytes={budget}; re-shard with more "
                "shards or raise the budget"
            )
        while (
            budget is not None
            and self._resident
            and self._resident_bytes + shard.nbytes > budget
        ):
            _, evicted = self._resident.popitem(last=False)
            self._resident_bytes -= evicted.nbytes
            self._evictions += 1
        self._resident[shard.index] = shard
        self._resident_bytes += shard.nbytes
        self._shard_loads += 1
        self._peak_resident_bytes = max(
            self._peak_resident_bytes, self._resident_bytes
        )

    def resident_shards(self) -> tuple:
        """Resident shard indices, eviction order first."""
        return tuple(self._resident)

    def memory_bytes(self) -> int:
        """Currently resident shard bytes (the facade's footprint)."""
        return self._resident_bytes

    def stats(self) -> dict:
        """Residency counters for reports and benches."""
        return {
            "shards": self.num_shards,
            "shard_loads": self._shard_loads,
            "evictions": self._evictions,
            "resident_bytes": self._resident_bytes,
            "peak_resident_bytes": self._peak_resident_bytes,
        }

    def reset_stats(self) -> None:
        """Zero the load/eviction counters; peak restarts from resident."""
        self._shard_loads = 0
        self._evictions = 0
        self._peak_resident_bytes = self._resident_bytes

    # ------------------------------------------------------------------
    # Assembled driver vectors
    # ------------------------------------------------------------------
    def _assemble_degrees(self, indptr_member: str) -> np.ndarray:
        out = np.zeros(self.num_vertices, dtype=self.index_dtype)
        for index in range(self.num_shards):
            lo, hi = int(self.bounds[index]), int(self.bounds[index + 1])
            if hi == lo:
                continue
            local = self._load_members(index, (indptr_member,))[indptr_member]
            out[lo:hi] = np.diff(local)
        out.setflags(write=False)
        return out

    def degrees(self) -> np.ndarray:
        """Per-vertex degrees assembled from the shards' local indptr.

        O(n) driver state, cached read-only and exempt from the memory
        budget (only the shards' ``indptr`` members are paged, never the
        adjacency payload).  Undirected graphs only.
        """
        if self.kind != "undirected":
            raise GraphError(
                "degrees() is undirected-only; use out_degrees()/in_degrees()"
            )
        if self._degrees is None:
            self._degrees = self._assemble_degrees("indptr")
        return self._degrees

    def out_degrees(self) -> np.ndarray:
        """Per-vertex out-degrees (directed; budget-exempt like degrees)."""
        if self.kind != "directed":
            raise GraphError("out_degrees() is directed-only; use degrees()")
        if self._degrees is None:
            self._degrees = self._assemble_degrees("out_indptr")
        return self._degrees

    def in_degrees(self) -> np.ndarray:
        """Per-vertex in-degrees, streamed through budget-managed loads.

        Unlike :meth:`out_degrees` this must read every shard's
        adjacency payload (in-degree is a column count of the out-CSR),
        so the pass goes through :meth:`shard` and respects the budget.
        """
        if self.kind != "directed":
            raise GraphError("in_degrees() is directed-only")
        if self._in_degrees is None:
            counts = np.zeros(self.num_vertices, dtype=np.int64)
            for index in range(self.num_shards):
                shard = self.shard(index)
                if shard.out_indices.size:
                    counts += np.bincount(
                        shard.out_indices, minlength=self.num_vertices
                    )
            # Same dtype as DirectedGraph.in_degrees() (np.diff(in_indptr))
            # so degree products match the monolithic solvers bit for bit.
            counts = counts.astype(self.index_dtype)
            counts.setflags(write=False)
            self._in_degrees = counts
        return self._in_degrees

    # ------------------------------------------------------------------
    # Materialization / integrity
    # ------------------------------------------------------------------
    def to_graph(self):
        """Materialize the monolithic container (ignores the budget).

        The assembled arrays are bit-identical — dtype included — to the
        graph that was sharded, and the manifest's monolithic
        fingerprint is adopted when the index dtype survives
        construction, exactly like a plain snapshot load.
        """
        from ..graph.directed import DirectedGraph
        from ..graph.undirected import UndirectedGraph
        from .csr import counting_sort_csr

        n = self.num_vertices
        idx = self.index_dtype
        if self.kind == "undirected":
            indptr = np.zeros(n + 1, dtype=idx)
            parts = []
            offset = 0
            for index in range(self.num_shards):
                lo, hi = int(self.bounds[index]), int(self.bounds[index + 1])
                arrays = self._load_members(index, ("indptr", "indices"))
                if hi > lo:
                    indptr[lo + 1:hi + 1] = arrays["indptr"][1:] + idx.type(offset)
                parts.append(np.asarray(arrays["indices"]))
                offset += int(arrays["indptr"][-1])
            indices = (
                np.concatenate(parts) if parts else np.empty(0, dtype=idx)
            )
            graph = UndirectedGraph(indptr, indices)
            if graph.indptr.dtype == idx:
                graph._fingerprint = self._manifest["graph_fingerprint"]
            return graph

        out_indptr = np.zeros(n + 1, dtype=idx)
        indices_parts = []
        edge_id_parts = []
        offset = 0
        for index in range(self.num_shards):
            lo, hi = int(self.bounds[index]), int(self.bounds[index + 1])
            arrays = self._load_members(
                index, ("out_indptr", "out_indices", "out_edge_ids")
            )
            if hi > lo:
                out_indptr[lo + 1:hi + 1] = (
                    arrays["out_indptr"][1:] + idx.type(offset)
                )
            indices_parts.append(np.asarray(arrays["out_indices"]))
            edge_id_parts.append(np.asarray(arrays["out_edge_ids"]))
            offset += int(arrays["out_indptr"][-1])
        out_indices = (
            np.concatenate(indices_parts)
            if indices_parts
            else np.empty(0, dtype=idx)
        )
        out_edge_ids = (
            np.concatenate(edge_id_parts)
            if edge_id_parts
            else np.empty(0, dtype=idx)
        )
        m = out_indices.size
        heads = np.repeat(
            np.arange(n, dtype=idx), np.diff(out_indptr.astype(np.int64))
        )
        edge_src = np.empty(m, dtype=idx)
        edge_dst = np.empty(m, dtype=idx)
        edge_src[out_edge_ids] = heads
        edge_dst[out_edge_ids] = out_indices
        in_indptr, in_indices, in_order = counting_sort_csr(
            n,
            edge_dst.astype(np.int64),
            edge_src.astype(np.int64),
            dtype=idx,
        )
        in_edge_ids = in_order.astype(idx, copy=False)
        graph = DirectedGraph._from_csr_arrays(
            n,
            edge_src,
            edge_dst,
            out_indptr,
            out_indices,
            out_edge_ids,
            in_indptr,
            in_indices,
            in_edge_ids,
        )
        if graph.out_indptr.dtype == idx:
            graph._fingerprint = self._manifest["graph_fingerprint"]
        return graph

    def verify(self) -> str:
        """Recompute every shard fingerprint plus the chain; return it.

        Pages in every shard byte (bypassing the budget) and raises
        :class:`~repro.errors.GraphFormatError` on the first shard whose
        content no longer matches its manifest fingerprint, or when the
        recomputed chain disagrees with the manifest.
        """
        members = _members_for(self.kind)
        fingerprints = []
        for index, record in enumerate(self._manifest["shards"]):
            arrays = self._load_members(index, members)
            fingerprint = _shard_fingerprint(
                self.kind,
                self.num_vertices,
                int(self.bounds[index]),
                int(self.bounds[index + 1]),
                arrays,
            )
            if fingerprint != record["fingerprint"]:
                raise GraphFormatError(
                    f"{self._directory / record['file']}: content does not "
                    "match its manifest fingerprint"
                )
            fingerprints.append(fingerprint)
        chain = _chain(self.kind, self.num_vertices, fingerprints)
        if chain != self._manifest["chain_fingerprint"]:
            raise GraphFormatError(
                f"{self._directory}: chain fingerprint mismatch"
            )
        return chain

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(kind={self.kind!r}, n={self.num_vertices}, "
            f"m={self.num_edges}, shards={self.num_shards}, "
            f"resident={len(self._resident)})"
        )
