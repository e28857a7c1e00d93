"""Edge-list I/O in the formats used by KONECT / SNAP style dumps.

Supported text format: one edge per line, whitespace-separated endpoints,
``#`` or ``%`` comment lines ignored, optional trailing columns (weights,
timestamps) ignored.  Vertex labels may be arbitrary tokens; they are
interned to dense integer ids in first-seen order.

Parsing is vectorized by default (:mod:`repro.store.reader`: chunked
reads, ``np.fromstring`` numeric fast path, ``np.unique`` label
interning); pass ``vectorized=False`` for the strict line-by-line
reference path.  Both produce identical graphs, labels and errors.

Binary ``.npz`` snapshots (:mod:`repro.store.snapshot`) store the built
CSR arrays and load mmap-backed — the fast path for repeated runs over
the same dataset.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO, Union

import numpy as np

from ..errors import GraphFormatError
from ..store import reader as store_reader
from ..store import snapshot as store_snapshot
from .builder import DirectedGraphBuilder, GraphBuilder
from .directed import DirectedGraph
from .undirected import UndirectedGraph

__all__ = [
    "read_undirected_edgelist",
    "read_directed_edgelist",
    "write_edgelist",
    "save_npz",
    "load_npz",
]

PathLike = Union[str, Path]
_COMMENT_PREFIXES = ("#", "%")


def _parse_lines(stream: TextIO, builder, path_hint: str) -> None:
    """Strict line-by-line reference parser (one add_edge per line)."""
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"{path_hint}:{line_number}: expected at least two columns, "
                f"got {line!r}"
            )
        builder.add_edge(parts[0], parts[1])


def _read_edgelist(source, builder, graph_cls, vectorized: bool):
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            return _read_edgelist_stream(
                stream, builder, graph_cls, str(source), vectorized
            )
    return _read_edgelist_stream(
        source, builder, graph_cls, "<stream>", vectorized
    )


def _read_edgelist_stream(stream, builder, graph_cls, hint, vectorized):
    if vectorized:
        edge_ids, labels = store_reader.read_edges_vectorized(stream, hint)
        return graph_cls.from_edges(len(labels), edge_ids), labels
    _parse_lines(stream, builder, hint)
    return builder.build_with_labels()


def read_undirected_edgelist(
    source: PathLike | TextIO, vectorized: bool = True
) -> tuple[UndirectedGraph, list]:
    """Parse an undirected edge list; return ``(graph, labels)``.

    ``labels[i]`` is the original token for vertex id ``i``.
    ``vectorized=False`` selects the strict line-by-line reference
    parser (identical output, one Python call per edge).
    """
    return _read_edgelist(source, GraphBuilder(), UndirectedGraph, vectorized)


def read_directed_edgelist(
    source: PathLike | TextIO, vectorized: bool = True
) -> tuple[DirectedGraph, list]:
    """Parse a directed edge list (u -> v per line); return ``(graph, labels)``."""
    return _read_edgelist(
        source, DirectedGraphBuilder(), DirectedGraph, vectorized
    )


def write_edgelist(
    graph: UndirectedGraph | DirectedGraph,
    target: PathLike | TextIO,
    header: str | None = None,
) -> None:
    """Write a graph as a plain edge list (one ``u v`` line per edge)."""

    def _write(stream: TextIO) -> None:
        if header:
            for header_line in header.splitlines():
                stream.write(f"# {header_line}\n")
        stream.write(f"# vertices={graph.num_vertices} edges={graph.num_edges}\n")
        edges = graph.edges()
        if edges.shape[0]:
            # Vectorized rendering: two U-string columns joined per row,
            # one C-level join for the body — no per-edge Python loop.
            left = np.char.add(edges[:, 0].astype(np.str_), " ")
            lines = np.char.add(left, edges[:, 1].astype(np.str_))
            stream.write("\n".join(lines.tolist()))
            stream.write("\n")

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as stream:
            _write(stream)
    else:
        _write(target)


def save_npz(graph: UndirectedGraph | DirectedGraph, path: PathLike) -> None:
    """Save a graph as a binary snapshot (uncompressed ``.npz``).

    Stores the built CSR arrays plus the content fingerprint, so
    :func:`load_npz` skips parsing and CSR construction entirely; see
    :mod:`repro.store.snapshot`.
    """
    store_snapshot.save_snapshot(graph, path)


def load_npz(
    path: PathLike, mmap: bool = True
) -> UndirectedGraph | DirectedGraph:
    """Load a graph saved by :func:`save_npz` (mmap-backed by default).

    Also accepts the legacy edge-list ``.npz`` layout.  Malformed or
    truncated files raise :class:`GraphFormatError`.
    """
    return store_snapshot.load_snapshot(path, mmap=mmap)

