"""``repro-dsd`` — run densest-subgraph discovery on an edge-list file.

Examples::

    repro-dsd graph.txt                          # PKMC on an undirected graph
    repro-dsd follows.txt --directed             # PWC on a directed graph
    repro-dsd graph.txt --method exact --top-component
    repro-dsd graph.txt --method pbu --threads 32 --option epsilon=0.5
    repro-dsd --list-methods                     # solver registry table

Dispatch goes through :func:`repro.engine.run`: the method name is
resolved in the solver registry, the thread count, sanitizer and backend
travel in one :class:`~repro.engine.context.ExecutionContext`,
and the printed simulated time comes from the attached
:class:`~repro.engine.report.RunReport`.
"""

from __future__ import annotations

import argparse
import sys

from .backends import available_backends
from .engine import ExecutionContext, get_solver, registry_table
from .engine import run as engine_run
from .errors import EngineError, ReproError
from .graph.components import densest_component
from .graph.directed import DirectedGraph
from .graph.io import load_npz, read_directed_edgelist, read_undirected_edgelist, save_npz

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dsd",
        description="Densest subgraph discovery (Luo et al., ICDE 2023 reproduction).",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="edge-list file (one 'u v' pair per line) or a binary "
        "snapshot (*.npz, loaded mmap-backed)",
    )
    parser.add_argument(
        "--save-snapshot",
        default=None,
        metavar="PATH",
        help="after loading, save the graph as a binary snapshot (.npz) "
        "for fast reloads",
    )
    parser.add_argument(
        "--strict-parse",
        action="store_true",
        help="use the line-by-line reference parser instead of the "
        "vectorized reader (identical output, slower)",
    )
    parser.add_argument(
        "--directed",
        action="store_true",
        help="treat the input as a directed graph and solve DDS",
    )
    parser.add_argument(
        "--method",
        default=None,
        help="algorithm to run, by registry name (see --list-methods); "
        "default pkmc / pwc",
    )
    parser.add_argument(
        "--list-methods",
        action="store_true",
        help="print the solver registry (name, guarantee, cost, "
        "capabilities) and exit",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="simulated thread count (default 1)",
    )
    parser.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra algorithm option (repeatable), e.g. epsilon=0.5",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run kernels under the parfor race sanitizer "
        "(repro.analysis.race) and print a per-loop verdict",
    )
    parser.add_argument(
        "--backend",
        choices=tuple(available_backends()),
        default=None,
        help="array backend the kernels execute on (default: the "
        "REPRO_BACKEND environment variable, then numpy); results are "
        "bit-identical across backends",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="P",
        help="partition the input into P vertex shards (written next to "
        "the input as <path>.shards<P>/) and run out-of-core through the "
        "ShardedGraph facade; results are bit-identical to monolithic",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="hard cap on resident shard bytes for sharded runs (with "
        "--shards or a sharded-snapshot directory input)",
    )
    parser.add_argument(
        "--top-component",
        action="store_true",
        help="report only the densest connected component of the answer "
        "(undirected only)",
    )
    parser.add_argument(
        "--max-vertices",
        type=int,
        default=20,
        help="how many member vertices to print (default 20)",
    )
    return parser


def _parse_options(pairs: list[str]) -> dict:
    options = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--option expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        options[key] = value
    return options


def _format_members(labels: list | None, ids, limit: int) -> str:
    # Snapshots store compact ids only; without labels, print ids raw.
    if labels is None:
        names = [str(i) for i in list(ids)[:limit]]
    else:
        names = [str(labels[i]) for i in list(ids)[:limit]]
    suffix = ", ..." if len(ids) > limit else ""
    return "{" + ", ".join(names) + suffix + "}"


def _check_directed(args, is_directed: bool, what: str) -> None:
    if is_directed != args.directed:
        stored = "directed" if is_directed else "undirected"
        flag = "--directed" if args.directed else "no --directed flag"
        raise EngineError(
            f"{what} {args.path} holds a {stored} graph, "
            f"which conflicts with {flag}"
        )


def _load_graph(args):
    """Load the input graph; returns ``(graph, labels_or_None)``.

    A directory input must be a sharded snapshot (``manifest.json``
    present) and loads straight through the budgeted facade; a file
    input with ``--shards P`` is sharded next to itself as
    ``<path>.shards<P>/`` and reopened the same way.
    """
    from pathlib import Path

    from .store.shard import MANIFEST_NAME, load_sharded, save_sharded

    in_path = Path(str(args.path))
    if in_path.is_dir():
        if not (in_path / MANIFEST_NAME).is_file():
            raise EngineError(
                f"{args.path} is a directory without a shard "
                f"{MANIFEST_NAME}; pass an edge list, a .npz snapshot or "
                "a sharded snapshot directory"
            )
        graph = load_sharded(
            in_path, memory_budget_bytes=args.memory_budget
        )
        _check_directed(args, graph.kind == "directed", "sharded snapshot")
        if args.save_snapshot is not None:
            save_npz(graph.to_graph(), args.save_snapshot)
        return graph, None
    if args.memory_budget is not None and args.shards is None:
        raise EngineError(
            "--memory-budget needs --shards (or a sharded-snapshot "
            "directory input)"
        )
    if str(args.path).endswith(".npz"):
        graph = load_npz(args.path)
        _check_directed(args, isinstance(graph, DirectedGraph), "snapshot")
        labels = None
    elif args.directed:
        graph, labels = read_directed_edgelist(
            args.path, vectorized=not args.strict_parse
        )
    else:
        graph, labels = read_undirected_edgelist(
            args.path, vectorized=not args.strict_parse
        )
    if args.save_snapshot is not None:
        save_npz(graph, args.save_snapshot)
    if args.shards is not None:
        directory = Path(f"{args.path}.shards{args.shards}")
        save_sharded(graph, directory, shards=args.shards)
        graph = load_sharded(
            directory, memory_budget_bytes=args.memory_budget
        )
    return graph, labels


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_methods:
        print(registry_table())
        return 0
    if args.path is None:
        parser.error("path is required (or use --list-methods)")
    try:
        options = _parse_options(args.option)
        ctx = ExecutionContext(
            num_threads=args.threads,
            sanitize=args.sanitize,
            backend=args.backend,
        )
        kind = "dds" if args.directed else "uds"
        spec = get_solver(kind, args.method or ("pwc" if args.directed else "pkmc"))
        graph, labels = _load_graph(args)
        if args.directed:
            result = engine_run(spec, graph, ctx, **options)
            print(f"graph   : {graph}")
            print(f"method  : {result.algorithm}")
            print(f"density : {result.density:.6g}")
            if result.x is not None:
                print(f"cn-pair : [{result.x}, {result.y}]")
            if result.w_star is not None:
                print(f"w*      : {result.w_star}")
            print(f"|S|={result.s_size}  S = "
                  f"{_format_members(labels, result.s, args.max_vertices)}")
            print(f"|T|={result.t_size}  T = "
                  f"{_format_members(labels, result.t, args.max_vertices)}")
        else:
            result = engine_run(spec, graph, ctx, **options)
            vertices = result.vertices
            density = result.density
            if args.top_component:
                component_graph = (
                    graph.to_graph() if hasattr(graph, "num_shards") else graph
                )
                vertices, density = densest_component(component_graph, vertices)
            print(f"graph   : {graph}")
            print(f"method  : {result.algorithm}")
            print(f"density : {density:.6g}")
            if result.k_star is not None:
                print(f"k*      : {result.k_star}")
            print(f"|S|={len(vertices)}  S = "
                  f"{_format_members(labels, vertices, args.max_vertices)}")
        report = result.report
        if report.simulated_seconds:
            print(f"simulated time ({args.threads} threads): "
                  f"{report.simulated_seconds:.6g} s")
        shard = report.shard
        if shard is not None:
            print(f"shards  : {shard.shards}  loads={shard.shard_loads}  "
                  f"peak_resident={shard.peak_resident_bytes}B  "
                  f"boundary_exchange={shard.boundary_messages_bytes}B")
        if args.sanitize:
            runtime = ctx.runtime
            reports = (
                runtime.sanitizer.reports
                if runtime is not None and runtime.sanitizer is not None
                else []
            )
            if reports:
                for loop_report in reports:
                    print(f"sanitizer: {loop_report.summary()}")
            else:
                print("sanitizer: no instrumented parallel loops observed "
                      "for this method")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
