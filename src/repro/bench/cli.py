"""``repro-bench`` command line: regenerate the paper's tables and figures.

Examples::

    repro-bench --list
    repro-bench exp1 exp2
    repro-bench all --output results/
    repro-bench backends --check BENCH_backends.json
    repro-bench all --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .experiments import ALL_EXPERIMENTS
from .gates import NAMES, harness

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the evaluation artifacts of 'Scalable Algorithms "
            "for Densest Subgraph Discovery' (ICDE 2023) on the synthetic "
            "replicas."
        ),
    )
    harnesses = ", ".join(repr(name) for name in NAMES)
    parser.add_argument(
        "experiments",
        nargs="*",
        help=(
            f"experiment ids (exp1..exp8), a bench-regression harness "
            f"({harnesses}) or 'all'; default: all"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--charts",
        action="store_true",
        help="also render ASCII approximations of the paper's figures",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "directory to also write one <exp>.txt per experiment, or a "
            "harness's fresh BENCH_<name>.json (also under --check)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --output, also write machine-readable <exp>.json files",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check each artifact against the paper's encoded claims",
    )
    parser.add_argument(
        "--check",
        type=Path,
        nargs="?",
        default=None,
        const=_CHECK_DEFAULT,
        metavar="BASELINE_JSON",
        help=(
            "with a harness: compare the fresh run against the committed "
            "BENCH_<name>.json baseline and exit non-zero on regression; "
            "with 'all', run every harness against its committed baseline "
            "(bare --check uses the default file names)"
        ),
    )
    return parser


#: Sentinel for a bare ``--check``: each harness falls back to its own
#: committed baseline name (``BENCH_<label>.json`` in the working tree).
_CHECK_DEFAULT = Path("__default_baseline__")


def _run_harness(args, name: str) -> int:
    """Run one bench harness; write and/or check its ``BENCH_<name>.json``."""
    entry = harness(name)
    baseline = None
    if args.check is not None:
        baseline_path = (
            Path(entry.baseline) if args.check == _CHECK_DEFAULT else args.check
        )
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
    payload = entry.run()
    print(entry.render(payload))
    if args.check is None or args.output is not None:
        output_dir = args.output if args.output is not None else Path(".")
        output_dir.mkdir(parents=True, exist_ok=True)
        target = output_dir / entry.baseline
        target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"[{name} bench written to {target}]")
    if baseline is None:
        return 0
    failures = entry.check(payload, baseline)
    for failure in failures:
        print(f"  [FAIL] {failure}")
    if failures:
        return 1
    print(f"  [PASS] no {name} regression vs {baseline_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list:
        for name, runner in ALL_EXPERIMENTS.items():
            doc = (runner.__doc__ or "").strip().splitlines()[0]
            print(f"{name}: {doc}")
        return 0

    requested = args.experiments or ["all"]
    if "all" in requested and args.check is not None:
        # Umbrella gate: run every bench-regression harness against its
        # committed baseline.  Each harness gets a fresh interpreter so
        # its measurements happen under the same conditions as the
        # standalone invocation that produced its committed baseline
        # (in-process sequencing warms caches and skews the ratios).
        # Keeps going past a failure so CI logs show the full picture,
        # then reports the worst status.
        import subprocess

        if args.check != _CHECK_DEFAULT:
            print(
                "'all --check' runs every harness against its committed "
                "baseline; a baseline path only applies to a single "
                "harness",
                file=sys.stderr,
            )
            return 2
        output = [] if args.output is None else ["--output", str(args.output)]
        worst = 0
        for name in NAMES:
            print(f"== {name} ==", flush=True)
            status = subprocess.call(
                [sys.executable, "-m", "repro.bench.cli", name, "--check", *output]
            )
            worst = max(worst, status)
        return worst
    for name in NAMES:
        if name in requested:
            status = _run_harness(args, name)
            requested = [item for item in requested if item != name]
            if status or not requested:
                return status
    if "all" in requested:
        requested = list(ALL_EXPERIMENTS)
    unknown = [name for name in requested if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in requested:
        started = time.perf_counter()  # repro-lint: disable=R001 (real wall-clock measurement)
        result = ALL_EXPERIMENTS[name]()
        elapsed = time.perf_counter() - started  # repro-lint: disable=R001 (real wall-clock measurement)
        text = result.to_text()
        if args.charts:
            from .figures import chart_for

            chart = chart_for(result)
            if chart is not None:
                text = f"{text}\n\n{chart}"
        print(text)
        print(f"[{name} regenerated in {elapsed:.1f}s wall time]")
        if args.verify:
            from .expectations import check_result

            for expectation, passed in check_result(name, result):
                marker = "PASS" if passed else "FAIL"
                print(f"  [{marker}] {expectation.claim}")
                failures += 0 if passed else 1
        print()
        if args.output is not None:
            (args.output / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
            if args.json:
                from .serialization import save_json

                save_json(result, args.output / f"{name}.json")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
