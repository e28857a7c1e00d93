"""``repro-lint`` — run the project lint rules over sources.

Examples::

    repro-lint src/                      # lint a tree with all rules
    repro-lint src/ --strict             # non-zero exit on warnings too
    repro-lint src/repro/core --select R001,R005
    repro-lint src --select R007-R012    # the dataflow contract family
    repro-lint src --format json         # stable, sorted finding records
    repro-lint src --select R007-R012 --check-baseline analysis/baseline.json
    repro-lint src --contracts-manifest manifest.json
    repro-lint --list-rules              # print the rule catalogue

Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 findings,
2 usage error, which includes a ``--select``/``--ignore`` id given on
its own that no rule has (a range may span ids no rule has).  With
``--check-baseline`` only findings *not* in the baseline gate;
``--write-baseline`` records the current findings and exits 0.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .baseline import BaselineError, load_baseline, match_baseline, write_baseline
from .engine import LintEngine
from .rules import DEFAULT_RULES, rule_range

__all__ = ["main"]

_RANGE_RE = re.compile(r"^([A-Za-z]+)(\d+)-(?:[A-Za-z]+)?(\d+)$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism, API & contract lint for the repro codebase "
            f"({rule_range()})."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run; ranges allowed (R007-R012)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to skip; ranges allowed",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text); json records are stable-sorted",
    )
    parser.add_argument(
        "--check-baseline",
        default=None,
        metavar="FILE",
        help="gate only on findings not present in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings to FILE as a baseline and exit 0",
    )
    parser.add_argument(
        "--contracts-manifest",
        default=None,
        metavar="FILE",
        help=(
            "dump the declared-vs-inferred solver capability manifest as "
            "JSON to FILE ('-' prints it and skips linting)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_ids(raw: str | None) -> list[str] | None:
    """Parse a comma list of rule ids, expanding ``R007-R012`` ranges."""
    if raw is None:
        return None
    ids: list[str] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        match = _RANGE_RE.match(part)
        if match:
            prefix, lo, hi = match.group(1), int(match.group(2)), int(match.group(3))
            width = len(match.group(2))
            step = 1 if hi >= lo else -1
            ids.extend(
                f"{prefix}{num:0{width}d}" for num in range(lo, hi + step, step)
            )
        else:
            ids.append(part)
    return ids


def _unknown_ids(raw: str | None) -> list[str]:
    """Ids given on their own in ``raw`` that no registered rule has.

    Ranges are not checked: ``R007-R012`` may span ids no rule has.
    """
    if raw is None:
        return []
    known = {rule.rule_id for rule in DEFAULT_RULES}
    parts = (part.strip() for part in raw.split(","))
    return [
        part for part in parts
        if part and not _RANGE_RE.match(part) and part.upper() not in known
    ]


def _print_rules() -> None:
    for rule in DEFAULT_RULES:
        print(f"{rule.rule_id} [{rule.severity:<7}] {rule.title}")
        print(f"     hint: {rule.fix_hint}")


def _emit_manifest(paths: list[str], destination: str) -> None:
    engine = LintEngine()
    manifest = engine.build_project(paths).contracts_manifest()
    text = json.dumps(manifest, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    if not args.paths:
        print("error: no paths given (try `repro-lint src/`)", file=sys.stderr)
        return 2
    for flag, raw in (("--select", args.select), ("--ignore", args.ignore)):
        unknown = _unknown_ids(raw)
        if unknown:
            print(
                f"error: {flag} names no rule: {', '.join(unknown)} "
                "(see --list-rules)",
                file=sys.stderr,
            )
            return 2

    if args.contracts_manifest is not None:
        try:
            _emit_manifest(args.paths, args.contracts_manifest)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.contracts_manifest == "-":
            return 0

    engine = LintEngine(select=_split_ids(args.select), ignore=_split_ids(args.ignore))
    if not engine.rules:
        print("error: --select/--ignore left no rules to run", file=sys.stderr)
        return 2
    try:
        findings = engine.lint_paths(args.paths)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        try:
            write_baseline(args.write_baseline, findings)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"baseline: wrote {len(findings)} finding(s) to {args.write_baseline}")
        return 0

    stale_count = 0
    baselined_count = 0
    if args.check_baseline is not None:
        try:
            records = load_baseline(args.check_baseline)
        except BaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        findings, baselined, stale = match_baseline(findings, records)
        baselined_count = len(baselined)
        stale_count = len(stale)

    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors

    if args.format == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        summary = (
            f"{errors} error(s), {warnings} warning(s)"
            if findings
            else "clean: no findings"
        )
        if args.check_baseline is not None:
            summary += (
                f" [baseline: {baselined_count} suppressed, {stale_count} stale]"
            )
            if stale_count:
                summary += " — rerun with --write-baseline to ratchet down"
        print(("\n" if findings else "") + summary)

    if errors or (args.strict and warnings):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
