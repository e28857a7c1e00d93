"""CLI surface for the contract family: ranges, baselines, manifest."""

import json
from pathlib import Path

import repro
from repro.analysis.baseline import load_baseline, match_baseline, write_baseline
from repro.analysis.cli import _split_ids, main as lint_main
from repro.analysis.rules import DEFAULT_RULES, rule_range

FIXTURES = Path(__file__).parent / "fixtures" / "contracts"
SRC_ROOT = Path(repro.__file__).parent

RACY_SOURCE = "import time\nx = time.time()\n"


class TestRuleRanges:
    def test_split_expands_ranges(self):
        assert _split_ids("R007-R012") == [
            "R007", "R008", "R009", "R010", "R011", "R012"
        ]
        assert _split_ids("R001,R007-R009") == ["R001", "R007", "R008", "R009"]
        assert _split_ids("R007-12") == [
            "R007", "R008", "R009", "R010", "R011", "R012"
        ]
        assert _split_ids(None) is None

    def test_rule_range_is_derived_from_registry(self):
        ids = sorted(rule.rule_id for rule in DEFAULT_RULES)
        assert rule_range() == f"{ids[0]}-{ids[-1]}"
        assert rule_range() == "R001-R016"

    def test_select_range_via_cli(self, tmp_path):
        # R001 violation is invisible when only the contract family runs
        target = tmp_path / "dirty.py"
        target.write_text(RACY_SOURCE)
        assert lint_main([str(target), "--select", "R007-R012"]) == 0
        assert lint_main([str(target), "--select", "R001-R006"]) == 1

    def test_contract_fixture_fails_under_range_select(self, capsys):
        path = FIXTURES / "r007_runtime_charge.py"
        assert lint_main([str(path), "--select", "R007-R012"]) == 1
        assert "R007" in capsys.readouterr().out

    def test_list_rules_covers_contract_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R007", "R008", "R009", "R010", "R011", "R012"):
            assert rule_id in out


class TestJsonOutput:
    def test_records_are_stable_sorted(self, tmp_path, capsys):
        (tmp_path / "b.py").write_text(RACY_SOURCE)
        (tmp_path / "a.py").write_text(
            "import time\ny = time.monotonic()\nx = time.time()\n"
        )
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)
        keys = [(r["path"], r["line"], r["col"], r["rule"]) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 3

    def test_schema_round_trips_through_baseline(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(RACY_SOURCE)
        assert lint_main([str(target), "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)

        baseline_file = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline", str(baseline_file)]) == 0
        stored = load_baseline(baseline_file)
        # the baseline stores the exact --format json record schema
        assert stored == records


class TestBaselineFlow:
    def test_write_then_check_suppresses(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(RACY_SOURCE)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        assert len(payload["findings"]) == 1

        capsys.readouterr()
        assert lint_main([str(target), "--check-baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "[baseline: 1 suppressed, 0 stale]" in out

    def test_new_finding_still_gates(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(RACY_SOURCE)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline", str(baseline)]) == 0
        target.write_text(RACY_SOURCE + "z = time.time_ns()\n")
        assert lint_main([str(target), "--check-baseline", str(baseline)]) == 1

    def test_fixed_finding_reports_stale(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(RACY_SOURCE)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline", str(baseline)]) == 0
        target.write_text('"""Clean now."""\nx = 1\n')
        capsys.readouterr()
        assert lint_main([str(target), "--check-baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "[baseline: 0 suppressed, 1 stale]" in out
        assert "ratchet" in out

    def test_malformed_baseline_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "x.py"
        target.write_text("x = 1\n")
        bad = tmp_path / "baseline.json"
        bad.write_text('{"nope": true}')
        assert lint_main([str(target), "--check-baseline", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_match_baseline_partitions(self):
        from repro.analysis.engine import Finding

        def finding(msg):
            return Finding("R001", "error", "a.py", 1, 0, msg)

        kept = finding("kept")
        fixed = finding("fixed")
        fresh = finding("fresh")
        records = [kept.as_dict(), fixed.as_dict()]
        new, baselined, stale = match_baseline([kept, fresh], records)
        assert [f.message for f in new] == ["fresh"]
        assert [f.message for f in baselined] == ["kept"]
        assert [r["message"] for r in stale] == ["fixed"]

    def test_committed_baseline_matches_schema(self):
        committed = Path(__file__).parents[2] / "analysis" / "baseline.json"
        records = load_baseline(committed)
        assert records == []  # the codebase carries no baselined debt

    def test_write_baseline_is_deterministic(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(RACY_SOURCE)
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert lint_main([str(target), "--write-baseline", str(first)]) == 0
        assert lint_main([str(target), "--write-baseline", str(second)]) == 0
        assert first.read_text() == second.read_text()


class TestManifestCli:
    def test_manifest_to_stdout_skips_linting(self, tmp_path, capsys):
        # even with a violation on disk, '-' only prints the manifest
        (tmp_path / "dirty.py").write_text(RACY_SOURCE)
        assert lint_main([str(tmp_path), "--contracts-manifest", "-"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records == []  # no solvers registered in this tree

    def test_manifest_file_covers_all_solvers(self, tmp_path):
        destination = tmp_path / "manifest.json"
        assert (
            lint_main(
                [str(SRC_ROOT), "--contracts-manifest", str(destination)]
            )
            == 0
        )
        records = json.loads(destination.read_text())
        assert len(records) >= 23
        for record in records:
            assert set(record) == {
                "kind", "name", "function", "module", "line",
                "guarantee", "cost", "declared", "inferred", "mismatches",
            }


def test_baseline_writer_sorts_findings(tmp_path):
    from repro.analysis.engine import Finding

    unordered = [
        Finding("R005", "error", "b.py", 9, 0, "later"),
        Finding("R001", "error", "a.py", 1, 0, "earlier"),
    ]
    destination = tmp_path / "baseline.json"
    write_baseline(destination, unordered)
    records = load_baseline(destination)
    assert [r["path"] for r in records] == ["a.py", "b.py"]
