"""Tests for the repro-dsd and repro-bench command-line interfaces."""

import pytest

from repro.bench.cli import main as bench_main
from repro.cli import main as dsd_main


@pytest.fixture
def undirected_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a b\nb c\nc a\nc d\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def directed_file(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("a c\na d\nb c\nb d\n", encoding="utf-8")
    return str(path)


class TestDsdCli:
    def test_undirected_default(self, undirected_file, capsys):
        assert dsd_main([undirected_file]) == 0
        out = capsys.readouterr().out
        assert "PKMC" in out
        assert "k*      : 2" in out
        assert "{a, b, c}" in out

    def test_directed_default(self, directed_file, capsys):
        assert dsd_main([directed_file, "--directed"]) == 0
        out = capsys.readouterr().out
        assert "PWC" in out
        assert "cn-pair : [2, 2]" in out

    def test_method_selection(self, undirected_file, capsys):
        assert dsd_main([undirected_file, "--method", "charikar"]) == 0
        assert "Charikar" in capsys.readouterr().out

    def test_option_forwarding(self, undirected_file, capsys):
        assert dsd_main(
            [undirected_file, "--method", "pbu", "--option", "epsilon=0.25"]
        ) == 0
        assert "PBU" in capsys.readouterr().out

    def test_bad_option_format(self, undirected_file, capsys):
        assert dsd_main([undirected_file, "--option", "nonsense"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_method(self, undirected_file, capsys):
        assert dsd_main([undirected_file, "--method", "nope"]) == 1
        assert "unknown UDS method" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert dsd_main(["/nonexistent/graph.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_top_component(self, tmp_path, capsys):
        # Two disjoint triangles: the 2-core has two components.
        path = tmp_path / "two.txt"
        path.write_text("a b\nb c\nc a\nx y\ny z\nz x\n", encoding="utf-8")
        assert dsd_main([str(path), "--top-component"]) == 0
        out = capsys.readouterr().out
        assert "|S|=3" in out

    def test_max_vertices_truncation(self, undirected_file, capsys):
        assert dsd_main([undirected_file, "--max-vertices", "1"]) == 0
        assert "..." in capsys.readouterr().out

    def test_list_methods_prints_registry_table(self, capsys):
        assert dsd_main(["--list-methods"]) == 0
        out = capsys.readouterr().out
        assert "guarantee" in out and "capabilities" in out
        for name in ("pkmc", "pwc", "charikar", "pkmc-bsp", "pwc-bsp"):
            assert name in out

    def test_missing_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            dsd_main([])
        assert "path" in capsys.readouterr().err

    def test_no_frontier_runs_frontier_capable_method(self, undirected_file):
        assert dsd_main([undirected_file, "--no-frontier"]) == 0

    def test_no_frontier_rejected_for_serial_method(self, undirected_file, capsys):
        assert dsd_main(
            [undirected_file, "--method", "exact", "--no-frontier"]
        ) == 1
        assert "no frontier kernels" in capsys.readouterr().err


class TestBenchCli:
    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in (f"exp{i}" for i in range(1, 9)):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert bench_main(["exp99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_one_with_output(self, tmp_path, capsys):
        assert bench_main(["exp6", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out
        assert (tmp_path / "exp6.txt").exists()

    def test_charts_flag(self, capsys):
        # exp6 is a table -> no chart, but the flag must not crash.
        assert bench_main(["exp6", "--charts"]) == 0
        assert "Table 7" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_unreadable_baseline_fails_before_the_bench_runs(
        self, tmp_path, monkeypatch, capsys, content
    ):
        # A bare --check resolves BENCH_shard.json in the working
        # directory; missing or malformed, it is a usage error.
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / "BENCH_shard.json").write_text(content, encoding="utf-8")
        assert bench_main(["shard", "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # the harness never ran
        assert captured.err.count("\n") == 1
        assert "BENCH_shard.json" in captured.err

    def test_check_also_writes_output(self, tmp_path, monkeypatch, capsys):
        import dataclasses
        import json
        from pathlib import Path

        from repro.bench import shard
        from repro.bench.gates import harness

        baseline_path = Path(__file__).parents[1] / "BENCH_shard.json"
        payload = json.loads(baseline_path.read_text(encoding="utf-8"))
        monkeypatch.setattr(
            shard, "HARNESS", dataclasses.replace(harness("shard"), run=lambda: payload)
        )
        out_dir = tmp_path / "artifact"
        assert bench_main(
            ["shard", "--check", str(baseline_path), "--output", str(out_dir)]
        ) == 0
        assert "[PASS]" in capsys.readouterr().out
        written = json.loads((out_dir / "BENCH_shard.json").read_text(encoding="utf-8"))
        assert written == payload
