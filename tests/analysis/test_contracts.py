"""Contract rules R007–R012: planted fixtures, suppressions, manifest.

Each fixture module in ``fixtures/contracts/`` plants its violations on
lines ending with a ``# plant`` marker; the parametrized test scans for
the markers and requires the rule to fire on exactly those lines.  Clean
variants in the same module double as false-positive regression tests,
and ``# repro-lint: disable=`` lines prove the suppression machinery
reaches the dataflow rules.
"""

import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import LintEngine
from repro.engine.spec import registry_manifest

FIXTURES = Path(__file__).parent / "fixtures" / "contracts"
SRC_ROOT = Path(repro.__file__).parent

RULE_FIXTURES = [
    ("R007", "r007_runtime_charge.py"),
    ("R008", "r008_cost_loops.py"),
    ("R010", "r010_scratch_escape.py"),
    ("R011", "r011_memo_clone.py"),
    # R013 is a pattern rule, not a dataflow rule, but it shares the
    # planted-fixture workflow; it lives under a repro/kernels/
    # directory because the rule is path-scoped.
    ("R012", "r012_report_ownership.py"),
    ("R013", "repro/kernels/r013_backend_dispatch.py"),
    # R014 is likewise path-scoped: it exempts repro/store/shard, so the
    # fixture plants its violations under a repro/distributed/ path.
    ("R014", "repro/distributed/r014_shard_access.py"),
    # R015 exempts repro/core and repro/stream, so the fixture plants
    # its violations under a repro/serve/ path.
    ("R015", "repro/serve/r015_stream_mutation.py"),
    ("R016", "r016_hash_unique.py"),
]


def planted_lines(path: Path) -> list[int]:
    """Line numbers carrying the ``# plant`` marker."""
    return sorted(
        lineno
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if line.rstrip().endswith("# plant")
    )


class TestPlantedFixtures:
    @pytest.mark.parametrize(("rule_id", "filename"), RULE_FIXTURES)
    def test_rule_fires_exactly_on_planted_lines(self, rule_id, filename):
        path = FIXTURES / filename
        expected = planted_lines(path)
        assert expected, f"{filename} plants nothing — marker scan is broken"
        findings = LintEngine(select=[rule_id]).lint_file(path)
        assert {f.rule_id for f in findings} <= {rule_id}
        fired = sorted(f.line for f in findings)
        assert fired == expected, (
            f"{rule_id} fired on {fired}, planted {expected}\n"
            + "\n".join(f.format() for f in findings)
        )

    @pytest.mark.parametrize(("rule_id", "filename"), RULE_FIXTURES)
    def test_suppressed_plants_exist(self, rule_id, filename):
        # Every fixture must also exercise the inline-disable path.
        text = (FIXTURES / filename).read_text(encoding="utf-8")
        assert f"# repro-lint: disable={rule_id}" in text

    def test_disable_file_silences_whole_module(self):
        path = FIXTURES / "r007_disable_file.py"
        assert LintEngine(select=["R007"]).lint_file(path) == []
        # ...but the plant is real: stripping the pragma makes it fire.
        stripped = path.read_text(encoding="utf-8").replace(
            "# repro-lint: disable-file=R007", ""
        )
        findings = LintEngine(select=["R007"]).lint_source(stripped)
        assert [f.rule_id for f in findings] == ["R007"]


class TestR007Acceptance:
    """The issue's acceptance plant: a solver skipping charge on one branch."""

    def test_branch_skip_is_reported_by_solver_name(self):
        path = FIXTURES / "r007_runtime_charge.py"
        findings = LintEngine(select=["R007"]).lint_file(path)
        branch = [f for f in findings if "skips-on-branch" in f.message]
        assert len(branch) == 1
        assert "without any runtime charge" in branch[0].message

    def test_interprocedural_helper_resolution(self, tmp_path):
        solver = textwrap.dedent(
            '''
            from repro.engine.spec import register_solver
            from helpers import drain


            @register_solver(
                "forwarding",
                kind="uds",
                guarantee="heuristic",
                cost="parallel",
                supports_runtime=True,
            )
            def forwarding(graph, runtime=None):
                drain(graph, runtime)
                return 0
            '''
        )
        charging = "def drain(graph, rt):\n    rt.charge_serial(1.0)\n"
        pure = "def drain(graph, rt):\n    return graph.num_edges\n"

        clean_dir = tmp_path / "clean"
        dirty_dir = tmp_path / "dirty"
        for directory, helper in ((clean_dir, charging), (dirty_dir, pure)):
            directory.mkdir()
            (directory / "solver.py").write_text(solver)
            (directory / "helpers.py").write_text(helper)

        engine = LintEngine(select=["R007"])
        assert engine.lint_paths([clean_dir]) == []
        findings = engine.lint_paths([dirty_dir])
        assert [f.rule_id for f in findings] == ["R007"]
        assert "forwarding" in findings[0].message

    def test_unknown_callee_is_forgiving(self, tmp_path):
        # A runtime forwarded to an unresolvable callee counts as charged:
        # better to miss a violation than flag dynamic dispatch.
        target = tmp_path / "solver.py"
        target.write_text(
            textwrap.dedent(
                '''
                from repro.engine.spec import register_solver
                from somewhere.dynamic import mystery


                @register_solver(
                    "dynamic",
                    kind="uds",
                    guarantee="heuristic",
                    cost="parallel",
                    supports_runtime=True,
                )
                def dynamic(graph, runtime=None):
                    mystery(graph, runtime)
                    return 0
                '''
            )
        )
        assert LintEngine(select=["R007"]).lint_paths([tmp_path]) == []


class TestContractsManifest:
    """Static decorator literals must match the live registry."""

    def test_manifest_covers_every_registered_solver(self):
        project = LintEngine().build_project([SRC_ROOT])
        static = project.contracts_manifest()
        dynamic = registry_manifest()
        assert len(dynamic) >= 23
        static_keys = [(r["kind"], r["name"]) for r in static]
        dynamic_keys = [(r["kind"], r["name"]) for r in dynamic]
        assert static_keys == dynamic_keys  # same solvers, same sort order

    def test_declared_literals_match_registry_flags(self):
        project = LintEngine().build_project([SRC_ROOT])
        static = {(r["kind"], r["name"]): r for r in project.contracts_manifest()}
        for record in registry_manifest():
            rec = static[(record["kind"], record["name"])]
            assert rec["declared"] == record["capabilities"], record["name"]
            assert rec["guarantee"] == record["guarantee"]
            assert rec["cost"] == record["cost"]
            assert rec["function"].split(".")[-1] == record["function"].split(".")[-1]

    def test_load_bearing_capabilities_have_no_drift(self):
        # R007 gates this direction; the committed codebase must infer
        # exactly what it declares for the runtime.
        project = LintEngine().build_project([SRC_ROOT])
        for rec in project.contracts_manifest():
            assert rec["inferred"]["runtime"] == rec["declared"]["runtime"], rec


class TestR013BackendDispatch:
    """R013 is path-scoped: only kernels/ package files are in scope."""

    BYPASS = "import numpy as np\ncounts = np.bincount(rows)\n"

    def test_fires_inside_kernels_path(self):
        findings = LintEngine(select=["R013"]).lint_source(
            self.BYPASS, path="src/repro/kernels/segments.py"
        )
        assert [f.rule_id for f in findings] == ["R013"]
        assert "bypasses the array-backend dispatch" in findings[0].message

    def test_silent_outside_kernels_path(self):
        for path in (
            "src/repro/backends/numpy_backend.py",  # the raw home
            "src/repro/core/pkmc.py",
            "tests/kernels/test_segments.py",  # tests stay fair game
        ):
            assert LintEngine(select=["R013"]).lint_source(
                self.BYPASS, path=path
            ) == [], path

    def test_ufunc_reduction_caught(self):
        source = "import numpy as np\nout = np.add.reduceat(vals, ptr)\n"
        findings = LintEngine(select=["R013"]).lint_source(
            source, path="src/repro/kernels/density.py"
        )
        assert len(findings) == 1
        assert "np.add.reduceat" in findings[0].message

    def test_live_kernels_package_is_clean(self):
        # The real package must satisfy its own rule (the reference
        # lexsort carries a justified inline disable).
        kernels = SRC_ROOT / "kernels"
        assert LintEngine(select=["R013"]).lint_paths([kernels]) == []


class TestR014ShardAccess:
    """R014 exempts repro/store/shard; everywhere else is in scope."""

    BYPASS = 'import numpy as np\ndata = np.load("out/shard_00000.npz")\n'

    def test_fires_outside_shard_store_path(self):
        for path in (
            "src/repro/distributed/sharded.py",
            "src/repro/engine/runner.py",
            "tests/store/test_shard_store.py",
        ):
            findings = LintEngine(select=["R014"]).lint_source(
                self.BYPASS, path=path
            )
            assert [f.rule_id for f in findings] == ["R014"], path
            assert "ShardedGraph facade" in findings[0].message

    def test_silent_inside_shard_store_path(self):
        assert LintEngine(select=["R014"]).lint_source(
            self.BYPASS, path="src/repro/store/shard.py"
        ) == []

    def test_variable_paths_not_flagged(self):
        source = "import numpy as np\ndata = np.load(path)\n"
        assert LintEngine(select=["R014"]).lint_source(
            source, path="src/repro/distributed/sharded.py"
        ) == []

    def test_live_tree_is_clean(self):
        # Nothing outside the shard store opens shard members raw.
        assert LintEngine(select=["R014"]).lint_paths([SRC_ROOT]) == []


class TestR015StreamMutation:
    """R015 exempts repro/core and repro/stream; everywhere else is in scope."""

    POKE = "def hack(tracker):\n    tracker._edge_count += 1\n"

    def test_fires_outside_stream_stack(self):
        for path in (
            "src/repro/serve/server.py",
            "src/repro/bench/stream.py",
            "tests/stream/test_session.py",  # tests stay fair game
        ):
            findings = LintEngine(select=["R015"]).lint_source(
                self.POKE, path=path
            )
            assert [f.rule_id for f in findings] == ["R015"], path
            assert "_edge_count" in findings[0].message

    def test_silent_inside_stream_stack(self):
        for path in (
            "src/repro/core/dynamic.py",
            "src/repro/stream/session.py",
        ):
            assert LintEngine(select=["R015"]).lint_source(
                self.POKE, path=path
            ) == [], path

    def test_reads_not_flagged(self):
        source = (
            "def peek(tracker):\n"
            "    return tracker._h.copy(), tracker._edge_keys.size\n"
        )
        assert LintEngine(select=["R015"]).lint_source(
            source, path="src/repro/serve/server.py"
        ) == []

    def test_subscripted_write_flagged(self):
        source = "def hack(tracker):\n    tracker._h[3] = 0\n"
        findings = LintEngine(select=["R015"]).lint_source(
            source, path="src/repro/engine/runner.py"
        )
        assert [f.rule_id for f in findings] == ["R015"]

    def test_live_tree_is_clean(self):
        # Nothing outside repro/core and repro/stream pokes the
        # maintainer's internals.
        assert LintEngine(select=["R015"]).lint_paths([SRC_ROOT]) == []


class TestR016HashUnique:
    """R016's fixture covers call shapes; the live tree must stay clean."""

    def test_live_tree_is_clean(self):
        # Only the suppressed overflow fallback inside unique_pairs may
        # call np.unique without asking for an index/inverse/counts.
        assert LintEngine(select=["R016"]).lint_paths([SRC_ROOT]) == []
        suppressed = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            if "disable=R016" not in text:
                continue
            unsuppressed = text.replace("disable=R016", "")
            suppressed += [
                path.relative_to(SRC_ROOT).as_posix()
                for _ in LintEngine(select=["R016"]).lint_source(
                    unsuppressed, path=str(path)
                )
            ]
        assert suppressed == ["store/csr.py"]
