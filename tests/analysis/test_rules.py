"""Each rule detects its planted violations — and nothing else."""

from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.engine import LintEngine

FIXTURE = Path(__file__).parent / "fixtures" / "planted_violations.py"


@pytest.fixture(scope="module")
def fixture_findings():
    return LintEngine().lint_file(FIXTURE)


def ids_at(findings, rule_id):
    return [f.line for f in findings if f.rule_id == rule_id]


class TestPlantedViolations:
    def test_every_rule_fires(self, fixture_findings):
        fired = {f.rule_id for f in fixture_findings}
        assert fired == {"R001", "R002", "R003", "R004", "R005", "R006"}

    def test_r001_findings(self, fixture_findings):
        lines = ids_at(fixture_findings, "R001")
        source = FIXTURE.read_text().splitlines()
        # wall clock, default_rng(), np.random.rand(), random.random()
        assert len(lines) == 4
        assert any("time.time()" in source[line - 1] for line in lines)
        assert any("default_rng()" in source[line - 1] for line in lines)
        assert any("np.random.rand()" in source[line - 1] for line in lines)
        assert any("random.random()" in source[line - 1] for line in lines)

    def test_r001_suppression_honoured(self, fixture_findings):
        source = FIXTURE.read_text().splitlines()
        for line in ids_at(fixture_findings, "R001"):
            assert "disable=R001" not in source[line - 1]

    def test_r002_findings(self, fixture_findings):
        assert len(ids_at(fixture_findings, "R002")) == 2  # blanket + bare

    def test_r003_finding_names_the_function(self, fixture_findings):
        findings = [f for f in fixture_findings if f.rule_id == "R003"]
        assert len(findings) == 1
        assert "undocumented_public_function" in findings[0].message

    def test_r004_finding(self, fixture_findings):
        assert len(ids_at(fixture_findings, "R004")) == 1

    def test_r005_findings(self, fixture_findings):
        # CSR: element write, in-place sort(), rebinding;
        # scratch: element write, in-place sort(), _scratch dict write.
        findings = [f for f in fixture_findings if f.rule_id == "R005"]
        assert len(findings) == 6
        messages = " ".join(f.message for f in findings)
        assert "element write" in messages
        assert "sort()" in messages
        assert "rebinding" in messages.lower()
        assert "scratch" in messages
        assert "`.heads()`" in messages
        assert "`_scratch`" in messages

    def test_r006_findings(self, fixture_findings):
        # entry write, mutating pop(), entry delete
        findings = [f for f in fixture_findings if f.rule_id == "R006"]
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "`UDS_METHODS`" in messages
        assert "pop()" in messages
        assert "delete" in messages

    def test_findings_carry_fix_hints_and_severities(self, fixture_findings):
        for finding in fixture_findings:
            assert finding.fix_hint
            assert finding.severity in ("error", "warning")


class TestRuleEdgeCases:
    def test_r001_seeded_rng_is_clean(self):
        source = (
            "import numpy as np\n"
            "def f(seed):\n"
            '    """Doc."""\n'
            "    return np.random.default_rng(seed).random()\n"
        )
        assert lint_source(source) == []

    def test_r001_import_aliases_resolved(self):
        source = (
            "from time import perf_counter as pc\n"
            "def f():\n"
            '    """Doc."""\n'
            "    return pc()\n"
        )
        findings = lint_source(source)
        assert [f.rule_id for f in findings] == ["R001"]

    def test_r001_cpu_clocks_flagged(self):
        source = (
            "import time\n"
            "a = time.process_time()\n"
            "b = time.thread_time()\n"
            "c = time.thread_time_ns()\n"
        )
        findings = lint_source(source)
        assert [(f.rule_id, f.line) for f in findings] == [
            ("R001", 2), ("R001", 3), ("R001", 4),
        ]

    def test_r001_datetime_from_import(self):
        source = (
            "from datetime import datetime\n"
            "stamp = datetime.now()\n"
        )
        assert [f.rule_id for f in lint_source(source)] == ["R001"]

    def test_r002_narrow_handler_is_clean(self):
        source = (
            "def f():\n"
            '    """Doc."""\n'
            "    try:\n"
            "        return g()\n"
            "    except ValueError:\n"
            "        return None\n"
        )
        assert lint_source(source) == []

    def test_r002_silent_narrow_handler_flagged(self):
        source = (
            "try:\n"
            "    x = 1\n"
            "except ValueError:\n"
            "    pass\n"
        )
        findings = lint_source(source)
        assert [f.rule_id for f in findings] == ["R002"]
        assert "silently" in findings[0].message

    def test_r003_only_applies_to_exported_names(self):
        source = (
            "__all__ = ['documented']\n"
            "def documented():\n"
            '    """Doc."""\n'
            "def private_helper():\n"
            "    return 1\n"
        )
        assert lint_source(source) == []

    def test_r004_plain_float_compare_not_flagged(self):
        source = "ok = (a == b)\n"
        assert lint_source(source) == []

    def test_r004_density_method_call_flagged(self):
        source = "same = graph.density() == other.density()\n"
        assert [f.rule_id for f in lint_source(source)] == ["R004"]

    def test_r005_reads_are_clean(self):
        source = (
            "import numpy as np\n"
            "def f(graph, changed, heads):\n"
            '    """Doc."""\n'
            "    woken = np.zeros(3, dtype=bool)\n"
            "    woken[graph.indices[changed[heads]]] = True\n"
            "    return graph.indptr[1:]\n"
        )
        assert lint_source(source) == []

    def test_r005_self_construction_allowed_but_augassign_not(self):
        clean = (
            "class G:\n"
            '    """Doc."""\n'
            "    def __init__(self, indptr):\n"
            "        self.indptr = indptr\n"
        )
        assert lint_source(clean) == []
        dirty = (
            "class G:\n"
            '    """Doc."""\n'
            "    def shift(self):\n"
            "        self.indptr += 1\n"
        )
        assert [f.rule_id for f in lint_source(dirty)] == ["R005"]

    def test_r005_exempt_in_builder(self):
        source = "g.indptr[0] = 1\n"
        assert lint_source(source, path="src/repro/graph/builder.py") == []
        assert lint_source(source, path="src/repro/core/pkmc.py") != []

    def test_r005_scratch_reads_are_clean(self):
        source = (
            "def f(graph):\n"
            '    """Doc."""\n'
            "    heads = graph.heads()\n"
            "    return heads[graph.degrees() > 1] + graph.out_degrees().sum()\n"
        )
        assert lint_source(source) == []

    def test_r005_scratch_copy_then_mutate_is_clean(self):
        source = (
            "def f(graph):\n"
            '    """Doc."""\n'
            "    mine = graph.degrees().copy()\n"
            "    mine[0] = 0\n"
            "    mine.sort()\n"
            "    return mine\n"
        )
        assert lint_source(source) == []

    def test_r005_scratch_accessor_writes_flagged(self):
        findings = lint_source("graph.in_degrees()[2] = 5\n")
        assert [f.rule_id for f in findings] == ["R005"]
        assert "scratch" in findings[0].message
        findings = lint_source("graph.hindex_bins().fill(0)\n")
        assert [f.rule_id for f in findings] == ["R005"]

    def test_r005_scratch_dict_exempt_in_graph_classes(self):
        source = "self._scratch['degrees'] = value\n"
        assert lint_source(source, path="src/repro/graph/undirected.py") == []
        assert lint_source(source, path="src/repro/graph/directed.py") == []
        assert [
            f.rule_id
            for f in lint_source(source, path="src/repro/core/pkmc.py")
        ] == ["R005"]

    def test_r006_unregistered_solver_flagged_in_solver_module(self):
        source = (
            "def shiny_uds(graph):\n"
            '    """Doc."""\n'
            "    return None\n"
        )
        findings = lint_source(
            source, path="src/repro/algorithms/undirected/shiny.py"
        )
        assert [f.rule_id for f in findings] == ["R006"]
        assert "shiny_uds" in findings[0].message

    def test_r006_registered_solver_is_clean(self):
        source = (
            "from repro.engine.spec import register_solver\n"
            "@register_solver('shiny', kind='uds', guarantee='exact', cost='serial')\n"
            "def shiny_uds(graph):\n"
            '    """Doc."""\n'
            "    return None\n"
        )
        assert lint_source(
            source, path="src/repro/algorithms/undirected/shiny.py"
        ) == []

    def test_r006_solver_name_outside_solver_packages_is_clean(self):
        source = (
            "def sweep_uds(abbr):\n"
            '    """Doc."""\n'
            "    return abbr\n"
        )
        assert lint_source(source, path="examples/scaling_study.py") == []

    def test_r006_helpers_and_methods_in_solver_modules_are_clean(self):
        source = (
            "def _private_uds(graph):\n"
            "    return None\n"
            "def derive_pair(graph):\n"
            '    """Doc."""\n'
            "    return None\n"
            "class Port:\n"
            '    """Doc."""\n'
            "    def run_uds(self, graph):\n"
            '        """Doc."""\n'
            "        return None\n"
        )
        assert lint_source(
            source, path="src/repro/algorithms/undirected/helper.py"
        ) == []

    def test_r006_registry_mutation_exempt_in_spec(self):
        source = "_REGISTRY[key] = spec\n"
        assert lint_source(source, path="src/repro/engine/spec.py") == []
        assert [
            f.rule_id
            for f in lint_source(source, path="src/repro/api.py")
        ] == ["R006"]
