"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

They check the benchmark, not the program: every metric is reported
with its unit, counts repeat exactly for a seed, the oracle counts
planted wrong answers and exceptions, the trace file is Chrome
trace-event JSON, and a directory without the program fails cleanly.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import runner  # noqa: E402
from perfbench.spans import Tracer, install  # noqa: E402

WORKLOADS = tuple(runner.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, tmp_path: Path, trace: bool, seed: int = 7) -> runner.Run:
    """A zero-second run: one chunk, or one untraced plus one traced."""
    run = runner.Run(workload, seed, 0.0, trace,
                     scale=runner.WORKLOADS[workload].TINY,
                     workdir=tmp_path / f"{workload}-{int(trace)}")
    run.setup()
    run.measure()
    return run


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, tmp_path):
    plain = tiny_run(workload, tmp_path, trace=False).result()
    traced = tiny_run(workload, tmp_path, trace=True).result()
    for result, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec}
        for metric in spec:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert math.isfinite(reported["value"])
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]]["value"] > 0, metric["name"]


#: Counts that must repeat exactly, per workload (all are non-zero there).
EXACT = {
    "batch": ("solver.pkmc.iterations", "solver.pwc.iterations",
              "solver.pkmc-bsp.iterations", "store.shard.loads",
              "kernels.sweep_values.calls", "kernels.sweep_values.slots",
              "distributed.supersteps"),
    "serve": ("serve.solver_runs", "serve.cache_hits", "serve.coalesced",
              "store.memo.evictions", "kernels.sweep_values.calls",
              "solver.charikar.iterations"),
    "stream": ("core.dynamic.affected_total", "core.dynamic.total_sweeps",
               "core.dynamic.rebuilds", "store.csr.builds",
               "kernels.sweep_values.slots", "store.memo.invalidated"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload, tmp_path):
    runs = [tiny_run(workload, tmp_path / str(i), trace=True) for i in range(2)]
    counted = [
        {m: v["value"] for m, v in run.per_layer().items()
         if dict(runner.catalogue("per_layer"))[m] in ("count", "bytes")}
        for run in runs
    ]
    assert counted[0] == counted[1]
    untraced, traced = runs[0].chunks
    assert not untraced.traced and traced.traced
    assert untraced.counts == traced.counts
    for name in EXACT[workload]:
        assert counted[0][name] > 0, name


def _planted(workload: str, monkeypatch, fault: str) -> None:
    """Make one operation raise, or corrupt answers, inside the program."""
    import repro.engine
    import repro.serve.server
    import repro.store.shard
    from repro.core.dynamic import DynamicKStarCore
    from repro.stream import StreamSession

    calls = {"n": 0}

    def once(original, at=1):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == at:
                raise RuntimeError("planted fault")
            return original(*args, **kwargs)
        return wrapper

    def corrupt(original, solver):
        def wrapper(spec, *args, **kwargs):
            result = original(spec, *args, **kwargs)
            if getattr(spec, "name", spec) == solver:
                result.density += 1.0
            return result
        return wrapper

    if workload == "batch" and fault == "raise":
        monkeypatch.setattr(repro.store.shard, "load_sharded",
                            once(repro.store.shard.load_sharded))
    elif workload == "batch":
        monkeypatch.setattr(repro.engine, "run", corrupt(repro.engine.run, "pwc-bsp"))
    elif workload == "serve" and fault == "raise":
        monkeypatch.setattr(repro.serve.server.DsdServer, "submit",
                            once(repro.serve.server.DsdServer.submit))
    elif workload == "serve":
        monkeypatch.setattr(repro.serve.server, "engine_run",
                            corrupt(repro.serve.server.engine_run, "pbu"))
    elif fault == "raise":
        monkeypatch.setattr(StreamSession, "query", once(StreamSession.query, at=3))
    else:
        original = DynamicKStarCore.densest_subgraph

        def densest(self):
            result = original(self)
            calls["n"] += 1
            if calls["n"] == 3:
                result.density += 1.0
            return result

        monkeypatch.setattr(DynamicKStarCore, "densest_subgraph", densest)


@pytest.mark.parametrize("fault", ("raise", "wrong"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_faults_count_in_failed_frac(workload, fault, tmp_path, monkeypatch):
    run = runner.Run(workload, 7, 0.0, True, scale=runner.WORKLOADS[workload].TINY,
                     workdir=tmp_path / workload)
    run.setup()
    _planted(workload, monkeypatch, fault)
    run.measure()
    result = run.result()
    assert result["failed"] >= 1
    frac = result["metrics"]["failed_frac"]["value"]
    assert frac == pytest.approx(result["failed"] / result["attempted"])
    assert result["correct"] is False
    if fault == "raise":
        assert result["failed"] == 1 and run.tally.wrong == 0
    else:
        assert run.tally.wrong >= 1


def test_trace_file_is_chrome_trace_json(tmp_path):
    run = tiny_run("stream", tmp_path, trace=True)
    path = tmp_path / "trace.json"
    run.tracer.write_chrome_trace(path, {"workload": "stream"})
    document = json.loads(path.read_text())
    events = document["traceEvents"]
    assert events and document["displayTimeUnit"] == "ms"
    names = {event["name"] for event in events}
    assert {"stream.apply", "stream.query", "core.dynamic.graph",
            "store.csr.build", "kernels.sweep_values"} <= names
    for index, event in enumerate(events):
        assert event["ph"] == "X" and event["dur"] >= 0 and event["ts"] >= 0
        parent = event["args"]["parent"]
        assert parent < index
        if parent >= 0:
            outer = events[parent]
            assert outer["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3


def test_self_time_partitions_the_span_tree():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", tracer.call, "middle", middle)
    totals = tracer.self_times()
    inclusive = tracer.inclusive_times()
    assert sum(totals.values()) == inclusive["root"]
    assert totals["leaf"] == inclusive["leaf"]
    assert totals["middle"] == inclusive["middle"] - inclusive["leaf"]


def test_tracer_uninstall_restores_every_entry_point():
    import repro.engine
    import repro.serve.server
    from repro.backends import get_backend
    from repro.engine.spec import get_solver
    from repro.graph.undirected import UndirectedGraph

    before = (repro.engine.run, repro.serve.server.engine_run,
              get_solver("uds", "pkmc").func, UndirectedGraph.__dict__["from_edges"],
              "sweep_values" in vars(get_backend("numpy")))
    tracer = Tracer()
    install(tracer)
    assert repro.engine.run is not before[0]
    tracer.uninstall()
    after = (repro.engine.run, repro.serve.server.engine_run,
             get_solver("uds", "pkmc").func, UndirectedGraph.__dict__["from_edges"],
             "sweep_values" in vars(get_backend("numpy")))
    assert after == before


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
