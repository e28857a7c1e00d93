"""Run one workload: set up, replay chunks for the time budget, report.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace T``

* ``--trace 0`` measures with no wrapper installed and reports the
  end-to-end metrics.
* ``--trace 1`` alternates untraced and traced chunks of the same
  deterministic work, reports the per-layer metrics from the traced
  ones, states the tracing overhead as traced minus untraced chunk
  time, and writes the spans as Chrome trace-event JSON under
  ``.perfbench/``.

Every operation is checked by the oracle outside the timed spans.  The
last line of standard output is the JSON result object; the lines
before it print the inputs and the workload's own figures by name.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from . import batch, serve, stream
from .common import Probe, Tally, median, quantile
from .spans import KERNEL_OPS, RUNTIME_SPANS, TRACED_SOLVERS, Tracer, install

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = {"batch": batch, "serve": serve, "stream": stream}
#: Setups per run: at least ``SETUP_REPEATS[0]``, and more, up to
#: ``SETUP_REPEATS[1]``, until they add up to ``SETUP_SECONDS``;
#: ``setup_s`` is their median.  The first setup of a process pays the
#: imports, so a short setup (stream: 0.2 s) gets enough repeats that
#: its median does not rest on the slower of two later ones.
SETUP_REPEATS = (3, 15)
SETUP_SECONDS = 3.0

#: Tail percentile per workload: the highest the run's sample supports.
TAIL = {"batch": 1.0, "serve": 0.99, "stream": 0.95}


def catalogue(section: str) -> tuple:
    """``(name, unit)`` of each metric ``BENCHMARK.json`` lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple((m["name"], m["unit"]) for m in spec[section])


#: Span name behind each per-layer self-time metric.
SELF_TIME = {
    "store.reader.parse_s": ("store.reader.parse",),
    "store.csr.build_s": ("store.csr.build",),
    "store.fingerprint_s": ("store.fingerprint",),
    "store.memo.get_s": ("store.memo.get",),
    "store.memo.put_s": ("store.memo.put",),
    "store.shard.load_s": ("store.shard.shard",),
    "runtime.accounting_s": RUNTIME_SPANS,
    "serve.submit_s": ("serve.submit",),
    "serve.drain_s": ("serve.drain",),
    "stream.apply_s": ("stream.apply",),
    "stream.query_s": ("stream.query",),
    "core.dynamic.graph_s": ("core.dynamic.graph",),
    "core.dynamic.densest_s": ("core.dynamic.densest",),
    "core.dynamic.refresh_s": ("core.dynamic.refresh",),
    "core.dynamic.materialize_s": ("core.dynamic.materialize",),
}
SELF_TIME.update({f"solver.{s}.s": (f"solver.{s}",)
                  for names in TRACED_SOLVERS.values() for s in names})
SELF_TIME.update({f"kernels.{op}_s": (f"kernels.{op}",) for op in KERNEL_OPS})


def _peak_rss_bytes() -> int:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Run:
    """One invocation: setup, chunk loop, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 scale=None, workdir: Path | None = None):
        self.name = workload
        self.module = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale if scale is not None else self.module.FULL
        self.workdir = workdir or OUT / f"work-{workload}-{time.time_ns()}"
        self.tally = Tally()
        self.tracer = Tracer() if trace else None
        self.chunks: list = []
        self.setup_times: list = []
        self.state = None

    def setup(self) -> None:
        """Set up repeatedly (see ``SETUP_REPEATS``); keep the last state."""
        fewest, most = SETUP_REPEATS
        while len(self.setup_times) < fewest or (
            len(self.setup_times) < most and sum(self.setup_times) < SETUP_SECONDS
        ):
            self.state = None
            gc.collect()
            started = time.perf_counter()
            self.state = self.module.setup(self.seed, self.workdir, self.scale)
            self.setup_times.append(time.perf_counter() - started)

    def _chunk(self, traced: bool, first_op: int):
        tracer = self.tracer if traced else None
        if tracer is None:
            return self.module.run_chunk(self.state, self.tally, Probe(None), first_op)
        mark = len(tracer.spans)
        tracer.counts.clear()
        try:
            install(tracer)
            chunk = self.module.run_chunk(self.state, self.tally, Probe(tracer), first_op)
        finally:
            tracer.uninstall()
        chunk.traced = True
        chunk.layer_counts = dict(tracer.counts)
        chunk.self_times = dict(tracer.self_times(mark))
        chunk.inclusive_times = dict(tracer.inclusive_times(mark))
        return chunk

    def measure(self) -> None:
        """Replay chunks until ``seconds`` have passed (at least one).

        With tracing, chunks alternate untraced/traced and at least one
        of each runs.
        """
        started = time.perf_counter()
        first_op = 0
        while True:
            traced = self.trace and len(self.chunks) % 2 == 1
            gc.collect()
            before = self.tally.attempted
            self.chunks.append(self._chunk(traced, first_op))
            first_op += self.tally.attempted - before
            enough = not self.trace or len(self.chunks) >= 2
            if time.perf_counter() - started >= self.seconds and enough:
                break

    # -- metrics -----------------------------------------------------------
    def end_to_end_values(self) -> dict:
        """End-to-end metric values by name (untraced chunks only)."""
        chunks = [c for c in self.chunks if not c.traced]
        replay = sum(c.replay_s for c in chunks)
        samples = [s for c in chunks for s in c.samples]
        return {
            "setup_s": median(self.setup_times),
            "peak_rss_bytes": _peak_rss_bytes(),
            "ops_per_s": sum(c.work for c in chunks) / replay if replay else 0.0,
            "latency_p50_s": quantile(samples, 0.5),
            "latency_tail_s": quantile(samples, TAIL[self.name]),
        }

    def end_to_end(self) -> dict:
        """The end-to-end metrics of the result line, as ``BENCHMARK.json`` lists them."""
        values = self.end_to_end_values()
        return {name: {"value": values[name], "unit": unit}
                for name, unit in catalogue("end_to_end")}

    def per_layer(self) -> dict:
        """Per-layer metrics, averaged per traced chunk."""
        traced = [c for c in self.chunks if c.traced]
        plain = [c for c in self.chunks if not c.traced]
        k = max(1, len(traced))

        def per_chunk(get) -> float:
            return sum(get(c) for c in traced) / k

        def count(key: str) -> float:
            return per_chunk(lambda c: c.layer_counts.get(key, c.counts.get(key, 0)))

        def self_time(spans: tuple) -> float:
            return per_chunk(lambda c: sum(c.self_times.get(s, 0.0) for s in spans))

        names = catalogue("per_layer")
        values = {name: self_time(spans) for name, spans in SELF_TIME.items()}
        for name, unit in names:
            if name not in values and unit in ("count", "bytes"):
                values[name] = count(name)
        hits, misses = values["store.memo.hits"], values["store.memo.misses"]
        values["store.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        values["store.shard.peak_resident_bytes"] = max(
            (c.counts.get("store.shard.peak_resident_bytes", 0) for c in traced), default=0
        )
        solver_total = per_chunk(lambda c: sum(
            t for s, t in c.inclusive_times.items() if s.startswith("solver.")
        ))
        values["engine.overhead_s"] = per_chunk(
            lambda c: c.inclusive_times.get("engine.run", 0.0)) - solver_total
        values["runtime.simulated_s"] = count("runtime.simulated_s")
        waits = [w for c in traced for w in c.extra.get("queue_wait", [])]
        values["serve.queue_wait_p50_s"] = quantile(waits, 0.5) if waits else 0.0
        values["serve.queue_wait_p99_s"] = quantile(waits, 0.99) if waits else 0.0
        completed = count("serve.completed")
        values["serve.reuse_ratio"] = (
            (values["serve.cache_hits"] + values["serve.coalesced"]) / completed
            if completed else 0.0
        )
        values["failed_frac"] = self.tally.failed / max(1, self.tally.attempted)
        untraced_s = median([c.replay_s for c in plain])
        traced_s = median([c.replay_s for c in traced])
        values["trace.overhead_s"] = traced_s - untraced_s
        values["trace.overhead_frac"] = (
            (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        )
        return {name: {"value": values[name], "unit": unit} for name, unit in names}

    def result(self) -> dict:
        """The result object printed as the last line."""
        metrics = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": metrics,
        }

    def report_lines(self) -> list:
        """Human-readable lines: inputs, the workload's own figures, counts."""
        lines = [
            f"perfbench workload={self.name} seed={self.seed} "
            f"seconds={self.seconds} trace={int(self.trace)}",
            f"inputs: {json.dumps(self.state.describe())}",
            f"chunks={len(self.chunks)} operations={self.tally.attempted} "
            f"failed={self.tally.failed} refused={self.tally.wrong} "
            f"samples={sum(len(c.samples) for c in self.chunks if not c.traced)}",
            f"setup_s each: {', '.join(f'{t:.4f}' for t in self.setup_times)}",
        ]
        lines.append(f"setup_s = {median(self.setup_times):.6g} s")
        lines.append(f"peak_rss_bytes = {_peak_rss_bytes()} bytes")
        plain = [c for c in self.chunks if not c.traced]
        if plain:
            figures = self.module.summary(plain, self.end_to_end_values())
            for name, (value, unit) in figures.items():
                lines.append(f"{name} = {value:.6g} {unit}")
        lines.append(
            f"failed_frac = {self.tally.failed / max(1, self.tally.attempted):.6g} ratio"
        )
        return lines


def _write_outputs(run: Run, result: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{run.name}-seed{run.seed}-trace{int(run.trace)}"
    document = {"inputs": run.state.describe(), "result": result,
                "setup_times": run.setup_times,
                "chunk_replay_s": [c.replay_s for c in run.chunks],
                "chunk_traced": [c.traced for c in run.chunks],
                "counts": [c.counts for c in run.chunks],
                "notes": run.tally.notes}
    (OUT / f"result-{stem}.json").write_text(json.dumps(document, indent=1))
    if run.tracer is not None:
        run.tracer.write_chrome_trace(
            OUT / f"trace-{run.name}-seed{run.seed}.json",
            {"workload": run.name, "seed": run.seed, "seconds": run.seconds},
        )


def _check_program() -> None:
    """Import the program from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print("perfbench: imported repro from outside the checkout", file=sys.stderr)
        sys.exit(2)


def main(argv: list | None = None) -> int:
    """Command-line entry point; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    _check_program()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup()
        run.measure()
        if not any(c.samples for c in run.chunks):
            print("perfbench: no operation succeeded; nothing measured",
                  file=sys.stderr)
            return 1
        result = run.result()
        lines = run.report_lines()
        _write_outputs(run, result)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0
