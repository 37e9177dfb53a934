"""Benchmark worker: one fresh interpreter that runs a workload's ops.

    python3 bench/worker.py MANIFEST setup
    python3 bench/worker.py MANIFEST run

``setup`` imports ``tcshift.cli``, runs the warm-up op and prints the
``time.monotonic()`` reading at which it returned; the caller started its
clock just before launching the interpreter.  ``run`` does the same and
then runs whole passes over the op list in a closed loop (the next op
starts when the previous one returns) until the manifest's seconds have
elapsed, then prints one JSON result line.  In-process workloads call
``tcshift.cli.run``; the cold workload starts one ``python -m tcshift``
child per op.  With tracing on, an untraced phase (for the overhead
ratio) is followed by a traced phase of equal length.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import spans
import speed

BERGER = "reconstruct.berger_measure"
CHILD_TIMEOUT_S = 60


def _in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli.run(argv, out=out, err=err)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Runner:
    """Executes ops and accumulates what one phase measured."""

    def __init__(self, manifest, cli, tracer=None, importtime=False):
        self.manifest = manifest
        self.cli = cli
        self.tracer = tracer
        self.importtime = importtime
        self.latencies_ns: list[int] = []
        self.gaps_ns: list[list[int]] = []
        self.failures: list[dict] = []
        self.verdicts: Counter = Counter()
        self.sweep_points = 0
        self.sweep_subnormal = 0
        self.berger_built = 0
        self.berger_unrendered = 0
        self.import_calls: Counter = Counter()
        self.import_self_ns: Counter = Counter()
        self.cold_wall_ns = 0

    def execute(self, op):
        """Run one op; returns (exit code, stdout) or raises."""
        if self.manifest["workload"] == "cold":
            return self._child(op)
        if self.tracer is None:
            return _in_process(self.cli, op["argv"])
        return self.tracer.run_op(lambda: _in_process(self.cli, op["argv"]))

    def _child(self, op):
        command = [sys.executable, *(["-X", "importtime"] if self.importtime else []),
                   "-m", "tcshift", *op["argv"]]
        started = time.perf_counter_ns()
        proc = subprocess.run(
            command, capture_output=True, text=True, cwd=self.manifest["root"],
            timeout=CHILD_TIMEOUT_S,
        )
        if self.importtime:
            wall = time.perf_counter_ns() - started
            tcshift_us, numpy_us = spans.import_times(proc.stderr)
            if tcshift_us < 0 or (tcshift_us + numpy_us) * 1000 > wall:
                raise spans.TraceError("import self times exceed the op wall time")
            for layer, micros in (("import.tcshift", tcshift_us), ("import.numpy", numpy_us)):
                self.import_calls[layer] += micros > 0
                self.import_self_ns[layer] += micros * 1000
            self.cold_wall_ns += wall
        return proc.returncode, proc.stdout

    def one(self, op, index, verdicts):
        """Run, time and check one op; ``verdicts`` holds this pass's."""
        berger_before = self.tracer.calls[BERGER] if self.tracer else 0
        started = time.perf_counter_ns()
        try:
            code, out = self.execute(op)
        except spans.TraceError:
            raise
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.latencies_ns.append(time.perf_counter_ns() - started)
            self._fail(index, op, f"raised {exc!r}")
            return
        self.latencies_ns.append(time.perf_counter_ns() - started)
        outcome = checks.check(op, code, out, self.manifest["sweep_points"])
        verdicts[index] = outcome.verdict
        other = op.get("agree_with")
        if outcome.problem is None and other is not None and verdicts.get(other) != outcome.verdict:
            outcome.problem = (
                f"{op['cmd']} says {outcome.verdict!r}, "
                f"{self.manifest['ops'][other]['cmd']} says {verdicts.get(other)!r}"
            )
        if outcome.problem is not None:
            self._fail(index, op, outcome.problem)
        if outcome.verdict:
            self.verdicts[f"{op['cmd']}:{outcome.verdict}"] += 1
        self.sweep_points += len(outcome.points)
        self.sweep_subnormal += outcome.points.count("subnormal")
        if self.tracer:
            built = self.tracer.calls[BERGER] - berger_before
            self.berger_built += built
            self.berger_unrendered += built - min(built, int(outcome.mu_printed))

    def _fail(self, index, op, problem):
        self.failures.append({"op": index, "cmd": op["cmd"], "file": op["file"], "problem": problem})

    def phase(self, seconds: float) -> "Runner":
        """Whole passes over the ops until ``seconds`` have elapsed and at
        least the manifest's minimum number of ops has run, with a speed
        probe gap before the first op and after every op."""
        ops = self.manifest["ops"]
        started = time.perf_counter()
        self.gaps_ns.append(speed.gap())
        while True:
            verdicts: dict[int, str | None] = {}
            for index, op in enumerate(ops):
                self.one(op, index, verdicts)
                self.gaps_ns.append(speed.gap())
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(self.latencies_ns) >= self.manifest["min_ops"]:
                self.scaled_ns = [
                    latency * speed.factor(before, after)
                    for latency, before, after in zip(self.latencies_ns, self.gaps_ns, self.gaps_ns[1:])
                ]
                return self

    @property
    def scale(self) -> float:
        """Overall factor from measured to speed-rescaled time."""
        return sum(self.scaled_ns) / sum(self.latencies_ns)

    @property
    def throughput(self) -> float:
        return len(self.scaled_ns) / (sum(self.scaled_ns) / 1e9)


def _import_metrics(runner: Runner) -> dict:
    ops = max(len(runner.latencies_ns), 1)
    wall = max(runner.cold_wall_ns, 1)
    metrics = {}
    for layer in spans.IMPORTS:
        metrics[f"{layer}.calls"] = (runner.import_calls[layer] / ops, "count/op")
        metrics[f"{layer}.self_ms_per_op"] = (
            runner.import_self_ns[layer] * runner.scale / ops / 1e6, "ms"
        )
        metrics[f"{layer}.share"] = (runner.import_self_ns[layer] / wall, "ratio")
        metrics[f"{layer}.errors"] = (0, "count")
    return metrics


def _warm_up(manifest):
    """Import the CLI and run the warm-up op; returns the CLI module."""
    from tcshift import cli

    code, _ = _in_process(cli, manifest["warmup"])
    if code not in checks.VERDICT_OF_CODE:
        raise SystemExit(f"warm-up op {manifest['warmup']} exited with {code}")
    return cli


def run(manifest) -> dict:
    cli = _warm_up(manifest)
    seconds = manifest["seconds"]
    cold = manifest["workload"] == "cold"
    if not manifest["trace"]:
        runner = Runner(manifest, cli).phase(seconds)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
        return {"phases": [summary(runner)], "peak_rss_kb": usage.ru_maxrss}
    plain = Runner(manifest, cli).phase(seconds / 2)
    tracer = None if cold else spans.Tracer()
    traced = Runner(manifest, cli, tracer=tracer, importtime=cold)
    if tracer:
        tracer.install()
        try:
            traced.phase(seconds / 2)
        finally:
            tracer.uninstall()
        tracer.check_hooks(manifest["workload"])
        layers = tracer.layer_metrics(traced.scale)
    else:
        traced.phase(seconds / 2)
        missing = [layer for layer in spans.IMPORTS if not traced.import_calls[layer]]
        if missing:
            raise spans.TraceError(f"no import recorded on cold for {', '.join(missing)}")
        layers = spans.Tracer().layer_metrics(traced.scale)
        unspanned = traced.cold_wall_ns - sum(traced.import_self_ns.values())
        layers["trace.unspanned_share"] = (unspanned / traced.cold_wall_ns, "ratio")
    layers.update(_import_metrics(traced))
    layers[f"{BERGER}.unrendered_ratio"] = (
        traced.berger_unrendered / traced.berger_built if traced.berger_built else 0.0,
        "ratio",
    )
    layers["sweep.subnormal_point_share"] = (
        traced.sweep_subnormal / traced.sweep_points if traced.sweep_points else 0.0,
        "ratio",
    )
    layers["trace.overhead_ratio"] = (plain.throughput / traced.throughput, "ratio")
    return {"phases": [summary(plain), summary(traced)], "layers": layers}


def summary(runner: Runner) -> dict:
    return {
        "latencies_ns": runner.scaled_ns,
        "probe_ns": statistics.median(p for gap in runner.gaps_ns for p in gap),
        "failures": runner.failures,
        "verdicts": runner.verdicts,
        "sweep_points": runner.sweep_points,
        "sweep_subnormal": runner.sweep_subnormal,
    }


def main(argv) -> None:
    manifest_path, mode = argv
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if mode == "setup":
        _warm_up(manifest)
        print(repr(time.monotonic()))
        return
    if mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(run(manifest)))


if __name__ == "__main__":
    main(sys.argv[1:])
