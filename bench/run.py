"""Benchmark entry point for tcshift.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/tcshift``.  The run
writes the workload's seeded instance files under ``.bench_work/``,
measures set-up time in fresh interpreters, runs the workload in one
worker interpreter, checks every op's output and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones.  Progress, the verdict mix and any failing
op go to stderr.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import gen
import speed

WORKLOADS = ("decide", "verify", "sweep", "cold")
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 9
#: Fewest ops a run may measure, so that at least 10 lie beyond p90.
MIN_OPS = 100
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tcshift", "cli.py")):
        raise BenchError(f"no tcshift sources under {src}")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _worker(manifest_path: str, mode: str, env: dict, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, WORKER, manifest_path, mode],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def _setup_seconds(manifest_path: str, env: dict) -> float:
    """Median time from launching an interpreter until ``tcshift.cli`` is
    imported and the warm-up op has returned, rescaled by the speed
    probes taken just before and just after each launch."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.gap()
        started = time.monotonic()
        returned = float(_worker(manifest_path, "setup", env, SETUP_TIMEOUT_S))
        samples.append((returned - started) * speed.factor(before, speed.gap()))
    return statistics.median(samples)


def _end_to_end(phase: dict, peak_rss_kb: int, setup_s: float) -> dict:
    latencies = phase["latencies_ns"]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    ops = len(latencies)
    return {
        "throughput_ops_s": (ops / (sum(latencies) / 1e9), "1/s"),
        "latency_p50_ms": (deciles[4] / 1e6, "ms"),
        "latency_p90_ms": (deciles[8] / 1e6, "ms"),
        "ok_ratio": ((ops - len(phase["failures"])) / ops, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def _report(manifest: dict, phases: list[dict]) -> None:
    """Verdict mix and failing ops, on stderr."""
    verdicts = Counter()
    for phase in phases:
        verdicts.update(phase["verdicts"])
    info = {
        "workload": manifest["workload"],
        "seed": manifest["seed"],
        "files": manifest["files"],
        "ops_per_pass": len(manifest["ops"]),
        "ops_run": [len(phase["latencies_ns"]) for phase in phases],
        "verdicts": dict(sorted(verdicts.items())),
        "probe_ms": [phase["probe_ns"] / 1e6 for phase in phases],
    }
    points = sum(phase["sweep_points"] for phase in phases)
    if points:
        info["sweep_subnormal_share"] = sum(phase["sweep_subnormal"] for phase in phases) / points
    print(json.dumps(info), file=sys.stderr)
    failures = Counter(
        (f["op"], f["cmd"], f["file"], f["problem"]) for phase in phases for f in phase["failures"]
    )
    for (index, cmd, name, problem), count in sorted(failures.items()):
        print(f"FAILED op {index} ({cmd} {name}) x{count}: {problem}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            min_ops: int = MIN_OPS, edit=None) -> dict:
    """Run one workload and return the result object.  ``edit`` may alter
    the manifest (the op list and its expectations) before the run."""
    env = _env()
    # The speed probe must share a core with the work it rescales, so this
    # process and every child it starts stay on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        manifest = gen.build(workload, seed, directory)
        manifest.update(root=ROOT, seconds=seconds, trace=trace, min_ops=min_ops)
        if edit is not None:
            edit(manifest)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        setup_s = None if trace else _setup_seconds(manifest_path, env)
        result = json.loads(_worker(manifest_path, "run", env, WORKER_TIMEOUT_S))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    phases = result["phases"]
    _report(manifest, phases)
    attempted = sum(len(phase["latencies_ns"]) for phase in phases)
    failed = sum(len(phase["failures"]) for phase in phases)
    if trace:
        metrics = result["layers"]
    else:
        metrics = _end_to_end(phases[0], result["peak_rss_kb"], setup_s)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
