"""Smoke test of the benchmark itself, on a few ops per workload.

    python3 -m pytest bench/test_smoke.py -q -p no:cacheprovider

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced run's hook self-check passes on every workload, that a
wrong expected verdict is counted as a failed op, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def tiny(manifest: dict) -> None:
    """Keep the ops on the first file of each file family."""
    ops = manifest["ops"]
    firsts: dict[str, str] = {}
    for op in ops:
        firsts.setdefault(op["file"].split("_")[0], op["file"])
    keep = [index for index, op in enumerate(ops) if op["file"] in firsts.values()]
    renumber = {old: new for new, old in enumerate(keep)}
    manifest["ops"] = [
        dict(ops[old], agree_with=renumber.get(ops[old]["agree_with"])) for old in keep
    ]


def _run(workload: str, trace: bool, edit=tiny) -> dict:
    return run.measure(workload, seed=1, seconds=1, trace=trace, min_ops=2, edit=edit)


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _run(workload, trace=False)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics(workload):
    result = _run(workload, trace=True)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"]


def test_wrong_expected_verdict_is_a_failure():
    def flip(manifest):
        tiny(manifest)
        manifest["ops"][0]["expect"] = "not-subnormal"

    result = _run("verify", trace=False, edit=flip)
    assert result["failed"] >= 1
    assert not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_to_run_without_sources():
    scratch = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
