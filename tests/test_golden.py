"""Golden reports: every command on every fixture, in text and in JSON,
prints exactly what was recorded.

``golden/<fixture>.json`` maps each case (the command line without the
file name) to its exit code, stdout and stderr, where stderr drops the
``elapsed:`` timing line.  Commands run with the fixtures directory as the
working directory, so messages that quote the path are portable.  After an
intended change of output, record the files again with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
from pathlib import Path

import pytest

from tcshift.cli import run

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES.parent / "golden"
SWEEP_RANGES = {"a": "0.1:1.5:0.1", "m": "0.1:1:0.1"}


def cases(fixture: Path) -> list[str]:
    """Command lines run on one fixture: check, reconstruct, flat and
    verify, then sweeps over a (tc files) or m and a (flat files), each in
    text and JSON.  A tc file with a joining weight ``a`` is also swept over
    41 points from 0.5 a to 1.5 a, which cross the narrow subnormal
    intervals that the fixed grid misses."""
    try:
        data = json.loads(fixture.read_text())
    except ValueError:
        data = {"kind": "tc"}
    kind = data.get("kind")
    commands = ["check", "reconstruct", "flat", "verify"]
    for param in ("m", "a") if kind == "flat" else ("a",):
        commands.append(f"sweep --param {param} --range {SWEEP_RANGES[param]}")
    if kind == "tc" and "a" in data:
        a = data["a"]
        commands.append(f"sweep --param a --range {0.5 * a!r}:{1.5 * a!r}:{a / 40!r}")
    return [command + mode for command in commands for mode in ("", " --json")]


def outcome(fixture: Path, case: str) -> dict:
    """Run one case; the working directory must be FIXTURES."""
    command, *rest = case.split()
    out, err = io.StringIO(), io.StringIO()
    code = run([command, fixture.name, *rest], out=out, err=err)
    stderr = err.getvalue().splitlines(keepends=True)
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": "".join(line for line in stderr if not line.startswith("elapsed:")),
    }


ALL_CASES = [
    pytest.param(fixture, case, id=f"{fixture.stem}:{case}")
    for fixture in sorted(FIXTURES.glob("*.json"))
    for case in cases(fixture)
]


@pytest.mark.parametrize("fixture, case", ALL_CASES)
def test_report_matches_golden(fixture, case, monkeypatch):
    golden = json.loads((GOLDEN / fixture.name).read_text())
    monkeypatch.chdir(FIXTURES)
    assert outcome(fixture, case) == golden[case]


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(FIXTURES)
    for fixture in sorted(FIXTURES.glob("*.json")):
        golden = {case: outcome(fixture, case) for case in cases(fixture)}
        text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
        (GOLDEN / fixture.name).write_text(text)


if __name__ == "__main__":
    record()
