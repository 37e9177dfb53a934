"""Scale equivariance of the reports.

Scaling every weight of a 2-variable shift by sqrt(c) multiplies every
location of every Berger measure by c and leaves subnormality unchanged.
So psi, phi and mu keep their masses and move their atoms by c, the
witness keeps its mass and moves by c, and each reciprocal norm of the
diagnostics is divided by c.  For c = 4**k in the normal range every one
of these scalings is exact in floating point (``scaled_tc``), so the
report of the scaled file must be the rescaled report, bit for bit.
"""

import io
import json
from pathlib import Path

import pytest

from tcshift.cli import render_json, run

from helpers import scaled_tc

FIXTURES = Path(__file__).parent / "fixtures"
VALID_TC = (
    "f1",
    "n1",
    "tc10_phi_witness",
    "tc10_psi_witness",
    "tc10_subnormal",
    "tc30_subnormal_wide",
)
POWERS = range(-60, 61)


def run_json(command: str, path: Path) -> tuple[int, str]:
    out = io.StringIO()
    code = run([command, str(path), "--json"], out=out, err=io.StringIO())
    return code, out.getvalue()


def rescaled(report: dict, c: float) -> dict:
    """The report expected of the instance scaled by c."""
    scaled = dict(report)
    scaled["diagnostics"] = {
        key: None if value is None else value / c
        for key, value in report["diagnostics"].items()
    }
    for name in ("psi", "phi"):
        if report[name] is not None:
            scaled[name] = [[loc * c, mass] for loc, mass in report[name]]
    if report["mu"] is not None:
        scaled["mu"] = [[s * c, t * c, mass] for s, t, mass in report["mu"]]
    if report["witness"] is not None:
        scaled["witness"] = {**report["witness"], "location": report["witness"]["location"] * c}
    return scaled


@pytest.mark.parametrize("command", ["check", "reconstruct"])
@pytest.mark.parametrize("name", VALID_TC)
def test_reports_are_exactly_rescaled_by_powers_of_4(tmp_path, name, command):
    source = FIXTURES / f"{name}.json"
    data = json.loads(source.read_text())
    code, text = run_json(command, source)
    assert code in (0, 1)
    report = json.loads(text)
    path = tmp_path / "scaled.json"
    broken = []
    for k in POWERS:
        c = 4.0**k
        path.write_text(json.dumps(scaled_tc(data, c)))
        # the printed floats round-trip, so equal text is equal bits
        expected = render_json(rescaled(report, c)) + "\n"
        if run_json(command, path) != (code, expected):
            broken.append(k)
    assert broken == []


@pytest.mark.parametrize("command", ["check", "reconstruct"])
@pytest.mark.parametrize("c", [1e-10, 1e-13])
def test_small_scales_keep_the_subnormal_verdict(tmp_path, c, command):
    # the xi_x atoms at 1.00826 and 1.00103 must stay apart at every scale
    data = json.loads((FIXTURES / "tc10_subnormal.json").read_text())
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(scaled_tc(data, c)))
    code, text = run_json(command, path)
    assert code == 0
    assert json.loads(text)["verdict"] == "subnormal"
