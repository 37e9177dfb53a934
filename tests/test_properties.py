"""Invariance of the reports under edits that keep the instance.

Scaling every weight of a 2-variable shift by sqrt(c) multiplies every
location of every Berger measure by c and leaves subnormality unchanged.
So psi, phi and mu keep their masses and move their atoms by c, the
witness keeps its mass and moves by c, and each reciprocal norm of the
diagnostics is divided by c.  For c = 4**k in the normal range every one
of these scalings is exact in floating point (``scaled_tc``), so the
report of the scaled file must be the rescaled report, bit for bit.

A measure is the same measure whatever the order of its atoms, and when
one atom is split into two exact halves at its location.  So the reports
of the edited file must be those of the original, byte for byte.
"""

import io
import json
import random
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
VALID_FLAT = ("f1_flat", "n1_flat", "flat_remainders_1", "flat_remainders_2")
MEASURES = {"tc": ("xi_x", "eta_y", "xi", "eta"), "flat": ("rho", "sigma")}
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


def same_measure_edits(data: dict):
    """(label, file) for each edit that leaves every measure as it is:
    the atoms of every measure reversed and shuffled, and the first atom
    of each measure in turn split into two exact halves, one of them
    moved to the end."""
    names = [name for name in MEASURES[data["kind"]] if data.get(name)]

    def every_measure(edit) -> dict:
        return {**data, **{name: {"atoms": edit(data[name]["atoms"])} for name in names}}

    rng = random.Random(14)
    yield "reversed", every_measure(lambda atoms: atoms[::-1])
    yield "shuffled", every_measure(lambda atoms: rng.sample(atoms, len(atoms)))
    for name in names:
        (loc, mass), *rest = data[name]["atoms"]
        half = [loc, mass / 2]
        yield f"split {name}", {**data, name: {"atoms": [half, *rest, half]}}


@pytest.mark.parametrize(
    "name, command",
    [
        *((name, command) for name in VALID_TC for command in ("check", "reconstruct", "verify")),
        *(
            (name, command)
            for name in VALID_FLAT
            for command in ("check", "reconstruct", "verify", "flat")
        ),
    ],
)
def test_atom_order_and_split_atoms_leave_the_report_unchanged(tmp_path, name, command):
    source = FIXTURES / f"{name}.json"
    expected = run_json(command, source)
    assert expected[0] in (0, 1)
    path = tmp_path / "edited.json"
    broken = []
    for label, data in same_measure_edits(json.loads(source.read_text())):
        path.write_text(json.dumps(data))
        if run_json(command, path) != expected:
            broken.append(label)
    assert broken == []
