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

A JSON report is the text that ``json.dumps(report, sort_keys=True)``
prints, though ``render_json`` writes mu's atoms itself.

A flat file and the tc file of its embedding describe one shift, so they
get one report.  Whatever one value of a file is changed to, every command
ends in a report or in an exit code, never in an exception.
"""

import copy
import functools
import io
import json
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcshift.cli import Options, ParsedFile, _execute, parse_instance, render_json, run

from helpers import FLAT_FIXTURES, flat_files, random_subnormal_instance, scaled_tc, tc_file

FIXTURES = Path(__file__).parent / "fixtures"
VALID_TC = (
    "f1",
    "n1",
    "tc10_phi_witness",
    "tc10_psi_witness",
    "tc10_subnormal",
    "tc30_subnormal_wide",
)
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
        expected = json.dumps(rescaled(report, c), sort_keys=True) + "\n"
        if run_json(command, path) != (code, expected):
            broken.append(k)
    assert broken == []


@pytest.mark.parametrize("name", VALID_TC)
def test_h0_report_is_exactly_invariant_under_powers_of_4(tmp_path, name):
    source = FIXTURES / f"{name}.json"
    data = json.loads(source.read_text())
    report = parse_instance(str(source)).instance.check_membership_h0(8)
    path = tmp_path / "scaled.json"
    broken = []
    for k in POWERS:
        path.write_text(json.dumps(scaled_tc(data, 4.0**k)))
        if parse_instance(str(path)).instance.check_membership_h0(8) != report:
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
            for name in FLAT_FIXTURES
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


@pytest.mark.parametrize(
    "name, command",
    [
        *((name, command) for name in VALID_TC for command in ("reconstruct", "verify")),
        *(
            (name, command)
            for name in FLAT_FIXTURES
            for command in ("reconstruct", "verify", "flat")
        ),
    ],
)
def test_json_reports_are_the_stdlib_encoding(name, command):
    parsed = parse_instance(str(FIXTURES / f"{name}.json"))
    report, _ = _execute(command, parsed, parsed.options)
    assert render_json(report) == json.dumps(report, sort_keys=True)


def test_a_200_atom_json_report_is_the_stdlib_encoding():
    # the size of the largest decide files: mu holds about 40,000 atoms
    instance = random_subnormal_instance(random.Random(15), n_atoms=(200, 200))
    report, code = _execute("reconstruct", ParsedFile(instance, Options()), Options())
    assert code == 0
    assert len(report["mu"]) > 200 * 200
    assert render_json(report) == json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("command", ["check", "reconstruct"])
def test_a_flat_file_and_its_embedding_get_the_same_report(tmp_path, command):
    flat_path, tc_path = tmp_path / "flat.json", tmp_path / "tc.json"
    broken = []
    for label, data in flat_files(100):
        flat_path.write_text(json.dumps(data))
        embedded = parse_instance(str(flat_path)).instance.embed()
        tc_path.write_text(json.dumps(tc_file(embedded)))
        code, text = run_json(command, flat_path)
        assert code in (0, 1), label
        # with sorted keys, the first "kind" key is the report's own
        if run_json(command, tc_path) != (code, text.replace('"kind": "flat"', '"kind": "tc"', 1)):
            broken.append(label)
    assert broken == []


JSON_FIXTURES = {
    path.stem: json.loads(path.read_text())
    for path in sorted(FIXTURES.glob("*.json"))
    if path.stem != "malformed"
}
MISSING = object()
PERTURBATIONS = (0, -0.0, 5e-324, 1e308, 10**400, "x", None, [], MISSING)
COMMANDS = (
    ["check"],
    ["reconstruct"],
    ["flat"],
    ["verify"],
    ["sweep", "--param", "a", "--range", "0.5:1:0.5"],
)


def value_paths(data, path=()):
    """The path of every value in a JSON tree: object members and array
    entries, at every depth."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, (*path, key))


@st.composite
def perturbed_files(draw) -> dict:
    """A fixture with one value replaced by a perturbation, or removed."""
    data = copy.deepcopy(JSON_FIXTURES[draw(st.sampled_from(sorted(JSON_FIXTURES)))])
    *parents, last = draw(st.sampled_from(list(value_paths(data))))
    container = functools.reduce(operator.getitem, parents, data)
    value = draw(st.sampled_from(PERTURBATIONS))
    if value is MISSING:
        del container[last]
    else:
        container[last] = value
    return data


@pytest.fixture(scope="module")
def perturbed_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("perturbed") / "instance.json"


@settings(max_examples=200)
@given(data=perturbed_files())
def test_every_command_ends_in_an_exit_code(perturbed_path, data):
    perturbed_path.write_text(json.dumps(data))
    for command in COMMANDS:
        for mode in ([], ["--json"]):
            argv = [command[0], str(perturbed_path), *command[1:], *mode]
            assert run(argv, out=io.StringIO(), err=io.StringIO()) in range(4), argv
