"""Invariance of the reports under edits that keep the instance.

Scaling every weight of a 2-variable shift by sqrt(c) multiplies every
location of every Berger measure by c and leaves subnormality unchanged.
So psi, phi and mu keep their masses and move their atoms by c, the
witness keeps its mass and moves by c, and each reciprocal norm of the
diagnostics is divided by c.  For c = 4**k in the normal range every one
of these scalings is exact in floating point (``scaled_tc``), so the
report of the scaled file must be the rescaled report, bit for bit.

The two sides can be scaled apart: 4**es on the locations of xi_x and xi
with a times 2**es, and 4**et on those of eta_y and eta
(``scaled_apart``).  That scales every horizontal weight by 2**es and
every vertical one by 2**et, so again no verdict and no mass moves.
``verify`` reaches the unscaled exit code wherever its moments of order
12 stay finite and positive, about 4**-40 to 4**40.

A measure is the same measure whatever the order of its atoms, and when
one atom is split into two exact halves at its location.  So the reports
of the edited file must be those of the original, byte for byte.

A JSON report is the text that ``json.dumps(report, sort_keys=True)``
prints, though ``render_json`` writes mu's atoms itself, and so is each
JSON line of a sweep, though ``_json_points`` writes a decided point's
line from its fields.

A flat file and the tc file of its embedding describe one shift, so they
get one report.  Whatever one value of a file is changed to, every command
ends in a report or in an exit code, never in an exception.

Every row and column shift of a subnormal shift is subnormal, so a
subnormal verdict comes with a passing H0 report, also at the ends of the
interval of joining weights a that keep the verdict subnormal.
"""

import copy
import functools
import io
import json
import math
import operator
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcshift.cli import (
    _FLAT_SCALARS,
    Options,
    ParsedFile,
    _execute,
    _json_points,
    parse_instance,
    render_json,
    run,
)
from tcshift.errors import TCShiftError
from tcshift.measures import positivity
from tcshift.reconstruct import (
    Witness,
    compute_phi,
    compute_psi,
    flat_verdict,
    subnormality_verdict,
)

from helpers import (
    FLAT_FIXTURES,
    f1_instance,
    flat_files,
    oracle_statuses,
    random_flat_instance,
    random_subnormal_instance,
    random_tc_instance,
    refuse_constant,
    scaled_apart,
    scaled_tc,
    tc_file,
)

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


@pytest.mark.parametrize("name", VALID_TC)
def test_verify_keeps_its_exit_code_at_every_scale_it_reaches(tmp_path, name):
    source = FIXTURES / f"{name}.json"
    data = json.loads(source.read_text())
    code, _ = run_json("verify", source)
    assert code in (0, 1)
    path = tmp_path / "scaled.json"
    files = [(f"4**{k}", scaled_tc(data, 4.0**k)) for k in range(-40, 39, 2)]
    files += [
        (f"apart {es}, {et}", scaled_apart(data, es, et))
        for es in (-20, 0, 20)
        for et in (-20, 0, 20)
    ]
    broken = []
    for label, scaled in files:
        path.write_text(json.dumps(scaled))
        scaled_code, text = run_json("verify", path)
        # a subnormal verdict is consistent with every oracle
        if scaled_code != code or (code == 0 and oracle_statuses(text) != {"consistent"}):
            broken.append(label)
    assert broken == []


@pytest.mark.parametrize("name", VALID_TC)
def test_check_keeps_its_exit_code_with_the_sides_scaled_apart(tmp_path, name):
    source = FIXTURES / f"{name}.json"
    data = json.loads(source.read_text())
    code, _ = run_json("check", source)
    path = tmp_path / "scaled.json"
    exponents = (-200, -40, 0, 40, 200)
    broken = []
    for es in exponents:
        for et in exponents:
            path.write_text(json.dumps(scaled_apart(data, es, et)))
            if run_json("check", path)[0] != code:
                broken.append((es, et))
    assert broken == []


def masses(report: dict) -> dict:
    """The masses of psi, phi and mu of a report, in atom order."""
    return {
        name: None if report[name] is None else [atom[-1] for atom in report[name]]
        for name in ("psi", "phi", "mu")
    }


@pytest.mark.parametrize("es, et", [(40, -40), (-40, 40), (100, 3)])
@pytest.mark.parametrize("name", VALID_TC)
def test_sides_scaled_apart_keep_every_mass(tmp_path, name, es, et):
    source = FIXTURES / f"{name}.json"
    code, text = run_json("reconstruct", source)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(scaled_apart(json.loads(source.read_text()), es, et)))
    scaled_code, scaled_text = run_json("reconstruct", path)
    # the printed floats round-trip, so equal values are equal bits
    assert scaled_code == code
    assert masses(json.loads(scaled_text)) == masses(json.loads(text))


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


def stdlib_report(report: dict) -> dict:
    """The report with mu's pieces joined into its atoms, as the stdlib
    encodes it."""
    return {**report, "mu": None if report["mu"] is None else report["mu"].joined().atoms}


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
    assert render_json(report) == json.dumps(stdlib_report(report), sort_keys=True)


def test_a_200_atom_json_report_is_the_stdlib_encoding():
    # the size of the largest decide files: mu holds about 40,000 atoms
    instance = random_subnormal_instance(random.Random(15), n_atoms=(200, 200))
    report, code = _execute("reconstruct", ParsedFile(instance, Options()), Options())
    assert code == 0
    encodable = stdlib_report(report)
    assert len(encodable["mu"]) > 200 * 200
    assert render_json(report) == json.dumps(encodable, sort_keys=True)


# finite floats, with the ones whose repr is least like the others': the
# zeros, the least subnormal and normal, the power of ten where repr
# switches to an exponent, the largest one a float holds exactly, and the
# largest float
SWEEP_FLOATS = st.one_of(
    st.sampled_from(
        (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22, 1.7976931348623157e308)
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
WITNESSES = st.one_of(
    st.none(), st.builds(Witness, st.sampled_from(("psi", "phi")), SWEEP_FLOATS, SWEEP_FLOATS)
)
F1_VERDICT = subnormality_verdict(f1_instance())


@given(param=st.sampled_from(_FLAT_SCALARS), value=SWEEP_FLOATS, witness=WITNESSES)
def test_sweep_json_lines_are_the_stdlib_encoding(param, value, witness):
    point = {
        "param": param,
        "value": value,
        "verdict": "subnormal" if witness is None else "not-subnormal",
        "witness": None
        if witness is None
        else {
            "measure": witness.measure,
            "location": witness.location,
            "mass": witness.mass,
            "reason": f"{witness.measure} has a negative atom",
        },
    }
    verdict = F1_VERDICT._replace(subnormal=witness is None, witness=witness)
    assert _json_points(param)(value, verdict) == json.dumps(point, sort_keys=True)


@given(param=st.sampled_from(_FLAT_SCALARS), value=SWEEP_FLOATS, message=st.text())
def test_sweep_json_error_lines_are_the_stdlib_encoding(param, value, message):
    point = {"param": param, "value": value, "error": message}
    assert _json_points(param)(value, message) == json.dumps(point, sort_keys=True)


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
# eta at 5e-324: ||1/t||_eta is inf, and psi fails before phi would refuse it
@example(data={**JSON_FIXTURES["f1"], "eta": {"atoms": [[5e-324, 1.0]]}})
def test_every_command_ends_in_an_exit_code(perturbed_path, data):
    perturbed_path.write_text(json.dumps(data))
    for command in COMMANDS:
        for mode in ([], ["--json"]):
            argv = [command[0], str(perturbed_path), *command[1:], *mode]
            out = io.StringIO()
            assert run(argv, out=out, err=io.StringIO()) in range(4), argv
            # a JSON report, and each JSON line of a sweep, is JSON: no
            # Infinity or NaN
            for line in out.getvalue().splitlines() if mode else ():
                json.loads(line, parse_constant=refuse_constant)


def is_subnormal(instance) -> bool:
    """The verdict, with an instance that cannot be decided counted as not
    subnormal."""
    try:
        return subnormality_verdict(instance).subnormal
    except (TCShiftError, ArithmeticError):
        return False


def subnormal_end(instance, inside: float, outside: float, steps: int = 40) -> float:
    """The subnormal a nearest ``outside`` that bisection from the
    subnormal ``inside`` finds."""
    for _ in range(steps):
        middle = (inside + outside) / 2
        if is_subnormal(instance.with_a(middle)):
            inside = middle
        else:
            outside = middle
    return inside


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_subnormal_verdict_implies_membership_in_h0(seed):
    instance = random_tc_instance(random.Random(seed))
    if not is_subnormal(instance):
        return
    # towards a far below the drawn a, and towards twice the a at which
    # a^2 ||1/s||_xi = 1; an end that is still subnormal is checked as well
    low = subnormal_end(instance, instance.a, instance.a / 1e3)
    high = subnormal_end(instance, instance.a, 2.0 / math.sqrt(instance.xi.reciprocal_norm()))
    for a in (instance.a, low, high, (low + high) / 2):
        member = instance.with_a(a)
        if is_subnormal(member):
            assert member.check_membership_h0(8).passed, a


def decision_with_both_measures(instance, tol: float) -> tuple[bool, Witness | None]:
    """(subnormal, witness) of a decision that builds psi and phi before it
    looks at either; building phi may raise where psi alone decides."""
    psi = compute_psi(instance)
    phi = compute_phi(instance, psi.reciprocal_norm())
    for name, measure in (("psi", psi), ("phi", phi)):
        check = positivity(measure, tol)
        if not check.positive:
            return False, Witness(name, check.location, check.mass)
    return True, None


def decided_by_psi(verdict) -> bool:
    return verdict.witness is not None and verdict.witness.measure == "psi"


def assert_psi_first_keeps_the_decision(instance, tol: float) -> None:
    verdict = subnormality_verdict(instance, tol)
    assert (verdict.phi is None) == decided_by_psi(verdict)
    try:
        expected = decision_with_both_measures(instance, tol)
    except (TCShiftError, ArithmeticError):
        # phi cannot be built, so psi alone decided
        assert decided_by_psi(verdict)
        return
    assert (verdict.subnormal, verdict.witness) == expected


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_deciding_psi_first_keeps_the_decision(seed):
    # the verdict decides psi first and builds phi only when psi is
    # positive; a decision that builds both reaches the same flag and
    # witness, on the generators and along a sweep grid over a
    rng = random.Random(seed)
    tol = Options().tol
    instance = random_tc_instance(rng)
    assert_psi_first_keeps_the_decision(instance, tol)
    # as sweep builds them: each point from the last, a from a/10 to 2a,
    # so a^2 ||1/s||_xi passes 1 on most grids
    point = instance
    for step in range(1, 21):
        point = point.with_a(instance.a * step / 10)
        assert_psi_first_keeps_the_decision(point, tol)
    flat = random_flat_instance(rng)
    via_flat = flat_verdict(flat, tol)
    assert (via_flat.phi is None) == decided_by_psi(via_flat)
    subnormal, witness = decision_with_both_measures(flat.embed(), tol)
    assert via_flat.subnormal == subnormal
    assert (via_flat.witness and via_flat.witness.measure) == (witness and witness.measure)
