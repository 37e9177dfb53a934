"""Command-line surface: parsing, exit codes, determinism, sweeps."""

import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tcshift
from tcshift import cli, measures, oracles, reconstruct, shifts
from tcshift.cli import DEFAULT_ORDER, _mu_pieces, parse_instance, run
from tcshift.diagram import FlatInstance, TCInstance
from tcshift.errors import ParseError, ValidationError
from tcshift.measures import AtomicMeasure1D
from tcshift.reconstruct import BergerMeasure

from helpers import (
    assert_measures_close,
    f1_instance,
    flat_files,
    oracle_statuses,
    refuse_constant,
    scaled_tc,
)

FIXTURES = Path(__file__).parent / "fixtures"


NON_FINITE = {"xi": {"atoms": [[1e-5, 1]]}, "eta": {"atoms": [[1e-5, 1]]}, "a": 1e150}


def single_atom(location: float, a: float) -> dict:
    """f1 with all four measures a point mass at ``location``, verified at
    window 12."""
    return {
        **{name: {"atoms": [[location, 1.0]]} for name in ("xi_x", "eta_y", "xi", "eta")},
        "a": a,
        "options": {"window": 12},
    }


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def tiny_row(location: float) -> dict:
    """f1 with xi_x a point mass at ``location`` and a small joining weight."""
    return {"xi_x": {"atoms": [[location, 1.0]]}, "a": 1e-6}


def write_f1_variant(tmp_path, changes, fixture_name="f1.json") -> str:
    data = json.loads((FIXTURES / fixture_name).read_text())
    path = tmp_path / "variant.json"
    path.write_text(json.dumps({**data, **changes}))
    return str(path)


# every measure a point mass at 1e10: its raw moment 31 (1e10 ** 31) overflows
HUGE_ATOMS = {
    **{name: {"atoms": [[1e10, 1.0]]} for name in ("xi_x", "eta_y", "xi", "eta")},
    "a": 1e5,
}
# f1 scaled exactly by 4**20: raw moment 26 of xi_x (4**520 / 2) overflows
F1_SCALED_UP = scaled_tc(json.loads((FIXTURES / "f1.json").read_text()), 4.0**20)
# past the scales verify reaches: moment (12, 0) (about 4**528) overflows,
# and a row moment (about 4**-528 over the row's base) underflows to 0
F1_BEYOND = {
    e: scaled_tc(json.loads((FIXTURES / "f1.json").read_text()), 4.0**e) for e in (44, -44)
}
PHI_COEFFICIENT = "phi's coefficient a^2 y0^2 r_s r_t is not finite, got inf"
# f1_flat with a^2 y0^2 past the float range; psi fails at b^2 = 1e308
PHI_OVERFLOW = {"b": 1e154, "a": 1e153}
NON_FINITE_RECIP_T_PSI = "the diagnostic recip_t_psi is not finite, got -inf"
# window 12 on a file whose rows pass and whose eta lies at 1e-12
COLUMN_UNDERFLOW = {
    "xi": {"atoms": [[1e-5, 1.0]]},
    "eta": {"atoms": [[1e-12, 1.0]]},
    "a": 1.0,
    "options": {"window": 12},
}
TOO_LARGE = "must be finite, got an integer too large for a float"
# a^2 r_s within an ulp of the largest float and three equal eta masses just
# above 1/3: each of psi's three negative atoms is finite, but their total
# variation overflows
PSI_VARIATION_OVERFLOW = {
    **{name: {"atoms": [[1.0, 1.0]]} for name in ("xi_x", "eta_y", "xi")},
    "eta": {"atoms": [[loc, 0.3333333333333334] for loc in (2.0, 3.0, 4.0)]},
    "a": 1.3407807929942596e154,
}
PSI_VARIATION_MESSAGE = "psi's total variation is not finite, got inf"


def child_env() -> dict:
    """The environment of a child interpreter that imports this tcshift."""
    return {**os.environ, "PYTHONPATH": str(Path(tcshift.__file__).parents[1])}


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Bind ``replacement`` wherever a tcshift namespace binds ``original``:
    ``from .x import y`` copies the binding at import time."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tcshift" and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def assert_refused_beyond_the_depth_in_a_child(name: str) -> None:
    """``verify --order 100000`` exits 2 at once, under a 1 GiB address
    space, naming the depth limit without a traceback."""
    argv = ["verify", fixture(name), "--order", "100000"]
    proc = subprocess.run(
        [sys.executable, "-m", "tcshift", *argv],
        capture_output=True,
        env=child_env(),
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "beyond the depth limit 32" in err
    assert "Traceback" not in err


def run_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParse:
    def test_tc_round_trip(self):
        parsed = parse_instance(fixture("f1.json"))
        inst = parsed.instance
        assert isinstance(inst, TCInstance)
        reference = f1_instance()
        assert_measures_close(inst.xi_x, reference.xi_x)
        assert_measures_close(inst.eta, reference.eta)
        assert inst.a == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_flat_file(self):
        parsed = parse_instance(fixture("f1_flat.json"))
        inst = parsed.instance
        assert isinstance(inst, FlatInstance)
        assert (inst.p, inst.q, inst.l, inst.m, inst.b) == (0.5, 0.5, 0.5, 0.5, 1.0)

    def test_core_atom_at_origin_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="xi"):
            parse_instance(fixture("invalid.json"))

    def test_malformed_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_instance(fixture("malformed.json"))

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ParseError):
            parse_instance(str(path))

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ParseError):
            parse_instance(str(path))

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter reads integer literals of any length",
    )
    def test_overlong_integer_is_a_parse_error(self, tmp_path):
        # json.loads refuses an integer literal longer than the interpreter's
        # limit with a ValueError that is not a JSONDecodeError
        path = tmp_path / "long.json"
        path.write_text('{"kind": "tc", "a": ' + "9" * (sys.get_int_max_str_digits() + 1) + "}")
        code, out, err = run_capture(["check", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith(f"parse error: {path} is not valid JSON: Exceeds the limit")

    @pytest.mark.parametrize(
        "atoms",
        [[[1.0, 0.5, 0.5]], [[1.0, True]], [[10**400, 0.5], [True, 0.5]]],
        ids=["triple", "bool-mass", "bool-after-an-integer-too-large-for-a-float"],
    )
    def test_malformed_atoms_are_a_parse_error(self, tmp_path, atoms):
        # the shape of the whole list is checked before any value converts
        path = write_f1_variant(tmp_path, {"xi": {"atoms": atoms}})
        code, out, err = run_capture(["check", path])
        assert (code, out) == (3, "")
        assert err == "parse error: xi.atoms entries must be [location, mass] number pairs\n"

    def test_missing_key_is_a_parse_error(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"kind": "tc", "a": 1.0}))
        with pytest.raises(ParseError):
            parse_instance(str(path))


class TestExitCodes:
    def test_subnormal(self):
        code, out, _ = run_capture(["check", fixture("f1.json")])
        assert code == 0
        assert "verdict: subnormal" in out

    def test_not_subnormal(self):
        code, out, _ = run_capture(["check", fixture("n1.json")])
        assert code == 1
        assert "verdict: not-subnormal" in out

    def test_parse_error(self):
        code, out, err = run_capture(["check", fixture("malformed.json")])
        assert code == 3
        assert out == ""
        assert "parse error" in err

    def test_invalid_instance(self):
        code, _, err = run_capture(["check", fixture("invalid.json")])
        assert code == 2
        assert "invalid instance" in err

    @pytest.mark.parametrize(
        "command, fixture_name, changes, message",
        [
            # f1 scaled by 4**44 and by 4**-44, past the scales verify reaches
            (
                "verify",
                "f1.json",
                F1_BEYOND[44],
                "moment (12, 0) of the source is not finite, got inf",
            ),
            (
                "verify",
                "f1.json",
                F1_BEYOND[-44],
                "moments must be positive, got 0.0 at order 9 of row 4",
            ),
            # ||1/t|| over psi overflows to -inf, a diagnostic no report may hold;
            # flat refuses the tc file before any arithmetic
            *(
                (command, "f1.json", NON_FINITE, NON_FINITE_RECIP_T_PSI)
                for command in ("check", "reconstruct", "verify")
            ),
            (
                "flat",
                "f1.json",
                NON_FINITE,
                "the flat command requires a kind='flat' instance file",
            ),
            # a**2 overflows
            (
                "check",
                "f1.json",
                {"a": 1e200},
                "the square of the joining weight a overflows, got 1e+200",
            ),
            # a row moment (about 1e-9 ** 37) underflows to 0
            (
                "verify",
                "f1.json",
                single_atom(1e-9, 3e-5),
                "moments must be positive, got 0.0 at order 25 of row 11",
            ),
            # the rows pass, and a column moment (about 1e-12 ** 25) underflows to 0
            (
                "verify",
                "f1.json",
                COLUMN_UNDERFLOW,
                "moments must be positive, got 0.0 at order 25 of column 9",
            ),
            # a Hankel entry (about 1e9 ** 37) overflows to inf
            (
                "verify",
                "f1.json",
                single_atom(1e9, 3e4),
                "an oracle matrix has a non-finite entry",
            ),
            # a^2 y0^2 (about 1e306 * 5e307) overflows, though a^2 y0^2 r_s r_t
            # is about 5e305; the flat criterion forms it as y0^2 a^2 / b^2.
            # check decides from psi alone, but these commands print phi
            *(
                (command, "f1_flat.json", PHI_OVERFLOW, PHI_COEFFICIENT)
                for command in ("reconstruct", "flat")
            ),
            # an integer literal too large for a float is refused by name
            ("check", "f1.json", {"a": 10**400}, f"a {TOO_LARGE}"),
            (
                "check",
                "f1.json",
                {"xi": {"atoms": [[10**400, 1.0]]}},
                f"xi: atom location {TOO_LARGE}",
            ),
            (
                "check",
                "f1.json",
                {"xi": {"atoms": [[1.0, 10**400]]}},
                f"xi: atom mass {TOO_LARGE}",
            ),
            *(
                ("verify", "f1.json", {"options": {name: 10**400}}, f"option {name} {TOO_LARGE}")
                for name in ("tol", "order")
            ),
            # the first bad value in file order is named, not the first
            # that a pass converting the whole list trips on
            (
                "check",
                "f1.json",
                {"xi": {"atoms": [[math.inf, 0.5], [10**400, 0.5]]}},
                "xi: atom location must be finite, got inf",
            ),
        ],
        ids=[
            "f1-scaled-by-4**44",
            "f1-scaled-by-4**-44",
            "non-finite-check",
            "non-finite-reconstruct",
            "non-finite-verify",
            "non-finite-flat",
            "a-square-overflow",
            "row-moment-underflow",
            "column-moment-underflow",
            "hankel-overflow",
            "phi-coefficient-overflow-reconstruct",
            "phi-coefficient-overflow-flat",
            "a-too-large-for-a-float",
            "xi-atom-location-too-large-for-a-float",
            "xi-atom-mass-too-large-for-a-float",
            "tol-too-large-for-a-float",
            "order-too-large-for-a-float",
            "xi-inf-before-an-integer-too-large-for-a-float",
        ],
    )
    def test_failures_after_parsing_are_invalid_instances(
        self, tmp_path, command, fixture_name, changes, message
    ):
        path = write_f1_variant(tmp_path, changes, fixture_name)
        code, out, err = run_capture([command, path])
        assert code == 2
        assert out == ""
        assert err.startswith("invalid instance: ")
        if message is not None:
            assert err.splitlines()[0] == f"invalid instance: {message}"

    @pytest.mark.parametrize("command", ["check", "reconstruct", "verify"])
    def test_a_psi_whose_total_variation_overflows_is_refused(self, tmp_path, command):
        # the bound -tol * inf would accept psi's negative atoms, and phi
        # would give the witness
        path = write_f1_variant(tmp_path, PSI_VARIATION_OVERFLOW)
        code, out, err = run_capture([command, path])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"invalid instance: {PSI_VARIATION_MESSAGE}"

    def test_check_decides_from_psi_alone(self, tmp_path):
        # phi's coefficient overflows, but psi's atom at b^2 = 1e308 is
        # negative, and check prints no phi
        path = write_f1_variant(tmp_path, PHI_OVERFLOW, "f1_flat.json")
        code, out, _ = run_capture(["check", path])
        assert code == 1
        assert "witness: psi @ 1e+308 mass -1e+306 (psi has a negative atom)" in out
        code, out, _ = run_capture(["check", path, "--json"])
        report = json.loads(out, parse_constant=refuse_constant)
        assert code == 1
        assert report["witness"] == {
            "location": 1e308,
            "mass": -1e306,
            "measure": "psi",
            "reason": "psi has a negative atom",
        }
        assert all(map(math.isfinite, report["diagnostics"].values()))

    @pytest.mark.parametrize(
        "changes, expected",
        [(HUGE_ATOMS, 0), (F1_SCALED_UP, 0), (tiny_row(1e-11), 1), (tiny_row(1e-10), 1)],
        ids=["overflow", "f1-scaled-overflow", "weight-moment-underflow", "last-moment-underflow"],
    )
    def test_verify_reaches_the_verdict_of_check(self, tmp_path, changes, expected):
        # the raw moments of these files overflow or underflow; the moments
        # relative to each measure's largest location do neither
        path = write_f1_variant(tmp_path, changes)
        assert run_capture(["check", path])[0] == expected
        code, out, _ = run_capture(["verify", path, "--json"])
        assert code == expected
        assert "contradiction" not in oracle_statuses(out)

    @pytest.mark.parametrize(
        "name", ["eta_y", "xi_x"], ids=["atom-near-zero", "xi-x-atom-near-zero"]
    )
    def test_an_atom_near_zero_is_not_at_the_origin(self, tmp_path, name):
        # only 0.0 is at the origin: the atom at 1e-13 keeps its own mass,
        # and the verdict is that of the same file scaled exactly by 4**25
        changes = {name: {"atoms": [[1e-13, 0.5], [1.0, 0.5]]}}
        code, out, _ = run_capture(["check", write_f1_variant(tmp_path, changes)])
        assert code == 1
        assert "witness: phi @ 0 mass -0.25 (phi has a negative atom)" in out

    @pytest.mark.parametrize("location", [1e-11, 1e-10])
    def test_moment_underflow_leaves_check_a_verdict(self, tmp_path, location):
        # check builds no weights, so it decides the files verify refuses
        code, out, _ = run_capture(["check", write_f1_variant(tmp_path, tiny_row(location))])
        assert code == 1
        assert "verdict: not-subnormal" in out

    @pytest.mark.parametrize("changes", [HUGE_ATOMS, F1_SCALED_UP], ids=["huge-atoms", "f1-scaled"])
    def test_moment_overflow_leaves_check_a_verdict(self, tmp_path, changes):
        code, out, _ = run_capture(["check", write_f1_variant(tmp_path, changes)])
        assert code == 0
        assert "verdict: subnormal" in out

    @pytest.mark.parametrize("command", ["check", "reconstruct", "flat", "verify", "sweep"])
    @pytest.mark.parametrize(
        "b, message",
        [
            (1e200, "the square of b overflows, got 1e+200"),
            (1e-200, "the square of b underflows to 0, got 1e-200"),
        ],
        ids=["b-square-overflow", "b-square-underflow"],
    )
    def test_a_flat_b_whose_square_overflows_or_underflows_is_refused(
        self, tmp_path, command, b, message
    ):
        path = write_f1_variant(tmp_path, {"b": b, "a": b / 10}, "f1_flat.json")
        sweep = ["--param", "a", "--range", "0.5:1:0.5"] if command == "sweep" else []
        code, out, err = run_capture([command, path, *sweep])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"invalid instance: {message}"


class TestOptions:
    @pytest.mark.parametrize(
        "options, expected_code",
        [
            ({"tol": "abc"}, 3),
            ({"order": [1]}, 3),
            ({"tol": True}, 3),
            ({"window": 0}, 2),
            ({"tol": math.nan}, 2),
        ],
        ids=["tol-string", "order-list", "tol-bool", "window-zero", "tol-nan"],
    )
    def test_bad_file_options(self, tmp_path, options, expected_code):
        path = write_f1_variant(tmp_path, {"options": options})
        code, out, err = run_capture(["verify", path])
        assert code == expected_code
        assert out == ""
        assert f"option {next(iter(options))} must be" in err

    # "self" and "values" are also the names of Options.__init__'s parameters
    @pytest.mark.parametrize("name", ["tolerance", "self", "values"])
    def test_unknown_file_options_are_a_parse_error(self, tmp_path, name):
        path = write_f1_variant(tmp_path, {"options": {name: 1, "order": 4}})
        code, out, err = run_capture(["verify", path])
        assert (code, out) == (3, "")
        assert err == f"parse error: unknown options: {[name]!r}\n"

    def test_an_integer_flag_too_large_for_a_float_is_named(self):
        code, out, err = run_capture(["verify", fixture("f1.json"), "--window", str(10**400)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"invalid instance: option window {TOO_LARGE}"

    @pytest.mark.parametrize(
        "command, flag",
        [("verify", ["--window", "0"]), ("check", ["--tol", "-1"])],
        ids=["window-zero", "tol-negative"],
    )
    def test_out_of_range_flags(self, command, flag):
        code, out, err = run_capture([command, fixture("f1.json"), *flag])
        assert code == 2
        assert out == ""
        assert f"option {flag[0][2:]} must be finite and at least" in err

    @pytest.mark.parametrize(
        "flags, expected_code",
        [
            (["--order", "33", "--window", "15"], 0),
            (["--order", "34"], 2),
            (["--window", "16"], 2),
        ],
        ids=["at-the-depth-limit", "order-beyond", "window-beyond"],
    )
    def test_verify_depth_limits(self, flags, expected_code):
        code, _, err = run_capture(["verify", fixture("f1.json"), *flags])
        assert code == expected_code
        if expected_code == 2:
            assert "beyond the depth limit 32" in err

    def test_oversized_order_on_a_negative_verdict_is_refused_early(self):
        # n1 has no Berger measure, so the moment matrix is the first
        # oracle to reach past the table; it must not build its basis first.
        assert_refused_beyond_the_depth_in_a_child("n1.json")

    def test_oversized_order_on_a_subnormal_verdict_is_refused_early(self):
        # f1 has a Berger measure, so the moment interpolation is the first
        # oracle to reach past the table; it must read the instance's
        # moments before it builds the table of the measure's.
        assert_refused_beyond_the_depth_in_a_child("f1.json")

    @pytest.mark.parametrize(
        "flags, checks", [([], 1), (["--tol", "1e-10"], 2)], ids=["no-flag", "tol-flag"]
    )
    def test_options_are_checked_once_unless_a_flag_is_set(self, monkeypatch, flags, checks):
        init = cli.Options.__init__
        calls = []

        def counting(self, /, **values):
            calls.append(values)
            init(self, **values)

        monkeypatch.setattr(cli.Options, "__init__", counting)
        assert run_capture(["check", fixture("f1.json"), *flags])[0] == 0
        assert len(calls) == checks

    def test_integer_options_are_accepted(self, tmp_path):
        path = write_f1_variant(tmp_path, {"options": {"tol": 0, "order": 4, "window": 1}})
        code, out, _ = run_capture(["verify", path, "--json"])
        assert code == 0
        assert json.loads(out)["oracles"]["moment_interpolation"]["order"] == 4


class TestReports:
    def test_reconstruct_json_payload(self):
        code, out, _ = run_capture(["reconstruct", fixture("n1.json"), "--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "not-subnormal"
        witness = payload["witness"]
        assert witness["measure"] == "phi"
        assert witness["location"] == 0.0
        assert witness["mass"] == pytest.approx(-0.15, abs=1e-12)
        assert payload["mu"] is None

    def test_reconstruct_reports_the_four_corner_measure(self):
        code, out, _ = run_capture(["reconstruct", fixture("f1.json"), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["mu"]) == 4
        for _, _, mass in payload["mu"]:
            assert mass == pytest.approx(0.25, abs=1e-12)

    def test_byte_identical_reports(self):
        for argv in (
            ["reconstruct", fixture("f1.json"), "--json"],
            ["verify", fixture("f1.json")],
            ["verify", fixture("n1.json"), "--json"],
        ):
            _, first, _ = run_capture(list(argv))
            _, second, _ = run_capture(list(argv))
            assert first == second

    def test_timing_goes_to_stderr_only(self):
        _, out, err = run_capture(["check", fixture("f1.json")])
        assert "elapsed" not in out
        assert "elapsed" in err

    def test_verify_reports_oracles(self):
        code, out, _ = run_capture(["verify", fixture("f1.json"), "--json"])
        assert code == 0
        payload = json.loads(out)
        oracles = payload["oracles"]
        assert oracles["moment_interpolation"]["passed"]
        assert oracles["moment_matrix"]["status"] == "consistent"
        assert all(entry["passed"] for entry in oracles["hankel_rows"])
        assert all(entry["passed"] for entry in oracles["hankel_columns"])
        assert oracles["joint_hyponormality"]["passed"]

    def test_verify_on_a_negative_instance_labels_oracles(self):
        code, out, _ = run_capture(["verify", fixture("n1.json"), "--json"])
        assert code == 1
        payload = json.loads(out)
        assert "moment_interpolation" not in payload["oracles"]
        for entry in payload["oracles"]["hankel_rows"]:
            assert entry["status"] in ("consistent", "inconclusive")


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def berger_rows(draw) -> BergerMeasure:
    """Rows of finite floats: rows of one atom, as phi's are, rows that
    share one tuple of t, as mu's core rows do, and rows that hold their
    own."""
    locations = st.sampled_from(draw(st.lists(finite, min_size=1, max_size=6)))
    shared = tuple(draw(st.lists(locations, min_size=1, max_size=6)))
    kinds = st.sampled_from(("one", "own", "shared"))
    rows = []
    for s, kind in draw(st.lists(st.tuples(locations, kinds), max_size=8)):
        ts = shared
        if kind != "shared":
            ts = tuple(draw(st.lists(locations, min_size=1, max_size=1 if kind == "one" else 6)))
        rows.append((s, ts, draw(st.lists(finite, min_size=len(ts), max_size=len(ts)))))
    return BergerMeasure(rows)


def report_outcome(argv) -> tuple:
    """Exit code, stdout and stderr less its timing line."""
    code, out, err = run_capture(argv)
    return code, out, [line for line in err.splitlines() if not line.startswith("elapsed:")]


class TestShallowTables:
    """verify makes the instance's tables only as deep as its oracles read,
    and reports what a full-depth instance reports, byte for byte: as a
    read past the stated depth is refused, the reports agree only if no
    oracle reads deeper."""

    @pytest.mark.parametrize("exponent", [0, 20, -20], ids=["unscaled", "4**20", "4**-20"])
    @pytest.mark.parametrize("name", ["f1", "n1", "tc10_subnormal", "tc10_phi_witness"])
    def test_reports_are_those_of_full_tables(self, tmp_path, monkeypatch, name, exponent):
        data = scaled_tc(json.loads((FIXTURES / f"{name}.json").read_text()), 4.0**exponent)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        codes = set()
        for order in (0, 1, 2, 3, 11, 12, 13, 24, 33, 34):
            for window in (1, 4, 5, 15, 16):
                argv = ["verify", str(path), "--order", str(order), "--window", str(window)]
                shallow = report_outcome([*argv, "--json"])
                with monkeypatch.context() as full_depth:
                    full_depth.setattr(TCInstance, "with_depth", lambda self, depth: self)
                    assert report_outcome([*argv, "--json"]) == shallow, (order, window)
                codes.add(shallow[0])
        assert codes <= {0, 1, 2}


SHARED_TS = (1.0, 2.0)


class TestMuText:
    """mu's rows are written as ``json.dumps`` writes their joined atoms."""

    @pytest.mark.parametrize(
        "mu, atoms",
        [
            (BergerMeasure([]), []),
            # a row of one atom at s = -0.0, one at 0.0, and one at the s of
            # the core row after it
            (
                BergerMeasure(
                    [
                        (-0.0, (0.0,), (0.5,)),
                        (0.0, (1.0,), (0.25,)),
                        (1.0, (0.0,), (0.0625,)),
                        (1.0, (1.0, 2.0), [0.0625, 0.125]),
                    ]
                ),
                [
                    [-0.0, 0.0, 0.5],
                    [0.0, 1.0, 0.25],
                    [1.0, 0.0, 0.0625],
                    [1.0, 1.0, 0.0625],
                    [1.0, 2.0, 0.125],
                ],
            ),
            # a row of phi between two core rows that share their t
            (
                BergerMeasure(
                    [
                        (0.0, (-0.0,), (0.5,)),
                        (1.0, SHARED_TS, [0.0625, 0.0625]),
                        (1.5, (0.0,), (0.25,)),
                        (2.0, SHARED_TS, [0.0625, 0.0625]),
                    ]
                ),
                [
                    [0.0, -0.0, 0.5],
                    [1.0, 1.0, 0.0625],
                    [1.0, 2.0, 0.0625],
                    [1.5, 0.0, 0.25],
                    [2.0, 1.0, 0.0625],
                    [2.0, 2.0, 0.0625],
                ],
            ),
            *(
                (
                    BergerMeasure([(0.0, (0.0,), (v,)), (0.0, (v,), (v,)), (v, (v, 1.0), [-v, 0.5])]),
                    [[0.0, 0.0, v], [0.0, v, v], [v, v, -v], [v, 1.0, 0.5]],
                )
                for v in (5e-324, 2.2250738585072014e-308, 1e16, 1e22, 1.7976931348623157e308)
            ),
        ],
    )
    def test_examples(self, mu, atoms):
        # json.dumps tells -0.0 from 0.0
        assert json.dumps(mu.joined().atoms) == json.dumps(atoms)
        assert "".join(_mu_pieces(mu)) == json.dumps(atoms)

    @given(mu=berger_rows())
    def test_pieces(self, mu):
        assert "".join(_mu_pieces(mu)) == json.dumps(mu.joined().atoms)


class TestFlatCommand:
    def test_flat_and_check_agree(self):
        flat_code, flat_out, _ = run_capture(["flat", fixture("f1_flat.json"), "--json"])
        check_code, _, _ = run_capture(["check", fixture("f1_flat.json")])
        assert flat_code == check_code == 0
        payload = json.loads(flat_out)
        assert payload["verdict"] == "subnormal"

    def test_flat_and_check_agree_on_the_negative_fixture(self):
        flat_code, flat_out, _ = run_capture(["flat", fixture("n1_flat.json"), "--json"])
        check_code, _, _ = run_capture(["check", fixture("n1_flat.json")])
        assert flat_code == check_code == 1
        payload = json.loads(flat_out)
        assert payload["witness"]["measure"] == "phi"

    @pytest.mark.parametrize("name", ["rho", "sigma"])
    def test_flat_and_check_agree_on_a_remainder_atom_near_zero(self, tmp_path, name):
        # an atom at 1e-13 is not at 0, so the remainder does not charge 0
        data = json.loads((FIXTURES / "flat_remainders_1.json").read_text())
        data[name]["atoms"][0][0] = 1e-13
        path = tmp_path / "near_zero.json"
        path.write_text(json.dumps(data))
        flat_code, flat_out, _ = run_capture(["flat", str(path), "--json"])
        check_code, check_out, _ = run_capture(["check", str(path), "--json"])
        assert flat_code == check_code == 0
        assert json.loads(flat_out)["verdict"] == json.loads(check_out)["verdict"] == "subnormal"

    def test_flat_requires_a_flat_file(self):
        code, _, err = run_capture(["flat", fixture("f1.json")])
        assert code == 2
        assert "flat" in err

    def test_flat_prints_the_reconstruct_report(self, tmp_path):
        # flat decides by the scalar criterion, but reports the general
        # psi, phi and split-form mu that reconstruct reports
        path = tmp_path / "flat.json"
        broken = []
        for label, data in flat_files(100):
            path.write_text(json.dumps(data))
            for mode in ([], ["--json"]):
                code, out, _ = run_capture(["reconstruct", str(path), *mode])
                assert code in (0, 1), label
                # the first "reconstruct" of either report is the command's
                expected = (code, out.replace("reconstruct", "flat", 1))
                if run_capture(["flat", str(path), *mode])[:2] != expected:
                    broken.append((label, mode))
        assert broken == []

    @pytest.mark.parametrize(
        "name, flipped_says, general_says",
        [("f1_flat", "not-subnormal", "subnormal"), ("n1_flat", "subnormal", "not-subnormal")],
    )
    def test_verdicts_that_disagree_are_refused(
        self, monkeypatch, name, flipped_says, general_says
    ):
        scalar = reconstruct.flat_verdict

        def flipped(*args, **kwargs):
            verdict = scalar(*args, **kwargs)
            return verdict._replace(subnormal=not verdict.subnormal)

        patch_everywhere(monkeypatch, scalar, flipped)
        code, out, err = run_capture(["flat", fixture(f"{name}.json")])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (
            f"invalid instance: the scalar criterion says {flipped_says}"
            f" but the general criterion says {general_says}"
        )
        assert "Traceback" not in err


class TestSweep:
    def test_sweep_over_the_joining_weight(self):
        code, out, _ = run_capture(
            ["sweep", fixture("f1.json"), "--param", "a", "--range", "0.1:1.2:0.05"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 23
        verdicts = ["not-subnormal" not in line for line in lines]
        # one verdict flip, from subnormal to not subnormal, near a = 1
        assert verdicts[0] is True
        assert verdicts[-1] is False
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1

    def test_sweep_json_lines(self):
        code, out, _ = run_capture(
            [
                "sweep",
                fixture("f1_flat.json"),
                "--param",
                "m",
                "--range",
                "0.1:0.5:0.2",
                "--json",
            ]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            payload = json.loads(line)
            assert payload["param"] == "m"
            assert "verdict" in payload or "error" in payload

    def test_sweep_reports_invalid_points(self):
        # sweeping a beyond b makes the flat instance invalid point-wise
        code, out, _ = run_capture(
            [
                "sweep",
                fixture("f1_flat.json"),
                "--param",
                "a",
                "--range",
                "0.9:1.1:0.1",
            ]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "invalid" in lines[-1]

    def test_sweep_refuses_a_step_below_the_float_spacing(self):
        # lo + index * step == lo for every index: the grid never ends
        code, out, err = run_capture(
            ["sweep", fixture("f1.json"), "--param", "a", "--range", "1e150:1e150:1"]
        )
        assert code == 3
        assert out == ""
        assert "below the float spacing" in err

    @pytest.mark.parametrize("grid", ["0.5:1:inf", "nan:1:0.1", "0:inf:1"])
    def test_sweep_refuses_a_non_finite_range(self, grid):
        # an infinite step makes every grid point after the first inf,
        # and inf never passes the upper bound: the sweep would not end
        argv = ["sweep", fixture("f1.json"), "--param", "a", "--range", grid]
        proc = subprocess.run(
            [sys.executable, "-m", "tcshift", *argv],
            capture_output=True,
            env=child_env(),
            timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert "range must be finite" in proc.stderr.decode()

    def test_a_grid_that_reaches_the_largest_float_ends(self):
        # the points after 1e308 and the bound hi + 1e-9 * step are all inf
        grid = "0:1.7976931348623157e308:1e308"
        argv = ["sweep", fixture("f1.json"), "--param", "a", "--range", grid]
        proc = subprocess.run(
            [sys.executable, "-m", "tcshift", *argv],
            capture_output=True,
            env=child_env(),
            timeout=30,
        )
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("a=1e+308 invalid")

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_overflowing_points_are_invalid_and_the_sweep_goes_on(self, mode):
        # a**2 overflows from a = 2e199 on
        grid = "1e150:1e200:2e199"
        code, out, _ = run_capture(
            ["sweep", fixture("f1.json"), "--param", "a", "--range", grid, *mode]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert "invalid" not in lines[0] and "error" not in lines[0]
        message = "the square of the joining weight a overflows, got "
        for line in lines[1:]:
            if mode:
                payload = json.loads(line)
                assert payload["error"] == message + repr(payload["value"])
            else:
                assert line.split(" invalid: ")[1].startswith(message)

    def test_a_point_whose_psi_variation_overflows_is_invalid(self, tmp_path):
        path = write_f1_variant(tmp_path, PSI_VARIATION_OVERFLOW)
        a = PSI_VARIATION_OVERFLOW["a"]
        grid = f"1e154:{a!r}:{a - 1e154!r}"
        code, out, _ = run_capture(["sweep", path, "--param", "a", "--range", grid, "--json"])
        assert code == 0
        first, last = map(json.loads, out.splitlines())
        assert first["verdict"] == "not-subnormal" and first["witness"]["measure"] == "psi"
        assert last == {"error": PSI_VARIATION_MESSAGE, "param": "a", "value": a}

    def test_points_that_psi_decides_are_not_refused_for_phi(self, tmp_path):
        # phi's coefficient overflows at every point, but psi's atom at
        # b^2 = 1e308 is negative first, so each point is decided with a
        # psi witness where building phi would make it invalid
        path = write_f1_variant(tmp_path, PHI_OVERFLOW, "f1_flat.json")
        argv = ["sweep", path, "--param", "a", "--range", "1e152:1e153:3e152"]
        code, out, _ = run_capture(argv)
        assert code == 0
        assert out.splitlines() == [
            "a=1e+152 not-subnormal witness=psi@1e+308 mass=-1e+304",
            "a=4e+152 not-subnormal witness=psi@1e+308 mass=-1.6e+305",
            "a=7e+152 not-subnormal witness=psi@1e+308 mass=-4.9e+305",
            "a=1e+153 not-subnormal witness=psi@1e+308 mass=-1e+306",
        ]
        code, out, _ = run_capture([*argv, "--json"])
        assert code == 0
        points = [json.loads(line, parse_constant=refuse_constant) for line in out.splitlines()]
        assert [point["value"] for point in points] == [1e152, 4e152, 7e152, 1e153]
        for point in points:
            assert "error" not in point
            assert point["verdict"] == "not-subnormal"
            assert point["witness"]["measure"] == "psi"
            assert point["witness"]["location"] == 1e308

    def test_closed_pipe_ends_the_sweep_quietly(self):
        # The second grid has 1e12 points, more than fit in the 1 GiB of
        # address space the child gets: its points must be made as printed.
        for grid in ("0.1:100000:1", "0.1:1e12:1"):
            argv = ["sweep", fixture("f1.json"), "--param", "a", "--range", grid]
            with subprocess.Popen(
                [sys.executable, "-m", "tcshift", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=child_env(),
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
            ) as proc:
                assert proc.stdout.readline().startswith(b"a=0.1 ")
                proc.stdout.close()
                err = proc.stderr.read().decode()
                proc.wait(timeout=60)
            assert "Traceback" not in err, grid

    def test_sweep_rejects_unknown_parameters(self):
        code, _, err = run_capture(
            ["sweep", fixture("f1.json"), "--param", "b", "--range", "0.5:1:0.25"]
        )
        assert code == 2
        assert "'a'" in err

    def test_a_flat_sweep_rejects_a_measure_as_its_parameter(self):
        code, out, err = run_capture(
            ["sweep", fixture("f1_flat.json"), "--param", "xi", "--range", "0.5:1:0.25"]
        )
        assert (code, out) == (2, "")
        assert err == "invalid instance: flat instances sweep over one of p, q, l, m, b, a\n"

    def test_a_non_numeric_range_is_a_parse_error(self):
        code, out, err = run_capture(
            ["sweep", fixture("f1.json"), "--param", "a", "--range", "a:b:c"]
        )
        assert (code, out) == (3, "")
        assert err == "parse error: range must be numeric lo:hi:step, got 'a:b:c'\n"


class TestModuleEntryPoint:
    """``python -m tcshift`` runs ``cli.main`` in a child interpreter."""

    def test_check_exits_with_the_verdict(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tcshift", "check", fixture("f1.json")],
            capture_output=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.decode() == run_capture(["check", fixture("f1.json")])[1]
        assert proc.stderr.decode().startswith("elapsed: ")

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_a_closed_pipe_ends_the_process_by_sigpipe(self):
        # 1e12 grid points: the reader stops after one line
        argv = ["sweep", fixture("f1.json"), "--param", "a", "--range", "0.1:1e9:0.001"]
        with subprocess.Popen(
            [sys.executable, "-m", "tcshift", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        ) as proc:
            assert proc.stdout.readline() == b"a=0.1 subnormal\n"
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGPIPE
        assert err == b""


class TestParser:
    def test_a_parse_error_leaves_the_parser_usable(self, monkeypatch):
        with pytest.raises(SystemExit):
            run_capture(["check", fixture("f1.json"), "--order", "many"])
        golden = json.loads((FIXTURES.parent / "golden" / "f1.json").read_text())
        expected = golden["reconstruct --json"]
        monkeypatch.chdir(FIXTURES)
        code, out, _ = run_capture(["reconstruct", "f1.json", "--json"])
        assert (code, out) == (expected["code"], expected["stdout"])


# Run in a child with numpy blocked: the outcome of each (fixture, case),
# as test_golden records it, as one JSON list on stdout.
_WITHOUT_NUMPY = """
import json, sys
from pathlib import Path
sys.modules["numpy"] = None
from test_golden import outcome
cases = json.loads(sys.argv[1])
print(json.dumps([outcome(Path(name), case) for name, case in cases]))
"""


# Runs (fixture, case) pairs with dataclasses blocked and prints, per case,
# the exit code, stdout and whether inspect is loaded by then.  It imports
# neither pytest nor test_golden, which load dataclasses themselves.
_WITHOUT_DATACLASSES = """
import io, json, sys
sys.modules["dataclasses"] = None
from tcshift.cli import run
results = []
for name, case in json.loads(sys.argv[1]):
    command, *rest = case.split()
    out = io.StringIO()
    code = run([command, name, *rest], out=out, err=io.StringIO())
    results.append([code, out.getvalue(), "inspect" in sys.modules])
print(json.dumps(results))
"""


class TestColdStart:
    """Only verify takes eigenvalues, so only verify loads numpy; no command
    loads dataclasses, and none but verify, through numpy, loads inspect."""

    @pytest.mark.parametrize("module", ["tcshift", "tcshift.cli"])
    def test_import_leaves_numpy_unloaded(self, module):
        code = f"import sys, {module}; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=child_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, b"False\n"), proc.stderr

    @pytest.mark.parametrize("module", ["tcshift", "tcshift.cli"])
    def test_import_leaves_dataclasses_and_inspect_unloaded(self, module):
        code = f"import sys, {module}; print({{'dataclasses', 'inspect'}} & set(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=child_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, b"set()\n"), proc.stderr

    def test_commands_run_with_dataclasses_blocked(self):
        sweep = "sweep --param a --range 0.1:1.5:0.1"
        cases = (
            [
                (f"{name}.json", case)
                for name in ("f1", "n1")
                for case in ("check", "reconstruct --json", sweep)
            ]
            + [(f"{name}_flat.json", "flat") for name in ("f1", "n1")]
            # last: numpy loads inspect
            + [(f"{name}.json", "verify --json") for name in ("f1", "n1")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_DATACLASSES, json.dumps(cases)],
            capture_output=True,
            cwd=FIXTURES,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        for (name, case), (code, out, inspect_loaded) in zip(
            cases, json.loads(proc.stdout), strict=True
        ):
            golden = json.loads((FIXTURES.parent / "golden" / name).read_text())[case]
            assert (code, out) == (golden["code"], golden["stdout"]), (name, case)
            assert inspect_loaded == case.startswith("verify"), (name, case)

    def test_bare_import_loads_no_submodule(self):
        # the package exports nothing: each name is imported from its module
        code = (
            "import sys, tcshift; "
            "print([m for m in sys.modules if m.startswith('tcshift.') or m == 'numpy'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=child_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, b"[]\n"), (proc.stdout, proc.stderr)

    def test_commands_without_oracles_run_with_numpy_blocked(self):
        sweep = "sweep --param a --range 0.1:1.5:0.1"
        cases = [
            (f"{name}.json", case)
            for name in ("f1", "n1")
            for case in ("check", "reconstruct --json", sweep)
        ] + [(f"{name}_flat.json", "flat") for name in ("f1", "n1")]
        env = child_env()
        env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(cases)],
            capture_output=True,
            cwd=FIXTURES,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        for (name, case), result in zip(cases, json.loads(proc.stdout), strict=True):
            golden = json.loads((FIXTURES.parent / "golden" / name).read_text())
            assert result == golden[case], (name, case)


class TestBergerAssembly:
    """The joint measure is assembled only by commands that print it, once,
    and only for a subnormal verdict."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        original = reconstruct.berger_measure

        def counting(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counting)
        return made

    @pytest.mark.parametrize(
        "command, expected",
        [("check", 0), ("sweep", 0), ("reconstruct", 1), ("flat", 1), ("verify", 1)],
    )
    @pytest.mark.parametrize("subnormal", [True, False], ids=["subnormal", "negative"])
    def test_calls(self, calls, command, expected, subnormal):
        name = ("f1" if subnormal else "n1") + ("_flat" if command == "flat" else "")
        argv = [command, fixture(f"{name}.json")]
        if command == "sweep":
            argv += ["--param", "a", "--range", "0.1:1.2:0.05"]
        code, out, _ = run_capture(argv)
        if command == "sweep":
            # a sweep exits 0; on f1 its first point is subnormal
            assert code == 0 and ("a=0.1 subnormal" in out) == subnormal
        else:
            assert code == (0 if subnormal else 1)
        assert len(calls) == (expected if subnormal else 0)


class TestNoPlanarMerge:
    """No command merges a planar measure: the package has no planar
    merge, and the joint measure is laid out once per subnormal file from
    three pieces made without one."""

    @pytest.mark.parametrize("command", ["check", "reconstruct", "flat", "verify"])
    def test_calls(self, monkeypatch, command):
        assert [name for name in vars(measures) if "2d" in name.lower()] == []
        assemblies = []
        original = reconstruct.berger_measure

        def counting_berger(*args, **kwargs):
            assemblies.append(args[0])
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counting_berger)
        codes = [run_capture([command, str(path)])[0] for path in sorted(FIXTURES.glob("*.json"))]
        # one assembly per subnormal file
        assert len(assemblies) == (0 if command == "check" else codes.count(0))
        assert codes.count(0) >= 2

    @pytest.mark.parametrize("form", ["--json", "--text"])
    @pytest.mark.parametrize("command", ["check", "reconstruct", "flat", "verify"])
    def test_rows_are_laid_out_once(self, monkeypatch, command, form):
        """The writer, the text report and the interpolation oracle read the
        rows that ``berger_measure`` laid out; none lays them out again."""
        layouts = []
        original = reconstruct._laid_out

        def counting_layout(*args):
            layouts.append(len(args[2]))
            return original(*args)

        monkeypatch.setattr(reconstruct, "_laid_out", counting_layout)
        codes = [
            run_capture([command, str(path), form])[0] for path in sorted(FIXTURES.glob("*.json"))
        ]
        assert len(layouts) == (0 if command == "check" else codes.count(0))
        assert codes.count(0) >= 2


class TestOneVariableMerges:
    """A command merges one-variable atoms only where they may share a
    location: the measures of the file, then psi's and phi's terms.  The
    measures made at the locations of a merged one (the restriction of
    eta_y, xi~, eta~, psi~ and the positive parts of psi and phi) are
    built without a merge pass."""

    @pytest.fixture
    def callers(self, monkeypatch):
        """The function that made each call of the 1-D merge, in order."""
        calls = []
        merge = measures._merge_floats_1d

        def counting_merge(prepared):
            calls.append(sys._getframe(1).f_code.co_name)
            return merge(prepared)

        monkeypatch.setattr(measures, "_merge_floats_1d", counting_merge)
        return calls

    @pytest.mark.parametrize("command", ["check", "reconstruct", "verify"])
    @pytest.mark.parametrize(
        "name",
        [
            "f1",
            "n1",
            "tc10_phi_witness",
            "tc10_psi_witness",
            "tc10_subnormal",
            "tc30_subnormal_wide",
        ],
    )
    def test_tc_file(self, callers, command, name):
        code, _, _ = run_capture([command, fixture(f"{name}.json")])
        assert code in (0, 1)
        # the four parsed measures, then psi and phi; check prints no phi,
        # so it builds none when psi decides
        decided_by_psi = command == "check" and name == "tc10_psi_witness"
        assert callers == ["_merge_1d"] * 4 + ["combine"] * (1 if decided_by_psi else 2)

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("f1_flat", 11),
            ("n1_flat", 11),
            # rho and sigma are parsed too
            ("flat_remainders_1", 13),
            ("flat_remainders_2", 13),
        ],
    )
    def test_flat_file(self, callers, name, expected):
        # xi_x, eta_y and flat_verdict's tail, then the diracs at 1 and b^2
        # and psi and phi, once for flat_verdict and once for the embedding
        code, _, _ = run_capture(["flat", fixture(f"{name}.json")])
        assert code in (0, 1)
        assert len(callers) == expected


class TestSweepSharesTheAFreeParts:
    """A tc sweep checks the measures and computes the values that do not
    depend on a once per file, not once per point."""

    def test_calls(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args[0]))
                return fn(*args, **kwargs)

            return wrapper

        originals = {
            "init": TCInstance.__init__,
            "tilde": AtomicMeasure1D.tilde,
            "restriction_measure": shifts.restriction_measure,
        }
        for owner, key, name in (
            (TCInstance, "__init__", "init"),
            (AtomicMeasure1D, "tilde", "tilde"),
        ):
            monkeypatch.setattr(owner, key, counting(name, originals[name]))
        patch_everywhere(
            monkeypatch,
            originals["restriction_measure"],
            counting("restriction_measure", originals["restriction_measure"]),
        )
        code, out, _ = run_capture(
            ["sweep", fixture("f1.json"), "--param", "a", "--range", "0.1:1.1:0.025"]
        )
        assert code == 0 and len(out.splitlines()) == 41
        xi = ((1.0, 1.0),)  # the atoms of f1's xi
        counts = {
            "init": sum(name == "init" for name, _ in calls),
            "restriction_measure": sum(name == "restriction_measure" for name, _ in calls),
            "tilde on xi": sum(name == "tilde" and arg.atoms == xi for name, arg in calls),
        }
        assert counts == {"init": 1, "restriction_measure": 1, "tilde on xi": 1}



class TestSweepBuildsPhiOnlyPastPsi:
    """A sweep point whose psi has a negative atom is decided by psi
    alone: phi is built once per point whose psi is positive."""

    def test_calls(self, monkeypatch):
        calls = []
        original = reconstruct.compute_phi

        def counting(instance, *args):
            calls.append(instance.a)
            return original(instance, *args)

        patch_everywhere(monkeypatch, original, counting)
        # f1's psi is (1 - a^2) at t = 1, negative past a = 1
        code, out, _ = run_capture(
            ["sweep", fixture("f1.json"), "--param", "a", "--range", "0.5:1.5:0.025"]
        )
        assert code == 0 and len(out.splitlines()) == 41
        f1 = parse_instance(fixture("f1.json")).instance
        grid = [0.5 + index * 0.025 for index in range(41)]
        psi_positive = [
            measures.positivity(reconstruct.compute_psi(f1.with_a(a)), 1e-10).positive
            for a in grid
        ]
        past_psi = [a for a, positive in zip(grid, psi_positive) if positive]
        assert 0 < len(past_psi) < len(grid)
        assert calls == past_psi


class TestOracleCalls:
    """verify reads each moment once per oracle and decides each matrix
    oracle's matrices, every Hankel pair of every row and column together,
    in one eigvalsh call; the joint-hyponormality compression needs none."""

    @pytest.mark.parametrize(
        "name",
        [p.name for p in sorted(FIXTURES.glob("*.json")) if p.stem not in ("invalid", "malformed")],
    )
    def test_calls(self, monkeypatch, name):
        calls, inside = [], []

        def entering(fn):
            def wrapper(*args, **kwargs):
                inside.append(fn.__name__)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()

            return wrapper

        def counting(label, fn):
            def wrapper(*args, **kwargs):
                calls.append((inside[-1] if inside else None, label))
                return fn(*args, **kwargs)

            return wrapper

        for fn in (oracles.moment_interpolation_check, oracles.moment_matrix_2d):
            patch_everywhere(monkeypatch, fn, entering(fn))
        monkeypatch.setattr(TCInstance, "moment", counting("instance", TCInstance.moment))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        code, out, _ = run_capture(["verify", fixture(name), "--json"])
        assert code in (0, 1)
        # a subnormal verdict runs the interpolation, against mu
        assert ("moment_interpolation" in json.loads(out)["oracles"]) == (code == 0)
        n = max(1, DEFAULT_ORDER // 2)
        # one call per distinct entry, after the guard call
        matrix_calls = calls.count(("moment_matrix_2d", "instance"))
        assert 0 < matrix_calls <= (2 * n + 1) * (2 * n + 2) // 2 + 1
        # every Hankel pair in one stack, then the moment matrix
        assert sum(label == "eigvalsh" for _, label in calls) == 2
