"""Command-line surface: parsing, exit codes, determinism, sweeps."""

import io
import json
import math
from pathlib import Path

import pytest

from tcshift.cli import parse_instance, run
from tcshift.diagram import FlatInstance, TCInstance
from tcshift.errors import ParseError, ValidationError

from helpers import assert_measures_close, f1_instance

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def write_f1_variant(tmp_path, changes) -> str:
    data = json.loads((FIXTURES / "f1.json").read_text())
    path = tmp_path / "variant.json"
    path.write_text(json.dumps({**data, **changes}))
    return str(path)


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
        "command, changes",
        [
            # psi charges 1e-13, which counts as the origin: 1/t is not integrable
            ("check", {"eta_y": {"atoms": [[1e-13, 0.5], [1.0, 0.5]]}}),
            # the oracles' moments of atoms at 1e10 overflow
            (
                "verify",
                {
                    **{name: {"atoms": [[1e10, 1.0]]} for name in ("xi_x", "eta_y", "xi", "eta")},
                    "a": 1e5,
                },
            ),
        ],
        ids=["atom-near-zero", "overflow"],
    )
    def test_failures_after_parsing_are_invalid_instances(self, tmp_path, command, changes):
        code, out, err = run_capture([command, write_f1_variant(tmp_path, changes)])
        assert code == 2
        assert out == ""
        assert err.startswith("invalid instance: ")


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

    def test_flat_requires_a_flat_file(self):
        code, _, err = run_capture(["flat", fixture("f1.json")])
        assert code == 2
        assert "flat" in err


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

    def test_sweep_rejects_unknown_parameters(self):
        code, _, err = run_capture(
            ["sweep", fixture("f1.json"), "--param", "b", "--range", "0.5:1:0.25"]
        )
        assert code == 2
        assert "'a'" in err
