"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they pass).
"""

import io
import math
import random
import time
from pathlib import Path

import pytest

from tcshift.cli import run
from tcshift import oracles
from tcshift.measures import atom_difference, dirac2
from tcshift.oracles import (
    hankel_psd,
    joint_hyponormality_compression,
    moment_interpolation_check,
    moment_matrix_2d,
)
from tcshift.reconstruct import (
    backward_extension,
    berger_measure,
    flat_verdict,
    measure_M,
    subnormality_verdict,
)

from helpers import (
    f1_instance,
    n1_instance,
    random_flat_instance,
    random_subnormal_instance,
    trivial_instance,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _passed(number: int, summary: str) -> None:
    print(f"criterion {number}: PASS ({summary})")


def test_criterion_1_f1_reconstruction():
    started = time.perf_counter()
    inst = f1_instance()
    verdict = subnormality_verdict(inst)
    assert verdict.subnormal
    assert verdict.psi.mass_at(1.0) == pytest.approx(0.5, abs=1e-12)
    assert len(verdict.psi.atoms) == 1
    assert verdict.phi.mass_at(0.0) == pytest.approx(0.25, abs=1e-12)
    assert verdict.phi.mass_at(1.0) == pytest.approx(0.25, abs=1e-12)
    assert len(verdict.phi.atoms) == 2
    mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi)
    assert len(mu.atoms) == 4
    for s, t in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        assert mu.mass_at(s, t) == pytest.approx(0.25, abs=1e-12)
    assert oracles.DEFAULT_INTERPOLATION_TOL == 1e-10
    interpolation = moment_interpolation_check(inst, mu, 16)
    assert interpolation.passed, interpolation.first_failure
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, f"four-corner measure, interpolation to order 16, {elapsed:.3f}s")


def test_criterion_2_n1_two_refutation_routes():
    inst = n1_instance()
    membership = inst.check_membership_h0(8)
    assert membership.passed
    verdict = subnormality_verdict(inst)
    assert not verdict.subnormal
    assert verdict.witness.measure == "phi"
    assert verdict.witness.location == 0.0
    assert verdict.witness.mass == pytest.approx(-0.15, abs=1e-12)
    extension = backward_extension(measure_M(inst), inst.xi_x, math.sqrt(inst.y0_sq))
    assert not extension.subnormal
    assert extension.failed_condition == 3
    location, mass = extension.witness
    assert location == 0.0
    assert mass == pytest.approx(-0.15, abs=1e-12)
    _passed(2, "phi witness and domination failure agree at the origin")


def test_criterion_3_trivial_pair_exact():
    inst = trivial_instance()
    verdict = subnormality_verdict(inst)
    assert verdict.subnormal
    assert verdict.psi.atoms == ()
    assert verdict.phi.atoms == ()
    mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi)
    assert mu.atoms == ((1.0, 1.0, 1.0),)
    _passed(3, "zero slack measures, exact unit point mass")


def test_criterion_4_random_subnormal_instances():
    rng = random.Random(20260810)
    for _ in range(100):
        inst = random_subnormal_instance(rng)
        verdict = subnormality_verdict(inst)
        assert verdict.subnormal
        mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi)
        assert abs(mu.total_mass - 1.0) <= 1e-12
        assert atom_difference(mu.marginal("x"), inst.xi_x) <= 1e-10
        assert atom_difference(mu.marginal("y"), inst.eta_y) <= 1e-10
        assert (
            atom_difference(
                berger_measure(inst, form="split", psi=verdict.psi, phi=verdict.phi),
                berger_measure(inst, form="correction", psi=verdict.psi, phi=verdict.phi),
            )
            <= 1e-12
        )
        diag = verdict.diagnostics
        norm_identity = (
            diag.recip_t_eta_y_tail
            - inst.a**2 * diag.recip_s_xi * diag.recip_t_eta
        )
        assert abs(diag.recip_t_psi - norm_identity) <= 1e-12 * max(1.0, abs(norm_identity))
    _passed(4, "100 instances: mass, marginals, both assemblies, norm identity")


def test_criterion_5_flat_equivalence():
    rng = random.Random(5150)
    subnormal_count = 0
    for _ in range(200):
        flat = random_flat_instance(rng)
        via_flat = flat_verdict(flat)
        via_general = subnormality_verdict(flat.embed())
        assert via_flat.subnormal == via_general.subnormal
        if via_flat.subnormal:
            subnormal_count += 1
            flat_mu = berger_measure(
                flat.embed(), form="correction", psi=via_flat.psi, phi=via_flat.phi
            )
            general_mu = berger_measure(
                flat.embed(), psi=via_general.psi, phi=via_general.phi
            )
            assert atom_difference(flat_mu, general_mu) <= 1e-12
    assert 0 < subnormal_count < 200
    _passed(5, f"200 instances agree ({subnormal_count} subnormal)")


def test_criterion_6_oracle_soundness():
    started = time.perf_counter()
    assert oracles.DEFAULT_PSD_TOL == 1e-9
    rng = random.Random(606)
    instances = [trivial_instance(), f1_instance()] + [
        random_subnormal_instance(rng) for _ in range(100)
    ]
    for inst in instances:
        verdict = subnormality_verdict(inst)
        assert verdict.subnormal
        reports = []
        for index in range(7):
            for line, sequence in (
                ("row", inst.row_moments(index, 14)),
                ("column", inst.column_moments(index, 14)),
            ):
                reports.extend(hankel_psd([(f"{line} {index}", sequence)], 6))
        reports.append(moment_matrix_2d(inst, 6))
        reports.append(joint_hyponormality_compression(inst, 6))
        for report in reports:
            assert report.passed
            assert report.min_eigenvalue >= -report.tolerance
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(6, f"102 subnormal instances pass all oracles in {elapsed:.1f}s")


def test_criterion_7_unit_ratio_forces_the_marginal():
    inst = trivial_instance()
    upper = measure_M(inst)
    ratio = inst.y0_sq * upper.reciprocal_norm("y")
    assert ratio == pytest.approx(1.0, abs=1e-12)
    extremal_marginal = upper.extremal().marginal("x")
    assert atom_difference(extremal_marginal, inst.xi_x) <= 1e-12
    extension = backward_extension(upper, inst.xi_x, math.sqrt(inst.y0_sq))
    assert extension.subnormal
    assert atom_difference(extension.measure, dirac2(1.0, 1.0)) <= 1e-12
    _passed(7, "unit mass ratio reproduces the row-0 measure exactly")


def test_criterion_8_cli_contract():
    expected = {"f1.json": 0, "n1.json": 1, "malformed.json": 3}
    for name, want in expected.items():
        out, err = io.StringIO(), io.StringIO()
        code = run(["check", str(FIXTURES / name)], out=out, err=err)
        assert code == want, (name, code)
    for argv in (
        ["reconstruct", str(FIXTURES / "f1.json"), "--json"],
        ["reconstruct", str(FIXTURES / "n1.json")],
    ):
        captures = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            run(list(argv), out=out, err=err)
            captures.append(out.getvalue())
        assert captures[0] == captures[1]
    _passed(8, "exit codes 0/1/3 and byte-identical reports")
