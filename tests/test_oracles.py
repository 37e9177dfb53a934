"""Brute-force oracles: worked examples, soundness against the verdicts."""

import random

import pytest

from tcshift.errors import PreconditionViolated
from tcshift.measures import AtomicMeasure2D, dirac2
from tcshift.oracles import (
    hankel_psd,
    joint_hyponormality_compression,
    moment_interpolation_check,
    moment_matrix_2d,
    oracle_status,
)
from tcshift.reconstruct import berger_measure, subnormality_verdict

from helpers import (
    f1_instance,
    random_probability,
    random_subnormal_instance,
    spike_instance,
    trivial_instance,
)


class TestMomentInterpolation:
    def test_trivial_pair(self):
        report = moment_interpolation_check(trivial_instance(), dirac2(1.0, 1.0), 10)
        assert report.passed
        assert report.max_rel_error == 0.0

    def test_f1(self):
        verdict = subnormality_verdict(f1_instance())
        mu = berger_measure(f1_instance(), psi=verdict.psi, phi=verdict.phi)
        report = moment_interpolation_check(f1_instance(), mu, 16)
        assert report.passed
        assert report.max_rel_error <= 1e-12

    def test_wrong_measure_fails_at_the_first_moment(self):
        report = moment_interpolation_check(f1_instance(), dirac2(1.0, 1.0), 2)
        assert not report.passed
        k1, k2, expected, actual = report.first_failure
        assert (k1, k2) == (1, 0)
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert actual == 1.0


class TestHankel:
    def test_constant_moments(self):
        base, shifted = hankel_psd((1.0,) * 8, 3)
        assert base.passed and shifted.passed
        assert abs(base.min_eigenvalue) <= base.tolerance

    def test_two_atom_moments(self):
        base, shifted = hankel_psd((1.0, 0.25, 0.25, 0.25, 0.25, 0.25), 2)
        assert base.passed and shifted.passed

    def test_non_moment_data_fails(self):
        base, shifted = hankel_psd((1.0, 1.44, 1.44, 1.44), 1)
        assert not (base.passed and shifted.passed)

    def test_needs_enough_moments(self):
        with pytest.raises(PreconditionViolated):
            hankel_psd((1.0, 0.5, 0.5), 1)


class TestMomentMatrix:
    def test_trivial_pair(self):
        assert moment_matrix_2d(trivial_instance(), 3).passed

    def test_f1(self):
        report = moment_matrix_2d(f1_instance(), 6)
        assert report.passed
        assert report.min_eigenvalue >= -report.tolerance

    def test_tampered_moment_fails(self):
        inst = f1_instance()

        def gamma(k1, k2):
            if (k1, k2) == (1, 1):
                return 2.0
            return inst.moment(k1, k2)

        assert not moment_matrix_2d(gamma, 2).passed

    def test_exact_measure_moments_always_pass(self):
        rng = random.Random(42)
        for _ in range(10):
            mx = random_probability(rng, lo=0.0, zero_prob=0.3)
            my = random_probability(rng, lo=0.0, zero_prob=0.3)
            mu = AtomicMeasure2D(
                tuple(
                    (s, t, ms * mt) for s, ms in mx.atoms for t, mt in my.atoms
                )
            )
            for order in (2, 4, 6):
                assert moment_matrix_2d(mu.moment, order).passed

    def test_threshold_scales_with_the_trace(self):
        report = moment_matrix_2d(f1_instance(), 2)
        trace = sum(
            f1_instance().moment(2 * k1, 2 * k2)
            for total in range(3)
            for k1 in range(total, -1, -1)
            for k2 in (total - k1,)
        )
        assert report.tolerance == pytest.approx(1e-9 * trace)


class TestJointHyponormality:
    def test_trivial_pair(self):
        assert joint_hyponormality_compression(trivial_instance(), 4).passed

    def test_f1(self):
        assert joint_hyponormality_compression(f1_instance(), 4).passed

    def test_weight_spike_fails(self):
        report = joint_hyponormality_compression(spike_instance(2.0), 4)
        assert not report.passed
        assert report.min_eigenvalue <= -1.0


class TestSoundness:
    def test_every_subnormal_instance_passes_every_oracle(self):
        rng = random.Random(11)
        instances = [trivial_instance(), f1_instance()] + [
            random_subnormal_instance(rng) for _ in range(10)
        ]
        for inst in instances:
            verdict = subnormality_verdict(inst)
            assert verdict.subnormal
            for index in range(5):
                for seq in (inst.row_moments(index, 10), inst.column_moments(index, 10)):
                    base, shifted = hankel_psd(seq, 4)
                    assert base.passed and shifted.passed
            assert moment_matrix_2d(inst, 6).passed
            assert joint_hyponormality_compression(inst, 6).passed


class TestStatusLabels:
    def test_labels(self):
        assert oracle_status(True, True) == "consistent"
        assert oracle_status(True, False) == "contradiction"
        assert oracle_status(False, True) == "inconclusive"
        assert oracle_status(False, False) == "consistent"
