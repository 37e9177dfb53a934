"""One-variable kernel: weight recovery, restrictions, backward extensions."""

import math
import random

import pytest

from tcshift.errors import DegenerateMeasure, InvalidMoments, InvalidWeight
from tcshift.measures import AtomicMeasure1D, dirac
from tcshift.shifts import (
    one_var_backward_extension,
    restriction_measure,
    weights_from_measure,
)

from helpers import assert_measures_close, m1, random_probability


class TestWeightsFromMeasure:
    def test_unit_point_mass_gives_the_unweighted_shift(self):
        assert weights_from_measure(dirac(1.0), 4) == (1.0, 1.0, 1.0, 1.0)

    def test_two_atom_measure(self):
        got = weights_from_measure(m1((0.0, 0.75), (1.0, 0.25)), 3)
        assert got == pytest.approx((0.5, 1.0, 1.0), abs=1e-15)

    def test_balanced_two_atom_measure(self):
        got = weights_from_measure(m1((0.0, 0.5), (1.0, 0.5)), 3)
        assert got == pytest.approx((math.sqrt(0.5), 1.0, 1.0), abs=1e-15)

    def test_degenerate_measure_rejected(self):
        with pytest.raises(DegenerateMeasure):
            weights_from_measure(dirac(0.0), 3)

    def test_norm_bound_enforced(self):
        # gamma_28 of dirac(5e-12) is subnormal: its rounding lifts the
        # last weight above sqrt(5e-12)
        with pytest.raises(InvalidWeight, match="exceeds the norm bound"):
            weights_from_measure(dirac(5e-12), 28)

    def test_positivity_enforced(self):
        # gamma_30 of dirac(1e-11) underflows to 0; it is the last moment
        # asked for and divides nothing, but is named all the same
        with pytest.raises(InvalidMoments, match="^moment 30 of the measure underflows to 0$"):
            weights_from_measure(dirac(1e-11), 30)

    def test_underflowed_divisor_is_named(self):
        # gamma_30 divides into gamma_31 once 31 weights are asked for
        with pytest.raises(InvalidMoments, match="^moment 30 of the measure underflows to 0$"):
            weights_from_measure(dirac(1e-11), 33)

    def test_overflowing_power_is_named(self):
        # 1e10 ** 31 raises OverflowError inside the moment
        with pytest.raises(InvalidMoments, match="^moment 31 of the measure overflows$"):
            weights_from_measure(dirac(1e10), 33)

    def test_overflowing_sum_is_named(self):
        # each term of gamma_1 is finite, their sum is inf
        measure = AtomicMeasure1D(((1.6e308, 1.0), (1.7e308, 1.0)))
        with pytest.raises(InvalidMoments, match="^moment 1 of the measure overflows$"):
            weights_from_measure(measure, 2)

    def test_monotone_on_random_measures(self):
        rng = random.Random(20260810)
        for _ in range(100):
            measure = random_probability(rng, zero_prob=0.3, lo=0.05)
            weights = weights_from_measure(measure, 12)
            for lower, upper in zip(weights, weights[1:]):
                assert lower <= upper * (1.0 + 1e-12)


class TestTwoAtomMeasure:
    def test_round_trip_through_weights(self):
        # (1 - r) delta_0 + r delta_{beta^2}, r = (alpha / beta)^2, is the
        # Berger measure of shift(alpha, beta, beta, ...)
        rng = random.Random(4711)
        for _ in range(50):
            beta = rng.uniform(0.05, 2.0)
            alpha = beta * rng.uniform(0.05, 1.0)
            r = (alpha / beta) ** 2
            measure = m1((0.0, 1.0 - r), (beta**2, r), probability=True)
            weights = weights_from_measure(measure, 6)
            expected = (alpha,) + (beta,) * 5
            for got, want in zip(weights, expected):
                assert abs(got - want) <= 1e-12 * max(1.0, want)


class TestRestriction:
    def test_point_mass_fixed(self):
        assert restriction_measure(dirac(1.0), 7).atoms == ((1.0, 1.0),)

    def test_atom_at_origin_killed(self):
        got = restriction_measure(m1((0.0, 0.5), (1.0, 0.5)), 1)
        assert got.atoms == ((1.0, 1.0),)

    def test_reweighting(self):
        got = restriction_measure(m1((1.0, 0.5), (4.0, 0.5)), 1)
        assert_measures_close(got, m1((1.0, 0.2), (4.0, 0.8)))

    def test_degenerate(self):
        with pytest.raises(DegenerateMeasure):
            restriction_measure(dirac(0.0), 1)

    def test_composes(self):
        rng = random.Random(99)
        for _ in range(20):
            measure = random_probability(rng, zero_prob=0.3, lo=0.05)
            for h in (2, 3, 4):
                direct = restriction_measure(measure, h)
                iterated = measure
                for _ in range(h):
                    iterated = restriction_measure(iterated, 1)
                assert_measures_close(direct, iterated, 1e-12)


class TestBackwardExtension1D:
    def test_extends_the_unweighted_shift(self):
        ext = one_var_backward_extension(1.0, dirac(1.0))
        assert ext.subnormal
        assert ext.measure.atoms == ((1.0, 1.0),)

    def test_matches_the_two_atom_formula(self):
        ext = one_var_backward_extension(0.5, dirac(1.0))
        assert ext.subnormal
        assert_measures_close(ext.measure, m1((0.0, 0.75), (1.0, 0.25)))

    def test_oversized_weight_fails(self):
        ext = one_var_backward_extension(1.2, dirac(1.0))
        assert not ext.subnormal
        assert ext.ratio == pytest.approx(1.44)

    def test_atom_at_origin_fails(self):
        ext = one_var_backward_extension(0.5, m1((0.0, 0.5), (1.0, 0.5)))
        assert not ext.subnormal
        assert ext.measure is None

    def test_extended_weights_start_with_x0(self):
        rng = random.Random(2024)
        for _ in range(25):
            measure = random_probability(rng)
            x0 = math.sqrt(rng.uniform(0.05, 1.0) / measure.reciprocal_norm())
            ext = one_var_backward_extension(x0, measure)
            assert ext.subnormal
            got = weights_from_measure(ext.measure, 7)
            assert abs(got[0] - x0) <= 1e-10 * max(1.0, x0)
            tail = weights_from_measure(measure, 6)
            for got_w, want_w in zip(got[1:], tail):
                assert abs(got_w - want_w) <= 1e-10 * max(1.0, want_w)
