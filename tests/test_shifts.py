"""One-variable kernel: weight recovery and restrictions."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcshift.diagram import TCInstance
from tcshift.errors import DegenerateMeasure
from tcshift.measures import AtomicMeasure1D, dirac
from tcshift.shifts import relative_moments, restriction_measure, weights_from_measure

from helpers import (
    assert_measures_close,
    fixture_instances,
    m1,
    outcome,
    random_probability,
    reference_relative_moments,
    reference_weights_from_measure,
)

DEPTH = TCInstance.depth + 1


def fixture_measures():
    """The four measures of every fixture that parses."""
    for name, instance in fixture_instances():
        for field in ("xi_x", "eta_y", "xi", "eta"):
            yield f"{name}.{field}", getattr(instance, field)


# atoms at any scale, so that powers overflow and underflow at every order
scaled_atoms = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
        st.floats(min_value=1e-300, max_value=1e300),
    ),
    min_size=1,
    max_size=8,
)


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

    def test_no_weight_requested_is_refused(self):
        with pytest.raises(ValueError, match="^at least one weight must be requested$"):
            weights_from_measure(dirac(1.0), 0)

    def test_monotone_on_random_measures(self):
        rng = random.Random(20260810)
        for _ in range(100):
            measure = random_probability(rng, zero_prob=0.3, lo=0.05)
            weights = weights_from_measure(measure, 12)
            for lower, upper in zip(weights, weights[1:]):
                assert lower <= upper * (1.0 + 1e-12)


class TestAtomMajorSums:
    """relative_moments adds the terms of every order atom by atom; the
    sums, and the weights and errors built on them, are those of one pass
    per order."""

    @pytest.mark.parametrize("name, measure", list(fixture_measures()))
    def test_fixture_weights(self, name, measure):
        for n in (1, 2, 12, DEPTH):
            expected = outcome(reference_weights_from_measure, measure, n)
            assert outcome(weights_from_measure, measure, n) == expected

    @pytest.mark.parametrize("name, measure", list(fixture_measures()))
    def test_fixture_relative_moments(self, name, measure):
        expected = outcome(reference_relative_moments, measure, 10)
        assert outcome(relative_moments, measure, 10) == expected

    @pytest.mark.parametrize("scale", [1e-40, 1e-11, 1.0, 1e10, 1e40])
    def test_seeded_random_measures(self, scale):
        rng = random.Random(2126)
        for _ in range(40):
            base = random_probability(rng, zero_prob=0.3, lo=0.05)
            measure = AtomicMeasure1D([(loc * scale, mass) for loc, mass in base.atoms])
            assert outcome(weights_from_measure, measure, DEPTH) == outcome(
                reference_weights_from_measure, measure, DEPTH
            )

    @settings(max_examples=300, deadline=None)
    @given(atoms=scaled_atoms, count=st.integers(min_value=1, max_value=40))
    @example(atoms=[(1e10, 1.0)], count=34)
    @example(atoms=[(1e-11, 1.0)], count=34)
    @example(atoms=[(1.6e308, 1.0), (1.7e308, 1.0)], count=3)
    @example(atoms=[(0.0, 0.5), (2.0, 0.5)], count=5)
    def test_sums_are_the_moments(self, atoms, count):
        measure = AtomicMeasure1D(atoms)
        for n in (count, DEPTH):
            assert outcome(weights_from_measure, measure, n) == outcome(
                reference_weights_from_measure, measure, n
            )
        assert outcome(relative_moments, measure, count) == outcome(
            reference_relative_moments, measure, count
        )


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
        assert restriction_measure(dirac(1.0)).atoms == ((1.0, 1.0),)

    def test_atom_at_origin_killed(self):
        got = restriction_measure(m1((0.0, 0.5), (1.0, 0.5)))
        assert got.atoms == ((1.0, 1.0),)

    def test_reweighting(self):
        got = restriction_measure(m1((1.0, 0.5), (4.0, 0.5)))
        assert_measures_close(got, m1((1.0, 0.2), (4.0, 0.8)))

    def test_degenerate(self):
        with pytest.raises(DegenerateMeasure):
            restriction_measure(dirac(0.0))

    def test_composes(self):
        # h restrictions in turn remove h weights: the density is s^h / gamma_h
        rng = random.Random(99)
        for _ in range(20):
            measure = random_probability(rng, zero_prob=0.3, lo=0.05)
            for h in (2, 3, 4):
                gamma_h = measure.moment(h)
                direct = m1(*((loc, mass * loc**h / gamma_h) for loc, mass in measure.atoms))
                iterated = measure
                for _ in range(h):
                    iterated = restriction_measure(iterated)
                assert_measures_close(direct, iterated, 1e-12)
