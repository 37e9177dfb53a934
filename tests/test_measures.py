"""Atom algebra: worked examples and algebraic properties."""

import functools
import itertools
import math
import operator
import random
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from tcshift import measures
from tcshift.cli import parse_instance
from tcshift.errors import (
    AtomAtZero,
    DegenerateMeasure,
    NonFinite,
    NotProbability,
    PreconditionViolated,
)
from tcshift.measures import (
    MERGE_REL_TOL,
    AtomicMeasure1D,
    PlanarAtoms,
    SignedMeasure1D,
    combine,
    dirac,
    merge_runs,
    positivity,
    product,
    same_location,
)
from tcshift.reconstruct import berger_measure
from tcshift.shifts import restriction_measure

from helpers import (
    assert_measures_close,
    atom_difference,
    dirac2,
    extremal,
    m1,
    marginal,
    mass_at,
    outcome,
    planar_moment,
    random_locations,
    random_probability,
    reference_merge_1d,
    reference_merge_2d,
    reference_positivity,
    reference_product_atoms,
    reference_same_location,
    slack_measures,
)

atom_lists = st.lists(
    st.tuples(
        st.floats(0.01, 4.0, allow_nan=False, allow_infinity=False),
        st.floats(0.001, 2.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=5,
)


class TestMoments:
    def test_unit_point_mass(self):
        assert dirac(1.0).moment(5) == 1.0

    def test_two_atom_third_moment(self):
        assert m1((0.0, 0.75), (1.0, 0.25)).moment(3) == 0.25

    def test_spread_second_moment(self):
        assert m1((1.0, 0.5), (4.0, 0.5)).moment(2) == 8.5

    def test_order_zero_is_total_mass(self):
        m = m1((0.5, 0.25), (2.0, 1.5))
        assert m.moment(0) == m.total_mass

    def test_a_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="^moment order must be nonnegative$"):
            dirac(1.0).moment(-1)


class TestReciprocalNorm:
    def test_unit_point_mass(self):
        assert dirac(1.0).reciprocal_norm() == 1.0

    def test_spread(self):
        assert m1((1.0, 0.5), (4.0, 0.5)).reciprocal_norm() == 0.625

    def test_atom_at_origin_rejected(self):
        with pytest.raises(AtomAtZero):
            m1((0.0, 0.75), (1.0, 0.25)).reciprocal_norm()

    def test_signed_integral(self):
        signed = SignedMeasure1D(((1.0, 1.0), (2.0, -0.5)))
        assert signed.reciprocal_norm() == 0.75

    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from((5e-324, 2.2250738585072014e-308, 1e-300)),
                    st.floats(5e-324, 1e300),
                ),
                st.floats(-1e300, 1e300).filter(bool),
            ),
            max_size=8,
        )
    )
    def test_is_a_left_fold_of_the_divisions(self, pairs):
        # the divisions mass / location added from the left in atom order,
        # to the bit, as a fold of a C-level map makes them; a division
        # that overflows is inf in both
        measure = SignedMeasure1D(pairs)
        masses = [mass for _, mass in measure.atoms]
        locations = [loc for loc, _ in measure.atoms]
        expected = functools.reduce(operator.add, map(operator.truediv, masses, locations), 0)
        assert repr(measure.reciprocal_norm()) == repr(expected)

    @given(
        pairs=st.one_of(
            st.lists(
                st.tuples(st.floats(5e-324, 1e300), st.floats(-1e300, 1e300).filter(bool)),
                max_size=8,
            ),
            st.tuples(st.floats(5e-324, 1e300), st.floats(-1e300, 1e300).filter(bool)).map(
                lambda atom: [atom]
            ),
        )
    )
    @example(pairs=[])
    @example(pairs=[(5e-324, 1.0)])
    @example(pairs=[(1e300, -5e-324)])
    def test_keeps_the_bits_of_the_left_sum_of_the_divisions(self, pairs):
        # the empty measure's norm is the int 0, as left_sum starts from it
        measure = SignedMeasure1D(pairs)
        got = measure.reciprocal_norm()
        expected = measures.left_sum(mass / loc for loc, mass in measure.atoms)
        assert type(got) is type(expected)
        assert repr(got) == repr(expected)


class TestTilde:
    def test_fixed_point(self):
        assert dirac(1.0).tilde().atoms == ((1.0, 1.0),)

    def test_spread(self):
        assert_measures_close(
            m1((1.0, 0.5), (4.0, 0.5)).tilde(), m1((1.0, 0.8), (4.0, 0.2))
        )

    def test_single_atom_maps_to_itself(self):
        assert dirac(4.0).tilde().atoms == ((4.0, 1.0),)

    @given(pairs=atom_lists)
    def test_always_probability(self, pairs):
        m = AtomicMeasure1D(tuple(pairs))
        assert abs(m.tilde().moment(0) - 1.0) <= 1e-12


# extremal and marginal are planar helpers of the tests, which carry the
# paper's second route (``backward_extension``) and read mu's marginals.


class TestExtremal:
    def test_unit_point_mass(self):
        assert extremal(dirac2(1.0, 1.0)).atoms == ((1.0, 1.0, 1.0),)

    def test_constant_second_coordinate_is_fixed(self):
        m = PlanarAtoms(((0.0, 1.0, 0.5), (1.0, 1.0, 0.5)))
        assert_measures_close(extremal(m), m)

    def test_product_reweights_second_factor(self):
        m = product(dirac(1.0), m1((1.0, 0.5), (4.0, 0.5)))
        expected = product(dirac(1.0), m1((1.0, 0.8), (4.0, 0.2)))
        assert_measures_close(extremal(m), expected)

    def test_atom_on_s_axis_rejected(self):
        with pytest.raises(AtomAtZero):
            extremal(PlanarAtoms(((1.0, 0.0, 1.0),)))

    @given(pairs=atom_lists)
    def test_total_mass_one(self, pairs):
        m = product(dirac(2.0), AtomicMeasure1D(tuple(pairs)))
        assert abs(planar_moment(extremal(m), 0, 0) - 1.0) <= 1e-12


class TestMarginal:
    def test_point_mass(self):
        assert marginal(dirac2(1.0, 1.0), 0).atoms == ((1.0, 1.0),)

    def test_four_corner(self):
        corners = PlanarAtoms(
            ((0.0, 0.0, 0.25), (0.0, 1.0, 0.25), (1.0, 0.0, 0.25), (1.0, 1.0, 0.25))
        )
        assert_measures_close(marginal(corners, 0), m1((0.0, 0.5), (1.0, 0.5)))

    def test_an_unknown_axis_is_refused(self):
        # index 2 is the mass, which a projection would read silently
        with pytest.raises(ValueError, match="^axis must be 0 or 1, got 2$"):
            marginal(dirac2(1.0, 1.0), 2)

    @given(pairs_x=atom_lists, pairs_y=atom_lists)
    def test_product_projects_to_factor(self, pairs_x, pairs_y):
        mx = AtomicMeasure1D(tuple(pairs_x))
        my = AtomicMeasure1D(tuple(pairs_y))
        my_prob = AtomicMeasure1D(
            tuple((loc, mass / my.total_mass) for loc, mass in my.atoms)
        )
        assert atom_difference(marginal(product(mx, my_prob), 0), mx) <= 1e-12


class TestProduct:
    def test_point_masses(self):
        assert product(dirac(1.0), dirac(1.0)).atoms == ((1.0, 1.0, 1.0),)

    def test_expansion(self):
        got = product(m1((0.0, 0.5), (1.0, 0.5)), dirac(4.0))
        assert_measures_close(got, PlanarAtoms(((0.0, 4.0, 0.5), (1.0, 4.0, 0.5))))

    def test_four_corner_uniform(self):
        half = m1((0.0, 0.5), (1.0, 0.5))
        got = product(half, half)
        assert planar_moment(got, 0, 0) == 1.0
        assert all(abs(mass - 0.25) == 0.0 for _, _, mass in got.atoms)
        assert len(got.atoms) == 4


class TestCombine:
    def test_full_cancellation(self):
        assert combine([(1.0, dirac(1.0)), (-1.0, dirac(1.0))]).atoms == ()

    def test_partial_cancellation(self):
        got = combine([(1.0, dirac(1.0)), (-0.5, dirac(1.0))])
        assert got.atoms == ((1.0, 0.5),)

    def test_three_terms(self):
        got = combine(
            [(1.0, m1((0.0, 0.5), (1.0, 0.5))), (-0.25, dirac(0.0)), (-0.25, dirac(1.0))]
        )
        assert_measures_close(got, m1((0.0, 0.25), (1.0, 0.25)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            combine([(1.0, dirac(1.0)), (1.0, dirac2(1.0, 1.0))])

    def test_a_run_whose_finite_masses_sum_past_the_float_range_is_refused(self):
        # each product is finite, and the run's total is inf
        measures_ = [m1((1.0, 1e308)), SignedMeasure1D(((1.0 + 1e-13, 1e308), (2.0, 1.0)))]
        terms = [(1.5, measure) for measure in measures_]
        message = "^the combined mass at 1.0 is not finite, got inf$"
        with pytest.raises(NonFinite, match=message):
            combine(terms)
        with pytest.raises(NonFinite, match=message):
            combine(terms, merge_runs(measures_))

    def test_masses_whose_sum_overflows_at_apart_locations_are_kept(self):
        # no total is inf, though the sum of all of them is
        got = combine([(1.0, m1((1.0, 1e308), (2.0, 1e308))), (1.0, m1((3.0, 1e308)))])
        assert got.atoms == ((1.0, 1e308), (2.0, 1e308), (3.0, 1e308))

    @given(
        pairs_a=atom_lists,
        pairs_b=atom_lists,
        c1=st.floats(-3.0, 3.0, allow_nan=False),
        c2=st.floats(-3.0, 3.0, allow_nan=False),
        k=st.integers(0, 20),
    )
    def test_linearity(self, pairs_a, pairs_b, c1, c2, k):
        ma = AtomicMeasure1D(tuple(pairs_a))
        mb = AtomicMeasure1D(tuple(pairs_b))
        lhs = combine([(c1, ma), (c2, mb)]).moment(k)
        rhs = c1 * ma.moment(k) + c2 * mb.moment(k)
        scale = abs(c1) * ma.moment(k) + abs(c2) * mb.moment(k) + 1.0
        assert abs(lhs - rhs) <= 1e-9 * scale


# Locations that tie, that are one location without being equal (1e-13
# apart, at 1 and 2), that chain (1 + 2e-12 is apart from 1 but not from
# 1 + 1e-12), and both zeros; masses of every scale, of either sign.
run_locations = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, 1.0, 1.0 + 1e-13, 1.0 + 1e-12, 1.0 + 2e-12, 2.0)),
    st.sampled_from((2.0 - 2e-13, 3.5)),
)
run_masses = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.sampled_from((5e-324, -5e-324, 1e308, -1e308, 1e-200)),
)
run_measures = st.lists(st.tuples(run_locations, run_masses), max_size=5).map(
    lambda atoms: SignedMeasure1D(tuple(atoms))
)
run_coefficients = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.sampled_from((0.0, -0.0, 1e-200, -1e300, math.inf, math.nan)),
)


class TestMergeRuns:
    """``combine`` in the runs of ``merge_runs`` gives the merge's bits."""

    @settings(max_examples=400)
    @given(
        measures_=st.lists(run_measures, min_size=1, max_size=3),
        coefficients=st.lists(run_coefficients, min_size=3, max_size=3),
    )
    # the skipped term's atom heads the run, so the merge moves its location
    @example(measures_=[dirac(1.0), dirac(1.0 + 1e-13)], coefficients=[0.0, 1.0, 1.0])
    # a run of two atoms whose masses cancel exactly is dropped
    @example(measures_=[dirac(1.0), dirac(1.0 + 1e-13)], coefficients=[1.0, -1.0, 1.0])
    # two finite products whose sum overflows: both refuse the run's total by name
    @example(
        measures_=[m1((1.0, 1e308)), SignedMeasure1D(((1.0 + 1e-13, 1e308), (2.0, 1.0)))],
        coefficients=[1.5, 1.5, 1.0],
    )
    # a run of one atom, at a negative coefficient
    @example(measures_=[m1((1.0, 0.5), (3.0, 0.25)), dirac(2.0)], coefficients=[-0.5, 1.0, 1.0])
    def test_runs_give_the_bits_of_the_merge(self, measures_, coefficients):
        runs = merge_runs(measures_)
        if runs is None:
            reject()
        terms = list(zip(coefficients, measures_))
        assert outcome(combine, terms, runs) == outcome(combine, terms)

    @given(first=run_measures, second=run_measures)
    def test_two_measures_have_runs_unless_both_zeros_meet(self, first, second):
        locations = [loc for m in (first, second) for loc, _ in m.atoms]
        signs = {math.copysign(1.0, loc) for loc in locations if loc == 0.0}
        assert (merge_runs((first, second)) is None) == (len(signs) == 2)

    def test_runs(self):
        tail = m1((1.0, 0.5), (2.0, 0.5))
        eta = m1((1.0 + 1e-13, 0.25), (3.0, 0.75))
        # (term, mass) of each run's first and second atom; a run of one
        # atom pairs with the slot past the last term, at mass 0.0
        assert merge_runs((tail, eta)) == (
            (1.0, 2.0, 3.0),
            ((0, 0.5, 1, 0.25), (0, 0.5, 2, 0.0), (1, 0.75, 2, 0.0)),
        )

    def test_a_run_of_three_atoms_has_no_runs(self):
        assert merge_runs((dirac(1.0), dirac(1.0), dirac(1.0 + 1e-13))) is None

    def test_both_zeros_in_one_run_have_no_runs(self):
        assert merge_runs((m1((-0.0, 1.0)), dirac(0.0))) is None
        assert merge_runs((dirac(0.0), dirac(0.0))) is not None

    def test_empty_measures_have_empty_runs(self):
        runs = merge_runs((SignedMeasure1D(()),))
        assert runs == ((), ())
        assert combine([(1.0, SignedMeasure1D(()))], runs).atoms == ()


class TestPositivity:
    def test_positive_atom(self):
        assert positivity(SignedMeasure1D(((1.0, 0.5),))).positive

    def test_zero_measure_is_positive(self):
        assert positivity(SignedMeasure1D(())).positive

    def test_negative_witness(self):
        check = positivity(SignedMeasure1D(((0.0, -0.15), (1.0, 0.65))))
        assert not check.positive
        assert check.location == 0.0
        assert check.mass == -0.15

    @given(pairs=atom_lists, pick=st.integers(0, 10**6))
    def test_negating_one_atom_flips_the_verdict(self, pairs, pick):
        base = AtomicMeasure1D(tuple(pairs))
        assert positivity(SignedMeasure1D(base.atoms), tol=0.0).positive
        index = pick % len(base.atoms)
        flipped = SignedMeasure1D(
            tuple(
                (loc, -mass if i == index else mass)
                for i, (loc, mass) in enumerate(base.atoms)
            )
        )
        assert not positivity(flipped, tol=0.0).positive

    def test_rounding_noise_accepted(self):
        noisy = SignedMeasure1D(((0.5, -1e-15), (1.0, 1.0)))
        assert positivity(noisy).positive

    def test_a_positive_measure_whose_total_variation_overflows_is_positive(self):
        # at tol = 0 the bound -0.0 * inf is NaN, which no mass meets
        huge = SignedMeasure1D(((0.0, 1e308), (1.0, 1e308)))
        for tol in (0.0, 1e-10):
            assert positivity(huge, tol) == (True, None, None)
            assert huge.as_positive(tol).atoms == huge.atoms

    def test_an_overflowing_total_variation_is_refused_at_a_positive_tolerance(self):
        # the bound -tol * inf is -inf, which every mass meets
        signed = SignedMeasure1D(((0.0, -1e308), (1.0, -1e308), (2.0, 0.5)))
        message = "^the measure's total variation is not finite, got inf$"
        with pytest.raises(NonFinite, match=message):
            positivity(signed, 1e-10)
        with pytest.raises(NonFinite, match=message):
            signed.as_positive(1e-10)

    def test_an_overflowing_total_variation_at_zero_tolerance_names_the_witness(self):
        signed = SignedMeasure1D(((0.0, -1e308), (1.0, -1e308), (2.0, 0.5)))
        assert positivity(signed, 0.0) == (False, 0.0, -1e308)
        with pytest.raises(PreconditionViolated, match="negative atom of mass -1e\\+308 at 0.0"):
            signed.as_positive(0.0)

    @pytest.mark.parametrize("tol", [-1e-12, math.nan])
    def test_tolerance_must_be_nonnegative(self, tol):
        # a NaN tolerance would call every nonempty measure not positive
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            positivity(dirac(1.0), tol)


class TestConstruction:
    def test_atoms_from_a_generator(self):
        made = AtomicMeasure1D((loc, 0.5) for loc in (2.0, 1.0))
        assert made.atoms == ((1.0, 0.5), (2.0, 0.5))
        assert made == AtomicMeasure1D(((1.0, 0.5), (2.0, 0.5)))

    def test_a_measure_is_unequal_to_another_class(self):
        measure = dirac(1.0)
        assert measure.__eq__(((1.0, 1.0),)) is NotImplemented
        assert measure != ((1.0, 1.0),)
        assert measure != dirac2(1.0, 1.0)
        assert measure != SignedMeasure1D(((1.0, 1.0),))

    def test_near_duplicate_locations_merge(self):
        m = m1((1.0, 0.25), (1.0 + 1e-13, 0.25))
        assert len(m.atoms) == 1
        assert m.total_mass == 0.5

    def test_negative_location_rejected(self):
        with pytest.raises(ValueError):
            m1((-1.0, 0.5))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            m1((1.0, -0.5))

    def test_probability_flag_enforced(self):
        with pytest.raises(NotProbability):
            AtomicMeasure1D(((1.0, 0.9),), probability=True)

    def test_as_positive_clamps_noise(self):
        signed = SignedMeasure1D(((0.5, -1e-16), (1.0, 1.0)))
        cleaned = signed.as_positive()
        assert cleaned.atoms == ((1.0, 1.0),)

    def test_as_positive_rejects_real_negatives(self):
        with pytest.raises(PreconditionViolated):
            SignedMeasure1D(((0.0, -0.1), (1.0, 1.0))).as_positive()

    @pytest.mark.parametrize(
        "cls, atoms, probability, error, message",
        [
            # a negative location sorts first, before the non-positive mass
            (AtomicMeasure1D, ((1.0, -0.5), (-1.0, 0.5)), False, ValueError,
             "atom location must be nonnegative, got -1.0"),
            (SignedMeasure1D, ((1.0, -0.5), (-1.0, -0.5)), None, ValueError,
             "atom location must be nonnegative, got -1.0"),
            # a non-positive mass sorts before a bad total
            (AtomicMeasure1D, ((2.0, 0.5), (0.5, -0.5)), True, ValueError,
             "atom mass must be positive, got -0.5 at 0.5"),
            # a total that is not one
            (AtomicMeasure1D, ((1.0, 0.5), (2.0, 0.25)), True, NotProbability,
             "total mass is 0.75, expected 1"),
            # an int too large for a float is named, by the constructor too
            (AtomicMeasure1D, ((10**400, 1.0),), None, NonFinite,
             "atom location must be finite, got an integer too large for a float"),
            (SignedMeasure1D, ((1.0, 10**400),), None, NonFinite,
             "atom mass must be finite, got an integer too large for a float"),
            (dirac, 10**400, None, NonFinite,
             "atom location must be finite, got an integer too large for a float"),
            # a location that is not finite, by the signed constructor too
            (SignedMeasure1D, ((math.inf, 1.0),), None, NonFinite,
             "atom location must be finite, got inf"),
            # a mass that is not finite sorts before a negative location
            (SignedMeasure1D, ((1.0, math.nan), (-1.0, 0.5)), None, NonFinite,
             "atom mass must be finite, got nan"),
            # a negative location sorts before a non-positive mass
            (AtomicMeasure1D, ((1.0, -0.5), (-1.0, 1.5)), True, ValueError,
             "atom location must be nonnegative, got -1.0"),
        ],
        ids=[
            "negative-location-1d", "negative-location-signed-1d",
            "mass-first-1d", "total-1d", "too-large-location-1d",
            "too-large-mass-signed-1d", "too-large-dirac",
            "infinite-location-signed-1d", "non-finite-first-signed-1d",
            "location-before-mass-1d",
        ],
    )
    def test_first_error(self, cls, atoms, probability, error, message):
        kwargs = {} if probability is None else {"probability": probability}
        with pytest.raises(error) as caught:
            cls(atoms, **kwargs)
        assert type(caught.value) is error and str(caught.value) == message


# Locations on both sides of 1 and at 0, negative ones included, each moved
# by up to +-2 multiples of MERGE_REL_TOL * max(1, |anchor|).  Away from 0
# that puts it within a merge distance of its anchor, on it, or beyond it;
# near 0 every two distinct ones are apart.  Offsets 0.75 apart tell a run
# that is compared with its first atom from one compared with its last.
ANCHORS = (-1e6, -2.5, 0.0, 0.3, 1.0, 2.5, 1e6)
OFFSETS = (0.0, 0.5, -0.5, 0.75, -0.75, 1.0, -1.0, 2.0, -2.0)
near_locations = st.builds(
    lambda anchor, k: anchor + k * MERGE_REL_TOL * max(1.0, abs(anchor)),
    st.sampled_from(ANCHORS),
    st.sampled_from(OFFSETS),
)
# Exact and signed zeros, masses whose products underflow (1e-170 squared)
# or land among the subnormals (1e-160 squared), and ordinary masses.
kernel_masses = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-170, -1e-170, 1e-160, 0.5, -0.5, 0.25)),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def kernel_atoms(draw, dim):
    """Unsorted atoms on near-coincident locations, some of them cancelled
    exactly by an atom of opposite mass at the same point."""
    atoms = draw(
        st.lists(st.tuples(*[near_locations] * (dim - 1), kernel_masses), max_size=12)
    )
    cancelled = draw(st.lists(st.sampled_from(atoms), max_size=4)) if atoms else []
    atoms += [(*atom[:-1], -atom[-1]) for atom in cancelled]
    return draw(st.permutations(atoms))


@st.composite
def with_non_finite(draw, dim):
    """Atoms with inf, -inf or nan put at one position and coordinate."""
    atoms = [list(atom) for atom in draw(kernel_atoms(dim))] or [[0.0] * dim]
    for _ in range(draw(st.integers(1, 2))):
        atom = draw(st.sampled_from(atoms))
        atom[draw(st.integers(0, dim - 1))] = draw(
            st.sampled_from((float("inf"), float("-inf"), float("nan")))
        )
    return [tuple(atom) for atom in atoms]


def raised(function, *args):
    try:
        function(*args)
    except Exception as exc:  # the test compares whatever was raised
        return exc
    raise AssertionError("no exception raised")


class TestKernelMatchesReference:
    """The optimised merge and product return the reference's tuples, bit
    for bit (compared by repr, which tells -0.0 from 0.0)."""

    @pytest.mark.parametrize(
        "u, v, same",
        [(1e-13, 2e-13, False), (0.5, 0.5 + 1e-13, True), (0.0, 5e-324, False)],
        ids=["apart-below-1", "merged-below-1", "apart-from-0"],
    )
    def test_the_rule_is_relative_at_every_scale(self, u, v, same):
        assert same_location(u, v) == reference_same_location(u, v) == same
        assert len(measures._merge_1d([(u, 0.5), (v, 0.25)])) == (1 if same else 2)

    @given(atoms=kernel_atoms(2))
    def test_merge_1d(self, atoms):
        assert repr(measures._merge_1d(atoms)) == repr(reference_merge_1d(atoms))

    @given(atoms=kernel_atoms(2), t=st.sampled_from((0.0, 1.0, 1e-300, 1e300)))
    def test_merge_2d(self, atoms, t):
        """The reference planar merge, which the tests' planar measures run
        on, is the 1-D merge on a line of constant t."""
        line = tuple((s, t, mass) for s, mass in atoms)
        merged = tuple((s, t, mass) for s, mass in measures._merge_1d(atoms))
        assert repr(reference_merge_2d(line)) == repr(merged)

    def test_merge_2d_merges_every_pair_at_one_point(self):
        # (1.0, 2.0) sorts between the two atoms at (1.0, 1.0), which the
        # merge of each run with its first atom alone would keep apart
        atoms = ((1.0, 1.0, 0.5), (1.0, 2.0, 0.25), (1.0 + 1e-13, 1.0, -0.5))
        for order in itertools.permutations(atoms):
            assert reference_merge_2d(order) == ((1.0, 2.0, 0.25),)

    @given(atoms=kernel_atoms(3), data=st.data())
    def test_merge_2d_ignores_atom_order(self, atoms, data):
        reordered = data.draw(st.permutations(atoms))
        # == and not repr: 0.0 and -0.0 are one location
        assert reference_merge_2d(reordered) == reference_merge_2d(atoms)

    @given(atoms=with_non_finite(2))
    def test_non_finite_1d_raises_like_the_reference(self, atoms):
        got, expected = raised(measures._merge_1d, atoms), raised(reference_merge_1d, atoms)
        assert isinstance(got, type(expected)) and str(got) == str(expected)

    @given(
        x=kernel_atoms(2),
        y=kernel_atoms(2),
        big=st.sampled_from((1.0, 1e200)),
    )
    def test_product(self, x, y, big):
        """Nonnegative factors on near-coincident locations; masses that
        underflow, or (scaled by 1e200) overflow in the product."""
        factors = [
            AtomicMeasure1D(tuple((abs(loc), big * mass) for loc, mass in atoms if mass > 0.0))
            for atoms in (x, y)
        ]
        try:
            expected = reference_product_atoms(*factors)
        except ValueError as exc:
            got = raised(product, *factors)
            assert isinstance(got, ValueError) and str(got) == str(exc)
            return
        assert repr(product(*factors).atoms) == repr(expected)

    @given(atoms=kernel_atoms(2), tol=st.sampled_from((0.0, 1e-12, 0.5)))
    def test_positivity_and_as_positive(self, atoms, tol):
        """The witness is the reference's worst atom, as (location, mass)."""
        signed = SignedMeasure1D(tuple((abs(loc), mass) for loc, mass in atoms))
        check = positivity(signed, tol)
        positive, worst = reference_positivity(signed.atoms, tol)
        assert check.positive == positive
        if not positive:
            assert (check.location, check.mass) == worst
            return
        kept = [atom for atom in signed.atoms if atom[-1] > 0.0]
        assert repr(signed.as_positive(tol).atoms) == repr(reference_merge_1d(kept))


class TestMergePasses:
    """Merge passes counted at the one loop every merge runs."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        merge = measures._merge_floats_1d

        def counting(prepared):
            calls.append(len(prepared))
            return merge(prepared)

        monkeypatch.setattr(measures, "_merge_floats_1d", counting)
        return calls

    def test_product_makes_no_merge_pass(self, passes):
        rng = random.Random(30)
        mx, my = (
            AtomicMeasure1D(tuple((loc, 1.0 / 30) for loc in random_locations(rng, 30)))
            for _ in range(2)
        )
        passes.clear()
        assert len(product(mx, my).atoms) == 900
        assert passes == []

    @staticmethod
    def _wide_instance():
        fixture = Path(__file__).parent / "fixtures" / "tc30_subnormal_wide.json"
        return parse_instance(str(fixture)).instance

    def test_split_assembly_makes_no_merge_pass(self, passes):
        """The three pieces are laid out in sorted order; none is merged,
        nor is any measure they are made from."""
        inst = self._wide_instance()
        psi, phi = slack_measures(inst)
        passes.clear()
        mu = berger_measure(inst, psi=psi, phi=phi).joined()
        assert len(mu.atoms) > 900
        assert passes == []

    def test_split_assembly_scans_no_sign(self, monkeypatch):
        """No sign check scans mu's atoms, neither as they are assembled
        nor when they are joined: the only checks are those of the
        one-variable measures they are made from, the positive parts of
        psi and phi and the tildes of eta and psi."""
        inst = self._wide_instance()
        psi, phi = slack_measures(inst)
        psi_pos = psi.as_positive()
        factors = (psi_pos, phi.as_positive(), inst.eta.tilde(), psi_pos.tilde())
        scanned = []
        check = AtomicMeasure1D._check

        def counting(measure):
            scanned.append(len(measure.atoms))
            check(measure)

        monkeypatch.setattr(AtomicMeasure1D, "_check", counting)
        mu = berger_measure(inst, psi=psi, phi=phi).joined()
        assert len(mu.atoms) == 955
        assert scanned == [len(factor.atoms) for factor in factors]


# A mass factor of 5e-324 or 1e-300 makes a reweighted mass underflow to
# exactly 0, one of 1e300 makes a restriction's mass * loc overflow.
MASS_FACTORS = (1.0, 1.0, 1.0, 5e-324, 1e-300, 1e300)


@st.composite
def scaled_measures(draw, signed=False):
    """A measure of ``random_probability``, some of its atoms at the origin,
    each location scaled by 4**k for k in -30..30 and each mass by a factor
    of ``MASS_FACTORS``; signed, some masses are negated, some of them by a
    rounding-level amount."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = random_probability(rng, n_atoms=(1, 6), zero_prob=0.3)
    signs = (1.0, 1.0, -1e-14, -1.0) if signed else (1.0,)
    atoms = [
        (
            loc * 4.0 ** draw(st.integers(-30, 30)),
            mass * draw(st.sampled_from(MASS_FACTORS)) * draw(st.sampled_from(signs)),
        )
        for loc, mass in base.atoms
    ]
    return (SignedMeasure1D if signed else AtomicMeasure1D)(atoms)


def constructed_tilde(measure):
    """``tilde`` with the constructor's sort and merge."""
    norm = measure.reciprocal_norm()
    raw = [(loc, mass / (loc * norm)) for loc, mass in measure.atoms]
    total = functools.reduce(operator.add, (mass for _, mass in raw), 0)
    return AtomicMeasure1D([(loc, mass / total) for loc, mass in raw], probability=True)


def constructed_restriction(measure):
    """``restriction_measure`` with the constructor's sort and merge."""
    gamma_1 = measure.moment(1)
    if gamma_1 <= 0.0:
        raise DegenerateMeasure("measure concentrated at 0 cannot be restricted")
    atoms = [(loc, mass * loc / gamma_1) for loc, mass in measure.atoms if loc > 0.0]
    return AtomicMeasure1D(atoms, probability=True)


class TestDerivedMeasures:
    """A one-variable measure made at the locations of a merged one skips
    the merge; it must be what the constructor makes of the same atoms,
    bit for bit (compared by repr) and error for error.  So must a scaled
    product be the unscaled product's atoms times the coefficient."""

    @given(measure=scaled_measures())
    def test_tilde(self, measure):
        assert outcome(measure.tilde) == outcome(constructed_tilde, measure)

    @given(measure=scaled_measures())
    def test_restriction(self, measure):
        expected = outcome(constructed_restriction, measure)
        assert outcome(restriction_measure, measure) == expected

    @given(
        measure=scaled_measures(signed=True),
        tol=st.sampled_from((0.0, 1e-12, 0.5)),
    )
    def test_as_positive(self, measure, tol):
        if not positivity(measure, tol).positive:
            with pytest.raises(PreconditionViolated):
                measure.as_positive(tol)
            return
        positive = [atom for atom in measure.atoms if atom[1] > 0.0]
        assert outcome(measure.as_positive, tol) == outcome(AtomicMeasure1D, positive)

    def test_underflowed_mass_is_dropped(self):
        # 1e-300 / 4**30, against 1 / 4**-30, underflows in the reweighting
        measure = AtomicMeasure1D(((4.0**-30, 1.0), (4.0**30, 1e-300)))
        assert measure.tilde().atoms == ((4.0**-30, 1.0),)
        assert outcome(measure.tilde) == outcome(constructed_tilde, measure)

    def test_overflowing_restriction_power_is_named(self):
        # 1e300 * 4**30 overflows to inf in the atom and in gamma_1: inf / inf
        measure = AtomicMeasure1D(((1.0, 1.0), (4.0**30, 1e300)))
        expected = (NonFinite, "atom mass must be finite, got nan")
        assert outcome(restriction_measure, measure) == expected
        assert outcome(constructed_restriction, measure) == expected

    @given(
        x=scaled_measures(),
        y=scaled_measures(),
        coeff=st.sampled_from((0.0, 5e-324, 1.0, 1e300, math.inf)),
    )
    def test_scaled_product(self, x, y, coeff):
        try:
            unscaled = product(x, y)
        except NonFinite as exc:
            assert outcome(product, x, y, coeff) == (NonFinite, str(exc))
            return
        scaled = [(s, t, coeff * mass) for s, t, mass in unscaled.atoms]
        got = outcome(product, x, y, coeff)
        assert got == outcome(lambda: PlanarAtoms(reference_merge_2d(scaled)))
        if all(map(math.isfinite, (mass for _, _, mass in scaled))):
            kept = tuple(atom for atom in scaled if atom[2])
            assert repr(product(x, y, coeff).atoms) == repr(kept)


# Locations on the origin and a few tolerances off it on both sides (apart
# from it, as only 0.0 is at 0), and locations near 1.
origin_locations = st.one_of(
    st.sampled_from((0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)).map(lambda k: k * MERGE_REL_TOL),
    st.floats(0.999, 1.001),
)


def _built(cls, atoms):
    try:
        return cls(tuple(atoms))
    except ValueError:
        reject()


class TestChargesOrigin:
    """``charges_origin`` looks at the first atom only; that agrees with a
    scan of every atom because only 0.0 is at 0, and the merge leaves at
    most one atom there."""

    @given(st.lists(st.tuples(origin_locations, st.floats(0.01, 2.0)), max_size=6))
    def test_nonnegative_measures(self, atoms):
        measure = _built(AtomicMeasure1D, atoms)
        assert measure.charges_origin() == (mass_at(measure, 0.0) != 0.0)

    @given(
        st.lists(
            st.tuples(origin_locations, st.sampled_from((0.5, -0.5, 0.25, 1.0, -1.0))),
            max_size=8,
        )
    )
    def test_signed_measures(self, atoms):
        measure = _built(SignedMeasure1D, atoms)
        expected = any(same_location(loc, 0.0) for loc, _ in measure.atoms)
        assert measure.charges_origin() == expected

    def test_nonnegative_measures_are_signed_measures(self):
        assert isinstance(AtomicMeasure1D(((1.0, 1.0),)), SignedMeasure1D)


class TestTotals:
    """Totals add from the left with one rounding per addition, on every
    Python version (``sum`` compensates float rounding since 3.12)."""

    def test_small_masses_round_away_one_at_a_time(self):
        atoms = ((0.0, 1.0), (1.0, 1e-16), (2.0, 1e-16))
        assert AtomicMeasure1D(atoms).total_mass == 1.0
        assert SignedMeasure1D(atoms).total_mass == 1.0

    def test_empty_total_is_the_integer_zero(self):
        total = SignedMeasure1D(()).total_mass
        assert total == 0 and type(total) is int
