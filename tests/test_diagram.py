"""Weight-diagram synthesis: boundary recursions, moments, membership."""

import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcshift.diagram import FlatInstance, TCInstance
from tcshift.errors import (
    AtomAtZero,
    DegenerateMeasure,
    DepthExceeded,
    InvalidFlat,
    InvalidMoments,
    InvalidWeight,
    NotProbability,
)
from tcshift.measures import AtomicMeasure1D, dirac
from tcshift.reconstruct import subnormality_verdict

from helpers import (
    assert_measures_close,
    assert_scalar_close,
    f1_instance,
    half_half,
    m1,
    n1_instance,
    random_tc_instance,
    reference_moment,
    reference_weight,
    spike_instance,
    trivial_instance,
)


class TestBuild:
    def test_trivial_pair(self):
        inst = trivial_instance()
        assert inst.recip_s_xi == 1.0

    def test_f1_is_valid(self):
        inst = f1_instance()
        assert inst.y0_sq == 0.5
        assert inst.recip_t_eta == 1.0

    def test_core_measure_with_atom_at_origin_rejected(self):
        with pytest.raises(AtomAtZero):
            TCInstance(dirac(1.0), dirac(1.0), m1((0.0, 0.75), (1.0, 0.25)), dirac(1.0), 1.0)

    def test_non_probability_rejected(self):
        with pytest.raises(NotProbability):
            TCInstance(m1((1.0, 0.9)), dirac(1.0), dirac(1.0), dirac(1.0), 1.0)

    def test_nonpositive_joining_weight_rejected(self):
        with pytest.raises(InvalidWeight):
            TCInstance(dirac(1.0), dirac(1.0), dirac(1.0), dirac(1.0), 0.0)


class TestWeights:
    def test_trivial_pair_is_all_ones(self):
        inst = trivial_instance()
        for k1, k2 in ((0, 0), (3, 0), (0, 5), (2, 4), (7, 7)):
            assert inst.weight_at(k1, k2, "h") == 1.0
            assert inst.weight_at(k1, k2, "v") == 1.0

    def test_f1_bottom_row_vertical(self):
        # commutativity forces beta[(1,0)] = a y0 / x0
        inst = f1_instance()
        assert_scalar_close(inst.weight_at(1, 0, "v"), math.sqrt(0.5))

    def test_f1_column_zero_horizontal(self):
        inst = f1_instance()
        assert_scalar_close(inst.weight_at(0, 2, "h"), math.sqrt(0.5))

    def test_n1_bottom_row_verticals_freeze(self):
        # a^2 y0^2 / x0^2 = 0.25 / 0.9, constant along the bottom row
        inst = n1_instance()
        for k1 in range(1, 8):
            assert_scalar_close(inst.weight_at(k1, 0, "v") ** 2, 0.25 / 0.9)

    def test_depth_limit(self):
        inst = f1_instance()
        with pytest.raises(DepthExceeded):
            inst.weight_at(inst.depth_limit + 1, 0, "h")

    def test_follow_the_commutativity_formulas(self):
        rng = random.Random(29)
        instances = [f1_instance(), n1_instance(), trivial_instance()] + [
            random_tc_instance(rng) for _ in range(20)
        ]
        indices = range(TCInstance.depth_limit + 1)
        for inst in instances:
            for k1 in indices:
                for k2 in indices:
                    for direction in ("h", "v"):
                        assert inst.weight_at(k1, k2, direction) == reference_weight(
                            inst, k1, k2, direction
                        ), (k1, k2, direction)

    def test_weights_error_comes_before_a_bad_direction(self):
        # the order-33 moment of delta_{1e-10} underflows to 0
        inst = TCInstance(dirac(1e-10), dirac(1.0), dirac(1.0), dirac(1.0), 1.0)
        with pytest.raises(InvalidMoments, match="^moment 33 of the measure underflows to 0$"):
            inst.weight_at(0, 0, "d")

    def test_moment_ratios_recover_squared_weights(self):
        rng = random.Random(7)
        instances = [f1_instance(), n1_instance()] + [
            random_tc_instance(rng) for _ in range(3)
        ]
        for inst in instances:
            for k1 in range(6):
                for k2 in range(6):
                    gamma = inst.moment(k1, k2)
                    assert_scalar_close(
                        inst.moment(k1 + 1, k2) / gamma,
                        inst.weight_at(k1, k2, "h") ** 2,
                        1e-12,
                    )
                    assert_scalar_close(
                        inst.moment(k1, k2 + 1) / gamma,
                        inst.weight_at(k1, k2, "v") ** 2,
                        1e-12,
                    )


class TestMoments:
    def test_order_zero(self):
        assert trivial_instance().moment(0, 0) == 1.0
        assert f1_instance().moment(0, 0) == 1.0

    def test_f1_interior(self):
        assert_scalar_close(f1_instance().moment(2, 1), 0.25)

    def test_f1_bottom_row(self):
        assert_scalar_close(f1_instance().moment(3, 0), 0.5)

    def test_path_independence(self):
        rng = random.Random(13)
        instances = [f1_instance(), n1_instance(), trivial_instance()] + [
            random_tc_instance(rng) for _ in range(3)
        ]
        for inst in instances:
            for total in range(13):
                for k1 in range(total + 1):
                    k2 = total - k1
                    row_first = inst.moment(k1, k2)
                    column_first = 1.0
                    for j in range(k2):
                        column_first *= inst.weight_at(0, j, "v") ** 2
                    for i in range(k1):
                        column_first *= inst.weight_at(i, k2, "h") ** 2
                    assert_scalar_close(row_first, column_first, 1e-12)


def _scaled(inst: TCInstance, c: float) -> TCInstance:
    """Every location times c and a times sqrt(c)."""
    measures = (
        AtomicMeasure1D(tuple((loc * c, mass) for loc, mass in m.atoms), probability=True)
        for m in (inst.xi_x, inst.eta_y, inst.xi, inst.eta)
    )
    return TCInstance(*measures, inst.a * math.sqrt(c))


def _outcome(moment, k1: int, k2: int):
    try:
        return repr(moment(k1, k2))
    except Exception as exc:
        return type(exc)


INDICES = range(36)


class TestMomentTable:
    """The cached gamma table against the path walk it replaced."""

    @settings(max_examples=25)
    @given(
        source=st.one_of(
            st.sampled_from(("f1", "n1")),
            st.integers(0, 2**32),
        ),
        # at 1e9 and 1e10 the order-33 moments of most instances overflow,
        # so no weight table exists
        scale=st.sampled_from((1.0, 1e-6, 1e6, 1e9, 1e10)),
    )
    def test_matches_the_path_walk(self, source, scale):
        if source == "f1":
            inst = f1_instance()
        elif source == "n1":
            inst = n1_instance()
        else:
            inst = random_tc_instance(random.Random(source))
        inst = _scaled(inst, scale)
        walk = functools.partial(reference_moment, inst)
        for k1 in INDICES:
            for k2 in INDICES:
                got = _outcome(inst.moment, k1, k2)
                want = _outcome(walk, k1, k2)
                if (k1, k2) == (0, 0) and not isinstance(got, str):
                    # the walk multiplies no weight for gamma_(0, 0); the
                    # table needs them all
                    want = _outcome(walk, 1, 0)
                assert got == want, (k1, k2)
        for k1, k2 in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                inst.moment(k1, k2)

    def test_valid_indices(self):
        inst = f1_instance()
        limit = inst.depth_limit
        for k1 in INDICES:
            for k2 in INDICES:
                valid = k1 <= limit + 1 if k2 == 0 else k1 <= limit and k2 <= limit + 1
                if valid:
                    inst.moment(k1, k2)
                else:
                    with pytest.raises(DepthExceeded):
                        inst.moment(k1, k2)

    def test_lookup_walks_no_weights(self, monkeypatch):
        inst = n1_instance()
        inst.moment(0, 0)
        calls = []
        weight_at = TCInstance.weight_at

        def counting(self, *args):
            calls.append(args)
            return weight_at(self, *args)

        monkeypatch.setattr(TCInstance, "weight_at", counting)
        for k1 in range(inst.depth_limit + 1):
            for k2 in range(inst.depth_limit + 2):
                inst.moment(k1, k2)
        inst.row_moments(3, 20)
        inst.column_moments(3, 20)
        assert calls == []


def _verdict_at(make, a: float):
    """repr of the verdict of ``make(a)``, or the type and message of the
    first error that building or deciding it raises."""
    try:
        return repr(subnormality_verdict(make(a)))
    except Exception as exc:
        return type(exc), str(exc)


def _fresh(inst: TCInstance, a: float) -> TCInstance:
    return TCInstance(inst.xi_x, inst.eta_y, inst.xi, inst.eta, a)


class TestWithA:
    """``with_a`` shares the values that do not depend on a; everything it
    yields must equal what a freshly built instance yields."""

    @settings(max_examples=25, deadline=None)
    @given(
        source=st.one_of(
            st.sampled_from(("f1", "n1", "no-column-tail")),
            st.integers(0, 2**32),
        )
    )
    def test_verdicts_and_errors_match_a_fresh_instance(self, source):
        if source == "f1":
            inst = f1_instance()
        elif source == "n1":
            inst = n1_instance()
        elif source == "no-column-tail":
            # eta_y = delta_0 has no tail: every point raises
            inst = TCInstance(half_half(), dirac(0.0), dirac(1.0), dirac(1.0), math.sqrt(0.5))
        else:
            inst = random_tc_instance(random.Random(source))
        # psi has total mass 1 - a^2 ||1/s||_xi, so every subnormal a lies
        # below a_max; a fine grid up to it crosses each subnormal interval,
        # and one across [0.5 a, 1.5 a] meets the generators' own a
        a_max = 1.0 / math.sqrt(inst.recip_s_xi)
        points = [1.2 * a_max * k / 60 for k in range(61)]
        points += [inst.a * (0.5 + k / 40) for k in range(41)]
        points += [0.0, -1.0, 1e200, math.inf, math.nan]
        for value in points:
            assert _verdict_at(inst.with_a, value) == _verdict_at(
                functools.partial(_fresh, inst), value
            ), value

    @pytest.mark.parametrize("make", [f1_instance, n1_instance, trivial_instance])
    def test_moments_match_a_fresh_instance(self, make):
        inst = make()
        inst.moment(0, 0)  # the source's own weight tables exist first
        for value in (0.5 * inst.a, 1.25 * inst.a):
            shifted, fresh = inst.with_a(value), _fresh(inst, value)
            assert shifted.a == value
            for k1 in INDICES:
                for k2 in INDICES:
                    assert _outcome(shifted.moment, k1, k2) == _outcome(fresh.moment, k1, k2)

    def test_shares_the_values_that_do_not_depend_on_a(self):
        inst = f1_instance()
        shifted = inst.with_a(0.5)
        assert shifted.eta_y_tail is inst.eta_y_tail
        assert shifted.xi_tilde is inst.xi_tilde
        assert shifted.moment(1, 1) != inst.moment(1, 1)


DEPTHS = range(1, 9)


class TestMembership:
    def test_trivial_pair_passes(self):
        assert trivial_instance().check_membership_h0(8).passed

    def test_f1_passes(self):
        assert f1_instance().check_membership_h0(8).passed

    def test_n1_passes(self):
        # in the base class yet not subnormal: the point of the criterion
        assert n1_instance().check_membership_h0(8).passed

    def test_oversized_joining_weight_fails_in_row_one(self):
        report = spike_instance(2.0).check_membership_h0(8)
        assert not report.passed
        assert report.first_failure == ("row", 1)

    def test_growing_core_fails_first_in_column_four(self):
        # rows: alpha(0, k)^2 ||1/s||_xi = 1/8; columns: beta(k, 0)^2 = 2^(k - 3)
        inst = TCInstance(dirac(1.0), dirac(1.0), dirac(2.0), dirac(1.0), 0.5)
        assert inst.check_membership_h0(3) == (True, 3, None)
        assert inst.check_membership_h0(8) == (False, 8, ("column", 4))

    def test_matches_the_weights_of_the_diagram(self):
        rng = random.Random(20261019)
        seen = set()
        for _ in range(300):
            inst = random_tc_instance(rng)
            recip_s, recip_t = inst.recip_s_xi, inst.recip_t_eta
            lines = [(("row", k), inst.weight_at(0, k, "h") ** 2 * recip_s) for k in DEPTHS]
            lines += [(("column", k), inst.weight_at(k, 0, "v") ** 2 * recip_t) for k in DEPTHS]
            if any(abs(ratio - 1.0) <= 1e-9 for _, ratio in lines):
                continue
            failures = [line for line, ratio in lines if ratio > 1.0 + 1e-12]
            first = failures[0] if failures else None
            assert inst.check_membership_h0(8) == (first is None, 8, first)
            seen.add(first and first[0])
        assert seen == {None, "row", "column"}

    @pytest.mark.parametrize("name", ["xi_x", "eta_y"])
    def test_a_boundary_measure_at_0_is_degenerate(self, name):
        measures = {"xi_x": half_half(), "eta_y": half_half(), "xi": dirac(1.0), "eta": dirac(1.0)}
        inst = TCInstance(**{**measures, name: dirac(0.0)}, a=0.5)
        with pytest.raises(DegenerateMeasure):
            inst.check_membership_h0(8)

    def test_depth_below_one_is_refused(self):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            f1_instance().check_membership_h0(0)


class TestRestriction:
    """The restriction to k2 >= i, k1 >= j has the moments
    gamma_(j + k1, i + k2) / gamma_(j, i)."""

    def test_identity(self):
        inst = f1_instance()
        for k1, k2 in ((0, 0), (2, 1), (4, 3)):
            assert inst.moment(k1, k2) / inst.moment(0, 0) == inst.moment(k1, k2)

    def test_f1_core_is_the_unweighted_tensor_pair(self):
        inst = f1_instance()
        for k1 in range(5):
            for k2 in range(5):
                assert_scalar_close(inst.moment(1 + k1, 1 + k2) / inst.moment(1, 1), 1.0)

    def test_core_moments_factor(self):
        rng = random.Random(21)
        for _ in range(5):
            inst = random_tc_instance(rng)

            def core(k1, k2):
                return inst.moment(1 + k1, 1 + k2) / inst.moment(1, 1)

            for k1 in range(1, 7):
                for k2 in range(1, 7):
                    assert_scalar_close(
                        core(k1, k2),
                        core(k1, 0) * core(0, k2),
                        1e-12,
                    )

    def test_row_moments(self):
        # row 1 of F1 is shift(a, 1, 1, ...), so the moments freeze at a^2
        seq = f1_instance().row_moments(1, 5)
        assert seq == pytest.approx((1.0, 0.5, 0.5, 0.5, 0.5), abs=1e-12)


class TestFlatInstance:
    def test_embedding_reproduces_the_marginal_measures(self):
        flat = FlatInstance(p=0.5, q=0.5, l=0.5, m=0.5, b=1.0, a=math.sqrt(0.5))
        inst = flat.embed()
        assert_measures_close(inst.xi_x, half_half())
        assert_measures_close(inst.eta_y, half_half())
        assert inst.xi.atoms == ((1.0, 1.0),)
        assert inst.eta.atoms == ((1.0, 1.0),)

    def test_scaled_core(self):
        flat = FlatInstance(p=0.25, q=0.75, l=0.5, m=0.5, b=1.5, a=1.0)
        inst = flat.embed()
        assert inst.eta.atoms == ((2.25, 1.0),)
        assert_measures_close(inst.eta_y, m1((0.0, 0.5), (2.25, 0.5)))

    def test_mass_bounds(self):
        with pytest.raises(InvalidFlat):
            FlatInstance(p=0.7, q=0.7, l=0.5, m=0.5, b=1.0, a=1.0)
        with pytest.raises(InvalidFlat):
            FlatInstance(p=0.5, q=0.0, l=0.5, m=0.5, b=1.0, a=1.0)

    def test_joining_weight_bounded_by_core(self):
        with pytest.raises(InvalidFlat):
            FlatInstance(p=0.5, q=0.5, l=0.5, m=0.5, b=1.0, a=1.2)

    def test_remainder_required_when_weighted(self):
        with pytest.raises(InvalidFlat):
            FlatInstance(p=0.3, q=0.3, l=0.5, m=0.5, b=1.0, a=1.0)

    def test_remainder_support_restrictions(self):
        with pytest.raises(InvalidFlat):
            FlatInstance(
                p=0.3, q=0.3, l=0.5, m=0.5, b=1.0, a=1.0, rho=dirac(1.0)
            )
        with pytest.raises(InvalidFlat):
            FlatInstance(
                p=0.5, q=0.5, l=0.3, m=0.3, b=1.0, a=1.0, sigma=dirac(1.0)
            )

    def test_valid_remainders(self):
        flat = FlatInstance(
            p=0.3,
            q=0.3,
            l=0.3,
            m=0.3,
            b=1.0,
            a=0.5,
            rho=m1((2.0, 1.0)),
            sigma=m1((0.5, 0.5), (2.0, 0.5)),
        )
        assert_measures_close(
            flat.xi_x, m1((0.0, 0.3), (1.0, 0.3), (2.0, 0.4))
        )
        assert_measures_close(
            flat.eta_y, m1((0.0, 0.3), (0.5, 0.2), (1.0, 0.3), (2.0, 0.2))
        )
