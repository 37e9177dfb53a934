"""Weight-diagram synthesis: boundary recursions, moments, membership."""

import functools
import math
import random
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcshift.diagram import FlatInstance, TCInstance
from tcshift.errors import (
    AtomAtZero,
    DegenerateMeasure,
    DepthExceeded,
    InvalidFlat,
    InvalidWeight,
    NonFinite,
    NotProbability,
    TCShiftError,
)
from tcshift import diagram, measures
from tcshift.measures import AtomicMeasure1D, dirac
from tcshift.reconstruct import subnormality_verdict

from helpers import (
    assert_measures_close,
    assert_scalar_close,
    f1_instance,
    half_half,
    m1,
    n1_instance,
    random_psi_positive_instance,
    random_subnormal_instance,
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

    @pytest.mark.parametrize("k1, k2", [(-1, 0), (0, -1)])
    def test_a_negative_index_is_refused(self, k1, k2):
        with pytest.raises(ValueError, match="^weight indices must be nonnegative$"):
            f1_instance().weight_at(k1, k2, "h")

    def test_an_unknown_direction_is_refused(self):
        with pytest.raises(ValueError, match="^direction must be 'h' or 'v', got 'd'$"):
            f1_instance().weight_at(0, 0, "d")

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
    """The closed-form moments against the path walk, within rounding."""

    @settings(max_examples=25)
    @given(
        source=st.one_of(
            st.sampled_from(("f1", "n1")),
            st.integers(0, 2**32),
        ),
        # at 1e9 and 1e10 the order-33 moments of most instances overflow
        # to inf, on either route
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
                if isinstance(got, str) and isinstance(want, str) and got != want:
                    got, want = float(got), float(want)
                    assert abs(got - want) <= 1e-12 * abs(want), (k1, k2, got, want)
                else:
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


#: The generators of ``helpers``; in the first two, the column-0 tail sits
#: exactly on eta's locations, so psi's merge runs pair its atoms.
GENERATORS = {
    "subnormal": random_subnormal_instance,
    "psi-positive": random_psi_positive_instance,
    "mixed": random_tc_instance,
}


def _xi_x_at_negative_zero() -> TCInstance:
    """f1 with its row-0 atom at -0.0, which delta_0 meets in phi."""
    return TCInstance(m1((-0.0, 0.5), (1.0, 0.5)), half_half(), dirac(1.0), dirac(1.0), 0.5)


class TestWithA:
    """``with_a`` copies the values that do not depend on a and that its
    instance has computed; everything it yields must equal what a freshly
    built instance yields."""

    @settings(max_examples=40, deadline=None)
    @given(
        source=st.one_of(
            st.sampled_from(("f1", "n1", "no-column-tail")),
            st.tuples(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32)),
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
            generator, seed = source
            inst = GENERATORS[generator](random.Random(seed))
        # psi has total mass 1 - a^2 ||1/s||_xi, so every subnormal a lies
        # below a_max; a fine grid up to it crosses each subnormal interval,
        # and one across [0.5 a, 1.5 a] meets the generators' own a
        a_max = 1.0 / math.sqrt(inst.recip_s_xi)
        points = [1.2 * a_max * k / 60 for k in range(61)]
        points += [inst.a * (0.5 + k / 40) for k in range(41)]
        points += [0.0, -1.0, 1e200, math.inf, math.nan]
        # one chain, as a sweep walks it: each point from the last that was made
        chain = [inst]

        def next_point(value):
            chain.append(chain[-1].with_a(value))
            return chain[-1]

        for value in points:
            assert _verdict_at(next_point, value) == _verdict_at(
                functools.partial(_fresh, inst), value
            ), value

    @pytest.mark.parametrize(
        "make, value",
        [
            # a^2 underflows to 0: psi's and phi's a-terms are skipped
            (f1_instance, 1e-200),
            # a^2 overflows; a^2 is finite but a mass of phi is not, which
            # the merge names
            (f1_instance, 1e200),
            (lambda: TCInstance(half_half(), half_half(), dirac(1.0), dirac(1e-10), 0.5), 1e150),
            # psi's one atom cancels, so psi is empty and delta_0 is skipped
            (f1_instance, 1.0),
            # delta_0 meets xi_x's atom at -0.0, at every a
            (_xi_x_at_negative_zero, 0.5),
            (_xi_x_at_negative_zero, 0.7),
        ],
    )
    def test_edge_points_match_a_fresh_instance(self, make, value):
        inst = make()
        assert _verdict_at(inst.with_a, value) == _verdict_at(
            functools.partial(_fresh, inst), value
        )

    def test_psi_cancels_at_a_one(self):
        assert subnormality_verdict(f1_instance().with_a(1.0)).psi.atoms == ()

    def test_both_zeros_in_phi_leave_it_to_the_merge(self):
        # which zero heads the run depends on the masses, so on a
        inst = _xi_x_at_negative_zero().with_a(0.5)
        assert inst.phi_runs is None
        assert inst.psi_runs is not None

    @pytest.fixture
    def merges(self, monkeypatch):
        """Calls of the 1-D merge and of ``merge_runs``, by name."""
        calls = []
        merge, runs = measures._merge_floats_1d, diagram.merge_runs

        def counting_merge(prepared):
            calls.append("merge")
            return merge(prepared)

        def counting_runs(terms):
            calls.append("runs")
            return runs(terms)

        monkeypatch.setattr(measures, "_merge_floats_1d", counting_merge)
        monkeypatch.setattr(diagram, "merge_runs", counting_runs)
        return calls

    @pytest.mark.parametrize("make", [f1_instance, n1_instance, *GENERATORS.values()])
    def test_a_family_merges_psi_and_phi_once(self, make, merges):
        inst = make(random.Random(7)) if make in GENERATORS.values() else make()
        member = inst.with_a(inst.a)
        subnormality_verdict(member)
        assert merges.count("runs") == 2
        merges.clear()
        for k in range(1, 11):
            member = member.with_a(inst.a * (0.5 + k / 10))
            subnormality_verdict(member)
        assert merges == []

    @pytest.mark.parametrize("make", [f1_instance, n1_instance])
    def test_a_constructed_instance_builds_no_runs(self, make, merges):
        inst = make()
        subnormality_verdict(inst)
        subnormality_verdict(_fresh(inst, 0.5 * inst.a))
        assert "runs" not in merges
        assert "psi_runs" not in vars(inst) and "phi_runs" not in vars(inst)

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

    @pytest.mark.parametrize("make", [f1_instance, n1_instance, trivial_instance])
    def test_copies_no_cache_that_depends_on_a(self, make):
        inst = make()
        names = [
            name for name, value in vars(TCInstance).items() if isinstance(value, cached_property)
        ]
        assert set(TCInstance._DEPENDS_ON_A) < set(names)
        for name in names:
            getattr(inst, name)
        value = 0.8 * inst.a
        shifted, fresh = inst.with_a(value), _fresh(inst, value)
        for name in names:
            assert repr(getattr(shifted, name)) == repr(getattr(fresh, name)), name

    def test_shares_the_values_that_do_not_depend_on_a(self):
        member = f1_instance().with_a(0.7)
        member.moment(1, 1)  # the weights and moments exist first
        subnormality_verdict(member)
        shifted = member.with_a(0.5)
        assert shifted.eta_y_tail is member.eta_y_tail
        assert shifted.xi_tilde is member.xi_tilde
        assert shifted._weights is member._weights
        assert shifted.moment(1, 1) != member.moment(1, 1)

    @pytest.fixture
    def a_free_calls(self, monkeypatch):
        """Calls of the functions that compute the values that do not
        depend on a, by name."""
        calls = []
        for owner, name in (
            (diagram, "restriction_measure"),
            (AtomicMeasure1D, "tilde"),
            (diagram, "merge_runs"),
        ):

            def counting(*args, _name=name, _original=getattr(owner, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize("make", [f1_instance, n1_instance, *GENERATORS.values()])
    def test_a_member_reads_the_computed_values_as_plain_attributes(self, make, a_free_calls):
        inst = make(random.Random(7)) if make in GENERATORS.values() else make()
        a_free_calls.clear()  # a generator may call them itself
        member = inst.with_a(inst.a)
        subnormality_verdict(member)
        # the first point computes them
        assert Counter(a_free_calls) == {"restriction_measure": 1, "tilde": 1, "merge_runs": 2}
        fresh = subnormality_verdict(_fresh(inst, 0.75 * inst.a))
        a_free_calls.clear()
        assert subnormality_verdict(member.with_a(0.75 * inst.a)) == fresh
        assert a_free_calls == []

    def test_a_value_that_raises_is_never_shared(self, a_free_calls):
        # eta_y = delta_0 has no tail, so every point raises
        member = TCInstance(half_half(), dirac(0.0), dirac(1.0), dirac(1.0), math.sqrt(0.5))
        errors = []
        for value in (0.5, 0.6, 0.7):
            member = member.with_a(value)
            with pytest.raises(DegenerateMeasure) as raised:
                subnormality_verdict(member)
            errors.append(str(raised.value))
        assert errors == [errors[0]] * 3
        assert a_free_calls.count("restriction_measure") == 3
        assert "eta_y_tail" not in vars(member)


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

    @pytest.mark.parametrize("name", ["rho", "sigma"])
    def test_a_remainder_of_zero_weight_is_refused(self, name):
        with pytest.raises(InvalidFlat, match=f"^{name} given but its weight is zero$"):
            FlatInstance(p=0.5, q=0.5, l=0.5, m=0.5, b=1.0, a=1.0, **{name: dirac(2.0)})

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


FLAT_BASES = (
    dict(p=0.5, q=0.5, l=0.5, m=0.5, b=1.0, a=math.sqrt(0.5)),
    dict(p=0.3, q=0.3, l=0.3, m=0.3, b=1.0, a=0.5, rho=m1((2.0, 1.0)), sigma=m1((0.5, 1.0))),
)


def scalar_constructors():
    """(label, field, call) for every public way to give an instance a scalar."""
    measures = (dirac(1.0), dirac(2.0), dirac(1.0), dirac(2.0))
    yield "TCInstance", "a", lambda x: TCInstance(*measures, x)
    yield "with_a", "a", lambda x: f1_instance().with_a(x)
    for index, base in enumerate(FLAT_BASES):
        for field in ("p", "q", "l", "m", "b", "a"):
            yield f"FlatInstance {index} {field}", field, (
                lambda x, base=base, field=field: FlatInstance(**{**base, field: x})
            )


SCALAR_CONSTRUCTORS = list(scalar_constructors())


class TestScalarFields:
    """Each scalar a constructor takes becomes a float once, and any JSON
    number given as one is accepted or refused with a library error."""

    @pytest.mark.parametrize("label, field, make", SCALAR_CONSTRUCTORS)
    def test_an_integer_too_large_for_a_float_is_named(self, label, field, make):
        for value in (10**400, -(10**400)):
            with pytest.raises(
                NonFinite, match=f"^{field} must be finite, got an integer too large for a float$"
            ):
                make(value)

    def test_integers_are_held_as_floats(self):
        tc = TCInstance(dirac(1.0), dirac(1.0), dirac(1.0), dirac(1.0), 1)
        flat = FlatInstance(p=0, q=1, l=0, m=1, b=1, a=1)
        assert repr(tc.a) == repr(tc.with_a(2).a / 2) == "1.0"
        assert repr(flat) == (
            "FlatInstance(p=0.0, q=1.0, l=0.0, m=1.0, b=1.0, a=1.0, rho=None, sigma=None)"
        )

    @settings(max_examples=400, deadline=None)
    @given(
        constructor=st.sampled_from(SCALAR_CONSTRUCTORS),
        value=st.one_of(
            st.integers(), st.integers(min_value=-(10**400), max_value=10**400), st.floats()
        ),
    )
    @example(constructor=SCALAR_CONSTRUCTORS[0], value=math.nan)
    @example(constructor=SCALAR_CONSTRUCTORS[1], value=-0.0)
    @example(constructor=SCALAR_CONSTRUCTORS[2], value=math.inf)
    @example(constructor=SCALAR_CONSTRUCTORS[6], value=10**400)
    def test_any_json_number_is_taken_or_refused_by_name(self, constructor, value):
        _, field, make = constructor
        try:
            instance = make(value)
        except TCShiftError:
            return
        assert type(getattr(instance, field)) is float
