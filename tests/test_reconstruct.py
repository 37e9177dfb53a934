"""Verdicts, the reconstructed joint measure, and its cross-checks."""

import json
import math
import random
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcshift.cli import _mu_pieces, parse_instance
from tcshift.diagram import FlatInstance, TCInstance
from tcshift.errors import (
    DegenerateMeasure,
    NonFinite,
    NotProbability,
    PreconditionViolated,
    TCShiftError,
)
from tcshift.measures import (
    PROBABILITY_TOL,
    AtomicMeasure1D,
    PlanarAtoms,
    combine,
    dirac,
    positivity,
)
from tcshift.oracles import moment_interpolation_check
from tcshift.reconstruct import (
    DEFAULT_TOL,
    Diagnostics,
    _decide,
    _laid_out,
    berger_measure,
    compute_phi,
    compute_psi,
    flat_verdict,
    subnormality_verdict,
)

from helpers import (
    FIXTURES,
    FLAT_FIXTURES,
    assert_measures_close,
    assert_scalar_close,
    atom_difference,
    backward_extension,
    dirac2,
    f1_flat,
    f1_instance,
    fixture_instances,
    half_half,
    m1,
    marginal,
    mass_at,
    measure_M,
    n1_flat,
    planar_moment,
    n1_instance,
    random_flat_instance,
    random_psi_positive_instance,
    random_subnormal_instance,
    random_tc_instance,
    reciprocal_norm,
    reference_berger_correction,
    reference_berger_measure,
    reference_berger_split,
    reference_combination,
    slack_measures,
    spike_instance,
    trivial_instance,
)


class TestSlackMeasures:
    def test_trivial_pair_has_zero_slack(self):
        inst = trivial_instance()
        psi, phi = slack_measures(inst)
        assert psi.atoms == ()
        assert phi.atoms == ()

    def test_f1(self):
        inst = f1_instance()
        psi, phi = slack_measures(inst)
        assert_measures_close(psi, m1((1.0, 0.5)))
        assert_measures_close(phi, m1((0.0, 0.25), (1.0, 0.25)))

    def test_n1_phi_goes_negative(self):
        _, phi = slack_measures(n1_instance())
        assert mass_at(phi, 0.0) == pytest.approx(-0.15, abs=1e-12)
        assert mass_at(phi, 1.0) == pytest.approx(0.65, abs=1e-12)

    def test_flat_closed_form(self):
        # psi = (m b^2 / y0^2) d_{b^2} + ((1-l-m)/y0^2) sigma_1 - a^2 d_{b^2}
        # with sigma_1 the reweighting of sigma by t
        flat = FlatInstance(
            p=0.3,
            q=0.4,
            l=0.2,
            m=0.5,
            b=1.3,
            a=0.8,
            rho=m1((2.5, 1.0)),
            sigma=m1((0.7, 0.6), (3.0, 0.4)),
        )
        b_sq = 1.3**2
        rest_y = 1.0 - (0.2 + 0.5)
        y0_sq = 0.5 * b_sq + rest_y * (0.7 * 0.6 + 3.0 * 0.4)
        expected = combine(
            [
                (0.5 * b_sq / y0_sq - 0.8**2, dirac(b_sq)),
                (rest_y * 0.7 * 0.6 / y0_sq, dirac(0.7)),
                (rest_y * 3.0 * 0.4 / y0_sq, dirac(3.0)),
            ]
        )
        assert_measures_close(compute_psi(flat.embed()), expected, 1e-12)
        assert_measures_close(flat_verdict(flat).psi, expected, 1e-12)

    def test_norm_identity(self):
        rng = random.Random(314)
        for _ in range(30):
            inst = random_psi_positive_instance(rng)
            verdict = subnormality_verdict(inst)
            diag = verdict.diagnostics
            assert_scalar_close(
                diag.recip_t_psi,
                diag.recip_t_eta_y_tail
                - inst.a**2 * diag.recip_s_xi * diag.recip_t_eta,
                1e-12,
            )


class TestVerdict:
    def test_trivial_pair(self):
        inst = trivial_instance()
        verdict = subnormality_verdict(inst)
        assert verdict.subnormal
        mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi).joined()
        assert mu.atoms == ((1.0, 1.0, 1.0),)

    def test_f1(self):
        inst = f1_instance()
        verdict = subnormality_verdict(inst)
        assert verdict.subnormal
        mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi).joined()
        for s, t in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
            assert mass_at(mu, s, t) == pytest.approx(0.25, abs=1e-12)
        assert len(mu.atoms) == 4

    def test_n1(self):
        verdict = subnormality_verdict(n1_instance())
        assert not verdict.subnormal
        assert verdict.witness.measure == "phi"
        assert verdict.witness.location == 0.0
        assert verdict.witness.mass == pytest.approx(-0.15, abs=1e-12)

    def test_psi_failure_reported_first(self):
        verdict = subnormality_verdict(spike_instance(2.0))
        assert not verdict.subnormal
        assert verdict.witness.measure == "psi"
        assert verdict.phi is None

    @pytest.mark.parametrize(
        "values, message",
        [
            ((1.0, math.inf, 1.0, 1.0), "recip_t_eta is not finite, got inf"),
            ((1.0, 1.0, -math.inf, 1.0), "recip_t_psi is not finite, got -inf"),
            ((1.0, 1.0, 1.0, math.nan), "recip_t_eta_y_tail is not finite, got nan"),
        ],
    )
    def test_a_non_finite_diagnostic_is_refused_by_name(self, values, message):
        with pytest.raises(NonFinite, match=f"^the diagnostic {message}$"):
            _decide(dirac(1.0), lambda: dirac(1.0), Diagnostics(*values), DEFAULT_TOL)

    def test_finite_diagnostics_whose_sum_overflows_are_kept(self):
        diag = Diagnostics(1e308, 1e308, 1.0, 1.0)
        verdict = _decide(dirac(1.0), lambda: dirac(1.0), diag, DEFAULT_TOL)
        assert verdict.subnormal and verdict.diagnostics == diag

    def test_degenerate_column_measure(self):
        inst = TCInstance(dirac(1.0), dirac(0.0), dirac(1.0), dirac(1.0), 1.0)
        with pytest.raises(DegenerateMeasure):
            compute_psi(inst)

    @pytest.mark.parametrize("decide", [subnormality_verdict, berger_measure])
    def test_nan_tolerance_refused(self, decide):
        # not a verdict with a positive atom as its witness
        inst = f1_instance()
        psi, phi = slack_measures(inst)
        slack = {} if decide is subnormality_verdict else {"psi": psi, "phi": phi}
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            decide(inst, math.nan, **slack)


class TestBergerMeasure:
    def test_forms_agree_on_f1(self):
        inst = f1_instance()
        psi, phi = slack_measures(inst)
        split = berger_measure(inst, psi=psi, phi=phi).joined()
        corrected = reference_berger_correction(inst, DEFAULT_TOL, psi, phi)
        assert_measures_close(split, corrected, 1e-12)

    def test_rejects_negative_slack(self):
        verdict = subnormality_verdict(n1_instance())
        with pytest.raises(PreconditionViolated):
            berger_measure(n1_instance(), psi=verdict.psi, phi=verdict.phi)

    def test_probability_marginals_and_assembly_on_random_instances(self):
        rng = random.Random(20260810)
        for _ in range(40):
            inst = random_subnormal_instance(rng)
            verdict = subnormality_verdict(inst)
            assert verdict.subnormal
            mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi).joined()
            assert abs(planar_moment(mu, 0, 0) - 1.0) <= 1e-12
            assert atom_difference(marginal(mu, 0), inst.xi_x) <= 1e-10
            assert atom_difference(marginal(mu, 1), inst.eta_y) <= 1e-10
            assert_measures_close(
                mu, reference_berger_correction(inst, DEFAULT_TOL, verdict.psi, verdict.phi), 1e-12
            )

    def test_interpolates_the_moments(self):
        rng = random.Random(555)
        instances = [f1_instance()] + [random_subnormal_instance(rng) for _ in range(10)]
        for inst in instances:
            verdict = subnormality_verdict(inst)
            mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi).joined()
            report = moment_interpolation_check(inst, mu, 16)
            assert report.passed, report.first_failure


def _outcome(build):
    """The repr of the measure ``build`` returns, or the type and message
    of what it raises."""
    try:
        return repr(build())
    except (ArithmeticError, ValueError, TCShiftError) as error:
        return type(error), str(error)


def _split_outcomes(inst, tol=DEFAULT_TOL, slack=None):
    """The split-form measure joined from its pieces, and as ``combine``
    and ``as_positive`` assemble it, of the given (psi, phi), else of the
    instance's own.  The first must be what ``reference_berger_measure``
    builds as one tuple of atoms, bit for bit and error for error."""

    def assembled(build):
        return _outcome(lambda: build(*(slack or slack_measures(inst))))

    new = assembled(lambda psi, phi: berger_measure(inst, tol, psi=psi, phi=phi).joined())
    assert new == assembled(lambda psi, phi: reference_berger_measure(inst, tol, psi, phi))
    return new, assembled(lambda psi, phi: reference_berger_split(inst, tol, psi, phi))


def _f1_with(**changes):
    measures = dict(xi_x=half_half(), eta_y=half_half(), xi=dirac(1.0), eta=dirac(1.0))
    a = changes.pop("a", math.sqrt(0.5))
    measures.update(changes)
    return TCInstance(a=a, **measures)


class TestSplitAssembly:
    """The split form lays its pieces out in sorted order as it builds them,
    with no sort and no merge: phi's atom at the origin, the vertical piece,
    then the tensor rows with each other atom of phi just before the first
    row at its s or past it.  It must match the merged sum atom for atom
    and error for error."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from((0.0, DEFAULT_TOL, 1e-6)),
    )
    def test_matches_the_merged_sum_on_random_instances(self, seed, tol):
        new, reference = _split_outcomes(random_tc_instance(random.Random(seed)), tol)
        assert new == reference

    def test_phi_atom_at_the_origin(self):
        new, reference = _split_outcomes(f1_instance())
        assert new == reference
        assert "(0.0, 0.0, " in new

    def test_no_vertical_piece(self):
        # at a = 1 psi is 0, so phi's atom at the origin comes just before
        # the tensor piece
        new, reference = _split_outcomes(_f1_with(a=1.0))
        assert new == reference
        assert new == repr(PlanarAtoms(((0.0, 0.0, 0.5), (1.0, 1.0, 0.5))))

    def test_phi_atoms_in_the_rows_of_the_tensor_piece(self):
        # 30 of phi's atoms are at the s of a tensor row, before its atoms
        inst = parse_instance(str(FIXTURES / "tc30_subnormal_wide.json")).instance
        new, reference = _split_outcomes(inst)
        assert new == reference
        rows = {s for s, _ in inst.xi_tilde.atoms}
        assert sum(s in rows for s, _ in slack_measures(inst)[1].atoms) == 30

    def test_phi_atom_within_a_merge_distance_of_an_xi_atom(self):
        # phi keeps xi_x's atom at 1 - 3e-13 and xi~ sits at 1: both stay
        inst = _f1_with(xi_x=m1((0.0, 0.5), (1.0 - 3e-13, 0.5)))
        new, reference = _split_outcomes(inst)
        assert new == reference
        assert "(0.9999999999997, 0.0, " in new and "(1.0, 1.0, " in new

    @pytest.mark.parametrize("a", [1e-160, 1e-170], ids=["mass-underflow", "zero-coefficient"])
    def test_underflowing_tensor_masses_are_dropped(self, a):
        # a^2 y0^2 r_s r_t is about 5e-321 (or 0): the atom at (2, 1) underflows
        inst = _f1_with(xi=m1((1.0, 1.0 - 1e-4), (2.0, 1e-4)), a=a)
        new, reference = _split_outcomes(inst)
        assert new == reference
        assert "(2.0, 1.0, " not in new

    def test_overflowing_coefficient(self):
        # a^2 r_s = 1e300 * 1e10 overflows; psi and phi are f1's
        inst = _f1_with(xi=dirac(1e-10), a=1e150)
        f1 = f1_instance()
        new, reference = _split_outcomes(inst, slack=slack_measures(f1))
        assert new == reference == (NonFinite, "atom mass must be finite, got inf")

    def test_total_off_one(self):
        inst = f1_instance()
        psi, phi = slack_measures(inst)
        new, reference = _split_outcomes(inst, slack=(psi, combine([(2.0, phi)])))
        assert new == reference == (NotProbability, "total mass is 1.5, expected 1")

    def test_overflowing_coefficient_over_an_underflowing_mass(self):
        # at an infinite coefficient the core mass at (2e-10, 2) underflows
        # to 0 before it is scaled, so it is dropped, not made NaN
        inst = _f1_with(
            xi=m1((1e-10, 1.0), (2e-10, 1e-200)), eta=m1((1.0, 1.0), (2.0, 1e-200)), a=1e150
        )
        new, reference = _split_outcomes(inst, slack=slack_measures(f1_instance()))
        assert new == reference == (NonFinite, "atom mass must be finite, got inf")

    @pytest.mark.parametrize(
        "name, scale, refused",
        [
            ("f1", 1.0 + 4e-9, True),
            ("f1", 1.0 - 4e-9, True),
            ("f1", 1.0 + 1e-9, False),
            ("tc10_subnormal", 1.0 + 4e-9, True),
            ("tc10_subnormal", 1.0 - 4e-9, True),
            ("tc30_subnormal_wide", 1.0 + 1e-8, True),
            ("tc30_subnormal_wide", 1.0 + 3e-9, False),
        ],
    )
    def test_total_near_the_tolerance(self, name, scale, refused):
        # phi scaled so that the total misses 1 by a little more than
        # PROBABILITY_TOL, or a little less; the message's total has the
        # bits of the masses summed in atom order, which on the tc files
        # differ from those of the rows' sums summed
        inst = parse_instance(str(FIXTURES / f"{name}.json")).instance
        psi, phi = slack_measures(inst)
        new, reference = _split_outcomes(inst, slack=(psi, combine([(scale, phi)])))
        assert new == reference
        if refused:
            assert new[0] is NotProbability and new[1].startswith("total mass is ")
        else:
            assert new.startswith("PlanarAtoms(")


PIECE_SOURCES = {
    "subnormal": (random_subnormal_instance, 300),
    "psi-positive": (random_psi_positive_instance, 300),
    "mixed": (random_tc_instance, 300),
    "flat": (lambda rng: random_flat_instance(rng).embed(), 300),
    "wide": (lambda rng: random_subnormal_instance(rng, n_atoms=(10, 40)), 20),
}


class TestPieces:
    """``berger_measure``'s pieces join to the atoms that
    ``reference_berger_measure`` builds as one tuple, bit for bit, or raise
    what it raises; and the report writes them as ``json.dumps`` writes the
    reference's atoms."""

    @staticmethod
    def _subnormal_and_same(inst) -> bool:
        verdict = subnormality_verdict(inst)
        psi, phi = verdict.psi, verdict.phi
        if phi is None:
            phi = compute_phi(inst, verdict.diagnostics.recip_t_psi)
        joined = _outcome(lambda: berger_measure(inst, psi=psi, phi=phi).joined())
        # the repr tells -0.0 from 0.0
        assert joined == _outcome(lambda: reference_berger_measure(inst, DEFAULT_TOL, psi, phi))
        if verdict.subnormal:
            text = "".join(_mu_pieces(berger_measure(inst, psi=psi, phi=phi)))
            expected = reference_berger_measure(inst, DEFAULT_TOL, psi, phi).atoms
            assert text == json.dumps(expected)
        return verdict.subnormal

    @pytest.mark.parametrize("source", PIECE_SOURCES)
    def test_generated_instances(self, source):
        generate, count = PIECE_SOURCES[source]
        rng = random.Random(37)
        subnormal = sum(self._subnormal_and_same(generate(rng)) for _ in range(count))
        assert subnormal >= count // 10

    @pytest.mark.parametrize(
        "inst", [pytest.param(inst, id=name) for name, inst in fixture_instances()]
    )
    def test_fixtures(self, inst):
        self._subnormal_and_same(inst)


# Coordinates from a few values, so that phi's s often meets a core row's.
_coordinates = st.sampled_from((1e-300, 0.25, 1.0, 1.0 + 1e-9, 3.0, 1e300))
_masses = st.floats(1e-300, 1.0)


@st.composite
def _pieces(draw) -> tuple:
    """The three pieces as ``berger_measure`` hands them to ``_laid_out``:
    phi's atoms (s, 0.0, m), s = 0 (either sign) first if any; the vertical
    atoms (0.0, t, m); and core rows (s, ts, masses), every coordinate
    sorted and apart within a piece, and every core coordinate positive."""
    origin = draw(st.sampled_from(((), (0.0,), (-0.0,))))
    phi_s = (*origin, *sorted(draw(st.sets(_coordinates))))
    horizontal = tuple((s, 0.0, draw(_masses)) for s in phi_s)
    vertical = tuple((0.0, t, draw(_masses)) for t in sorted(draw(st.sets(_coordinates))))
    ts = tuple(sorted(draw(st.sets(_coordinates, min_size=1))))
    core = [
        (s, ts, [draw(_masses) for _ in ts])
        for s in sorted(draw(st.sets(_coordinates, min_size=1)))
    ]
    return horizontal, vertical, core


class TestLaidOut:
    """The rows of ``_laid_out`` hold each atom of the three pieces once,
    in the order that sorting the atoms gives."""

    @given(pieces=_pieces())
    def test_rows_are_the_sorted_atoms(self, pieces):
        horizontal, vertical, core = pieces
        rows = _laid_out(horizontal, vertical, core)
        atoms = [(s, t, m) for s, ts, masses in rows for t, m in zip(ts, masses)]
        pieces_atoms = [*horizontal, *vertical]
        pieces_atoms += [(s, t, m) for s, ts, masses in core for t, m in zip(ts, masses)]
        assert atoms == sorted(atoms)
        assert sorted(atoms) == sorted(pieces_atoms)

    @pytest.mark.parametrize(
        "horizontal, vertical, rows",
        [
            # no vertical piece: phi's atom at the origin is the first row
            (((-0.0, 0.0, 0.25),), (), [(-0.0, (0.0,), (0.25,)), (1.0, (2.0,), [0.75])]),
            # phi's atom at the origin comes before the vertical row
            (
                ((0.0, 0.0, 0.25),),
                ((0.0, 0.5, 0.25), (0.0, 2.0, 0.25)),
                [(0.0, (0.0,), (0.25,)), (0.0, (0.5, 2.0), (0.25, 0.25)), (1.0, (2.0,), [0.75])],
            ),
            # an atom of phi at a core row's s comes just before that row
            (
                ((1.0, 0.0, 0.25), (3.0, 0.0, 0.25)),
                (),
                [(1.0, (0.0,), (0.25,)), (1.0, (2.0,), [0.75]), (3.0, (0.0,), (0.25,))],
            ),
        ],
        ids=["no-vertical-piece", "origin-before-vertical", "phi-at-a-core-row"],
    )
    def test_examples(self, horizontal, vertical, rows):
        assert repr(_laid_out(horizontal, vertical, [(1.0, (2.0,), [0.75])])) == repr(rows)


class TestMeasureM:
    def test_trivial_pair(self):
        assert measure_M(trivial_instance()).atoms == ((1.0, 1.0, 1.0),)

    def test_f1(self):
        expected = PlanarAtoms(((0.0, 1.0, 0.5), (1.0, 1.0, 0.5)))
        assert_measures_close(measure_M(f1_instance()), expected, 1e-12)

    def test_f1_reciprocal_norm_matches_the_column_tail(self):
        inst = f1_instance()
        assert_scalar_close(reciprocal_norm(measure_M(inst), 1), 1.0)
        assert_scalar_close(inst.eta_y_tail.reciprocal_norm(), 1.0)

    def test_reciprocal_norm_identity_on_random_instances(self):
        rng = random.Random(808)
        for _ in range(20):
            inst = random_psi_positive_instance(rng)
            assert_scalar_close(
                reciprocal_norm(measure_M(inst), 1),
                inst.eta_y_tail.reciprocal_norm(),
                1e-12,
            )

    def test_matches_the_upper_restriction_moments(self):
        rng = random.Random(909)
        instances = [f1_instance()] + [random_psi_positive_instance(rng) for _ in range(5)]
        for inst in instances:
            # moments of the restriction to k2 >= 1
            report = moment_interpolation_check(
                types.SimpleNamespace(
                    moment=lambda k1, k2: inst.moment(k1, 1 + k2) / inst.moment(0, 1)
                ),
                measure_M(inst),
                8,
            )
            assert report.passed, report.first_failure

    def test_requires_nonnegative_psi(self):
        with pytest.raises(PreconditionViolated):
            measure_M(spike_instance(2.0))


class TestBackwardExtension:
    def test_unit_ratio_point_mass(self):
        result = backward_extension(dirac2(1.0, 1.0), dirac(1.0), 1.0)
        assert result.subnormal
        assert result.measure.atoms == ((1.0, 1.0, 1.0),)
        assert result.ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("excess", [5e-10, 5e-11])
    def test_unit_ratio_refuses_a_marginal_off_nu(self, excess):
        # nu's mass is within PROBABILITY_TOL of 1, but its distance from
        # the extremal marginal is above the guard's 10 * DEFAULT_TOL; 5e-11
        # is within 100 * DEFAULT_TOL, so a guard ten times as wide admits it
        nu = AtomicMeasure1D(((1.0, 1.0 + excess),), probability=True)
        assert 10 * DEFAULT_TOL < excess < PROBABILITY_TOL
        message = "^unit mass ratio forces the extremal marginal to equal nu$"
        with pytest.raises(PreconditionViolated, match=message):
            backward_extension(dirac2(1.0, 1.0), nu, 1.0)

    def test_unit_ratio_admits_a_marginal_within_the_guard(self):
        nu = AtomicMeasure1D(((1.0, 1.0 + 5e-12),), probability=True)
        result = backward_extension(dirac2(1.0, 1.0), nu, 1.0)
        assert result.subnormal
        assert result.ratio == 1.0
        (s, t, mass), top = result.measure.atoms
        assert (s, t) == (1.0, 0.0)
        assert mass == pytest.approx(5e-12, rel=1e-6)
        assert top == (1.0, 1.0, 1.0)

    def test_f1_agrees_with_the_direct_reconstruction(self):
        inst = f1_instance()
        result = backward_extension(measure_M(inst), inst.xi_x, math.sqrt(inst.y0_sq))
        assert result.subnormal
        verdict = subnormality_verdict(inst)
        mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi).joined()
        assert_measures_close(result.measure, mu, 1e-12)

    def test_n1_fails_the_domination_condition_at_the_origin(self):
        inst = n1_instance()
        result = backward_extension(measure_M(inst), inst.xi_x, math.sqrt(inst.y0_sq))
        assert not result.subnormal
        assert result.failed_condition == 3
        location, mass = result.witness
        assert location == 0.0
        assert mass == pytest.approx(-0.15, abs=1e-12)

    def test_atom_on_the_s_axis_fails_first(self):
        measure = reference_combination(
            [(0.5, dirac2(1.0, 1.0).atoms), (0.5, dirac2(1.0, 0.0).atoms)], DEFAULT_TOL
        )
        result = backward_extension(measure, dirac(1.0), 0.5)
        assert not result.subnormal
        assert result.failed_condition == 1

    def test_oversized_weight_fails_the_norm_bound(self):
        result = backward_extension(dirac2(1.0, 1.0), dirac(1.0), 1.5)
        assert not result.subnormal
        assert result.failed_condition == 2

    def test_agreement_with_the_slack_criterion(self):
        # whenever psi is nonnegative both routes decide the same extension
        rng = random.Random(1234)
        seen = {True: 0, False: 0}
        for _ in range(60):
            inst = random_psi_positive_instance(rng)
            verdict = subnormality_verdict(inst)
            result = backward_extension(
                measure_M(inst), inst.xi_x, math.sqrt(inst.y0_sq)
            )
            assert verdict.subnormal == result.subnormal
            if verdict.subnormal:
                mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi).joined()
                assert_measures_close(mu, result.measure, 1e-12)
            seen[verdict.subnormal] += 1
        assert seen[True] >= 5 and seen[False] >= 5


class TestFlatVerdict:
    def test_f1(self):
        verdict = flat_verdict(f1_flat())
        assert verdict.subnormal
        inst = f1_flat().embed()
        direct = subnormality_verdict(inst)
        assert_measures_close(
            reference_berger_correction(inst, DEFAULT_TOL, verdict.psi, verdict.phi),
            berger_measure(inst, psi=direct.psi, phi=direct.phi).joined(),
            1e-12,
        )

    def test_n1_fails_the_domination_condition(self):
        verdict = flat_verdict(n1_flat())
        assert not verdict.subnormal
        assert verdict.witness.measure == "phi"
        assert verdict.witness.location == 0.0
        # the slope condition (b/a) sqrt(m) >= y0 still holds
        assert positivity(verdict.psi).positive

    def test_degenerate_tensor_pair(self):
        flat = FlatInstance(p=0.0, q=1.0, l=0.0, m=1.0, b=1.0, a=1.0)
        verdict = flat_verdict(flat)
        assert verdict.subnormal
        mu = reference_berger_correction(flat.embed(), DEFAULT_TOL, verdict.psi, verdict.phi)
        assert mu.atoms == ((1.0, 1.0, 1.0),)

    def test_degenerate_tensor_pair_with_tall_core(self):
        flat = FlatInstance(p=0.0, q=1.0, l=0.0, m=1.0, b=1.5, a=1.0)
        verdict = flat_verdict(flat)
        assert verdict.subnormal
        mu = reference_berger_correction(flat.embed(), DEFAULT_TOL, verdict.psi, verdict.phi)
        assert_measures_close(mu, dirac2(1.0, 2.25), 1e-12)

    def test_matches_the_general_criterion_on_random_instances(self):
        rng = random.Random(777)
        seen = {True: 0, False: 0}
        for _ in range(200):
            flat = random_flat_instance(rng)
            via_flat = flat_verdict(flat)
            via_general = subnormality_verdict(flat.embed())
            assert via_flat.subnormal == via_general.subnormal, flat
            # the closed forms round differently: 500 instances differed by 2.3e-14 at most
            for got, expected in zip(via_flat.diagnostics, via_general.diagnostics):
                assert abs(got - expected) <= 1e-12 * abs(expected), (flat, got, expected)
            if via_flat.subnormal:
                inst = flat.embed()
                assert_measures_close(
                    reference_berger_correction(inst, DEFAULT_TOL, via_flat.psi, via_flat.phi),
                    berger_measure(inst, psi=via_general.psi, phi=via_general.phi).joined(),
                    1e-12,
                )
            else:
                assert via_flat.witness.measure == via_general.witness.measure
            seen[via_flat.subnormal] += 1
        assert seen[True] >= 10 and seen[False] >= 10

    @pytest.mark.parametrize("name", FLAT_FIXTURES)
    def test_diagnostics_of_the_flat_fixtures_are_the_general_ones(self, name):
        flat = parse_instance(str(FIXTURES / f"{name}.json")).instance
        assert flat_verdict(flat).diagnostics == subnormality_verdict(flat.embed()).diagnostics
