"""Brute-force oracles: worked examples, soundness against the verdicts."""

import math
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcshift import oracles
from tcshift.cli import DEFAULT_WINDOW, parse_instance
from tcshift.errors import DepthExceeded, InvalidMoments, NonFinite, PreconditionViolated
from tcshift.measures import AtomicMeasure1D, dirac, product
from tcshift.oracles import (
    PsdReport,
    _moment_matrix,
    _psd_reports,
    hankel_psd,
    joint_hyponormality_compression,
    moment_interpolation_check,
    moment_matrix_2d,
    oracle_status,
)
from tcshift.reconstruct import BergerMeasure, berger_measure, subnormality_verdict

from helpers import (
    EMPTY,
    FIXTURES,
    entrywise_source,
    f1_instance,
    fixture_instances,
    m1,
    moment_source,
    outcome,
    planar_moment,
    random_probability,
    random_subnormal_instance,
    random_tc_instance,
    reference_joint_hyponormality_matrix,
    reference_moment_matrix,
    same_array,
    spike_instance,
    tensor_berger,
    trivial_instance,
)


# the unit point mass at (1, 1), as a joint measure of one core atom
POINT_MASS = tensor_berger(dirac(1.0), dirac(1.0))


class TestMomentInterpolation:
    def test_trivial_pair(self):
        report = moment_interpolation_check(trivial_instance(), POINT_MASS, 10)
        assert report.passed
        assert report.max_rel_error == 0.0

    def test_f1(self):
        verdict = subnormality_verdict(f1_instance())
        mu = berger_measure(f1_instance(), psi=verdict.psi, phi=verdict.phi)
        report = moment_interpolation_check(f1_instance(), mu, 16)
        assert report.passed
        assert report.max_rel_error <= 1e-12

    def test_wrong_measure_fails_at_the_first_moment(self):
        report = moment_interpolation_check(f1_instance(), POINT_MASS, 2)
        assert not report.passed
        k1, k2, expected, actual = report.first_failure
        assert (k1, k2) == (1, 0)
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert actual == 1.0

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_a_non_finite_expected_moment_is_refused(self, value):
        # a relative error against inf or NaN is NaN, which no comparison
        # with the tolerance catches
        source = entrywise_source(lambda k1, k2: value if (k1, k2) == (1, 0) else 1.0)
        with pytest.raises(NonFinite, match=r"moment \(1, 0\)"):
            moment_interpolation_check(source, POINT_MASS, 2)

    @pytest.mark.parametrize("name", ["f1", "tc10_subnormal", "tc30_subnormal_wide"])
    @pytest.mark.parametrize("piece", ["phi", "psi_tilde"])
    def test_moving_one_atom_of_an_axis_piece_fails_on_that_axis(self, name, piece):
        # the core entries are products of per-axis sums, as the diagram's
        # are, so what the check tests beyond that algebra sits in row 0
        # (phi) and column 0 (psi~)
        inst = parse_instance(str(FIXTURES / f"{name}.json")).instance
        verdict = subnormality_verdict(inst)
        mu = berger_measure(inst, psi=verdict.psi, phi=verdict.phi)
        assert moment_interpolation_check(inst, mu, 12).passed
        # the atom that carries most of the first moment, moved to twice its location
        atoms = list(getattr(mu, piece).atoms)
        heaviest = max(range(len(atoms)), key=lambda index: atoms[index][0] * atoms[index][1])
        loc, mass = atoms[heaviest]
        atoms[heaviest] = (2.0 * loc, mass)
        moved = mu._replace(**{piece: AtomicMeasure1D(atoms)})
        report = moment_interpolation_check(inst, moved, 12)
        assert not report.passed
        k1, k2 = report.first_failure[:2]
        assert (k1, k2) == ((1, 0) if piece == "phi" else (0, 1))
        table, moved_table = mu.moment_table(12), moved.moment_table(12)
        changed = {
            (k1, k2)
            for k1, row in enumerate(table)
            for k2, value in enumerate(row)
            if moved_table[k1][k2] != value
        }
        axis = {(k, 0) for k in range(1, 13)} if piece == "phi" else {(0, k) for k in range(1, 13)}
        assert changed == axis


# s**k and t**k overflow past 1e308 from (1e30)**11 on; no product of
# powers and masses leaves the normal range, where a relative error of the
# per-axis sums could grow
LOCATIONS = st.one_of(
    st.sampled_from([1e-3, 0.5, 1.0, 3.0, 1e30]),
    st.floats(min_value=1e-3, max_value=1e3),
)


@st.composite
def piece_measures(draw, origin: bool = False) -> AtomicMeasure1D:
    """A nonnegative 1-D measure of up to five atoms; with ``origin``, it
    may charge 0.0 or -0.0, as phi may."""
    locations = LOCATIONS | st.sampled_from([0.0, -0.0]) if origin else LOCATIONS
    atoms = draw(
        st.lists(st.tuples(locations, st.floats(1e-6, 1.0)), min_size=1, max_size=5)
    )
    return AtomicMeasure1D(atoms)


@st.composite
def berger_pieces(draw) -> BergerMeasure:
    """A joint measure of core, vertical and horizontal pieces at
    coefficients of either size; psi~ and phi may be empty."""
    coefficient = st.floats(1e-3, 1e3)
    psi_tilde = draw(st.just(EMPTY) | piece_measures())
    phi = draw(st.just(EMPTY) | piece_measures(origin=True))
    return tensor_berger(
        draw(piece_measures()),
        draw(piece_measures()),
        draw(coefficient),
        draw(coefficient),
        psi_tilde,
        phi,
    )


def assert_table_close(mu: BergerMeasure, order: int) -> None:
    """mu's table holds the moments of its joined atoms within 1e-13
    relative, and raises OverflowError exactly when some moment does."""
    joined = mu.joined()
    indices = [(k1, k2) for k1 in range(order + 1) for k2 in range(order + 1 - k1)]
    outcomes = {index: outcome(planar_moment, joined, *index) for index in indices}
    try:
        table = mu.moment_table(order)
    except OverflowError as exc:
        assert (OverflowError, str(exc)) in outcomes.values()
        return
    assert all(isinstance(value, str) for value in outcomes.values())
    for k1, k2 in indices:
        expected = planar_moment(joined, k1, k2)
        assert abs(table[k1][k2] - expected) <= 1e-13 * abs(expected), (k1, k2)


class TestMomentTable:
    """The interpolation's table of mu's moments, made from its pieces one
    axis at a time, holds the moments of mu's joined atoms within rounding,
    and raises exactly when some moment it holds raises."""

    @settings(max_examples=300)
    @given(mu=berger_pieces(), order=st.integers(0, 12))
    def test_equals_the_moments_of_the_joined_atoms(self, mu, order):
        assert_table_close(mu, order)

    @pytest.mark.parametrize("origin", [0.0, -0.0])
    def test_phi_at_either_zero(self, origin):
        # phi's atom at the origin, 0.0 or -0.0, is in row 0 only: its
        # power 0 is 1.0, every other a zero
        mu = tensor_berger(
            m1((1.0, 0.25), (2.0, 0.25)),
            m1((0.5, 0.5), (3.0, 0.5)),
            0.5,
            0.5,
            m1((1.5, 1.0)),
            m1((origin, 0.125), (2.0, 0.125)),
        )
        assert_table_close(mu, 8)
        table = mu.moment_table(8)
        assert table[0][0] == 1.0

    @pytest.mark.parametrize("name", ["f1", "tc10_subnormal", "tc30_subnormal_wide"])
    def test_each_subnormal_fixture(self, name):
        inst = parse_instance(str(FIXTURES / f"{name}.json")).instance
        verdict = subnormality_verdict(inst)
        assert_table_close(berger_measure(inst, psi=verdict.psi, phi=verdict.phi), 12)

    def test_a_power_past_the_float_range_raises(self):
        mu = tensor_berger(dirac(1e30), dirac(1.0))
        assert len(mu.moment_table(10)) == 11
        with pytest.raises(OverflowError):
            mu.moment_table(11)

    def test_memory_does_not_grow_with_the_core(self):
        # the table never builds the core's atoms: 40,000 of them at 200
        # atoms per axis, where the pieces hold 400
        order = 12
        side = m1(*((1.0 + k / 200.0, 1.0 / 200.0) for k in range(200)))
        mu = tensor_berger(side, side)
        whole = len(mu.joined().atoms) * 3 * 8
        tracemalloc.start()
        try:
            mu.moment_table(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 10


def single_report(matrix: np.ndarray) -> PsdReport:
    """The report of one matrix from its own eigvalsh and trace calls."""
    min_eig = float(np.linalg.eigvalsh(matrix)[0])
    threshold = 1e-9 * max(float(np.trace(matrix)), 0.0)
    return PsdReport(matrix.shape[0], min_eig, min_eig >= -threshold, threshold)


def assert_stack_reports_match(stack: np.ndarray) -> None:
    # repr round-trips every float, so equal reprs are equal bits
    assert repr(_psd_reports(stack)) == repr([single_report(m) for m in stack])


class TestStackedPsdReports:
    """One batched LAPACK call gives each matrix the report of its own call."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_symmetric_stacks(self, seed):
        rng = np.random.default_rng(seed)
        count, size = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        scales = 10.0 ** rng.uniform(-20, 20, size=(count, 1, 1))
        half = rng.standard_normal((count, size, size)) * scales
        assert_stack_reports_match(half + half.transpose(0, 2, 1))

    @pytest.mark.parametrize("name, instance", list(fixture_instances()))
    def test_hankel_pairs_of_every_fixture(self, name, instance):
        n = DEFAULT_WINDOW
        checked = 0
        lines = (("row", instance.row_moments), ("column", instance.column_moments))
        for line, moments in lines:
            for index in range(n + 1):
                data = moments(index, 2 * n + 2)
                base = [[data[i + j] for j in range(n + 1)] for i in range(n + 1)]
                shifted = [[data[i + j + 1] for j in range(n + 1)] for i in range(n + 1)]
                assert_stack_reports_match(np.array([base, shifted]))
                # and hankel_psd, which stacks the pair itself
                stacked = hankel_psd([(f"{line} {index}", data)], n)
                assert repr(stacked) == repr(
                    (single_report(np.array(base)), single_report(np.array(shifted)))
                )
                checked += 1
        assert checked == 2 * (n + 1)

    @pytest.mark.parametrize("name, instance", list(fixture_instances()))
    def test_the_stack_that_verify_builds(self, name, instance):
        # every row sequence, then every column sequence, in one call
        n = DEFAULT_WINDOW
        lines = (("row", instance.row_moments), ("column", instance.column_moments))
        sequences = [
            (f"{line} {index}", moments(index, 2 * n + 2))
            for line, moments in lines
            for index in range(n + 1)
        ]
        expected = []
        for _, data in sequences:
            for shift in (0, 1):
                matrix = [[data[i + j + shift] for j in range(n + 1)] for i in range(n + 1)]
                expected.append(single_report(np.array(matrix)))
        assert len(sequences) == 2 * (n + 1)
        assert repr(hankel_psd(sequences, n)) == repr(tuple(expected))
        assert repr(hankel_psd(iter(sequences), n)) == repr(tuple(expected))

    def test_each_sequence_is_checked_before_the_next_is_drawn(self):
        def sequences(*first):
            yield from ((f"row {index}", moments) for index, moments in enumerate(first))
            raise AssertionError("drawn past a bad sequence")

        with pytest.raises(InvalidMoments, match=r"got -0\.5 at order 1 of row 1$"):
            hankel_psd(sequences((1.0,) * 4, (1.0, -0.5, 1.0, 1.0)), 1)
        with pytest.raises(PreconditionViolated):
            hankel_psd(sequences((1.0,) * 4, (1.0,) * 3), 1)
        # a non-finite entry is named before a later sequence's fault
        with pytest.raises(NonFinite):
            hankel_psd(sequences((1.0, math.inf, 1.0, 1.0)), 1)
        # entries past the matrices are not checked
        assert len(hankel_psd([("row 0", (1.0, 1.0, 1.0, 1.0, math.inf))], 1)) == 2
        assert len(hankel_psd([("row 0", (1.0, 1.0, 1.0, 1.0, -1.0))], 1)) == 2

    def test_no_sequences_no_reports(self):
        assert hankel_psd([], 3) == ()

    @pytest.mark.parametrize("n", range(1, 16))
    def test_the_stack_is_the_nested_list_stack(self, monkeypatch, n):
        # f1's rows and columns, then moments of random scales
        instance = f1_instance()
        rng = random.Random(34 + n)
        sequences = [
            (f"{line} {index}", moments(index, 2 * n + 2))
            for line, moments in (("row", instance.row_moments), ("column", instance.column_moments))
            for index in range(n + 1)
        ] + [
            (f"random {index}", [rng.uniform(0.5, 2.0) * 10.0 ** rng.uniform(-50.0, 50.0)
                                 for _ in range(2 * n + 2 + index)])
            for index in range(3)
        ]
        # base row i is moments[i : i + n + 1], shifted row i is base row i + 1
        nested = []
        for _, moments in sequences:
            rows = [moments[i : i + n + 1] for i in range(n + 2)]
            nested += (rows[:-1], rows[1:])
        stacks = []

        def recording(stack):
            stacks.append(stack)
            return _psd_reports(stack)

        monkeypatch.setattr(oracles, "_psd_reports", recording)
        hankel_psd(sequences, n)
        assert len(stacks) == 1
        assert same_array(stacks[0], np.array(nested))


def matrix_instances():
    """Every fixture, then seeded random instances."""
    yield from fixture_instances()
    rng = random.Random(2121)
    for index in range(12):
        yield f"random {index}", random_tc_instance(rng)


class TestMatricesBuiltWhole:
    """The moment matrix, built whole, holds the bits of the entry-by-entry
    builder, and raises what it raises."""

    @pytest.mark.parametrize("name, instance", list(matrix_instances()))
    def test_moment_matrix(self, name, instance):
        for n in range(1, 8):
            expected = reference_moment_matrix(instance, n)
            assert same_array(_moment_matrix(instance, n), expected)
            report = _psd_reports(expected[None])[0]
            assert repr(moment_matrix_2d(instance, n)) == repr(report)

    @pytest.mark.parametrize("size", [0, 17, 40])
    def test_errors_match(self, size):
        instance = f1_instance()
        assert outcome(_moment_matrix, instance, size) == outcome(
            reference_moment_matrix, instance, size
        )

    def test_a_measure_source(self):
        rng = random.Random(7)
        mx, my = random_probability(rng, lo=0.0), random_probability(rng, lo=0.0)
        mu = moment_source(product(mx, my))
        for n in range(1, 6):
            assert same_array(_moment_matrix(mu, n), reference_moment_matrix(mu, n))


def reference_jh_report(instance, window: int) -> PsdReport:
    """The report of eigvalsh on the compression built entry by entry."""
    return _psd_reports(reference_joint_hyponormality_matrix(instance, window)[None])[0]


def stub_instance(weights: dict) -> types.SimpleNamespace:
    """Weight 1 everywhere but at the (k1, k2, direction) keys of ``weights``."""
    return types.SimpleNamespace(weight_at=lambda k1, k2, d: weights.get((k1, k2, d), 1.0))


class TestJointHyponormalityClosedForm:
    """The compression, decided block by block with no matrix, agrees with
    eigvalsh of the matrix built entry by entry, and raises what building
    and deciding that matrix raises."""

    @pytest.mark.parametrize("name, instance", list(matrix_instances()))
    def test_agrees_with_eigvalsh(self, name, instance):
        for window in range(1, 8):
            matrix = reference_joint_hyponormality_matrix(instance, window)
            expected = _psd_reports(matrix[None])[0]
            report = joint_hyponormality_compression(instance, window)
            assert report.dimension == expected.dimension
            assert report.passed == expected.passed
            scale = float(np.abs(matrix).max())
            assert abs(report.min_eigenvalue - expected.min_eigenvalue) <= 1e-14 * scale
            assert report.tolerance == pytest.approx(expected.tolerance, rel=1e-14)

    @pytest.mark.parametrize("name, instance", list(matrix_instances()))
    def test_each_vector_is_coupled_to_at_most_one_other(self, name, instance):
        # the fact the closed form rests on: the matrix is a direct sum of
        # 1x1 and 2x2 blocks
        for window in range(1, 8):
            matrix = reference_joint_hyponormality_matrix(instance, window)
            off_diagonal = matrix - np.diag(np.diag(matrix))
            assert (np.count_nonzero(off_diagonal, axis=1) <= 1).all()

    @pytest.mark.parametrize("window", [0, 16, 17, 33, 40, 56])
    def test_errors_match(self, window):
        instance = f1_instance()
        expected = outcome(reference_jh_report, instance, window)
        actual = outcome(joint_hyponormality_compression, instance, window)
        if isinstance(expected, tuple):
            assert actual == expected
        else:
            assert isinstance(actual, str)

    def test_a_weight_error_comes_before_a_non_finite_entry(self):
        def weight_at(k1, k2, direction):
            if (k1, k2, direction) == (2, 2, "v"):
                raise DepthExceeded("index (2, 2) beyond the depth limit 1")
            return math.nan

        instance = types.SimpleNamespace(weight_at=weight_at)
        expected = (DepthExceeded, "index (2, 2) beyond the depth limit 1")
        assert outcome(reference_jh_report, instance, 2) == expected
        assert outcome(joint_hyponormality_compression, instance, 2) == expected

    @pytest.mark.parametrize(
        "weights",
        [
            {(1, 1, "h"): math.nan},
            {(0, 2, "v"): math.inf},
            # finite squares, but alpha(0, 1) beta(1, 0) - alpha(0, 0) beta(0, 0)
            # overflows: only a coupling entry is inf
            {
                (0, 0, "h"): -1.3e154,
                (0, 1, "h"): 1.3e154,
                (1, 0, "v"): 1.3e154,
                (0, 0, "v"): 1.3e154,
            },
        ],
        ids=["nan-weight", "inf-weight", "inf-coupling"],
    )
    def test_a_non_finite_entry_is_refused(self, weights):
        instance = stub_instance(weights)
        with pytest.raises(NonFinite, match="an oracle matrix has a non-finite entry"):
            reference_jh_report(instance, 2)
        with pytest.raises(NonFinite, match="an oracle matrix has a non-finite entry"):
            joint_hyponormality_compression(instance, 2)


class TestHankel:
    def test_constant_moments(self):
        base, shifted = hankel_psd([("row 0", (1.0,) * 8)], 3)
        assert base.passed and shifted.passed
        assert abs(base.min_eigenvalue) <= base.tolerance

    def test_two_atom_moments(self):
        base, shifted = hankel_psd([("row 0", (1.0, 0.25, 0.25, 0.25, 0.25, 0.25))], 2)
        assert base.passed and shifted.passed

    def test_non_moment_data_fails(self):
        base, shifted = hankel_psd([("row 0", (1.0, 1.44, 1.44, 1.44))], 1)
        assert not (base.passed and shifted.passed)

    def test_needs_enough_moments(self):
        with pytest.raises(PreconditionViolated):
            hankel_psd([("row 0", (1.0, 0.5, 0.5))], 1)

    def test_positive_required(self):
        # the refusal names the order and the sequence
        with pytest.raises(InvalidMoments, match=r"got -0\.1 at order 1 of column 3$"):
            hankel_psd([("column 3", (1.0, -0.1))], 0)

    def test_entries_near_the_largest_float_are_used_as_built(self):
        # symmetrising by 0.5 * (H + H.T) would overflow 1e308 to inf
        base, shifted = hankel_psd([("row 0", (1.0, 1e-10, 1e308, 1e300))], 1)
        assert base.min_eigenvalue == 1.0
        assert base.passed


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

        assert not moment_matrix_2d(entrywise_source(gamma), 2).passed

    def test_exact_measure_moments_always_pass(self):
        rng = random.Random(42)
        for _ in range(10):
            mx = random_probability(rng, lo=0.0, zero_prob=0.3)
            my = random_probability(rng, lo=0.0, zero_prob=0.3)
            mu = moment_source(product(mx, my))
            for order in (2, 4, 6):
                assert moment_matrix_2d(mu, order).passed

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
                for line, seq in (
                    ("row", inst.row_moments(index, 10)),
                    ("column", inst.column_moments(index, 10)),
                ):
                    base, shifted = hankel_psd([(f"{line} {index}", seq)], 4)
                    assert base.passed and shifted.passed
            assert moment_matrix_2d(inst, 6).passed
            assert joint_hyponormality_compression(inst, 6).passed


class TestStatusLabels:
    def test_labels(self):
        assert oracle_status(True, True) == "consistent"
        assert oracle_status(True, False) == "contradiction"
        assert oracle_status(False, True) == "inconclusive"
        assert oracle_status(False, False) == "consistent"
