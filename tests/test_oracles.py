"""Brute-force oracles: worked examples, soundness against the verdicts."""

import math
import random
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcshift import oracles
from tcshift.cli import DEFAULT_WINDOW
from tcshift.errors import DepthExceeded, InvalidMoments, NonFinite, PreconditionViolated
from tcshift.measures import PlanarAtoms, product
from tcshift.oracles import (
    _TABLE_BLOCK,
    PsdReport,
    _moment_matrix,
    _moment_table,
    _psd_reports,
    hankel_psd,
    joint_hyponormality_compression,
    moment_interpolation_check,
    moment_matrix_2d,
    oracle_status,
)
from tcshift.reconstruct import berger_measure, subnormality_verdict

from helpers import (
    dirac2,
    f1_instance,
    fixture_instances,
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
    trivial_instance,
)


class TestMomentInterpolation:
    def test_trivial_pair(self):
        report = moment_interpolation_check(trivial_instance(), dirac2(1.0, 1.0), 10)
        assert report.passed
        assert report.max_rel_error == 0.0

    def test_f1(self):
        verdict = subnormality_verdict(f1_instance())
        mu = berger_measure(f1_instance(), psi=verdict.psi, phi=verdict.phi).joined()
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

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_a_non_finite_expected_moment_is_refused(self, value):
        # a relative error against inf or NaN is NaN, which no comparison
        # with the tolerance catches
        source = types.SimpleNamespace(
            moment=lambda k1, k2: value if (k1, k2) == (1, 0) else 1.0
        )
        with pytest.raises(NonFinite, match=r"moment \(1, 0\)"):
            moment_interpolation_check(source, dirac2(1.0, 1.0), 2)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def moment_or_error(mu: PlanarAtoms, k1: int, k2: int):
    try:
        return bits(planar_moment(mu, k1, k2))
    except ArithmeticError as exc:
        return type(exc), str(exc)


# s**k and t**k underflow to 0 at 5e-324, overflow near 1e308, and keep the
# sign of -0.0 at odd k
LOCATIONS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-160, 0.5, 1.0, 3.0, 1e154, 1e300, 1.7976931348623157e308]
    ),
    st.floats(min_value=0.0, max_value=1e308),
)


@st.composite
def measures_with_shared_locations(draw) -> PlanarAtoms:
    """Atoms whose coordinates come from a pool of at most four values, so
    that s and t repeat across atoms, at one point too, and between the
    two axes."""
    pool = draw(st.lists(LOCATIONS, min_size=1, max_size=4))
    location = st.sampled_from(pool)
    mass = st.floats(min_value=1e-300, max_value=1e300)
    atoms = draw(st.lists(st.tuples(location, location, mass), min_size=1, max_size=6))
    return PlanarAtoms(tuple(atoms))


class TestMomentTable:
    """The interpolation's table of mu's moments is the left sum of the
    terms in atom order, to the bit, and raises exactly when some moment it
    holds raises."""

    @settings(max_examples=300)
    @given(mu=measures_with_shared_locations(), order=st.integers(0, 12))
    # 0.0 and -0.0 are one dict key, so the two atoms share one row of powers
    @example(
        mu=PlanarAtoms(((0.0, 5e-324, 0.25), (-0.0, 1.0, 0.25), (5e-324, -0.0, 0.5))),
        order=3,
    )
    def test_equals_the_measure_moments(self, mu, order):
        indices = [(k1, k2) for k1 in range(order + 1) for k2 in range(order + 1 - k1)]
        outcomes = {index: moment_or_error(mu, *index) for index in indices}
        try:
            table = _moment_table(mu, order)
        except ArithmeticError as exc:
            assert (type(exc), str(exc)) in outcomes.values()
            return
        assert {(k1, k2): bits(table[k1][k2]) for k1, k2 in indices} == outcomes

    @pytest.mark.parametrize(
        "masses",
        [(0.25, 0.25, 0.25, 0.25), (0.5, -0.25, -1.0, 2.0)],
        ids=["positive", "signed"],
    )
    def test_both_zeros_on_each_axis(self, masses):
        # an atom at s = -0.0 and one at s = 0.0, and the same for t: every
        # entry has the bits of the left sum, the sign of a zero included
        points = ((-0.0, 1.0), (0.0, 2.0), (1.0, -0.0), (2.0, 0.0))
        mu = PlanarAtoms(tuple((s, t, mass) for (s, t), mass in zip(points, masses)))
        order = 8
        table = _moment_table(mu, order)
        indices = [(k1, k2) for k1 in range(order + 1) for k2 in range(order + 1 - k1)]
        assert [bits(table[k1][k2]) for k1, k2 in indices] == [
            bits(planar_moment(mu, k1, k2)) for k1, k2 in indices
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", [0, 12])
    def test_a_measure_of_several_blocks(self, order):
        # every pair of 31 locations, the origin and 1e20 among them, so each
        # location is shared by many atoms and by both axes; masses of both
        # signs up to 1e300 make terms that overflow and sums that are NaN
        rng = random.Random(26)
        pool = [0.0, 1e-160, 1e20] + [rng.uniform(0.0, 4.0) for _ in range(28)]
        masses = [1e300, -1e300] + [
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
            for _ in range(len(pool) ** 2 - 2)
        ]
        points = [(s, t) for s in pool for t in pool]
        mu = PlanarAtoms(tuple((s, t, mass) for (s, t), mass in zip(points, masses)))
        assert len(mu.atoms) > 2 * _TABLE_BLOCK
        table = _moment_table(mu, order)
        indices = [(k1, k2) for k1 in range(order + 1) for k2 in range(order + 1 - k1)]
        assert [bits(table[k1][k2]) for k1, k2 in indices] == [
            bits(planar_moment(mu, k1, k2)) for k1, k2 in indices
        ]
        if order:
            assert any(math.isnan(value) for row in table for value in row)
            assert any(math.isinf(value) for row in table for value in row)

    def test_memory_does_not_grow_with_the_terms(self):
        # one block of terms at a time: the whole atoms x (order + 1)^2 array
        # of terms would hold 54 MB here
        order = 12
        pool = [1.0 + k / 200.0 for k in range(200)]
        mu = PlanarAtoms(tuple((s, t, 1.0) for s in pool for t in pool))
        whole = len(mu.atoms) * (order + 1) ** 2 * 8
        tracemalloc.start()
        try:
            _moment_table(mu, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert whole > 50e6
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

        assert not moment_matrix_2d(types.SimpleNamespace(moment=gamma), 2).passed

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
