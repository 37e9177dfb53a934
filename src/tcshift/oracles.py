"""Brute-force verification, independent of the closed-form reconstruction.

Four necessary conditions are checked by direct computation: moment
interpolation of a candidate measure, Stieltjes-type Hankel positivity of
one-variable moment data, positive semidefiniteness of the truncated
two-variable moment matrix, and positivity of finite compressions of the
joint self-commutator matrix, decided block by block in closed form with
no matrix built.  The truncated checks are necessary only: a pass never
certifies subnormality, so reports should label a pass against a negative
verdict as inconclusive rather than contradictory.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InvalidMoments, NonFinite, PreconditionViolated
from .diagram import TCInstance
from .measures import PlanarAtoms, left_sum

# numpy is imported inside the functions that use it (the matrix builders and
# mu's moment table), so that the commands that never run an oracle start
# without it.
if TYPE_CHECKING:
    import numpy as np

# the fixed relative tolerances of the oracles: a PSD check scales its own
# by the matrix trace, and moment interpolation bounds each relative error
DEFAULT_PSD_TOL = 1e-9
DEFAULT_INTERPOLATION_TOL = 1e-10
# atoms per accumulate in the interpolation's moment table
_TABLE_BLOCK = 256


class PsdReport(NamedTuple):
    """Positive-semidefiniteness certificate for one symmetric matrix.

    ``tolerance`` is the absolute threshold actually applied, i.e. the
    relative tolerance scaled by the matrix trace; the check passes exactly
    when the smallest eigenvalue is at least its negative.
    """

    dimension: int
    min_eigenvalue: float
    passed: bool
    tolerance: float


class InterpolationReport(NamedTuple):
    """Comparison of weight-product moments against a measure's moments."""

    passed: bool
    order: int
    max_rel_error: float
    tolerance: float
    first_failure: tuple[int, int, float, float] | None = None


def _psd_reports(stack: np.ndarray) -> list[PsdReport]:
    """One report per matrix of a stack of same-size symmetric matrices.
    Batched, LAPACK gives each matrix the bits of a call on it alone."""
    import numpy as np

    if not np.isfinite(stack).all():
        raise NonFinite("an oracle matrix has a non-finite entry")
    eigenvalues = np.linalg.eigvalsh(stack).tolist()
    traces = np.trace(stack, axis1=1, axis2=2).tolist()
    reports = []
    for values, trace in zip(eigenvalues, traces):
        threshold = DEFAULT_PSD_TOL * max(trace, 0.0)
        reports.append(PsdReport(stack.shape[1], values[0], values[0] >= -threshold, threshold))
    return reports


def _moment_table(mu: PlanarAtoms, order: int) -> list[list[float]]:
    """``table[k1][k2]`` is the integral of s^k1 t^k2 against mu for
    k1 + k2 <= order: the sum from the left, from 0, of the terms
    ``(mass * s**k1) * t**k2`` over mu's atoms in their order, to the bit.

    numpy makes those floating-point operations, in that order.  Each
    power is taken once per distinct location with Python's ``**``, as
    numpy's ``power`` need not give libm's bits, and a power too large for
    a float raises ``OverflowError`` as ``**`` does.  ``np.add.accumulate``
    sums the terms in atom order from a row of 0.0, as ``left_sum`` does
    from 0, so that no entry is -0.0; ``sum``, ``dot`` and the like would
    add pairwise.  The atoms go in blocks of ``_TABLE_BLOCK``, each
    carrying on from the running row of the last, so the terms held at
    once number ``_TABLE_BLOCK * (order + 1)**2`` at most, at any count of
    atoms.
    """
    import numpy as np

    side = order + 1
    # the s, t and mass columns, read once
    s_col, t_col, masses = list(zip(*mu.atoms)) or [(), (), ()]
    count = len(masses)
    coordinates = s_col + t_col
    # -0.0 and 0.0 are one key, so they share a row of powers: their terms
    # differ only in the sign of a zero, which no total keeps
    locations = dict.fromkeys(coordinates)
    powers = np.array([[loc**k for k in range(side)] for loc in locations])
    row = dict(zip(locations, range(len(locations))))
    rows = np.array(list(map(row.__getitem__, coordinates)))
    s_rows, t_rows, masses = rows[:count], rows[count:], np.array(masses)
    # the entries with k1 + k2 <= order of a flattened side x side square, row by row
    triangle = [k1 * side + k2 for k1 in range(side) for k2 in range(side - k1)]
    total = np.zeros((1, len(triangle)))
    # an inf or NaN term is the term Python makes, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, count, _TABLE_BLOCK):
            block = slice(start, start + _TABLE_BLOCK)
            weighted = masses[block, None] * powers[s_rows[block]]
            terms = weighted[:, :, None] * powers[t_rows[block]][:, None, :]
            terms = terms.reshape(-1, side * side)[:, triangle]
            total = np.add.accumulate(np.concatenate((total, terms)), axis=0)[-1:]
    entries = iter(total[0].tolist())
    return [list(islice(entries, side - k1)) for k1 in range(side)]


def moment_interpolation_check(source, mu: PlanarAtoms, order: int) -> InterpolationReport:
    """Compare gamma_(k1,k2) with the monomial integrals of mu for all
    k1 + k2 <= order.

    ``source`` is anything with a ``moment(k1, k2)`` method, such as an
    instance.  Reports the maximal relative error and the first
    failing index; a source moment that is inf or NaN raises ``NonFinite``.
    """
    # the source first: past its depth it raises before mu's table is built
    expected_moments = [
        (k1, total - k1, source.moment(k1, total - k1))
        for total in range(order + 1)
        for k1 in range(total, -1, -1)
    ]
    for k1, k2, expected in expected_moments:
        # the relative error against inf or NaN is NaN, which no comparison fails
        if not math.isfinite(expected):
            raise NonFinite(f"moment ({k1}, {k2}) of the source is not finite, got {expected!r}")
    table = _moment_table(mu, order)
    max_err = 0.0
    first_failure = None
    for k1, k2, expected in expected_moments:
        actual = table[k1][k2]
        rel = abs(actual - expected) / max(abs(expected), 1e-300)
        if rel > max_err:
            max_err = rel
        if rel > DEFAULT_INTERPOLATION_TOL and first_failure is None:
            first_failure = (k1, k2, expected, actual)
    return InterpolationReport(
        passed=first_failure is None,
        order=order,
        max_rel_error=max_err,
        tolerance=DEFAULT_INTERPOLATION_TOL,
        first_failure=first_failure,
    )


def hankel_psd(sequences: Iterable[tuple[str, Sequence[float]]], n: int) -> tuple[PsdReport, ...]:
    """Stieltjes conditions for one-variable moment data.

    For each (name, moments) pair in turn, builds the two Hankel matrices
    (gamma_{i+j}) and (gamma_{i+j+1}) with i, j <= n; the data comes from a
    measure on [0, inf) only if both are positive semidefinite.  Returns
    the base and shifted report of each sequence in turn, all decided in
    one stack.  Every moment that a matrix uses must be positive and
    finite; the rest are not looked at, and one that is not positive is
    named with its order and its sequence's name.  Each sequence is
    checked before the next is drawn, so an iterator that computes
    them raises what one call per sequence would.
    """
    import numpy as np

    used_rows = []
    for name, moments in sequences:
        if len(moments) < 2 * n + 2:
            raise PreconditionViolated(
                f"need {2 * n + 2} moments for order {n}, got {len(moments)}"
            )
        used = moments[: 2 * n + 2]
        for order, value in enumerate(used):
            if value <= 0.0:
                raise InvalidMoments(
                    f"moments must be positive, got {value!r} at order {order} of {name}"
                )
        if not all(map(math.isfinite, used)):
            raise NonFinite("an oracle matrix has a non-finite entry")
        used_rows.append(used)
    if not used_rows:
        return ()
    # entry (i, j) of the base matrix is moments[i + j], of the shifted one
    # moments[i + j + 1]: one index of the (S, 2n + 2) array makes the
    # (S, 2, n + 1, n + 1) stack, each sequence's base and shifted in turn
    i = np.arange(n + 1)
    index = i[:, None] + i
    stack = np.array(used_rows)[:, [index, index + 1]]
    return tuple(_psd_reports(stack.reshape(-1, n + 1, n + 1)))


def _moment_matrix(source, n: int) -> np.ndarray:
    """The matrix (gamma_(p+q)) over multi-indices of degree <= n, from one
    ``source.moment`` call per distinct entry after a guard call."""
    import numpy as np

    gamma = source.moment
    # out of the moment table exactly when any entry is: fail before the basis
    gamma(2 * n, 0)
    # table[k1][k2] = gamma(k1, k2), padded to a square that no index reaches
    table = np.array(
        [[gamma(k1, k2) for k2 in range(2 * n + 1 - k1)] + [0.0] * k1 for k1 in range(2 * n + 1)]
    )
    first = np.array([k1 for total in range(n + 1) for k1 in range(total, -1, -1)])
    second = np.array([total - k1 for total in range(n + 1) for k1 in range(total, -1, -1)])
    return table[first[:, None] + first, second[:, None] + second]


def moment_matrix_2d(source, n: int) -> PsdReport:
    """Truncated two-variable moment matrix over monomials of degree <= n.

    Indexed by multi-indices p, q with entries gamma_(p+q); positive
    semidefinite whenever the data are moments of a measure.  ``source``
    is anything with a ``moment(k1, k2)`` method.
    """
    return _psd_reports(_moment_matrix(source, n)[None])[0]


def joint_hyponormality_compression(instance: TCInstance, window: int) -> PsdReport:
    """Compression of the 2x2 self-commutator operator matrix.

    The block operator [[T1*,T1], [T2*,T1]; [T1*,T2], [T2*,T2]] is
    compressed to the basis vectors with both indices at most ``window`` in
    each of the two summands.  Positivity of the full operator (joint
    hyponormality, hence subnormality) forces every such compression to be
    positive semidefinite.  It is decided block by block, with no matrix.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    side = window + 1
    alpha = [[instance.weight_at(k1, k2, "h") for k2 in range(side)] for k1 in range(side)]
    beta = [[instance.weight_at(k1, k2, "v") for k2 in range(side)] for k1 in range(side)]
    # diagonal at e_(k1, k2): alpha(k1, k2)^2 - alpha(k1 - 1, k2)^2 in the first summand,
    # beta(k1, k2)^2 - beta(k1, k2 - 1)^2 in the second, a weight at index -1 read as 0
    first = [[w**2 - v**2 for w, v in zip(*rows)] for rows in zip(alpha, [[0.0] * side] + alpha)]
    second = [[w**2 - v**2 for w, v in zip(row, [0.0] + row)] for row in beta]
    diagonal = [entry for row in first + second for entry in row]
    # [T2*, T1] maps e_l to a multiple of e_(l + (1, -1)): e_(l1 + 1, l2 - 1) of the first
    # summand and e_(l1, l2) of the second make a 2x2 block, every other vector a 1x1 block
    blocks = []
    for l1 in range(window):
        for l2 in range(1, side):
            coupling = alpha[l1][l2] * beta[l1 + 1][l2 - 1] - alpha[l1][l2 - 1] * beta[l1][l2 - 1]
            blocks.append((first[l1 + 1][l2 - 1], second[l1][l2], coupling))
    if not all(map(math.isfinite, diagonal + [c for _, _, c in blocks])):  # min drops NaN
        raise NonFinite("an oracle matrix has a non-finite entry")
    # no 2x2 block's diagonal entry undercuts its least eigenvalue; halving keeps a + b finite
    least = [a / 2 + b / 2 - math.hypot(a / 2 - b / 2, c) for a, b, c in blocks]
    min_eig = min(diagonal + least)
    threshold = DEFAULT_PSD_TOL * max(left_sum(diagonal), 0.0)
    return PsdReport(2 * side * side, min_eig, min_eig >= -threshold, threshold)


def oracle_status(verdict_subnormal: bool, oracle_passed: bool) -> str:
    """Label an oracle outcome relative to the closed-form verdict.

    The truncated oracles are necessary conditions, so a pass against a
    negative verdict is merely inconclusive; a failure against a subnormal
    verdict would expose a bug and is labelled a contradiction.
    """
    if verdict_subnormal:
        return "consistent" if oracle_passed else "contradiction"
    return "consistent" if not oracle_passed else "inconclusive"
