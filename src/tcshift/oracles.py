"""Brute-force verification, independent of the closed-form reconstruction.

Four necessary conditions are checked by direct computation: moment
interpolation of a candidate measure, Stieltjes-type Hankel positivity of
one-variable moment data, positive semidefiniteness of the truncated
two-variable moment matrix, and positivity of finite compressions of the
joint self-commutator matrix.  The truncated checks are necessary only: a
pass never certifies subnormality, so reports should label a pass against a
negative verdict as inconclusive rather than contradictory.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InvalidMoments, NonFinite, PreconditionViolated
from .diagram import TCInstance
from .measures import AtomicMeasure2D, left_sum

# numpy is imported inside the functions that build matrices, so that the
# commands that never run an oracle start without it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_PSD_TOL = 1e-9
DEFAULT_INTERPOLATION_TOL = 1e-10


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


def _psd_reports(stack: np.ndarray, tol: float) -> list[PsdReport]:
    """One report per matrix of a stack of same-size symmetric matrices.
    Batched, LAPACK gives each matrix the bits of a call on it alone."""
    import numpy as np

    if not np.isfinite(stack).all():
        raise NonFinite("an oracle matrix has a non-finite entry")
    eigenvalues = np.linalg.eigvalsh(stack).tolist()
    traces = np.trace(stack, axis1=1, axis2=2).tolist()
    reports = []
    for values, trace in zip(eigenvalues, traces):
        threshold = tol * max(trace, 0.0)
        reports.append(PsdReport(stack.shape[1], values[0], values[0] >= -threshold, threshold))
    return reports


def _moment_table(mu: AtomicMeasure2D, order: int) -> list[list[float]]:
    """``table[k1][k2]`` is ``mu.moment(k1, k2)`` to the bit for k1 + k2 <= order:
    the same ``mass * s**k1 * t**k2`` summed in atom order, each power
    taken once per distinct location."""
    locations = dict.fromkeys(loc for s, t, _ in mu.atoms for loc in (s, t))
    powers = {loc: [loc**k for k in range(order + 1)] for loc in locations}
    t_powers = [[powers[t][k2] for _, t, _ in mu.atoms] for k2 in range(order + 1)]
    table = []
    for k1 in range(order + 1):
        weighted = [mass * powers[s][k1] for s, _, mass in mu.atoms]
        table.append([left_sum(map(mul, weighted, t_powers[k2])) for k2 in range(order + 1 - k1)])
    return table


def moment_interpolation_check(
    source,
    mu: AtomicMeasure2D,
    order: int,
    tol: float = DEFAULT_INTERPOLATION_TOL,
) -> InterpolationReport:
    """Compare gamma_(k1,k2) with the monomial integrals of mu for all
    k1 + k2 <= order.

    ``source`` is anything with a ``moment(k1, k2)`` method: an instance,
    or a measure.  Reports the maximal relative error and the first
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
        if rel > tol and first_failure is None:
            first_failure = (k1, k2, expected, actual)
    return InterpolationReport(
        passed=first_failure is None,
        order=order,
        max_rel_error=max_err,
        tolerance=tol,
        first_failure=first_failure,
    )


def hankel_psd(
    moments: Sequence[float],
    n: int,
    tol: float = DEFAULT_PSD_TOL,
) -> tuple[PsdReport, PsdReport]:
    """Stieltjes conditions for one-variable moment data.

    Builds the two Hankel matrices (gamma_{i+j}) and (gamma_{i+j+1}) with
    i, j <= n; the data comes from a measure on [0, inf) only if both are
    positive semidefinite.  Every moment must be positive.
    """
    import numpy as np

    if len(moments) < 2 * n + 2:
        raise PreconditionViolated(
            f"need {2 * n + 2} moments for order {n}, got {len(moments)}"
        )
    if any(v <= 0.0 for v in moments):
        raise InvalidMoments("moments must be positive")
    # base row i is moments[i : i + n + 1], shifted row i is base row i + 1
    rows = [moments[i : i + n + 1] for i in range(n + 2)]
    base, shifted = _psd_reports(np.array([rows[:-1], rows[1:]]), tol)
    return base, shifted


def moment_matrix_2d(source, n: int, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Truncated two-variable moment matrix over monomials of degree <= n.

    Indexed by multi-indices p, q with entries gamma_(p+q); positive
    semidefinite whenever the data are moments of a measure.  ``source``
    is anything with a ``moment(k1, k2)`` method.
    """
    import numpy as np

    gamma = source.moment
    # out of the moment table exactly when any entry is: fail before the basis
    gamma(2 * n, 0)
    basis = [
        (k1, total - k1) for total in range(n + 1) for k1 in range(total, -1, -1)
    ]
    # one call per distinct entry, table[k1][k2] = gamma(k1, k2)
    table = [[gamma(k1, k2) for k2 in range(2 * n + 1 - k1)] for k1 in range(2 * n + 1)]
    matrix = [[table[p1 + q1][p2 + q2] for q1, q2 in basis] for p1, p2 in basis]
    return _psd_reports(np.array([matrix]), tol)[0]


def joint_hyponormality_compression(
    instance: TCInstance, window: int, tol: float = DEFAULT_PSD_TOL
) -> PsdReport:
    """Compression of the 2x2 self-commutator operator matrix.

    The block operator [[T1*,T1], [T2*,T1]; [T1*,T2], [T2*,T2]] is
    compressed to the basis vectors with both indices at most ``window`` in
    each of the two summands.  Positivity of the full operator (joint
    hyponormality, hence subnormality) forces every such compression to be
    positive semidefinite.
    """
    import numpy as np

    if window < 1:
        raise ValueError("window must be at least 1")
    side = window + 1
    size = side * side

    def alpha(k1: int, k2: int) -> float:
        return instance.weight_at(k1, k2, "h")

    def beta(k1: int, k2: int) -> float:
        return instance.weight_at(k1, k2, "v")

    def flat(k1: int, k2: int) -> int:
        return k1 * side + k2

    matrix = np.zeros((2 * size, 2 * size))
    for k1 in range(side):
        for k2 in range(side):
            i = flat(k1, k2)
            left = alpha(k1 - 1, k2) ** 2 if k1 >= 1 else 0.0
            matrix[i, i] = alpha(k1, k2) ** 2 - left
            below = beta(k1, k2 - 1) ** 2 if k2 >= 1 else 0.0
            matrix[size + i, size + i] = beta(k1, k2) ** 2 - below
    # Off-diagonal blocks: [T2*, T1] maps e_l to a multiple of
    # e_{l + (1, -1)}, so only columns with l2 >= 1 contribute.
    for l1 in range(side):
        for l2 in range(1, side):
            k1, k2 = l1 + 1, l2 - 1
            if k1 > window:
                continue
            value = alpha(l1, l2) * beta(l1 + 1, l2 - 1) - alpha(l1, l2 - 1) * beta(
                l1, l2 - 1
            )
            matrix[flat(k1, k2), size + flat(l1, l2)] = value
            matrix[size + flat(l1, l2), flat(k1, k2)] = value
    return _psd_reports(matrix[np.newaxis], tol)[0]


def oracle_status(verdict_subnormal: bool, oracle_passed: bool) -> str:
    """Label an oracle outcome relative to the closed-form verdict.

    The truncated oracles are necessary conditions, so a pass against a
    negative verdict is merely inconclusive; a failure against a subnormal
    verdict would expose a bug and is labelled a contradiction.
    """
    if verdict_subnormal:
        return "consistent" if oracle_passed else "contradiction"
    return "consistent" if not oracle_passed else "inconclusive"
