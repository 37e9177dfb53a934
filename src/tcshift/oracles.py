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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import NonFinite, PreconditionViolated
from .diagram import TCInstance
from .measures import AtomicMeasure2D
from .shifts import MomentSequence

# numpy is imported inside the functions that build matrices, so that the
# commands that never run an oracle start without it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_PSD_TOL = 1e-9
DEFAULT_INTERPOLATION_TOL = 1e-10


@dataclass(frozen=True)
class PsdReport:
    """Positive-semidefiniteness certificate for one symmetric matrix.

    ``tolerance`` is the absolute threshold actually applied, i.e. the
    relative tolerance scaled by the matrix trace; the check passes exactly
    when the smallest eigenvalue is at least its negative.
    """

    dimension: int
    min_eigenvalue: float
    passed: bool
    tolerance: float


@dataclass(frozen=True)
class InterpolationReport:
    """Comparison of weight-product moments against a measure's moments."""

    passed: bool
    order: int
    max_rel_error: float
    tolerance: float
    first_failure: tuple[int, int, float, float] | None = None


def _gamma_function(source) -> Callable[[int, int], float]:
    moment = getattr(source, "moment", None)
    if callable(moment):
        return moment
    if callable(source):
        return source
    raise TypeError(f"cannot extract a moment function from {source!r}")


def _psd_report(matrix: np.ndarray, tol: float) -> PsdReport:
    import numpy as np

    if not np.isfinite(matrix).all():
        raise NonFinite("an oracle matrix has a non-finite entry")
    sym = 0.5 * (matrix + matrix.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    min_eig = float(eigenvalues[0]) if eigenvalues.size else 0.0
    threshold = tol * max(float(np.trace(sym)), 0.0)
    return PsdReport(
        dimension=sym.shape[0],
        min_eigenvalue=min_eig,
        passed=min_eig >= -threshold,
        tolerance=threshold,
    )


def moment_interpolation_check(
    source,
    mu: AtomicMeasure2D,
    order: int,
    tol: float = DEFAULT_INTERPOLATION_TOL,
) -> InterpolationReport:
    """Compare gamma_(k1,k2) with the monomial integrals of mu for all
    k1 + k2 <= order.

    ``source`` may be an instance or any callable (k1, k2) -> gamma, such
    as the moments gamma_(j + k1, i + k2) / gamma_(j, i) of a restriction.
    Reports the maximal relative error and the first failing index.
    """
    gamma = _gamma_function(source)
    max_err = 0.0
    first_failure = None
    for total in range(order + 1):
        for k1 in range(total, -1, -1):
            k2 = total - k1
            expected = gamma(k1, k2)
            actual = mu.moment(k1, k2)
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
    moments: MomentSequence | Sequence[float],
    n: int,
    tol: float = DEFAULT_PSD_TOL,
) -> tuple[PsdReport, PsdReport]:
    """Stieltjes conditions for one-variable moment data.

    Builds the two Hankel matrices (gamma_{i+j}) and (gamma_{i+j+1}) with
    i, j <= n; the data comes from a measure on [0, inf) only if both are
    positive semidefinite.
    """
    import numpy as np

    values = list(moments.values if isinstance(moments, MomentSequence) else moments)
    if len(values) < 2 * n + 2:
        raise PreconditionViolated(
            f"need {2 * n + 2} moments for order {n}, got {len(values)}"
        )
    base = np.array([[values[i + j] for j in range(n + 1)] for i in range(n + 1)])
    shifted = np.array([[values[i + j + 1] for j in range(n + 1)] for i in range(n + 1)])
    return _psd_report(base, tol), _psd_report(shifted, tol)


def moment_matrix_2d(source, n: int, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Truncated two-variable moment matrix over monomials of degree <= n.

    Indexed by multi-indices p, q with entries gamma_(p+q); positive
    semidefinite whenever the data are moments of a measure.
    """
    import numpy as np

    gamma = _gamma_function(source)
    # out of the moment table exactly when any entry is: fail before the basis
    gamma(2 * n, 0)
    basis = [
        (k1, total - k1) for total in range(n + 1) for k1 in range(total, -1, -1)
    ]
    matrix = np.array(
        [[gamma(p[0] + q[0], p[1] + q[1]) for q in basis] for p in basis]
    )
    return _psd_report(matrix, tol)


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
    return _psd_report(matrix, tol)


def oracle_status(verdict_subnormal: bool, oracle_passed: bool) -> str:
    """Label an oracle outcome relative to the closed-form verdict.

    The truncated oracles are necessary conditions, so a pass against a
    negative verdict is merely inconclusive; a failure against a subnormal
    verdict would expose a bug and is labelled a contradiction.
    """
    if verdict_subnormal:
        return "consistent" if oracle_passed else "contradiction"
    return "consistent" if not oracle_passed else "inconclusive"
