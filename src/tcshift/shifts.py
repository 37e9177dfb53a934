"""One-variable weighted-shift kernel: weights, moments, Berger measures.

A subnormal unilateral shift is equivalent data to a probability measure on
[0, norm^2]: the k-th monomial moment of the measure is the product of the
first k squared weights.  This module moves between the two descriptions
for finitely atomic measures, and provides the restriction that the
2-variable model is assembled from.
Weight input is deliberately not supported: inputs enter as measures, and
weights are recovered lazily to any requested depth.
"""

from __future__ import annotations

import math

from .errors import DegenerateMeasure, InvalidMoments, InvalidWeight
from .measures import AtomicMeasure1D


def weights_from_measure(measure: AtomicMeasure1D, n: int) -> tuple[float, ...]:
    """First n weights of the subnormal shift with the given Berger measure.

    alpha_k = sqrt(gamma_{k+1} / gamma_k) with gamma_k the k-th moment, so
    the shift built from the result has the input as its Berger measure by
    construction.  Every weight must be positive, finite and at most the
    norm sqrt(max supp); rounding of underflowing moments can break that,
    and no moment may underflow to 0 or overflow.
    """
    if n < 1:
        raise ValueError("at least one weight must be requested")
    gammas = []
    for k in range(n + 1):
        try:
            gamma = measure.moment(k)
        except OverflowError:
            gamma = math.inf
        if gamma == math.inf:
            raise InvalidMoments(f"moment {k} of the measure overflows")
        gammas.append(gamma)
    if gammas[1] <= 0.0:
        raise DegenerateMeasure("measure concentrated at 0 has no weight sequence")
    if 0.0 in gammas:
        raise InvalidMoments(f"moment {gammas.index(0.0)} of the measure underflows to 0")
    weights = tuple(math.sqrt(gammas[k + 1] / gammas[k]) for k in range(n))
    bound = math.sqrt(max(loc for loc, _ in measure.atoms))
    for value in weights:
        if not (value > 0.0 and math.isfinite(value)):
            raise InvalidWeight(f"weights must be positive and finite, got {value!r}")
        if value > bound * (1.0 + 1e-12):
            raise InvalidWeight(f"weight {value!r} exceeds the norm bound {bound!r}")
    return weights


def restriction_measure(measure: AtomicMeasure1D, h: int) -> AtomicMeasure1D:
    """Berger measure of the shift with its first h weights removed.

    The density is s^h / gamma_h; an atom at the origin is annihilated for
    h >= 1.
    """
    if h < 0:
        raise ValueError("restriction depth must be nonnegative")
    if h == 0:
        return AtomicMeasure1D(measure.atoms, probability=True)
    gamma_h = measure.moment(h)
    if gamma_h <= 0.0:
        raise DegenerateMeasure("measure concentrated at 0 cannot be restricted")
    atoms = tuple(
        (loc, mass * loc**h / gamma_h) for loc, mass in measure.atoms if loc > 0.0
    )
    return AtomicMeasure1D(atoms, probability=True)
