"""One-variable weighted-shift kernel: weights, moments, Berger measures.

A subnormal unilateral shift is equivalent data to a probability measure on
[0, norm^2]: the k-th monomial moment of the measure is the product of the
first k squared weights.  This module moves between the two descriptions
for finitely atomic measures, and provides the restriction and backward
extension constructions that the 2-variable model is assembled from.
Weight input is deliberately not supported: inputs enter as measures, and
weights are recovered lazily to any requested depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateMeasure, InvalidMoments, InvalidWeight
from .measures import POSITIVITY_REL_TOL, AtomicMeasure1D


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


@dataclass(frozen=True)
class Extension1D:
    """Outcome of prepending a weight to a subnormal shift."""

    subnormal: bool
    measure: AtomicMeasure1D | None
    ratio: float | None
    reason: str | None = None


def one_var_backward_extension(
    x0: float, measure: AtomicMeasure1D, tol: float = POSITIVITY_REL_TOL
) -> Extension1D:
    """Decide whether shift(x0, tail...) is subnormal when the tail has the
    given Berger measure, and reconstruct the extended measure if so.

    Subnormal exactly when the tail measure has no atom at 0 and
    r := x0^2 ||1/s|| <= 1; the extended measure is then r * tilde +
    (1 - r) delta_0.  Failure is a value, not an error.
    """
    if x0 <= 0.0:
        raise InvalidWeight("the prepended weight must be positive")
    if measure.charges_origin():
        return Extension1D(False, None, None, "tail measure has an atom at 0")
    ratio = x0**2 * measure.reciprocal_norm()
    if ratio > 1.0 + tol:
        return Extension1D(False, None, ratio, "x0^2 ||1/s|| exceeds 1")
    atoms = [(loc, ratio * mass) for loc, mass in measure.tilde().atoms]
    rest = 1.0 - ratio
    if rest > tol:
        atoms.append((0.0, rest))
    return Extension1D(True, AtomicMeasure1D(tuple(atoms), probability=True), ratio)
