"""One-variable weighted-shift kernel: moments, weights, restrictions.

A subnormal unilateral shift is equivalent data to a probability measure on
[0, norm^2]: the k-th monomial moment of the measure is the product of the
first k squared weights.  ``relative_moments`` is the one place where a
measure's moments are summed, each relative to its largest location so that
none overflows or underflows; ``weights_from_measure`` takes the weights
from them, and the diagram takes its moments back as running products of
their squares.  The square root stays because ``bench/spans.py`` traces
``weights_from_measure`` as a layer of ``verify``.  Weight input is
deliberately not supported: inputs enter as measures.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul

from .errors import DegenerateMeasure
from .measures import AtomicMeasure1D, at_merged_locations


def relative_moments(measure: AtomicMeasure1D, count: int) -> tuple[float, list[float]]:
    """The largest location t of the measure, and its moments of orders 0
    to count - 1 over its total mass and over t^k.  Each lies between the
    share of the mass at t and 1, so none overflows or underflows to 0.

    The sums are built atom by atom, one map over every order per atom,
    added from the left in atom order: the additions that ``left_sum``
    makes order by order.  Every base loc / t is at most 1, so no power
    overflows.
    """
    top = measure.atoms[-1][0]
    if top == 0.0:
        raise DegenerateMeasure("measure concentrated at 0 has no weight sequence")
    orders = range(count)
    moments = [0] * count
    for loc, mass in measure.atoms:
        powers = map(pow, repeat(loc / top), orders)
        moments = list(map(add, moments, map(mul, repeat(mass), powers)))
    return top, [moment / moments[0] for moment in moments]


def weights_from_measure(measure: AtomicMeasure1D, n: int) -> tuple[float, ...]:
    """First n weights of the subnormal shift with the given Berger measure.

    alpha_k = sqrt(gamma_{k+1} / gamma_k) with gamma_k the k-th moment,
    read as sqrt(t r_{k+1} / r_k) from the relative moments r_k of
    ``relative_moments``, so the shift built from the result has the input
    as its Berger measure by construction.
    """
    if n < 1:
        raise ValueError("at least one weight must be requested")
    top, moments = relative_moments(measure, n + 1)
    return tuple(math.sqrt(top * moments[k + 1] / moments[k]) for k in range(n))


def restriction_measure(measure: AtomicMeasure1D, h: int) -> AtomicMeasure1D:
    """Berger measure of the shift with its first h weights removed.

    The density is s^h / gamma_h; an atom at the origin is annihilated for
    h >= 1.
    """
    if h < 0:
        raise ValueError("restriction depth must be nonnegative")
    if h == 0:
        return at_merged_locations(measure.atoms, probability=True)
    gamma_h = measure.moment(h)
    if gamma_h <= 0.0:
        raise DegenerateMeasure("measure concentrated at 0 cannot be restricted")
    atoms = [(loc, mass * loc**h / gamma_h) for loc, mass in measure.atoms if loc > 0.0]
    return at_merged_locations(atoms, probability=True)
