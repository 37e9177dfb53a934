"""Two-variable weight diagrams whose core is a tensor grid.

An instance is determined by five pieces of data: the Berger measures of
the row-0 shift (xi_x) and the column-0 shift (eta_y), the two core
measures xi and eta driving the horizontal and vertical core weights, and
the single weight ``a`` joining (0, 1) to (1, 1).  The diagram is two
grids, alpha[k1][k2] (horizontal) and beta[k1][k2] (vertical).  Row 0 and
column 0 carry the weights x_k and y_k of their own shifts, the core region
k1 >= 1, k2 >= 1 is the tensor grid alpha_{k1} / beta_{k2}, and the
remaining boundary weights are forced by commutativity:

    beta[k1+1][0]  = beta[k1][0] alpha_{k1} / x_{k1},   beta[1][0]  = a y_0 / x_0
    alpha[0][k2+1] = alpha[0][k2] beta_{k2} / y_{k2},   alpha[0][1] = a

Moments of order (k1, k2) are products of squared weights along a
nondecreasing lattice path, which commutativity makes path independent, so
they have a closed form in the four measures' own moments:

    gamma_(k1, 0) = gamma^xi_x_k1,   gamma_(0, k2) = gamma^eta_y_k2,
    gamma_(k1, k2) = a^2 y0^2 gamma^xi_(k1-1) gamma^eta_(k2-1)  (k1, k2 >= 1)

An instance reads them from the weights of its four measures
(``shifts.weights_from_measure``), made to its ``depth``: 32 on a built
instance, or the shallower one that ``with_depth`` states for a reader
that reads no deeper.  A read past the depth raises ``DepthExceeded``.
The oracles read them as whole tables, a triangle (``moment_table``), a
row or a column, with one depth check each and the same products.
The restriction of the shift to k2 >= i, k1 >= j has the moments
gamma_(j + k1, i + k2) / gamma_(j, i).
``TCInstance.with_a`` makes the same instance at another joining weight,
with a copy of the values that do not depend on a and that the instance
has already computed; a sweep builds each point from the last, so every
point after the first reads them as plain attributes.
Among them are the runs in which psi's and phi's atoms merge
(``measures.merge_runs``): psi and phi combine four fixed measures, and
only the coefficients depend on a.  No run of psi holds two atoms of one
term, and in phi delta_0 can meet only an atom of xi_x at 0, as xi~ never
charges 0, so every run holds at most two atoms, whose sum is the same
bits in either order.  Each point of a family then only multiplies and
adds its masses.  An instance built by the constructor, which usually
gives one verdict, builds no runs and merges as before.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul
from typing import Literal

from .errors import (
    AtomAtZero, DepthExceeded, InvalidFlat, InvalidWeight, NotProbability
)
from .measures import (
    PROBABILITY_TOL,
    AtomicMeasure1D,
    Frozen,
    MergeRuns,
    dirac,
    merge_runs,
    same_location,
    to_float,
)
from .shifts import restriction_measure, weights_from_measure

Direction = Literal["h", "v"]


def _joining_weight(a: float) -> float:
    """The joining weight as a float, once checked."""
    a = to_float(a, "a")
    if not (a > 0.0 and math.isfinite(a)):
        raise InvalidWeight(f"the joining weight a must be positive, got {a!r}")
    if not math.isfinite(a * a):
        raise InvalidWeight(f"the square of the joining weight a overflows, got {a!r}")
    return a


class TCInstance(Frozen):
    """A 2-variable weighted shift with a tensor-form core.

    All four measures must be probability measures and the two core
    measures must keep 1/s (resp. 1/t) integrable, i.e. carry no atom at
    the origin.
    """

    _fields = ("xi_x", "eta_y", "xi", "eta", "a")
    #: True on an instance made by ``with_a``, whose verdict shares psi's
    #: and phi's merge runs with the rest of its family.
    in_family = False
    #: Largest weight index, which the tables of weights and moments are
    #: made to; moments are valid for k1 <= depth + 1 when k2 = 0, k2 <=
    #: depth + 1 when k1 = 0, and k1 <= depth, k2 <= depth + 1 in the core.
    #: ``with_depth`` makes a shallower copy.
    depth = 32
    #: The caches that depend on a, which ``with_a`` does not copy.
    _DEPENDS_ON_A = ("_boundary", "_moments")

    def __init__(
        self,
        xi_x: AtomicMeasure1D,
        eta_y: AtomicMeasure1D,
        xi: AtomicMeasure1D,
        eta: AtomicMeasure1D,
        a: float,
    ) -> None:
        vars(self).update(xi_x=xi_x, eta_y=eta_y, xi=xi, eta=eta)
        for name, measure in (("xi_x", xi_x), ("eta_y", eta_y), ("xi", xi), ("eta", eta)):
            if not measure.is_probability():
                raise NotProbability(
                    f"{name} must be a probability measure, total mass {measure.total_mass!r}"
                )
        for name, measure in (("xi", xi), ("eta", eta)):
            if measure.charges_origin():
                raise AtomAtZero(f"{name} has an atom at 0")
        vars(self)["a"] = _joining_weight(a)

    def _copy(self, drop: tuple[str, ...], changes: dict[str, object]) -> TCInstance:
        """A copy of this instance's own attributes with ``changes``, less
        the caches named in ``drop``."""
        other = object.__new__(type(self))
        state = vars(other)
        state.update(vars(self))
        state.update(changes)
        for name in drop:
            state.pop(name, None)
        return other

    def with_a(self, a: float) -> TCInstance:
        """The same instance at another joining weight.

        The measures were checked when this instance was made, so only a
        is checked.  The new instance starts from a copy of this one's own
        attributes, less the caches that depend on a: the values that do
        not depend on a and that this instance has already computed are
        read as plain attributes, and the rest are computed on first use,
        so an invalid instance raises the error that it raises when built
        afresh.  Two instances made from one root share none of the values
        that either computes later; a sweep builds each point from the
        last, so its first point computes them for every later one.
        """
        return self._copy(self._DEPENDS_ON_A, {"a": _joining_weight(a), "in_family": True})

    def with_depth(self, depth: int) -> TCInstance:
        """The same instance with its tables made only to weight index
        ``depth`` (at most this instance's), for a reader that reads no
        deeper.  Each entry has the full table's bits: each order of
        ``shifts.relative_moments`` is its own sum over the atoms, and the
        running products and the boundary recursion read only lower
        orders.  A read past ``depth`` raises ``DepthExceeded``.
        """
        return self._copy(("_weights", *self._DEPENDS_ON_A), {"depth": min(depth, self.depth)})

    # Derived values that do not depend on a, which with_a copies.

    @cached_property
    def y0_sq(self) -> float:
        return self.eta_y.moment(1)

    @cached_property
    def recip_s_xi(self) -> float:
        return self.xi.reciprocal_norm()

    @cached_property
    def recip_t_eta(self) -> float:
        return self.eta.reciprocal_norm()

    @cached_property
    def eta_y_tail(self) -> AtomicMeasure1D:
        """Berger measure of the column-0 shift with its first weight removed."""
        return restriction_measure(self.eta_y)

    @cached_property
    def recip_t_eta_y_tail(self) -> float:
        return self.eta_y_tail.reciprocal_norm()

    @cached_property
    def xi_tilde(self) -> AtomicMeasure1D:
        return self.xi.tilde()

    @cached_property
    def psi_runs(self) -> MergeRuns | None:
        """The merge runs of psi's terms, tail and eta."""
        return merge_runs((self.eta_y_tail, self.eta))

    @cached_property
    def phi_runs(self) -> MergeRuns | None:
        """The merge runs of phi's terms, xi_x, delta_0 and xi~."""
        return merge_runs((self.xi_x, dirac(0.0), self.xi_tilde))

    @cached_property
    def _weights(self) -> tuple[tuple[float, ...], ...]:
        """The first depth + 1 weights of xi_x, eta_y, xi and eta."""
        return tuple(
            weights_from_measure(measure, self.depth + 1)
            for measure in (self.xi_x, self.eta_y, self.xi, self.eta)
        )

    @cached_property
    def _boundary(self) -> tuple[list[float], list[float]]:
        """alpha(0, k) and beta(k, 0) at k - 1 for 1 <= k <= depth, by the
        commutativity recursions."""
        x, y, core_h, core_v = self._weights
        column = [self.a]
        row = [self.a * y[0] / x[0]]
        for k in range(1, self.depth):
            column.append(column[-1] * core_v[k - 1] / y[k])
            row.append(row[-1] * core_h[k - 1] / x[k])
        return column, row

    @cached_property
    def _moments(self) -> tuple[list[float], ...]:
        """gamma^xi_x_k, gamma^eta_y_k, a^2 y0^2 gamma^xi_k and gamma^eta_k for
        k <= depth + 1: running products of squared weights, inf where they
        overflow."""
        x, y, core_h, core_v = (
            list(accumulate((w * w for w in weights), mul, initial=1.0))
            for weights in self._weights
        )
        scale = self.a * self.a * y[1]
        return x, y, [scale * gamma for gamma in core_h], core_v

    def weight_at(self, k1: int, k2: int, direction: Direction) -> float:
        """Weight of the diagram at lattice point (k1, k2).

        Direction "h" is the horizontal weight alpha, "v" the vertical
        weight beta.
        """
        if k1 < 0 or k2 < 0:
            raise ValueError("weight indices must be nonnegative")
        if k1 > self.depth or k2 > self.depth:
            raise DepthExceeded(f"index ({k1}, {k2}) beyond the depth limit {self.depth}")
        x, y, core_h, core_v = self._weights
        if direction == "h":
            return x[k1] if k2 == 0 else core_h[k1 - 1] if k1 else self._boundary[0][k2 - 1]
        if direction == "v":
            return y[k2] if k1 == 0 else core_v[k2 - 1] if k2 else self._boundary[1][k1 - 1]
        raise ValueError(f"direction must be 'h' or 'v', got {direction!r}")

    def moment(self, k1: int, k2: int) -> float:
        """Moment gamma_(k1, k2) in closed form: gamma^xi_x_k1 on row 0,
        gamma^eta_y_k2 on column 0, and a^2 y0^2 gamma^xi_(k1-1)
        gamma^eta_(k2-1) in the core."""
        if k1 < 0 or k2 < 0:
            raise ValueError("moment orders must be nonnegative")
        x, y, core_h, core_v = self._moments
        depth = self.depth
        if k2 == 0 and k1 <= depth + 1:
            return x[k1]
        if k1 == 0 and k2 <= depth + 1:
            return y[k2]
        if k1 <= depth and k2 <= depth + 1:
            return core_h[k1 - 1] * core_v[k2 - 1]
        raise DepthExceeded(f"moment ({k1}, {k2}) beyond the depth limit {depth}")

    def moment_table(self, order: int) -> list[list[float]]:
        """``table[k1][k2]`` is ``moment(k1, k2)`` for k1 + k2 <= order, to
        the bit: the same products of the running products.  By total
        order, the first moment past the depth is (depth + 2, 0), so one
        read of gamma_(order, 0), or of that one, raises what reading each
        entry in that order raises."""
        self.moment(min(order, self.depth + 2), 0)
        x, y, core_h, core_v = self._moments
        return [y[: order + 1]] + [
            [x[k1], *map(mul, repeat(core_h[k1 - 1]), core_v[: order - k1])]
            for k1 in range(1, order + 1)
        ]

    # A row or column read gives moment(...) / base for each entry, to the
    # bit, in the order of reading each entry and dividing it: the base's
    # read, a division by a base of zero, then the first moment past the
    # depth, which one read of the last entry, or of that one, raises.

    def row_moments(self, row: int, count: int) -> tuple[float, ...]:
        """Moments of the one-variable shift along a fixed row,
        gamma_(k, row) / gamma_(0, row) for k < count.  The row stops at
        k = depth + 1 on row 0 and at k = depth above it."""
        base = self.moment(0, row)
        x, _, core_h, core_v = self._moments
        line = [base, *map(mul, core_h[: count - 1], repeat(core_v[row - 1]))] if row else x
        moments = tuple(gamma / base for gamma in line[:count])
        if count > 1:
            self.moment(min(count - 1, self.depth + 1 + (row == 0)), row)
        return moments

    def column_moments(self, column: int, count: int) -> tuple[float, ...]:
        """Moments of the one-variable shift along a fixed column,
        gamma_(column, k) / gamma_(column, 0) for k < count.  The column
        stops at k = depth + 1 up to column depth and at k = 0 past it."""
        base = self.moment(column, 0)
        _, y, core_h, core_v = self._moments
        line = [base, *map(mul, repeat(core_h[column - 1]), core_v[: count - 1])] if column else y
        moments = tuple(gamma / base for gamma in line[:count])
        if count > 1:
            self.moment(column, min(count - 1, self.depth + 2 if column <= self.depth else 1))
        return moments


def _check_unit_interval(name: str, value: float, *, allow_zero: bool) -> None:
    low_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (math.isfinite(value) and low_ok and value <= 1.0):
        raise InvalidFlat(f"{name} must lie in the unit interval, got {value!r}")


def _check_support_avoids(measure: AtomicMeasure1D, name: str, banned: tuple[float, ...]) -> None:
    for loc, _ in measure.atoms:
        for point in banned:
            if same_location(loc, point):
                raise InvalidFlat(f"{name} must not charge {point!r}, found atom at {loc!r}")


class FlatInstance(Frozen):
    """Flat 2-variable shift: both core measures are single atoms.

    The horizontal core measure is normalised to delta_1 and the vertical
    one is delta_{b^2}; the marginal data is

        xi_x  = p delta_0 + q delta_1     + (1 - p - q) rho
        eta_y = l delta_0 + m delta_{b^2} + (1 - l - m) sigma

    with rho charging neither 0 nor 1 and sigma charging neither 0 nor b^2.
    The boundary values p = 0, l = 0, q = 1, m = 1 are admitted so that the
    degenerate tensor pair is representable.
    """

    _fields = ("p", "q", "l", "m", "b", "a", "rho", "sigma")

    def __init__(
        self,
        p: float,
        q: float,
        l: float,
        m: float,
        b: float,
        a: float,
        rho: AtomicMeasure1D | None = None,
        sigma: AtomicMeasure1D | None = None,
    ) -> None:
        # every scalar as a float first, in field order, as the CLI reads them
        p, q, l, m, b, a = (
            to_float(value, name) for name, value in zip(self._fields, (p, q, l, m, b, a))
        )
        vars(self).update(p=p, q=q, l=l, m=m, b=b, a=a, rho=rho, sigma=sigma)
        _check_unit_interval("p", self.p, allow_zero=True)
        _check_unit_interval("q", self.q, allow_zero=False)
        _check_unit_interval("l", self.l, allow_zero=True)
        _check_unit_interval("m", self.m, allow_zero=False)
        if self.p + self.q > 1.0 + PROBABILITY_TOL:
            raise InvalidFlat(f"p + q must not exceed 1, got {self.p + self.q!r}")
        if self.l + self.m > 1.0 + PROBABILITY_TOL:
            raise InvalidFlat(f"l + m must not exceed 1, got {self.l + self.m!r}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise InvalidFlat(f"b must be positive, got {self.b!r}")
        if not math.isfinite(self.b * self.b):
            raise InvalidFlat(f"the square of b overflows, got {self.b!r}")
        if self.b * self.b == 0.0:
            raise InvalidFlat(f"the square of b underflows to 0, got {self.b!r}")
        if not (0.0 < self.a <= self.b * (1.0 + 1e-12)) or not math.isfinite(self.a):
            raise InvalidFlat(f"a must satisfy 0 < a <= b, got a={self.a!r}, b={self.b!r}")
        self._check_remainder("rho", self.rho, self.rest_x, (0.0, 1.0))
        self._check_remainder("sigma", self.sigma, self.rest_y, (0.0, self.b**2))

    def _check_remainder(
        self,
        name: str,
        measure: AtomicMeasure1D | None,
        weight: float,
        banned: tuple[float, float],
    ) -> None:
        if weight > PROBABILITY_TOL:
            if measure is None or not measure.atoms:
                raise InvalidFlat(f"{name} is required when its weight {weight!r} is positive")
            if not measure.is_probability():
                raise InvalidFlat(f"{name} must be a probability measure")
            _check_support_avoids(measure, name, banned)
        elif measure is not None and measure.atoms:
            raise InvalidFlat(f"{name} given but its weight is zero")

    @property
    def rest_x(self) -> float:
        return 1.0 - (self.p + self.q)

    @property
    def rest_y(self) -> float:
        return 1.0 - (self.l + self.m)

    @cached_property
    def xi_x(self) -> AtomicMeasure1D:
        atoms = []
        if self.p > 0.0:
            atoms.append((0.0, self.p))
        atoms.append((1.0, self.q))
        if self.rest_x > PROBABILITY_TOL:
            atoms.extend((loc, self.rest_x * mass) for loc, mass in self.rho.atoms)
        return AtomicMeasure1D(tuple(atoms), probability=True)

    @cached_property
    def eta_y(self) -> AtomicMeasure1D:
        atoms = []
        if self.l > 0.0:
            atoms.append((0.0, self.l))
        atoms.append((self.b**2, self.m))
        if self.rest_y > PROBABILITY_TOL:
            atoms.extend((loc, self.rest_y * mass) for loc, mass in self.sigma.atoms)
        return AtomicMeasure1D(tuple(atoms), probability=True)

    def embed(self) -> TCInstance:
        """The instance as a general tensor-core diagram."""
        return TCInstance(
            xi_x=self.xi_x,
            eta_y=self.eta_y,
            xi=dirac(1.0),
            eta=dirac(self.b**2),
            a=self.a,
        )
