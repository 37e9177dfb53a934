"""Finitely atomic measures on the half line and the quarter plane.

Every quantity in this package reduces to arithmetic on (location, mass)
atom lists: monomial moments, reciprocal norms, the tilde and extremal
renormalisations, marginals, Cartesian products, signed linear combinations
and positivity checks with an explicit witness.  Keeping that arithmetic
exact up to float rounding is what makes the brute-force verification
oracles trustworthy.

Conventions: locations are nonnegative, probability measures have total
mass one, and locations u, v with |u - v| <= MERGE_REL_TOL * max(|u|, |v|)
are one point, at every scale: only an atom at exactly 0.0 is at the origin.

The nonnegative ``AtomicMeasure1D``/``2D`` subclass ``SignedMeasure1D``/``2D``.
One signed base under both owns the merge on construction, the total mass,
``as_positive`` and the probability-total check; the signed classes add
their moments (and in 1-D ``reciprocal_norm`` and ``charges_origin``),
the nonnegative ones the sign checks and what needs positivity.  The
mass at a point and the planar point mass, which only the tests read, are
``mass_at`` and ``dirac2`` in ``tests/helpers.py``.

Every measure holds its atoms as a tuple of finite float tuples that is

- sorted, by location or by (s, t);
- merged: no two consecutive atoms are at the same point;
- zero-free: no mass is exactly zero.

The constructors establish this with one sort and one merge pass.  Any
two locations of a merged 1-D measure are apart, so ``product`` of merged
factors, at any coefficient, and ``at_merged_locations`` of atoms at some
of a merged measure's locations (as ``tilde`` and the 1-D ``as_positive``
make) skip the merge pass; ``product``'s docstring gives the proof, and
why its product of nonnegative factors at a nonnegative coefficient skips
the sign pass too.  A 1-D
``combine`` of fixed measures at changing coefficients can skip the sort
and the merge too: where ``merge_runs`` finds that no run of the merge of
their locations holds more than two atoms, the runs are the same at every
coefficient, and each run's sum is the same bits in either order.  So
``merge_runs`` keeps the (term, mass) of each run's two atoms, and
``combine`` makes each run's total in one pass over those pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from itertools import chain
from operator import add, itemgetter
from typing import Any, Iterable, Literal, NamedTuple, Sequence, Union

from .errors import AtomAtZero, NonFinite, NotProbability, PreconditionViolated

#: Two atom locations within this relative distance are one atom.
MERGE_REL_TOL = 1e-12

#: Default positivity slack, relative to the total variation of the measure.
POSITIVITY_REL_TOL = 1e-12

#: Slack accepted when a measure claims total mass one.
PROBABILITY_TOL = 1e-9

Axis = Literal["x", "y"]


def left_sum(values: Iterable[float]) -> float:
    """Sum from the left, rounding after each addition, from the int 0 as
    ``sum`` starts (an empty total is ``0``).

    Every float total in the package goes through here: since Python 3.12
    ``sum`` compensates rounding, so its last digit, and with it a printed
    report, would depend on the Python version.
    """
    return reduce(add, values, 0)


def same_location(u: float, v: float) -> bool:
    """True when two atom locations should be treated as the same point."""
    return abs(u - v) <= MERGE_REL_TOL * max(abs(u), abs(v))


def to_float(value: float, what: str) -> float:
    """``float(value)``, refusing by name an int too large for a float."""
    try:
        return float(value)
    except OverflowError:
        raise NonFinite(f"{what} must be finite, got an integer too large for a float") from None


def _finite(value: float, what: str) -> float:
    value = to_float(value, what)
    if not math.isfinite(value):
        raise NonFinite(f"{what} must be finite, got {value!r}")
    return value


_NAMES_1D = ("atom location", "atom mass")
_NAMES_2D = ("atom s-coordinate", "atom t-coordinate", "atom mass")


def _as_floats(atoms: Iterable[Sequence[float]], names: tuple[str, ...]) -> list:
    """The atoms as tuples of finite floats, in input order.

    The values may be any numbers, the ints of a JSON file too; this is
    where an instance file's atoms become floats.  Finiteness is checked in
    bulk: a sum of finite floats is finite unless it overflows, and any inf
    or NaN makes it non-finite.  Only when that check (or a conversion)
    fails are the values walked one by one, so the error names the first
    bad value in input order, be it an inf, a NaN or an oversized int.
    """
    if not isinstance(atoms, (tuple, list)):
        atoms = tuple(atoms)
    try:
        if len(names) == 2:
            prepared = [(float(u), float(m)) for u, m in atoms]
        else:
            prepared = [(float(u), float(v), float(m)) for u, v, m in atoms]
        if math.isfinite(sum(chain.from_iterable(prepared))):
            return prepared
    except (ArithmeticError, TypeError, ValueError):
        pass
    if len(names) == 2:
        return [(_finite(u, names[0]), _finite(m, names[1])) for u, m in atoms]
    return [
        (_finite(u, names[0]), _finite(v, names[1]), _finite(m, names[2]))
        for u, v, m in atoms
    ]


def _merge_1d(atoms: Iterable[Sequence[float]]) -> tuple[tuple[float, float], ...]:
    """Sort atoms by location, merge coincident locations, drop exact zeros."""
    return _merge_floats_1d(_as_floats(atoms, _NAMES_1D))


def _merge_2d(atoms: Iterable[Sequence[float]]) -> tuple[tuple[float, float, float], ...]:
    """Sort atoms by (s, t), merge coincident points, drop exact zeros."""
    return _merge_floats_2d(_as_floats(atoms, _NAMES_2D))


def _merge_floats_1d(prepared: list) -> tuple[tuple[float, float], ...]:
    """Merge finite float pairs, which this sorts in place.

    The loop inlines ``same_location``.  An atom joins the current run when
    it is at the same location as the run's first atom, and a run whose
    masses sum to exactly zero is dropped.  Any two locations of one run
    are at the same location: with h <= u < v in a run headed by h,
    v - u <= v - h <= MERGE_REL_TOL * v.
    """
    if not prepared:
        return ()
    prepared.sort()
    merged = []
    append = merged.append
    tol = MERGE_REL_TOL
    atoms = iter(prepared)
    head, total = next(atoms)
    for loc, mass in atoms:
        if loc == head or abs(head - loc) <= tol * max(abs(head), abs(loc)):
            total += mass
        else:
            if total:
                append((head, total))
            head, total = loc, mass
    if total:
        append((head, total))
    return tuple(merged)


def _run_heads(values: set) -> dict:
    """Each value mapped to the first value of its run in the 1-D merge of
    all of them."""
    heads = [head for head, _ in _merge_floats_1d([(value, 1.0) for value in values])]
    return {value: heads[bisect_right(heads, value) - 1] for value in values}


def _merge_floats_2d(prepared: list) -> tuple[tuple[float, float, float], ...]:
    """Merge finite float triples, which this sorts in place.

    Two atoms are at one point when their s-coordinates are in one run of
    the 1-D merge of every s, and their t-coordinates in one run of that of
    every t.  The masses of the atoms at one point are summed in sorted
    order, at the location of the first of them, and a sum that is exactly
    zero is dropped.  The points keep the order of their first atoms, so
    the result is sorted.
    """
    if not prepared:
        return ()
    prepared.sort()
    s_heads = _run_heads({s for s, _, _ in prepared})
    t_heads = _run_heads({t for _, t, _ in prepared})
    points: dict = {}
    for s, t, mass in prepared:
        key = (s_heads[s], t_heads[t])
        point = points.get(key)
        if point is None:
            points[key] = [s, t, mass]
        else:
            point[2] += mass
    return tuple((s, t, total) for s, t, total in points.values() if total)


def _from_merged(cls: type, atoms: tuple, **fields: bool):
    """An instance of ``cls`` over atoms that are already float, finite,
    sorted, merged and zero-free; only the class's own checks run."""
    measure = object.__new__(cls)
    vars(measure).update(atoms=atoms, **fields)
    measure._check()
    return measure


class Frozen:
    """Base of the package's immutable classes that validate or cache.

    A subclass names its fields in ``_fields`` and sets them in its
    ``__init__`` through ``vars(self)``, after which assignment raises
    AttributeError.  The repr is ``Name(field=value, ...)``, and two
    instances of one class are equal, and hash alike, when their field
    values are.  Records with no checks and no caches are
    ``typing.NamedTuple`` classes instead, which are cheaper to build.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes: Any):
        """A new instance with the given fields changed, checked afresh."""
        fields = {name: getattr(self, name) for name in self._fields}
        return type(self)(**{**fields, **changes})

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _SignedMeasure(Frozen):
    """What the 1-D and 2-D measures share: an atom is a tuple of
    coordinates ending in its mass, and ``_names`` names its entries."""

    _fields = ("atoms",)

    def __init__(self, atoms: Iterable[Sequence[float]]) -> None:
        merge = _merge_1d if len(self._names) == 2 else _merge_2d
        vars(self)["atoms"] = merge(atoms)
        self._check()

    @property
    def total_mass(self) -> float:
        return left_sum(map(itemgetter(-1), self.atoms))

    def as_positive(
        self, tol: float = POSITIVITY_REL_TOL, *, probability: bool = False
    ) -> AtomicMeasure1D | AtomicMeasure2D:
        """Drop rounding-level negative atoms; reject genuinely negative ones."""
        check = positivity(self, tol)
        if not check.positive:
            raise PreconditionViolated(
                f"measure has a negative atom of mass {check.mass!r} at {check.location!r}"
            )
        positive = [atom for atom in self.atoms if atom[-1] > 0.0]
        if len(self._names) == 2:
            # in 1-D the survivors are apart, as any two atoms are
            return at_merged_locations(positive, probability)
        # in 2-D a run of every s (or t) joins atoms through the others,
        # and a dropped atom may have split a run of survivors: merge again
        return _from_merged(AtomicMeasure2D, _merge_floats_2d(positive), probability=probability)

    def _check_probability(self) -> None:
        """The total-mass check of the nonnegative subclasses."""
        if self.probability and abs(self.total_mass - 1.0) > PROBABILITY_TOL:
            raise NotProbability(f"total mass is {self.total_mass!r}, expected 1")


class SignedMeasure1D(_SignedMeasure):
    """Finite signed combination of point masses on [0, inf)."""

    _names = _NAMES_1D

    def _check(self) -> None:
        # atoms are sorted, so atoms[0][0] is the least location
        if self.atoms and self.atoms[0][0] < 0.0:
            raise ValueError(f"atom location must be nonnegative, got {self.atoms[0][0]!r}")

    def charges_origin(self) -> bool:
        """True when an atom is at 0; atoms are sorted and nonnegative, so
        only the first one can be."""
        return bool(self.atoms) and self.atoms[0][0] == 0.0

    def moment(self, k: int) -> float:
        """Integral of s^k; the total mass when k = 0."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        return left_sum(mass * loc**k for loc, mass in self.atoms)

    def reciprocal_norm(self) -> float:
        """Integral of 1/s.  Raises AtomAtZero when the origin carries mass."""
        if self.charges_origin():
            raise AtomAtZero("measure has an atom at 0, so 1/s is not integrable")
        return left_sum(mass / loc for loc, mass in self.atoms)


class AtomicMeasure1D(SignedMeasure1D):
    """Finitely atomic nonnegative measure on [0, inf); with ``probability``
    set, the total mass must be one (within ``PROBABILITY_TOL``)."""

    _fields = ("atoms", "probability")

    def __init__(self, atoms: Iterable[Sequence[float]], probability: bool = False) -> None:
        vars(self)["probability"] = probability
        super().__init__(atoms)

    def _check(self) -> None:
        super()._check()
        for loc, mass in self.atoms:
            if mass <= 0.0:
                raise ValueError(f"atom mass must be positive, got {mass!r} at {loc!r}")
        self._check_probability()

    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= PROBABILITY_TOL

    def tilde(self) -> "AtomicMeasure1D":
        """Reweight by 1/s and renormalise to a probability measure."""
        norm = self.reciprocal_norm()
        raw = [(loc, mass / (loc * norm)) for loc, mass in self.atoms]
        total = left_sum(mass for _, mass in raw)
        return at_merged_locations([(loc, mass / total) for loc, mass in raw], probability=True)


class SignedMeasure2D(_SignedMeasure):
    """Finite signed combination of planar point masses."""

    _names = _NAMES_2D

    def _check(self) -> None:
        atoms = self.atoms
        # atoms are sorted by s, so atoms[0][0] is the least s
        if atoms and (atoms[0][0] < 0.0 or min(map(itemgetter(1), atoms)) < 0.0):
            for s, t, _ in atoms:
                if s < 0.0 or t < 0.0:
                    raise ValueError(f"atom coordinates must be nonnegative, got ({s!r}, {t!r})")

    def moment(self, k1: int, k2: int) -> float:
        """Integral of s^k1 t^k2."""
        if k1 < 0 or k2 < 0:
            raise ValueError("moment orders must be nonnegative")
        return left_sum(mass * s**k1 * t**k2 for s, t, mass in self.atoms)


class AtomicMeasure2D(SignedMeasure2D):
    """Finitely atomic nonnegative measure on the closed quarter plane."""

    _fields = ("atoms", "probability")

    def __init__(self, atoms: Iterable[Sequence[float]], probability: bool = False) -> None:
        vars(self)["probability"] = probability
        super().__init__(atoms)

    def _check(self) -> None:
        # one loop, as the first error depends on the atom order
        atoms = self.atoms
        if atoms and (
            atoms[0][0] < 0.0
            or min(map(itemgetter(1), atoms)) < 0.0
            or min(map(itemgetter(2), atoms)) <= 0.0
        ):
            for s, t, mass in atoms:
                if s < 0.0 or t < 0.0:
                    raise ValueError(f"atom coordinates must be nonnegative, got ({s!r}, {t!r})")
                if mass <= 0.0:
                    raise ValueError(f"atom mass must be positive, got {mass!r} at ({s!r}, {t!r})")
        self._check_probability()

    def marginal(self, axis: Axis) -> AtomicMeasure1D:
        """The projection, a probability measure when this one is."""
        index = _axis_index(axis)
        return AtomicMeasure1D(
            tuple((atom[index], atom[2]) for atom in self.atoms),
            probability=self.probability,
        )

    def reciprocal_norm(self, axis: Axis) -> float:
        """Integral of 1/s or 1/t over the chosen coordinate."""
        index = _axis_index(axis)
        if any(atom[index] == 0.0 for atom in self.atoms):
            raise AtomAtZero(
                f"measure has an atom with zero {axis}-coordinate, reciprocal not integrable"
            )
        return left_sum(atom[2] / atom[index] for atom in self.atoms)

    def extremal(self) -> "AtomicMeasure2D":
        """Reweight by 1/t and renormalise; a probability measure again."""
        norm = self.reciprocal_norm("y")
        raw = [(s, t, mass / (t * norm)) for s, t, mass in self.atoms]
        total = left_sum(mass for _, _, mass in raw)
        return AtomicMeasure2D(
            tuple((s, t, mass / total) for s, t, mass in raw), probability=True
        )


Measure = Union[SignedMeasure1D, SignedMeasure2D]


def _axis_index(axis: Axis) -> int:
    if axis == "x":
        return 0
    if axis == "y":
        return 1
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def dirac(location: float) -> AtomicMeasure1D:
    """Unit point mass at the given location."""
    return AtomicMeasure1D(((location, 1.0),), probability=True)


def _finite_masses(atoms: list, names: tuple[str, ...]) -> list:
    """Float atoms at finite locations, as they are when every mass is
    finite; otherwise ``_as_floats`` walks them, and a non-finite mass
    raises, naming the first one in input order."""
    if math.isfinite(sum(map(itemgetter(-1), atoms))):
        return atoms
    return _as_floats(atoms, names)


def at_merged_locations(
    atoms: Sequence[tuple[float, float]], probability: bool
) -> AtomicMeasure1D:
    """``AtomicMeasure1D(atoms, probability)``, error for error, for float
    atoms at some of the locations of one merged measure, in its order: any
    two of them are apart (see ``product``), so the sort and the merge keep
    each atom, except that the merge drops exact zeros, as done here."""
    atoms = _finite_masses(atoms, _NAMES_1D)
    if 0.0 in map(itemgetter(1), atoms):
        atoms = [atom for atom in atoms if atom[1]]
    return _from_merged(AtomicMeasure1D, tuple(atoms), probability=probability)


def product(mx: SignedMeasure1D, my: SignedMeasure1D, coeff: float = 1.0) -> SignedMeasure2D:
    """Cartesian product measure, scaled by ``coeff``; masses multiply atom
    by atom, each to ``coeff * (ms * mt)``.

    Returns an ``AtomicMeasure2D`` when both factors are nonnegative (the
    result is then a probability measure exactly when both factors are and
    ``coeff`` is 1) and a ``SignedMeasure2D`` otherwise.  The atoms are
    those of ``combine([(coeff, product(mx, my))])``, error for error.

    No merge pass runs: the atoms, built in nested (s, t) order, are
    already sorted and merged.  The locations of a merged factor strictly
    increase, and no two consecutive ones are the same location.  The merge
    found each run's first location apart from the one before it; where a
    run summing to zero was dropped between 0 <= u < v < w, w - u exceeds
    v - u by w - v, while the threshold MERGE_REL_TOL * w exceeds
    MERGE_REL_TOL * v by only MERGE_REL_TOL * (w - v).  So any two
    locations of a merged factor are apart, the nested order is the sorted
    order, and consecutive product atoms are apart in t (within a row) or
    in s (across rows): the merge would keep each one.  Sorting and merging
    is therefore the identity on them, except that it drops masses that
    are exactly zero, as done here.

    Nor does the sign pass run when both factors are nonnegative and
    ``coeff >= 0``: every coordinate is a location of a factor, so none is
    negative, and every mass left after the zeros are dropped is positive.
    Only the total-mass check runs then.  At a negative ``coeff`` the whole
    check runs, and names the first negative mass.
    """
    atoms = [(s, t, coeff * (ms * mt)) for s, ms in mx.atoms for t, mt in my.atoms]
    if not math.isfinite(sum(map(itemgetter(2), atoms))):
        # the unscaled product names a non-finite mass first, and drops a
        # zero one, which coeff * 0.0 would make NaN at an infinite coeff
        unscaled = [(s, t, ms * mt) for s, ms in mx.atoms for t, mt in my.atoms]
        atoms = [(s, t, coeff * mass) for s, t, mass in _as_floats(unscaled, _NAMES_2D) if mass]
        _as_floats(atoms, _NAMES_2D)
    if 0.0 in map(itemgetter(2), atoms):
        atoms = [atom for atom in atoms if atom[2]]
    if isinstance(mx, AtomicMeasure1D) and isinstance(my, AtomicMeasure1D):
        probability = mx.probability and my.probability and coeff == 1.0
        if coeff < 0.0:
            return _from_merged(AtomicMeasure2D, tuple(atoms), probability=probability)
        measure = object.__new__(AtomicMeasure2D)
        vars(measure).update(atoms=tuple(atoms), probability=probability)
        measure._check_probability()
        return measure
    return _from_merged(SignedMeasure2D, tuple(atoms))


class MergeRuns(NamedTuple):
    """The runs of a 1-D merge: the location of each run's first atom, and
    for each run the term index and the mass of its first atom and of its
    second, ``(i, m, j, n)``, in term order.  A run of one atom pairs with
    the slot one past the last term at mass 0.0, where ``combine`` puts a
    coefficient 0.0: x + 0.0 * 0.0 is x for every x but -0.0, and both are
    dropped as zero."""

    heads: tuple[float, ...]
    pairs: tuple[tuple[int, float, int, float], ...]


def merge_runs(measures: Sequence[SignedMeasure1D]) -> MergeRuns | None:
    """The runs in which ``combine`` of merged 1-D measures, in this order,
    merges their atoms at any nonzero coefficients; None where the runs or
    their sums could depend on the coefficients.

    The merge sorts the atoms by location and then by mass, and it starts
    a run at each atom that is not at the same location as the first atom
    of the current run.  So which atoms share a run depends on the
    locations alone, and so does each run's location, unless a tie puts
    -0.0 or 0.0 first: a run holding both is refused.  A run of three or
    more atoms is refused too, as its sum depends on the order of the
    additions; the two masses of a run of two sum to the same bits in
    either order.  A merged measure puts at most one atom in a run, so two
    measures always pass the second test.

    Each run keeps its atoms' term indices and masses, so ``combine`` reads
    neither the measures nor their locations again.
    """
    atoms = [
        (term, loc, mass) for term, measure in enumerate(measures) for loc, mass in measure.atoms
    ]
    if len({math.copysign(1.0, loc) for _, loc, _ in atoms if loc == 0.0}) > 1:
        return None
    head_of = _run_heads({loc for _, loc, _ in atoms})
    runs: dict[float, list[tuple[int, float]]] = {}
    for term, loc, mass in atoms:
        runs.setdefault(head_of[loc], []).append((term, mass))
    if any(len(run) > 2 for run in runs.values()):
        return None
    heads = sorted(runs)
    slot = (len(measures), 0.0)
    pairs = [run[0] + (run[1] if len(run) == 2 else slot) for run in map(runs.get, heads)]
    return MergeRuns(tuple(heads), tuple(pairs))


def combine(
    terms: Sequence[tuple[float, Measure]],
    runs: MergeRuns | None = None,
) -> SignedMeasure1D | SignedMeasure2D:
    """Signed linear combination of measures sharing one dimension.

    Coincident locations merge and exactly cancelled atoms are pruned, so a
    combination like ``[(1, m), (-1, m)]`` yields the empty (zero) measure.

    ``runs``, from ``merge_runs`` of the terms' 1-D measures in term order,
    replaces the sort and the merge pass by one pass over the run pairs,
    each run's total ``c[i] * m + c[j] * n``, with the same result to the
    bit; as only 1-D measures have runs, they are tried before the
    dimension check.  The merge then runs anyway when a coefficient is
    zero, as its term is skipped, which may move a run's first atom, and
    when a total is not finite: the merge then names a product that is not
    finite, or the location of a run whose finite products sum past the
    float range, so that every mass of a combination is finite.
    """
    if runs is not None:
        c = [coeff for coeff, _ in terms]
        if 0.0 not in c:
            c.append(0.0)
            totals = [c[i] * m + c[j] * n for i, m, j, n in runs.pairs]
            if math.isfinite(sum(totals)):
                # tuple() of a list allocates once; of an iterator it
                # resizes, and the freed tuples pile up in the free lists
                atoms = list(filter(itemgetter(1), zip(runs.heads, totals)))
                return _from_merged(SignedMeasure1D, tuple(atoms))
    planar = {isinstance(measure, SignedMeasure2D) for _, measure in terms}
    if len(planar) > 1:
        raise ValueError("cannot combine measures of different dimensions")
    if True not in planar:
        atoms1 = [
            (loc, coeff * mass)
            for coeff, measure in terms
            if coeff != 0.0
            for loc, mass in measure.atoms
        ]
        merged = _merge_floats_1d(_finite_masses(atoms1, _NAMES_1D))
        return _from_merged(SignedMeasure1D, _finite_totals(merged))
    atoms2 = [
        (s, t, coeff * mass)
        for coeff, measure in terms
        if coeff != 0.0
        for s, t, mass in measure.atoms
    ]
    merged = _merge_floats_2d(_finite_masses(atoms2, _NAMES_2D))
    return _from_merged(SignedMeasure2D, _finite_totals(merged))


def _finite_totals(atoms: tuple) -> tuple:
    """Merged atoms whose masses are each finite; a mass that the merge
    summed past the float range raises NonFinite, naming its location.
    The masses are walked only when their sum is not finite."""
    if not math.isfinite(sum(map(itemgetter(-1), atoms))):
        for *location, mass in atoms:
            if not math.isfinite(mass):
                where = location[0] if len(location) == 1 else tuple(location)
                raise NonFinite(f"the combined mass at {where!r} is not finite, got {mass!r}")
    return atoms


class Positivity(NamedTuple):
    """Outcome of a positivity check; the witness is the worst atom."""

    positive: bool
    location: float | tuple[float, float] | None = None
    mass: float | None = None


_POSITIVE = Positivity(True)
_MASS = itemgetter(-1)


def positivity(
    measure: Measure, tol: float = POSITIVITY_REL_TOL, name: str = "the measure"
) -> Positivity:
    """Decide whether a (signed) measure is positive.

    A mass is accepted when it is at least ``-tol`` times the total
    variation; the zero measure counts as positive.  When the check fails
    the most negative atom is reported as the witness.

    A measure with no negative atom is positive at once, so the total
    variation is summed only when some atom is negative.  At ``tol > 0`` a
    total variation that overflows raises NonFinite, naming it as
    ``name``'s: the accepted bound would be ``-inf``, which every mass
    meets.  At ``tol = 0`` every negative atom fails, whatever the total
    variation.
    """
    if not tol >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    atoms = measure.atoms
    if not atoms:
        return _POSITIVE
    worst_mass = min(map(_MASS, atoms))
    if worst_mass >= 0.0:
        return _POSITIVE
    masses = list(map(_MASS, atoms))
    variation = left_sum(map(abs, masses))
    if tol and not math.isfinite(variation):
        raise NonFinite(f"{name}'s total variation is not finite, got {variation!r}")
    if worst_mass >= -tol * variation:
        return _POSITIVE
    worst = atoms[masses.index(worst_mass)]
    if len(worst) == 2:
        return Positivity(False, worst[0], worst[1])
    return Positivity(False, (worst[0], worst[1]), worst[2])


def atom_difference(a: Measure, b: Measure) -> float:
    """Largest atom mass of a - b; zero exactly when the measures agree."""
    diff = combine([(1.0, a), (-1.0, b)])
    if not diff.atoms:
        return 0.0
    return max(abs(atom[-1]) for atom in diff.atoms)
