"""Finitely atomic measures on the half line, and their planar products.

Every quantity in this package reduces to arithmetic on (location, mass)
atom lists: monomial moments, reciprocal norms, the tilde renormalisation,
signed linear combinations and positivity checks with an explicit witness.
Keeping that arithmetic exact up to float rounding is what makes the
brute-force verification oracles trustworthy.

Conventions: locations are nonnegative, probability measures have total
mass one, and locations u, v with |u - v| <= MERGE_REL_TOL * max(|u|, |v|)
are one point, at every scale: only an atom at exactly 0.0 is at the origin.

The measures are one-dimensional: ``SignedMeasure1D``, and its nonnegative
subclass ``AtomicMeasure1D``.  The one planar function is ``product``, the
product of two nonnegative measures; the joint measure is assembled from
such products and never merged in the plane (see ``reconstruct``), so a
product is a record of atoms, ``PlanarAtoms``, with no checks.  The mass
at a point, the planar point mass and the planar measures of the paper's
second route, which only the tests read, are in ``tests/helpers.py``.

Every measure holds its atoms as a tuple of finite float pairs that is

- sorted by location;
- merged: no two consecutive atoms are at the same location;
- zero-free: no mass is exactly zero.

The constructors establish this with one sort and one merge pass.  Any
two locations of a merged measure are apart, so ``product`` of merged
factors and ``at_merged_locations`` of atoms at some of a merged measure's
locations (as ``tilde`` and ``as_positive`` make) skip the merge pass;
``product``'s docstring gives the proof, and why it skips the sign pass
too.  A ``combine`` of fixed measures at changing coefficients can skip
the sort and the merge too: where ``merge_runs`` finds that no run of the
merge of their locations holds more than two atoms, the runs are the same
at every coefficient, and each run's sum is the same bits in either order.
So ``merge_runs`` keeps the (term, mass) of each run's two atoms, and
``combine`` makes each run's total in one pass over those pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from itertools import chain
from operator import add, itemgetter
from typing import Any, Iterable, NamedTuple, Sequence

from .errors import AtomAtZero, NonFinite, NotProbability, PreconditionViolated

#: Two atom locations within this relative distance are one atom.
MERGE_REL_TOL = 1e-12

#: Default positivity slack, relative to the total variation of the measure.
POSITIVITY_REL_TOL = 1e-12

#: Slack accepted when a measure claims total mass one.
PROBABILITY_TOL = 1e-9


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


def _as_floats(atoms: Iterable[Sequence[float]]) -> list:
    """The atoms as pairs of finite floats, in input order.

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
        prepared = [(float(u), float(m)) for u, m in atoms]
        if math.isfinite(sum(chain.from_iterable(prepared))):
            return prepared
    except (ArithmeticError, TypeError, ValueError):
        pass
    return [(_finite(u, "atom location"), _finite(m, "atom mass")) for u, m in atoms]


def _merge_1d(atoms: Iterable[Sequence[float]]) -> tuple[tuple[float, float], ...]:
    """Sort atoms by location, merge coincident locations, drop exact zeros."""
    return _merge_floats_1d(_as_floats(atoms))


def _merge_floats_1d(prepared: list) -> tuple[tuple[float, float], ...]:
    """Merge finite float pairs, which this sorts in place.

    The loop inlines ``same_location``.  An atom joins the current run when
    it is at the same location as the run's first atom, and a run whose
    masses sum to exactly zero is dropped.  Any two locations of one run
    are at the same location: with h <= u < v in a run headed by h,
    v - u <= v - h <= MERGE_REL_TOL * v.  A run's sum can pass the float
    range, so where some atoms were merged or dropped the masses are
    checked (``_finite_totals``); where none were, each is an input's.
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
    if len(merged) < len(prepared):
        return _finite_totals(tuple(merged))
    return tuple(merged)


def _run_heads(values: set) -> dict:
    """Each value mapped to the first value of its run in the 1-D merge of
    all of them."""
    heads = [head for head, _ in _merge_floats_1d([(value, 1.0) for value in values])]
    return {value: heads[bisect_right(heads, value) - 1] for value in values}


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


class SignedMeasure1D(Frozen):
    """Finite signed combination of point masses on [0, inf)."""

    _fields = ("atoms",)

    def __init__(self, atoms: Iterable[Sequence[float]]) -> None:
        vars(self)["atoms"] = _merge_1d(atoms)
        self._check()

    def _check(self) -> None:
        # atoms are sorted, so atoms[0][0] is the least location
        if self.atoms and self.atoms[0][0] < 0.0:
            raise ValueError(f"atom location must be nonnegative, got {self.atoms[0][0]!r}")

    @property
    def total_mass(self) -> float:
        return left_sum(map(itemgetter(1), self.atoms))

    def as_positive(self, tol: float = POSITIVITY_REL_TOL) -> AtomicMeasure1D:
        """Drop rounding-level negative atoms; reject genuinely negative ones.
        The survivors are apart, as any two atoms of a merged measure are."""
        check = positivity(self, tol)
        if not check.positive:
            raise PreconditionViolated(
                f"measure has a negative atom of mass {check.mass!r} at {check.location!r}"
            )
        return at_merged_locations([atom for atom in self.atoms if atom[1] > 0.0], False)

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
        if self.probability and abs(self.total_mass - 1.0) > PROBABILITY_TOL:
            raise NotProbability(f"total mass is {self.total_mass!r}, expected 1")

    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= PROBABILITY_TOL

    def tilde(self) -> "AtomicMeasure1D":
        """Reweight by 1/s and renormalise to a probability measure."""
        norm = self.reciprocal_norm()
        raw = [(loc, mass / (loc * norm)) for loc, mass in self.atoms]
        total = left_sum(mass for _, mass in raw)
        return at_merged_locations([(loc, mass / total) for loc, mass in raw], probability=True)


def dirac(location: float) -> AtomicMeasure1D:
    """Unit point mass at the given location."""
    return AtomicMeasure1D(((location, 1.0),), probability=True)


def _finite_masses(atoms: list) -> list:
    """Float atoms at finite coordinates, as they are when every mass is
    finite; otherwise a non-finite mass raises, naming the first one in
    input order."""
    if not math.isfinite(sum(map(itemgetter(-1), atoms))):
        for *_, mass in atoms:
            _finite(mass, "atom mass")
    return atoms


def at_merged_locations(
    atoms: Sequence[tuple[float, float]], probability: bool
) -> AtomicMeasure1D:
    """``AtomicMeasure1D(atoms, probability)``, error for error, for float
    atoms at some of the locations of one merged measure, in its order: any
    two of them are apart (see ``product``), so the sort and the merge keep
    each atom, except that the merge drops exact zeros, as done here."""
    atoms = _finite_masses(atoms)
    if 0.0 in map(itemgetter(1), atoms):
        atoms = [atom for atom in atoms if atom[1]]
    return _from_merged(AtomicMeasure1D, tuple(atoms), probability=probability)


class PlanarAtoms(NamedTuple):
    """A planar measure as its atoms (s, t, mass), sorted by (s, t), apart
    and of positive mass: a ``product``, or the joint measure that
    ``BergerMeasure.joined`` lays out.  It holds no checks."""

    atoms: tuple


def product(mx: AtomicMeasure1D, my: AtomicMeasure1D, coeff: float = 1.0) -> PlanarAtoms:
    """Cartesian product of two nonnegative measures, scaled by
    ``coeff >= 0``; masses multiply atom by atom, each to
    ``coeff * (ms * mt)``, and a mass that is exactly zero is dropped.  A
    mass that is not finite raises NonFinite, naming the first such mass
    of the unscaled product, else of the scaled one.

    No merge pass runs: the atoms, built in nested (s, t) order, are
    already sorted and merged.  The locations of a merged factor strictly
    increase, and no two consecutive ones are the same location.  The merge
    found each run's first location apart from the one before it; where a
    run summing to zero was dropped between 0 <= u < v < w, w - u exceeds
    v - u by w - v, while the threshold MERGE_REL_TOL * w exceeds
    MERGE_REL_TOL * v by only MERGE_REL_TOL * (w - v).  So any two
    locations of a merged factor are apart, the nested order is the sorted
    order, and consecutive product atoms are apart in t (within a row) or
    in s (across rows): a merge would keep each one.  Sorting and merging
    is therefore the identity on them, except that it drops masses that
    are exactly zero, as done here.

    Nor does a sign pass run: every coordinate is a location of a factor,
    so none is negative, and every mass left after the zeros are dropped
    is positive.
    """
    atoms = [(s, t, coeff * (ms * mt)) for s, ms in mx.atoms for t, mt in my.atoms]
    if not math.isfinite(sum(map(itemgetter(2), atoms))):
        # the unscaled product names a non-finite mass first, and drops a
        # zero one, which coeff * 0.0 would make NaN at an infinite coeff
        unscaled = [(s, t, ms * mt) for s, ms in mx.atoms for t, mt in my.atoms]
        atoms = [(s, t, coeff * mass) for s, t, mass in _finite_masses(unscaled) if mass]
        _finite_masses(atoms)
    if 0.0 in map(itemgetter(2), atoms):
        atoms = [atom for atom in atoms if atom[2]]
    return PlanarAtoms(tuple(atoms))


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
    terms: Sequence[tuple[float, SignedMeasure1D]],
    runs: MergeRuns | None = None,
) -> SignedMeasure1D:
    """Signed linear combination of measures.

    Coincident locations merge and exactly cancelled atoms are pruned, so a
    combination like ``[(1, m), (-1, m)]`` yields the empty (zero) measure.

    ``runs``, from ``merge_runs`` of the terms' 1-D measures in term order,
    replaces the sort and the merge pass by one pass over the run pairs,
    each run's total ``c[i] * m + c[j] * n``, with the same result to the
    bit.  The merge then runs anyway when a coefficient is
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
    atoms = [
        (loc, coeff * mass)
        for coeff, measure in terms
        if coeff != 0.0
        for loc, mass in measure.atoms
    ]
    return _from_merged(SignedMeasure1D, _merge_floats_1d(_finite_masses(atoms)))


def _finite_totals(atoms: tuple) -> tuple:
    """Merged atoms whose masses are each finite; a mass that the merge
    summed past the float range raises NonFinite, naming its location.
    The masses are walked only when their sum is not finite."""
    if not math.isfinite(sum(map(itemgetter(1), atoms))):
        for loc, mass in atoms:
            if not math.isfinite(mass):
                raise NonFinite(f"the combined mass at {loc!r} is not finite, got {mass!r}")
    return atoms


class Positivity(NamedTuple):
    """Outcome of a positivity check; the witness is the worst atom."""

    positive: bool
    location: float | None = None
    mass: float | None = None


_POSITIVE = Positivity(True)
_MASS = itemgetter(1)


def positivity(
    measure: SignedMeasure1D, tol: float = POSITIVITY_REL_TOL, name: str = "the measure"
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
    location, mass = atoms[masses.index(worst_mass)]
    return Positivity(False, location, mass)
