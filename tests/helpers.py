"""Shared builders and seeded random-instance generators for the tests."""

from __future__ import annotations

import functools
import json
import math
import random
from bisect import bisect_left
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from tcshift.cli import parse_instance
from tcshift.diagram import FlatInstance, TCInstance
from tcshift.errors import (
    AtomAtZero,
    DegenerateMeasure,
    NonFinite,
    NotProbability,
    PreconditionViolated,
    TCShiftError,
)
from tcshift.measures import (
    MERGE_REL_TOL,
    PROBABILITY_TOL,
    AtomicMeasure1D,
    PlanarAtoms,
    combine,
    dirac,
    left_sum,
    positivity,
)
from tcshift.reconstruct import DEFAULT_TOL, compute_phi, compute_psi


def m1(*pairs: tuple[float, float], probability: bool = False) -> AtomicMeasure1D:
    return AtomicMeasure1D(tuple(pairs), probability=probability)


def mass_at(measure, *point: float) -> float:
    """Total mass of the atoms at ``point``, a location in 1-D or (s, t)
    in 2-D, each coordinate matched by ``reference_same_location``."""
    return left_sum(
        atom[-1]
        for atom in measure.atoms
        if all(map(reference_same_location, atom[:-1], point))
    )


def half_half() -> AtomicMeasure1D:
    return m1((0.0, 0.5), (1.0, 0.5))


def f1_instance() -> TCInstance:
    return TCInstance(half_half(), half_half(), dirac(1.0), dirac(1.0), math.sqrt(0.5))


def n1_instance() -> TCInstance:
    return TCInstance(
        m1((0.0, 0.1), (1.0, 0.9)), half_half(), dirac(1.0), dirac(1.0), math.sqrt(0.5)
    )


def trivial_instance() -> TCInstance:
    return TCInstance(dirac(1.0), dirac(1.0), dirac(1.0), dirac(1.0), 1.0)


def spike_instance(a: float = 2.0) -> TCInstance:
    """All core weights one, oversized joining weight; not even hyponormal."""
    return TCInstance(dirac(1.0), dirac(1.0), dirac(1.0), dirac(1.0), a)


def f1_flat() -> FlatInstance:
    return FlatInstance(p=0.5, q=0.5, l=0.5, m=0.5, b=1.0, a=math.sqrt(0.5))


def n1_flat() -> FlatInstance:
    return FlatInstance(p=0.1, q=0.9, l=0.5, m=0.5, b=1.0, a=math.sqrt(0.5))


def assert_scalar_close(actual: float, expected: float, tol: float = 1e-12) -> None:
    assert abs(actual - expected) <= tol * max(1.0, abs(expected)), (actual, expected)


def atom_difference(a, b) -> float:
    """Largest atom mass of a - b, merged by the reference merge of their
    dimension; zero exactly when the measures agree."""
    atoms = [*a.atoms, *((*atom[:-1], -atom[-1]) for atom in b.atoms)]
    merge = reference_merge_2d if atoms and len(atoms[0]) == 3 else reference_merge_1d
    return max((abs(atom[-1]) for atom in merge(atoms)), default=0.0)


def assert_measures_close(actual, expected, tol: float = 1e-12) -> None:
    diff = atom_difference(actual, expected)
    assert diff <= tol, f"measures differ by {diff!r} > {tol!r}:\n  {actual}\n  {expected}"


def random_locations(rng, count, lo=0.1, hi=4.0, avoid=(), spacing=1e-3):
    locations: list[float] = []
    while len(locations) < count:
        candidate = rng.uniform(lo, hi)
        if all(abs(candidate - other) > spacing for other in (*locations, *avoid)):
            locations.append(candidate)
    return locations


def random_probability(
    rng: random.Random,
    n_atoms: tuple[int, int] = (1, 4),
    lo: float = 0.1,
    hi: float = 4.0,
    avoid: tuple[float, ...] = (),
    spacing: float = 1e-3,
    zero_prob: float = 0.0,
) -> AtomicMeasure1D:
    """Random probability measure with Dirichlet-uniform masses on [lo, hi],
    optionally moving one atom to the origin."""
    count = rng.randint(*n_atoms)
    locations = random_locations(rng, count, lo, hi, avoid, spacing)
    if zero_prob and count >= 2 and rng.random() < zero_prob:
        locations[0] = 0.0
    masses = [rng.gammavariate(1.0, 1.0) + 1e-3 for _ in locations]
    total = sum(masses)
    return AtomicMeasure1D(
        tuple((loc, mass / total) for loc, mass in zip(locations, masses)),
        probability=True,
    )


def _constructive_column_data(rng, eta, u):
    """Column measure eta_y engineered so the vertical slack has mass 1 - u
    and is nonnegative.  Returns (eta_y, slack atoms, ell, y0_sq)."""
    slack_mass = 1.0 - u
    slack = random_probability(rng, n_atoms=(1, 3), avoid=[loc for loc, _ in eta.atoms])
    slack_atoms = tuple((loc, slack_mass * mass) for loc, mass in slack.atoms)
    tail = combine([(u, eta), (1.0, AtomicMeasure1D(slack_atoms))]).as_positive(0.0)
    tail = AtomicMeasure1D(tail.atoms, probability=True)
    ell = rng.uniform(0.0, 0.5)
    y0_sq = (1.0 - ell) / tail.reciprocal_norm()
    atoms = [(t, y0_sq * mass / t) for t, mass in tail.atoms]
    if ell > 1e-12:
        atoms.append((0.0, ell))
    return AtomicMeasure1D(tuple(atoms), probability=True), slack_atoms, ell, y0_sq


def _constructive_row_measure(rng, xi, eta, u, slack_atoms, ell, y0_sq):
    """Row-0 measure dominating the forced part of the horizontal slack, so
    that slack comes out nonnegative with a free remainder of mass ell."""
    recip_slack = sum(mass / loc for loc, mass in slack_atoms)
    forced = [
        (loc, u * y0_sq * eta.reciprocal_norm() * mass)
        for loc, mass in xi.tilde().atoms
    ]
    if recip_slack:
        forced.append((0.0, y0_sq * recip_slack))
    if ell > 1e-12:
        free = random_probability(rng, n_atoms=(1, 3), lo=0.05, hi=4.0, zero_prob=0.3)
        forced.extend((loc, ell * mass) for loc, mass in free.atoms)
    return AtomicMeasure1D(tuple(forced), probability=True)


def random_subnormal_instance(
    rng: random.Random, n_atoms: tuple[int, int] = (1, 4)
) -> TCInstance:
    """Instance built so both slack measures come out nonnegative; xi and
    eta have a number of atoms drawn from ``n_atoms``."""
    xi = random_probability(rng, n_atoms)
    eta = random_probability(rng, n_atoms)
    u = rng.uniform(0.2, 0.95)
    a = math.sqrt(u / xi.reciprocal_norm())
    eta_y, slack_atoms, ell, y0_sq = _constructive_column_data(rng, eta, u)
    xi_x = _constructive_row_measure(rng, xi, eta, u, slack_atoms, ell, y0_sq)
    return TCInstance(xi_x, eta_y, xi, eta, a)


def random_psi_positive_instance(rng: random.Random) -> TCInstance:
    """Vertical slack engineered nonnegative, so the verdict is decided by
    the horizontal slack alone; that one is made nonnegative half the time."""
    xi = random_probability(rng)
    eta = random_probability(rng)
    u = rng.uniform(0.2, 0.95)
    a = math.sqrt(u / xi.reciprocal_norm())
    eta_y, slack_atoms, ell, y0_sq = _constructive_column_data(rng, eta, u)
    if rng.random() < 0.5:
        xi_x = _constructive_row_measure(rng, xi, eta, u, slack_atoms, ell, y0_sq)
    else:
        xi_x = random_probability(rng, lo=0.05, zero_prob=0.4)
    return TCInstance(xi_x, eta_y, xi, eta, a)


def random_tc_instance(rng: random.Random) -> TCInstance:
    """Fully mixed generator covering both verdict branches: engineered
    subnormal instances, instances that fail only on the horizontal slack,
    and arbitrary ones where the bound a^2 ||1/s|| <= 1 holds half the time
    and fails half the time."""
    roll = rng.random()
    if roll < 1.0 / 3.0:
        return random_subnormal_instance(rng)
    if roll < 2.0 / 3.0:
        return random_psi_positive_instance(rng)
    xi = random_probability(rng)
    eta = random_probability(rng)
    if rng.random() < 0.5:
        u = rng.uniform(0.05, 0.95)
    else:
        u = rng.uniform(1.0 + 1e-6, 2.0)
    a = math.sqrt(u / xi.reciprocal_norm())
    eta_y = random_probability(rng, zero_prob=0.4)
    xi_x = random_probability(rng, lo=0.05, zero_prob=0.4)
    return TCInstance(xi_x, eta_y, xi, eta, a)


def random_flat_instance(rng: random.Random) -> FlatInstance:
    b = rng.uniform(0.5, 2.0)
    a = b * rng.uniform(0.1, 1.0)

    def masses():
        if rng.random() < 0.4:
            core = rng.uniform(0.1, 0.9)
            return 1.0 - core, core, 0.0
        while True:
            raw = [rng.gammavariate(1.5, 1.0) for _ in range(3)]
            total = sum(raw)
            zero_part, core, rest = (value / total for value in raw)
            if zero_part > 0.01 and core > 0.01 and rest > 0.01:
                return zero_part, core, rest

    p, q, rest_x = masses()
    l, m, rest_y = masses()
    rho = (
        random_probability(rng, n_atoms=(1, 3), avoid=(1.0,), spacing=0.05)
        if rest_x > 0.0
        else None
    )
    sigma = (
        random_probability(rng, n_atoms=(1, 3), avoid=(b**2,), spacing=0.05)
        if rest_y > 0.0
        else None
    )
    return FlatInstance(p=p, q=q, l=l, m=m, b=b, a=a, rho=rho, sigma=sigma)


def scaled_tc(data: dict, c: float) -> dict:
    """A tc instance file with every atom location multiplied by c and the
    joining weight a by sqrt(c).  Scaling every weight of the shift by
    sqrt(c) does the same, so the instance is subnormal exactly when the
    original is.  For c = 4**k in the normal range both products are
    exact, and a is scaled by exactly 2**k."""
    scaled = {
        name: {"atoms": [[loc * c, mass] for loc, mass in data[name]["atoms"]]}
        for name in ("xi_x", "eta_y", "xi", "eta")
    }
    return {**data, **scaled, "a": data["a"] * math.sqrt(c)}


def scaled_apart(data: dict, es: int, et: int) -> dict:
    """A tc instance file with the s-side scaled by 4**es and the t-side
    by 4**et: the locations of xi_x and xi times 4**es and a times 2**es,
    the locations of eta_y and eta times 4**et.  Every horizontal weight
    is then multiplied by 2**es and every vertical one by 2**et, so the
    instance is subnormal exactly when the original is."""
    factors = {"xi_x": 4.0**es, "xi": 4.0**es, "eta_y": 4.0**et, "eta": 4.0**et}
    scaled = {
        name: {"atoms": [[loc * c, mass] for loc, mass in data[name]["atoms"]]}
        for name, c in factors.items()
    }
    return {**data, **scaled, "a": data["a"] * 2.0**es}


def oracle_statuses(text: str) -> set[str]:
    """The status of every oracle entry of a ``verify --json`` report."""
    oracles = json.loads(text)["oracles"].values()
    entries = (value if isinstance(value, list) else [value] for value in oracles)
    return {entry["status"] for values in entries for entry in values}


def refuse_constant(name: str):
    """A ``parse_constant`` for ``json.loads``: a report holds no
    ``Infinity``, ``-Infinity`` or ``NaN``, which are not JSON."""
    raise AssertionError(f"a report holds {name}")


def _atoms(measure: AtomicMeasure1D) -> dict:
    return {"atoms": [list(atom) for atom in measure.atoms]}


def flat_file(flat: FlatInstance) -> dict:
    """The kind "flat" instance file of a flat instance; its floats
    round-trip, so the file parses to the same instance."""
    data = {"kind": "flat", **{key: getattr(flat, key) for key in ("p", "q", "l", "m", "b", "a")}}
    for name in ("rho", "sigma"):
        if getattr(flat, name) is not None:
            data[name] = _atoms(getattr(flat, name))
    return data


def tc_file(instance: TCInstance) -> dict:
    """The kind "tc" instance file of a tc instance."""
    measures = {name: _atoms(getattr(instance, name)) for name in ("xi_x", "eta_y", "xi", "eta")}
    return {"kind": "tc", **measures, "a": instance.a}


FIXTURES = Path(__file__).parent / "fixtures"
FLAT_FIXTURES = ("f1_flat", "flat_remainders_1", "flat_remainders_2", "n1_flat")


def fixture_instances():
    """(name, instance) for every fixture that parses, as the tc instance
    that verify checks."""
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            instance = parse_instance(str(path)).instance
        except TCShiftError:
            continue
        yield path.stem, instance.embed() if isinstance(instance, FlatInstance) else instance


def flat_files(count: int, seed: int = 16):
    """(label, file) for every flat fixture, then for ``count`` instances of
    ``random_flat_instance`` from ``random.Random(seed)``."""
    for name in FLAT_FIXTURES:
        yield name, json.loads((FIXTURES / f"{name}.json").read_text())
    rng = random.Random(seed)
    for index in range(count):
        yield f"random {index}", flat_file(random_flat_instance(rng))


# Reference atom kernel: the straightforward merge, product and positivity
# check that the optimised kernel in tcshift.measures must reproduce exactly
# (same tuples, same exceptions and messages).


def reference_same_location(u: float, v: float) -> bool:
    return abs(u - v) <= MERGE_REL_TOL * max(abs(u), abs(v))


def _reference_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFinite(f"{what} must be finite, got {value!r}")
    return value


def reference_merge_1d(atoms):
    """Sort atoms by location, merge coincident locations, drop exact zeros."""
    prepared = [
        (_reference_finite(loc, "atom location"), _reference_finite(mass, "atom mass"))
        for loc, mass in atoms
    ]
    merged: list[list[float]] = []
    for loc, mass in sorted(prepared):
        if merged and reference_same_location(merged[-1][0], loc):
            merged[-1][1] += mass
        else:
            merged.append([loc, mass])
    return tuple((loc, mass) for loc, mass in merged if mass != 0.0)


def _reference_run_heads(values) -> dict:
    """Each value mapped to the first value of its run in the sorted order."""
    heads: dict[float, float] = {}
    head = None
    for value in sorted(set(values)):
        if head is None or not reference_same_location(head, value):
            head = value
        heads[value] = head
    return heads


def reference_merge_2d(atoms):
    """Group atoms by the run of their s and the run of their t, each run
    taken over every coordinate on its axis; sum each group in sorted order
    at its first location, and drop exact zeros."""
    prepared = []
    for atom in atoms:
        s, t, mass = atom
        prepared.append(
            (
                _reference_finite(s, "atom s-coordinate"),
                _reference_finite(t, "atom t-coordinate"),
                _reference_finite(mass, "atom mass"),
            )
        )
    prepared.sort()
    s_heads = _reference_run_heads(s for s, _, _ in prepared)
    t_heads = _reference_run_heads(t for _, t, _ in prepared)
    merged: dict[tuple[float, float], list[float]] = {}
    for s, t, mass in prepared:
        key = (s_heads[s], t_heads[t])
        if key in merged:
            merged[key][2] += mass
        else:
            merged[key] = [s, t, mass]
    return tuple((s, t, mass) for s, t, mass in merged.values() if mass != 0.0)


def reference_product_atoms(mx, my):
    """Atoms of the product measure: every pair of atoms, then a merge."""
    return reference_merge_2d(
        tuple((s, t, ms * mt) for s, ms in mx.atoms for t, mt in my.atoms)
    )


def reference_positivity(atoms, tol):
    """(positive, worst atom or None) of an atom tuple; one with no
    negative mass is positive, whatever its total variation."""
    if not atoms:
        return True, None
    worst = min(atoms, key=lambda atom: atom[-1])
    if worst[-1] >= 0.0 or worst[-1] >= -tol * sum(abs(atom[-1]) for atom in atoms):
        return True, None
    return False, worst


def _reference_positive_part(atoms, tol):
    """The atoms of positive mass, once ``reference_positivity`` finds no
    genuinely negative one."""
    positive, worst = reference_positivity(atoms, tol)
    if not positive:
        raise PreconditionViolated(f"measure has a negative atom {worst!r}")
    return tuple(atom for atom in atoms if atom[-1] > 0.0)


def _measure_of(atoms) -> SimpleNamespace:
    """The measure of these atoms, as ``reference_product_atoms`` reads it."""
    return SimpleNamespace(atoms=atoms)


_ORIGIN = _measure_of(((0.0, 1.0),))


def _reference_probability(atoms) -> PlanarAtoms:
    """Planar atoms whose total mass, summed in atom order, must be one."""
    total = left_sum(atom[2] for atom in atoms)
    if abs(total - 1.0) > PROBABILITY_TOL:
        raise NotProbability(f"total mass is {total!r}, expected 1")
    return PlanarAtoms(atoms)


def reference_combination(terms, tol) -> PlanarAtoms:
    """The probability measure sum of ``coeff * atoms`` over the terms
    ``(coeff, planar atoms)``: summed by the reference merge, its positive
    part taken by the reference positivity and merged again, as dropping an
    atom may split a run."""
    signed = reference_merge_2d(
        (s, t, coeff * mass) for coeff, atoms in terms for s, t, mass in atoms
    )
    return _reference_probability(reference_merge_2d(_reference_positive_part(signed, tol)))


def _reference_scaled_product(coeff, mx, my):
    """``coeff`` times the reference product of two measures, exact zeros
    dropped; a non-finite mass is named as ``product`` names it."""
    return reference_merge_2d(
        (s, t, coeff * mass) for s, t, mass in reference_product_atoms(mx, my)
    )


def slack_measures(inst: TCInstance) -> tuple:
    """psi and phi, phi from psi's signed reciprocal integral as a verdict
    builds it, whether or not psi is positive."""
    psi = compute_psi(inst)
    return psi, compute_phi(inst, psi.reciprocal_norm())


def _split_parts(inst: TCInstance, tol, psi, phi) -> tuple:
    """The positive parts of psi and phi, eta~, and the coefficients
    a^2 y0^2 r_s r_t and y0^2 ||1/t||_psi of the split form."""
    psi_pos = psi.as_positive(tol)
    phi_pos = phi.as_positive(tol)
    recip_t_psi = psi_pos.reciprocal_norm() if psi_pos.atoms else 0.0
    c_tensor = inst.a**2 * inst.y0_sq * inst.recip_s_xi * inst.recip_t_eta
    return psi_pos, phi_pos, inst.eta.tilde(), c_tensor, inst.y0_sq * recip_t_psi


def reference_berger_split(inst: TCInstance, tol, psi, phi) -> PlanarAtoms:
    """The split-form joint measure summed by the reference merge, with
    the reference positivity; ``berger_measure`` skips those merges and
    must reproduce this exactly (same atoms, same exceptions and
    messages)."""
    psi_pos, phi_pos, eta_tilde, c_tensor, c_axis = _split_parts(inst, tol, psi, phi)
    terms = [(c_tensor, reference_product_atoms(inst.xi_tilde, eta_tilde))]
    if psi_pos.atoms:
        terms.append((c_axis, reference_product_atoms(_ORIGIN, psi_pos.tilde())))
    if phi_pos.atoms:
        terms.append((1.0, reference_product_atoms(phi_pos, _ORIGIN)))
    return reference_combination(terms, tol)


def reference_berger_measure(inst: TCInstance, tol, psi, phi) -> PlanarAtoms:
    """The split-form joint measure built as one tuple of atoms: each piece
    a scaled reference product, the three laid out in sorted order by
    ``bisect_left`` and checked by the reference positivity and total.
    ``berger_measure`` must give its atoms bit for bit through ``joined``,
    and its exceptions and messages."""
    psi_pos, phi_pos, eta_tilde, c_tensor, c_axis = _split_parts(inst, tol, psi, phi)
    psi_tilde = psi_pos.tilde() if psi_pos.atoms else None
    tensor = _reference_scaled_product(c_tensor, inst.xi_tilde, eta_tilde)
    vertical = () if psi_tilde is None else _reference_scaled_product(c_axis, _ORIGIN, psi_tilde)
    horizontal = _reference_scaled_product(1.0, phi_pos, _ORIGIN)
    body = vertical + tensor
    atoms = []
    start = 0
    for atom in horizontal:
        end = bisect_left(body, atom, start)
        atoms.extend(body[start:end])
        atoms.append(atom)
        start = end
    atoms.extend(body[start:])
    return _reference_probability(_reference_positive_part(atoms, tol))


def reference_berger_correction(inst: TCInstance, tol, psi, phi) -> PlanarAtoms:
    """The joint measure in its correction form,

        xi_x x eta~ + phi x (delta_0 - eta~) + y0^2 ||1/t||_psi delta_0 x (psi~ - eta~),

    of the positive parts of the given psi and phi.  Its signed terms
    cancel, so they are summed by the reference merge and checked by the
    reference positivity; it shares no merge with the split form that
    ``berger_measure`` builds, which must agree with it within rounding."""
    psi_pos = _reference_positive_part(psi.atoms, tol)
    phi_pos = _reference_positive_part(phi.atoms, tol)
    eta_tilde = inst.eta.tilde()
    terms = [(1.0, inst.xi_x, eta_tilde)]
    if phi_pos:
        phi_part = _measure_of(phi_pos)
        terms += [(1.0, phi_part, _ORIGIN), (-1.0, phi_part, eta_tilde)]
    if psi_pos:
        c_axis = inst.y0_sq * left_sum(mass / t for t, mass in psi_pos)
        raw = [(t, mass / t) for t, mass in psi_pos]
        total = left_sum(mass for _, mass in raw)
        psi_tilde = _measure_of(tuple((t, mass / total) for t, mass in raw))
        terms += [(c_axis, _ORIGIN, psi_tilde), (-c_axis, _ORIGIN, eta_tilde)]
    return reference_combination(
        [(coeff, reference_product_atoms(mx, my)) for coeff, mx, my in terms], tol
    )


# Planar measures for the tests: PlanarAtoms records summed by the
# reference merge.  tcshift has no planar measure type, as it never merges
# in the plane; these carry the paper's second route, the backward
# extension of the measure of the rows k2 >= 1 by row 0.


def dirac2(s: float, t: float) -> PlanarAtoms:
    """Unit planar point mass at (s, t)."""
    return PlanarAtoms(((s, t, 1.0),))


def planar_moment(measure, k1: int, k2: int) -> float:
    """Integral of s^k1 t^k2: the terms (mass * s**k1) * t**k2 summed from
    the left in atom order."""
    return left_sum(mass * s**k1 * t**k2 for s, t, mass in measure.atoms)


def moment_source(measure) -> SimpleNamespace:
    """A planar measure as a source of ``moment(k1, k2)``, as the oracles
    read an instance."""
    return SimpleNamespace(moment=functools.partial(planar_moment, measure))


def _axis(axis: int) -> int:
    """``axis`` as an index of a coordinate; index 2 would read the mass."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis!r}")
    return axis


def marginal(measure, axis: int) -> AtomicMeasure1D:
    """The projection of a nonnegative planar measure onto the s-axis
    (``axis`` 0) or the t-axis (1)."""
    axis = _axis(axis)
    return AtomicMeasure1D((atom[axis], atom[2]) for atom in measure.atoms)


def reciprocal_norm(measure, axis: int) -> float:
    """Integral of 1/s (``axis`` 0) or 1/t (1); AtomAtZero when an atom
    has that coordinate zero."""
    axis = _axis(axis)
    if any(atom[axis] == 0.0 for atom in measure.atoms):
        raise AtomAtZero(
            f"measure has an atom with zero coordinate {axis}, reciprocal not integrable"
        )
    return left_sum(atom[2] / atom[axis] for atom in measure.atoms)


def extremal(measure) -> PlanarAtoms:
    """Reweight by 1/t and renormalise."""
    norm = reciprocal_norm(measure, 1)
    raw = [(s, t, mass / (t * norm)) for s, t, mass in measure.atoms]
    total = left_sum(mass for _, _, mass in raw)
    return PlanarAtoms(tuple((s, t, mass / total) for s, t, mass in raw))


def measure_M(inst: TCInstance) -> PlanarAtoms:
    """Berger measure of the restriction to rows k2 >= 1.

    Equals a^2 ||1/s||_{L1(xi)} (xi~ x eta) + delta_0 x psi and exists
    exactly when psi is positive.
    """
    psi_pos = compute_psi(inst).as_positive(DEFAULT_TOL)
    terms = [(inst.a**2 * inst.recip_s_xi, reference_product_atoms(inst.xi_tilde, inst.eta))]
    if psi_pos.atoms:
        terms.append((1.0, reference_product_atoms(_ORIGIN, psi_pos)))
    return reference_combination(terms, DEFAULT_TOL)


class BackwardExtension(NamedTuple):
    """Outcome of prepending row 0 to a subnormal upper part.

    ``failed_condition`` indexes the three requirements in order:
    1 reciprocal integrability of 1/t, 2 the bound beta00^2 ||1/t|| <= 1,
    3 atom-wise domination of the scaled extremal marginal by nu.
    """

    subnormal: bool
    measure: PlanarAtoms | None
    failed_condition: int | None = None
    ratio: float | None = None
    witness: tuple[float, float] | None = None


def backward_extension(mu_m, nu: AtomicMeasure1D, beta00: float) -> BackwardExtension:
    """Extend a planar measure downward by a new bottom row.

    Given the measure of the upper part, the measure nu of the new row-0
    shift and the prepended vertical weight beta00, the extension is
    subnormal exactly when (1) no atom of mu_m sits on the s-axis,
    (2) r := beta00^2 ||1/t||_{L1(mu_m)} <= 1 and (3) r (mu_m)_ext^X <= nu
    atom-wise; the extended measure is then

        r (mu_m)_ext + (nu - r (mu_m)_ext^X) x delta_0.

    When r = 1, condition (3) forces the extremal marginal to equal nu.
    That guard compares their largest atom difference with
    10 * DEFAULT_TOL (1e-11), while ``AtomicMeasure1D(..., probability=True)``
    admits a total off 1 by up to PROBABILITY_TOL (1e-9): it refuses, as
    PreconditionViolated, a nu that the constructor accepts, such as mass
    1 + 5e-10 at 1 against ``dirac2(1.0, 1.0)`` at beta00 = 1.  This is
    an open fault.
    """
    if any(t == 0.0 for _, t, _ in mu_m.atoms):
        return BackwardExtension(False, None, failed_condition=1)
    ratio = beta00**2 * reciprocal_norm(mu_m, 1)
    if ratio > 1.0 + DEFAULT_TOL:
        return BackwardExtension(False, None, failed_condition=2, ratio=ratio)
    upper = extremal(mu_m)
    upper_x = marginal(upper, 0)
    slack = combine([(1.0, nu), (-ratio, upper_x)])
    check = positivity(slack, DEFAULT_TOL)
    if not check.positive:
        return BackwardExtension(
            False, None, failed_condition=3, ratio=ratio, witness=(check.location, check.mass)
        )
    if abs(ratio - 1.0) <= DEFAULT_TOL and atom_difference(upper_x, nu) > 10.0 * DEFAULT_TOL:
        raise PreconditionViolated("unit mass ratio forces the extremal marginal to equal nu")
    rest = slack.as_positive(DEFAULT_TOL)
    terms = [(ratio, upper.atoms)]
    if rest.atoms:
        terms.append((1.0, reference_product_atoms(rest, _ORIGIN)))
    return BackwardExtension(True, reference_combination(terms, DEFAULT_TOL), ratio=ratio)


def reference_moment(inst: TCInstance, k1: int, k2: int) -> float:
    """gamma_(k1, k2) by walking the row-first lattice path: the squared
    weights along row 0 to k1, then up column k1.  The instance's closed
    form must agree with it within rounding, and raise the same exception
    types."""
    if k1 < 0 or k2 < 0:
        raise ValueError("moment orders must be nonnegative")
    value = 1.0
    for i in range(k1):
        value *= inst.weight_at(i, 0, "h") ** 2
    for j in range(k2):
        value *= inst.weight_at(k1, j, "v") ** 2
    return value


@functools.lru_cache(maxsize=8)
def _reference_weights(measure: AtomicMeasure1D) -> tuple[float, ...]:
    return reference_weights_from_measure(measure, TCInstance.depth + 1)


def reference_weight(inst: TCInstance, k1: int, k2: int, direction: str) -> float:
    """Weight of the diagram at (k1, k2) by the formulas of the diagram
    module docstring, from the weights of the four measures; the
    commutativity recursions run in the order the docstring writes them.
    ``weight_at`` must reproduce it exactly."""
    x = _reference_weights(inst.xi_x)
    y = _reference_weights(inst.eta_y)
    alpha = _reference_weights(inst.xi)  # alpha_k is alpha[k - 1]
    beta = _reference_weights(inst.eta)
    if direction == "h":
        if k2 == 0:
            return x[k1]
        if k1 >= 1:
            return alpha[k1 - 1]
        value = inst.a
        for j in range(1, k2):
            value = value * beta[j - 1] / y[j]
        return value
    if k1 == 0:
        return y[k2]
    if k2 >= 1:
        return beta[k2 - 1]
    value = inst.a * y[0] / x[0]
    for i in range(1, k1):
        value = value * alpha[i - 1] / x[i]
    return value


# Reference moment sums and oracle matrices: built one order, one entry at a
# time.  The atom-major sums of tcshift.shifts.relative_moments and the matrices
# that tcshift.oracles builds whole must reproduce them exactly (same bits,
# same exceptions and messages).


def reference_relative_moments(measure: AtomicMeasure1D, count: int):
    """``shifts.relative_moments`` summed one order at a time."""
    top = measure.atoms[-1][0]
    if top == 0.0:
        raise DegenerateMeasure("measure concentrated at 0 has no weight sequence")
    ratios = [(loc / top, mass) for loc, mass in measure.atoms]
    moments = [left_sum(mass * ratio**k for ratio, mass in ratios) for k in range(count)]
    return top, [moment / moments[0] for moment in moments]


def reference_weights_from_measure(measure: AtomicMeasure1D, n: int) -> tuple[float, ...]:
    """``weights_from_measure`` from the moments of
    ``reference_relative_moments``: sqrt(t r_{k+1} / r_k)."""
    if n < 1:
        raise ValueError("at least one weight must be requested")
    top, moments = reference_relative_moments(measure, n + 1)
    return tuple(math.sqrt(top * moments[k + 1] / moments[k]) for k in range(n))


def reference_moment_matrix(source, n: int) -> np.ndarray:
    """The moment matrix of ``moment_matrix_2d``, entry by entry."""
    gamma = source.moment
    gamma(2 * n, 0)
    basis = [(k1, total - k1) for total in range(n + 1) for k1 in range(total, -1, -1)]
    table = [[gamma(k1, k2) for k2 in range(2 * n + 1 - k1)] for k1 in range(2 * n + 1)]
    return np.array([[table[p1 + q1][p2 + q2] for q1, q2 in basis] for p1, p2 in basis])


def reference_joint_hyponormality_matrix(instance: TCInstance, window: int) -> np.ndarray:
    """The compression of ``joint_hyponormality_compression``, entry by
    entry, reading a weight each time it is used."""
    if window < 1:
        raise ValueError("window must be at least 1")
    side = window + 1
    size = side * side

    def alpha(k1, k2):
        return instance.weight_at(k1, k2, "h")

    def beta(k1, k2):
        return instance.weight_at(k1, k2, "v")

    matrix = np.zeros((2 * size, 2 * size))
    for k1 in range(side):
        for k2 in range(side):
            i = k1 * side + k2
            left = alpha(k1 - 1, k2) ** 2 if k1 >= 1 else 0.0
            matrix[i, i] = alpha(k1, k2) ** 2 - left
            below = beta(k1, k2 - 1) ** 2 if k2 >= 1 else 0.0
            matrix[size + i, size + i] = beta(k1, k2) ** 2 - below
    for l1 in range(side):
        for l2 in range(1, side):
            k1, k2 = l1 + 1, l2 - 1
            if k1 > window:
                continue
            value = alpha(l1, l2) * beta(l1 + 1, l2 - 1) - alpha(l1, l2 - 1) * beta(l1, l2 - 1)
            matrix[k1 * side + k2, size + l1 * side + l2] = value
            matrix[size + l1 * side + l2, k1 * side + k2] = value
    return matrix


def outcome(fn, *args):
    """The repr of what ``fn(*args)`` returns, or the type and message of
    what it raises: two equal outcomes are the same bits or the same error."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def same_array(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: NaN equals NaN and -0.0 differs from 0.0."""
    return (
        actual.shape == expected.shape
        and actual.dtype == expected.dtype
        and actual.tobytes() == expected.tobytes()
    )
