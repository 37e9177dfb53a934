"""Subnormality verdicts and closed-form reconstruction of the joint
Berger measure for tensor-core diagrams.

Write tail for the measure of the column-0 shift with its first weight
removed, and r_s = ||1/s||_{L1(xi)}, r_t = ||1/t||_{L1(eta)}.  Two signed
measures carry the whole decision:

    psi = tail - a^2 r_s eta
    phi = xi_x - y0^2 ||1/t||_{L1(psi)} delta_0 - a^2 y0^2 r_s r_t xi~

The diagram is subnormal exactly when both are positive measures, and the
joint measure then splits into three mutually singular pieces: a tensor
part a^2 y0^2 r_s r_t (xi~ x eta~) in the open quadrant, a vertical-axis
part y0^2 ||1/t||_psi (delta_0 x psi~), and a horizontal-axis part
phi x delta_0.  No two of their atoms are at one location, so neither a
merge pass nor a sort sums them: laid out as phi's atom at the origin,
the vertical part, then the tensor rows with each other atom of phi just
before the first row at its s or past it, they are in sorted order.
``berger_measure`` lays them out once as rows, the tensor part's n^2
atoms as one row of masses per atom of xi~, never built as tuples.  Two
other constructions stay in the tests (``tests/helpers.py``) as
references that this one must match: the joint measure written as
xi_x x eta~ plus signed corrections supported on the two axes, which
cancel and so must be merged, and the paper's second route, the measure
of the rows k2 >= 1 extended backward by row 0.
A verdict is the decision alone: psi, phi and, when negative, a witness
atom.  psi is decided first, and a negative atom of psi settles the
verdict, so phi is built only when psi is positive: a verdict whose
witness is psi holds no phi, and a caller that reports phi builds it with
``compute_phi`` and the verdict's ``recip_t_psi``.  The joint measure is
``berger_measure`` of the verdict's psi and phi, assembled only when a
caller asks for it.  Flat instances also have
the scalar criterion ``flat_verdict``, which must reach the verdict of the
embedded instance.

When psi fails positivity the diagram is not even subnormal after deleting
row 0; when only phi fails, the upper part is subnormal but no backward
extension by y0 exists.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import NonFinite, NotProbability
from .diagram import FlatInstance, TCInstance
from .measures import (
    POSITIVITY_REL_TOL,
    PROBABILITY_TOL,
    AtomicMeasure1D,
    MergeRuns,
    PlanarAtoms,
    SignedMeasure1D,
    combine,
    dirac,
    left_sum,
    positivity,
    product,
)

DEFAULT_TOL = POSITIVITY_REL_TOL
_ORIGIN = dirac(0.0)


class Diagnostics(NamedTuple):
    """Reciprocal norms feeding the criterion and the reconstruction."""

    recip_s_xi: float
    recip_t_eta: float
    recip_t_psi: float
    recip_t_eta_y_tail: float


class Witness(NamedTuple):
    """Most negative atom of the measure that failed positivity."""

    measure: str
    location: float
    mass: float


class Verdict(NamedTuple):
    """Subnormality decision with psi and phi; a negative verdict carries
    the witness atom, a positive one none.  phi is None exactly when the
    witness is psi, whose negative atom decides without it."""

    subnormal: bool
    witness: Witness | None
    diagnostics: Diagnostics
    psi: SignedMeasure1D
    phi: SignedMeasure1D | None


def compute_psi(instance: TCInstance) -> SignedMeasure1D:
    """The vertical slack measure tail - a^2 ||1/s||_{L1(xi)} eta."""
    terms = [
        (1.0, instance.eta_y_tail),
        (-(instance.a**2) * instance.recip_s_xi, instance.eta),
    ]
    return combine(terms, instance.psi_runs if instance.in_family else None)


def compute_phi(instance: TCInstance, recip_t_psi: float) -> SignedMeasure1D:
    """The horizontal slack measure, given ||1/t||_{L1(psi)}.

    That is the signed integral of 1/t against psi (psi's
    ``reciprocal_norm``), so phi is defined whether or not psi is positive;
    an atom of psi at the origin, which only the tail can carry, makes that
    integral raise.
    """
    return _phi(
        instance.xi_x,
        instance.y0_sq * recip_t_psi,
        instance.a**2 * instance.y0_sq * instance.recip_s_xi * instance.recip_t_eta,
        instance.xi_tilde,
        instance.phi_runs if instance.in_family else None,
    )


def _phi(
    xi_x: AtomicMeasure1D,
    origin: float,
    coefficient: float,
    xi_tilde: AtomicMeasure1D,
    runs: MergeRuns | None = None,
) -> SignedMeasure1D:
    """xi_x - origin delta_0 - coefficient xi~, where coefficient is
    a^2 y0^2 r_s r_t, merged in ``runs`` when given.  Its left factors can
    overflow while the whole product is finite; a coefficient that is not
    finite is named, unless the origin's mass, which comes first and which
    combine names, is not finite either."""
    if math.isfinite(origin) and not math.isfinite(coefficient):
        raise ArithmeticError(
            f"phi's coefficient a^2 y0^2 r_s r_t is not finite, got {coefficient!r}"
        )
    return combine([(1.0, xi_x), (-origin, _ORIGIN), (-coefficient, xi_tilde)], runs)


def _decide(
    psi: SignedMeasure1D,
    build_phi: Callable[[], SignedMeasure1D],
    diag: Diagnostics,
    tol: float,
) -> Verdict:
    """The verdict once psi is known.  A diagnostic that is not finite is
    refused by name, so that no report holds one.  A negative atom of psi
    is the witness, and phi is then never built; otherwise ``build_phi``
    makes it, and a negative atom of phi is the witness."""
    # one sum tests all four: it is not finite when a term is not, or on overflow
    if not math.isfinite(sum(diag)):
        for name, value in zip(diag._fields, diag):
            if not math.isfinite(value):
                raise NonFinite(f"the diagnostic {name} is not finite, got {value!r}")
    check = positivity(psi, tol, "psi")
    if not check.positive:
        return Verdict(False, Witness("psi", check.location, check.mass), diag, psi, None)
    phi = build_phi()
    check = positivity(phi, tol, "phi")
    if not check.positive:
        return Verdict(False, Witness("phi", check.location, check.mass), diag, psi, phi)
    return Verdict(True, None, diag, psi, phi)


def subnormality_verdict(instance: TCInstance, tol: float = DEFAULT_TOL) -> Verdict:
    """Decide subnormality via positivity of psi and then of phi.

    psi is checked first.  When it fails, phi is not built and the
    verdict's phi is None; a report that shows phi builds it with
    ``compute_phi(instance, verdict.diagnostics.recip_t_psi)``, the
    signed reciprocal integral that a verdict on phi uses.
    """
    psi = compute_psi(instance)
    recip_t_psi = psi.reciprocal_norm()
    # positional: keywords would cost every sweep point their parsing
    diag = Diagnostics(
        instance.recip_s_xi, instance.recip_t_eta, recip_t_psi, instance.recip_t_eta_y_tail
    )
    return _decide(psi, lambda: compute_phi(instance, recip_t_psi), diag, tol)


class BergerMeasure(NamedTuple):
    """The joint Berger measure as rows (s, ts, masses), in the order that
    sorting its atoms gives; the atoms of a row are (s, t, m) for t, m in
    zip(ts, masses).  The core rows share eta~'s tuple of locations unless
    a mass underflowed to zero."""

    rows: list

    def joined(self) -> PlanarAtoms:
        """The joint measure, its atoms those of ``rows``; they are sorted,
        apart, positive and of total mass one, so no check runs."""
        return PlanarAtoms(
            tuple((s, t, m) for s, ts, masses in self.rows for t, m in zip(ts, masses))
        )


def _laid_out(horizontal: tuple, vertical: tuple, core: list) -> list:
    """The atoms (s, 0.0, m) of phi x delta_0 each as a row of one, those
    (0.0, t, m) of the vertical piece as one row and the core rows, in the
    order that sorting the atoms gives.  Every t off the horizontal piece
    is positive, so an atom of phi goes just before the first row whose s
    is equal or larger, where ``bisect_left`` puts it: phi's atom at s = 0
    (0.0 or -0.0) first."""
    body = core
    if vertical:
        ss, ts, masses = zip(*vertical)
        body = [(ss[0], ts, masses), *body]
    heads = [row[0] for row in body]
    rows, start = [], 0
    for s, t, mass in horizontal:
        end = bisect_left(heads, s, start)
        rows += body[start:end]
        rows.append((s, (t,), (mass,)))
        start = end
    return rows + body[start:]


def berger_measure(
    instance: TCInstance,
    tol: float = DEFAULT_TOL,
    *,
    psi: SignedMeasure1D,
    phi: SignedMeasure1D,
) -> BergerMeasure:
    """The joint Berger measure of a subnormal instance, from its psi and
    phi, those of its verdict, as its three mutually singular nonnegative
    pieces.  Raises PreconditionViolated when psi or phi has a genuinely
    negative atom, and NotProbability when the total mass is not one.

    Each piece has the masses and errors of ``product`` at its coefficient
    (the core's non-finite ones named by ``product`` itself), and joined
    they are what a planar merge of the three would give: no mass is
    exactly zero and no two atoms are at one location, so a merge would
    keep every atom.  Within a piece, any two locations of a merged factor
    are apart (see ``product``).  Across pieces, the core has every s and t in
    the supports of xi and eta, which ``TCInstance`` refuses to let charge
    the origin; the vertical piece has s = 0 and every t in the support of
    psi, which its ``reciprocal_norm`` refuses to let charge the origin;
    and the horizontal piece has t = 0.

    No sign scan runs, as none could fail: every coordinate is a location
    of a factor, and the coefficients a^2 y0^2 r_s r_t, y0^2 ||1/t||_psi
    and 1 are nonnegative.  Only the total is checked, summed in atom
    order.  psi~ is made first, so that its errors come before those of a
    scaled mass, as when the scaled pieces are summed.
    """
    psi_pos = psi.as_positive(tol)
    phi_pos = phi.as_positive(tol)
    recip_t_psi = psi_pos.reciprocal_norm() if psi_pos.atoms else 0.0
    c_tensor = instance.a**2 * instance.y0_sq * instance.recip_s_xi * instance.recip_t_eta
    c_axis = instance.y0_sq * recip_t_psi
    eta_tilde = instance.eta.tilde()
    psi_tilde = psi_pos.tilde() if psi_pos.atoms else None
    ts, mts = zip(*eta_tilde.atoms)
    core = []
    for s, ms in instance.xi_tilde.atoms:
        masses = [c_tensor * (ms * mt) for mt in mts]
        row_ts = ts
        if 0.0 in masses:
            row_ts = tuple(t for t, mass in zip(ts, masses) if mass)
            masses = [mass for mass in masses if mass]
        if masses:
            core.append((s, row_ts, masses))
    if not math.isfinite(sum(map(sum, map(itemgetter(2), core)))):
        # raises, naming the first mass that is not finite, unless only the sum overflows
        product(instance.xi_tilde, eta_tilde, c_tensor)
    vertical = () if psi_tilde is None else product(_ORIGIN, psi_tilde, c_axis).atoms
    horizontal = product(phi_pos, _ORIGIN).atoms if phi_pos.atoms else ()
    rows = _laid_out(horizontal, vertical, core)
    total = left_sum(chain.from_iterable(map(itemgetter(2), rows)))
    if abs(total - 1.0) > PROBABILITY_TOL:
        raise NotProbability(f"total mass is {total!r}, expected 1")
    return BergerMeasure(rows)


def flat_verdict(flat: FlatInstance, tol: float = DEFAULT_TOL) -> Verdict:
    """Subnormality of a flat instance through the scalar criterion.

    psi, phi and the diagnostics come from the closed forms available in
    the flat case: psi is supported on {b^2} union supp(sigma) and the
    domination condition on xi_x involves only the atoms at 0 and 1.  The
    decision is then the general one and must coincide with
    ``subnormality_verdict`` of the embedded instance.
    """
    b_sq = flat.b**2
    a_sq = flat.a**2
    rest_y = flat.rest_y if flat.rest_y > PROBABILITY_TOL else 0.0
    sigma_atoms = flat.sigma.atoms if rest_y else ()
    y0_sq = flat.m * b_sq + rest_y * left_sum(t * mass for t, mass in sigma_atoms)
    tail_atoms = [(b_sq, flat.m * b_sq / y0_sq)]
    tail_atoms.extend((t, rest_y * t * mass / y0_sq) for t, mass in sigma_atoms)
    tail = AtomicMeasure1D(tuple(tail_atoms), probability=True)
    recip_tail = tail.reciprocal_norm()

    # (b/a) sqrt(m) >= y0 is exactly positivity of psi at the atom b^2.
    psi = combine([(1.0, tail), (-a_sq, dirac(b_sq))])
    recip_t_psi = recip_tail - a_sq / b_sq
    diag = Diagnostics(
        recip_s_xi=1.0,
        recip_t_eta=1.0 / b_sq,
        recip_t_psi=recip_t_psi,
        recip_t_eta_y_tail=recip_tail,
    )
    return _decide(
        psi,
        lambda: _phi(flat.xi_x, y0_sq * recip_t_psi, y0_sq * a_sq / b_sq, dirac(1.0)),
        diag,
        tol,
    )
