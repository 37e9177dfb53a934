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
phi x delta_0.  Each is a ``product`` at its coefficient, and no two of
their atoms are at one location, so one sort, and no merge pass, sums
them.  An equivalent assembly writes the same measure as xi_x x eta~
plus signed corrections supported on the two axes, which cancel and so
must be merged; it is kept as test-only reference code, and the two forms
must agree atom for atom.
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
extension by y0 exists.  ``backward_extension`` re-derives the same verdict
through the three classical conditions (reciprocal integrability, the norm
bound on the prepended weight, marginal domination), giving an independent
second route to every answer.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, NamedTuple

from .errors import NonFinite, PreconditionViolated
from .diagram import FlatInstance, TCInstance
from .measures import (
    POSITIVITY_REL_TOL,
    PROBABILITY_TOL,
    AtomicMeasure1D,
    AtomicMeasure2D,
    MergeRuns,
    SignedMeasure1D,
    _from_merged,
    atom_difference,
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
    check = positivity(psi, tol)
    if not check.positive:
        return Verdict(False, Witness("psi", check.location, check.mass), diag, psi, None)
    phi = build_phi()
    check = positivity(phi, tol)
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


def berger_measure(
    instance: TCInstance,
    tol: float = DEFAULT_TOL,
    form: str = "split",
    *,
    psi: SignedMeasure1D,
    phi: SignedMeasure1D,
) -> AtomicMeasure2D:
    """Assemble the joint Berger measure of a subnormal instance from its
    psi and phi, those of its verdict.

    ``form="split"`` sums the three mutually singular nonnegative pieces;
    ``form="correction"``, test-only reference code, starts from
    xi_x x eta~ and applies the signed axis corrections.  Both must produce
    the same measure.  Raises PreconditionViolated when psi or phi has a
    genuinely negative atom.

    The correction form merges its signed sum in ``combine`` and again in
    ``as_positive``.  The split form makes each piece by ``product`` at its
    coefficient, with the masses and errors of ``combine``, and one sort of
    all their atoms gives what ``combine`` and then ``as_positive`` give:
    every mass is positive and no two atoms are at one location, so both
    merges keep every atom.  Each piece is a product of two merged
    measures, and any two locations of a merged measure are apart (see
    ``product``), so two atoms of one piece differ in s or in t.  Across
    pieces, the tensor piece has every s and t in the supports of xi and
    eta, which ``TCInstance`` refuses to let charge the origin, so none is
    0.0, the only location at 0; the vertical piece has s = 0 and every t
    in the support of psi, which its ``reciprocal_norm`` refuses to let
    charge the origin; and the horizontal piece has t = 0.  So a tensor
    atom is apart from a vertical one in s and from a horizontal one in t,
    and a vertical atom is apart from a horizontal one in t.  The
    coefficients a^2 y0^2 r_s r_t, y0^2 ||1/t||_psi and 1 are nonnegative,
    and exact zeros are dropped.  psi~ is made first, so that its errors
    come before those of a scaled mass, as in ``combine``.
    """
    psi_pos = psi.as_positive(tol)
    phi_pos = phi.as_positive(tol)
    recip_t_psi = psi_pos.reciprocal_norm() if psi_pos.atoms else 0.0
    c_tensor = instance.a**2 * instance.y0_sq * instance.recip_s_xi * instance.recip_t_eta
    c_axis = instance.y0_sq * recip_t_psi
    eta_tilde = instance.eta.tilde()
    if form == "split":
        psi_tilde = psi_pos.tilde() if psi_pos.atoms else None
        tensor = product(instance.xi_tilde, eta_tilde, c_tensor).atoms
        vertical = () if psi_tilde is None else product(_ORIGIN, psi_tilde, c_axis).atoms
        horizontal = product(phi_pos, _ORIGIN).atoms if phi_pos.atoms else ()
        # the vertical atoms sort first, so the sort finds one run less
        atoms = sorted(chain(vertical, tensor, horizontal))
        return _from_merged(AtomicMeasure2D, tuple(atoms), probability=True)
    elif form == "correction":
        terms = [(1.0, product(instance.xi_x, eta_tilde))]
        if phi_pos.atoms:
            terms.append((1.0, product(phi_pos, _ORIGIN)))
            terms.append((-1.0, product(phi_pos, eta_tilde)))
        if psi_pos.atoms:
            terms.append((c_axis, product(_ORIGIN, psi_pos.tilde())))
            terms.append((-c_axis, product(_ORIGIN, eta_tilde)))
    else:
        raise ValueError(f"form must be 'split' or 'correction', got {form!r}")
    return combine(terms).as_positive(tol, probability=True)


def measure_M(instance: TCInstance, tol: float = DEFAULT_TOL) -> AtomicMeasure2D:
    """Berger measure of the restriction to rows k2 >= 1.

    Equals a^2 ||1/s||_{L1(xi)} (xi~ x eta) + delta_0 x psi and exists
    exactly when psi is positive.
    """
    psi_pos = compute_psi(instance).as_positive(tol)
    terms = [(instance.a**2 * instance.recip_s_xi, product(instance.xi_tilde, instance.eta))]
    if psi_pos.atoms:
        terms.append((1.0, product(_ORIGIN, psi_pos)))
    return combine(terms).as_positive(tol, probability=True)


class BackwardExtension2D(NamedTuple):
    """Outcome of prepending row 0 to a subnormal upper part.

    ``failed_condition`` indexes the three requirements in order:
    1 reciprocal integrability of 1/t, 2 the bound beta00^2 ||1/t|| <= 1,
    3 atom-wise domination of the scaled extremal marginal by nu.
    """

    subnormal: bool
    measure: AtomicMeasure2D | None
    failed_condition: int | None = None
    ratio: float | None = None
    witness: tuple[float, float] | None = None


def backward_extension(
    mu_m: AtomicMeasure2D,
    nu: AtomicMeasure1D,
    beta00: float,
    tol: float = DEFAULT_TOL,
) -> BackwardExtension2D:
    """Extend a planar measure downward by a new bottom row.

    Given the measure of the upper part, the measure nu of the new row-0
    shift and the prepended vertical weight beta00, the extension is
    subnormal exactly when (1) no atom of mu_m sits on the s-axis,
    (2) r := beta00^2 ||1/t||_{L1(mu_m)} <= 1 and (3) r (mu_m)_ext^X <= nu
    atom-wise; the extended measure is then

        r (mu_m)_ext + (nu - r (mu_m)_ext^X) x delta_0.

    When r = 1, condition (3) forces the extremal marginal to equal nu.
    """
    if any(atom[1] == 0.0 for atom in mu_m.atoms):
        return BackwardExtension2D(False, None, failed_condition=1)
    ratio = beta00**2 * mu_m.reciprocal_norm("y")
    if ratio > 1.0 + tol:
        return BackwardExtension2D(False, None, failed_condition=2, ratio=ratio)
    extremal = mu_m.extremal()
    extremal_x = extremal.marginal("x")
    slack = combine([(1.0, nu), (-ratio, extremal_x)])
    check = positivity(slack, tol)
    if not check.positive:
        return BackwardExtension2D(
            False,
            None,
            failed_condition=3,
            ratio=ratio,
            witness=(check.location, check.mass),
        )
    if abs(ratio - 1.0) <= tol and atom_difference(extremal_x, nu) > 10.0 * max(tol, 1e-15):
        raise PreconditionViolated(
            "unit mass ratio forces the extremal marginal to equal nu"
        )
    rest = slack.as_positive(tol)
    terms = [(ratio, extremal)]
    if rest.atoms:
        terms.append((1.0, product(rest, _ORIGIN)))
    measure = combine(terms).as_positive(tol, probability=True)
    return BackwardExtension2D(True, measure, ratio=ratio)


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
