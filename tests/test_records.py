"""The package's value classes, and the tests' ``H0Report``: each prints
as ``Name(field=value, ...)``, refuses assignment to a field, and two equal
instances compare equal and hash alike."""

import pytest

from tcshift.cli import Options, ParsedFile
from tcshift.diagram import FlatInstance, TCInstance
from tcshift.measures import AtomicMeasure1D, PlanarAtoms, Positivity, SignedMeasure1D, dirac
from tcshift.oracles import InterpolationReport, PsdReport
from tcshift.reconstruct import Diagnostics, Verdict, Witness

from helpers import H0Report


def tc_instance() -> TCInstance:
    inst = TCInstance(dirac(1.0), dirac(2.0), dirac(1.0), dirac(2.0), 0.5)
    inst.moment(1, 1)  # cached values must not show in the repr
    return inst


def flat_instance() -> FlatInstance:
    flat = FlatInstance(p=0.0, q=1.0, l=0.0, m=1.0, b=1.0, a=0.5)
    flat.xi_x  # cached
    return flat


def verdict() -> Verdict:
    return Verdict(
        False,
        Witness("psi", 2.0, -0.5),
        Diagnostics(1.0, 0.5, 0.25, 2.0),
        SignedMeasure1D(((2.0, -0.5), (1.0, 1.5))),
        SignedMeasure1D(()),
    )


DIRAC_1 = "AtomicMeasure1D(atoms=((1.0, 1.0),), probability=True)"
DIRAC_2 = "AtomicMeasure1D(atoms=((2.0, 1.0),), probability=True)"
OPTIONS = "Options(tol=1e-10, order=12, window=4)"
FLAT = "FlatInstance(p=0.0, q=1.0, l=0.0, m=1.0, b=1.0, a=0.5, rho=None, sigma=None)"

# (class, factory, exact repr, a field to assign)
CASES = [
    (
        SignedMeasure1D,
        lambda: SignedMeasure1D([(2.0, -0.25), (1.0, 0.5)]),
        "SignedMeasure1D(atoms=((1.0, 0.5), (2.0, -0.25)))",
        "atoms",
    ),
    (
        AtomicMeasure1D,
        lambda: AtomicMeasure1D(((1.0, 0.5), (2.0, 0.5))),
        "AtomicMeasure1D(atoms=((1.0, 0.5), (2.0, 0.5)), probability=False)",
        "probability",
    ),
    (
        PlanarAtoms,
        lambda: PlanarAtoms(((1.0, 2.0, 1.0),)),
        "PlanarAtoms(atoms=((1.0, 2.0, 1.0),))",
        "atoms",
    ),
    (
        Positivity,
        lambda: Positivity(True),
        "Positivity(positive=True, location=None, mass=None)",
        "positive",
    ),
    (
        H0Report,
        lambda: H0Report(False, 2, ("row", 1)),
        "H0Report(passed=False, depth=2, first_failure=('row', 1))",
        "depth",
    ),
    (
        TCInstance,
        tc_instance,
        f"TCInstance(xi_x={DIRAC_1}, eta_y={DIRAC_2}, xi={DIRAC_1}, eta={DIRAC_2}, a=0.5)",
        "a",
    ),
    (FlatInstance, flat_instance, FLAT, "b"),
    (
        PsdReport,
        lambda: PsdReport(2, -0.5, False, 1e-9),
        "PsdReport(dimension=2, min_eigenvalue=-0.5, passed=False, tolerance=1e-09)",
        "passed",
    ),
    (
        InterpolationReport,
        lambda: InterpolationReport(True, 4, 0.0, 1e-10),
        "InterpolationReport(passed=True, order=4, max_rel_error=0.0,"
        " tolerance=1e-10, first_failure=None)",
        "passed",
    ),
    (
        Diagnostics,
        lambda: Diagnostics(1.0, 0.5, 0.25, 2.0),
        "Diagnostics(recip_s_xi=1.0, recip_t_eta=0.5, recip_t_psi=0.25,"
        " recip_t_eta_y_tail=2.0)",
        "recip_t_psi",
    ),
    (
        Witness,
        lambda: Witness("psi", 2.0, -0.5),
        "Witness(measure='psi', location=2.0, mass=-0.5)",
        "mass",
    ),
    (
        Verdict,
        verdict,
        "Verdict(subnormal=False, witness=Witness(measure='psi', location=2.0, mass=-0.5),"
        " diagnostics=Diagnostics(recip_s_xi=1.0, recip_t_eta=0.5, recip_t_psi=0.25,"
        " recip_t_eta_y_tail=2.0), psi=SignedMeasure1D(atoms=((1.0, 1.5), (2.0, -0.5))),"
        " phi=SignedMeasure1D(atoms=()))",
        "subnormal",
    ),
    (Options, lambda: Options(), OPTIONS, "tol"),
    (
        ParsedFile,
        lambda: ParsedFile(flat_instance(), Options()),
        f"ParsedFile(instance={FLAT}, options={OPTIONS})",
        "options",
    ),
]


@pytest.mark.parametrize(
    "make, text, field", [case[1:] for case in CASES], ids=[case[0].__name__ for case in CASES]
)
def test_value_semantics(make, text, field):
    first, second = make(), make()
    assert repr(first) == text
    with pytest.raises(AttributeError):
        setattr(first, field, None)
    with pytest.raises(AttributeError):
        delattr(first, field)
    assert repr(first) == text
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)

