"""Seeded instance generator and op lists for the benchmark workloads.

The generator is self-contained: it builds atom lists in plain Python and
writes them as instance files, so the program under test only ever sees
files, and a change to the package or to its tests cannot change the
inputs.  The constructions follow the ones the test suite uses (engineered
subnormal instances, instances whose vertical slack psi is engineered
nonnegative, arbitrary instances, flat instances) but take the atom count
as a parameter.  Every location lies in [0.1, 4] (the free part of a
constructed row-0 measure may also sit at 0 or down to 0.05, as in the
tests).

Families are assigned in fixed proportions rather than by a random roll,
so every seed yields the same number of files per family and size; the
seed moves locations and masses only.  That keeps the per-op work, and so
the timings, comparable across seeds.
"""

from __future__ import annotations

import json
import math
import os
import random

LO, HI = 0.1, 4.0

#: Order in which the mixed tc families repeat: one third engineered
#: subnormal, one third with psi engineered nonnegative (the row-0 measure
#: constructive or random), one third arbitrary with a^2 ||1/s||_xi below or
#: above one.
MIXED_FAMILIES = ("subnormal", "subnormal", "psi-row", "psi-random", "arb-low", "arb-high")

#: Families whose construction guarantees a subnormal verdict.
SUBNORMAL_FAMILIES = ("subnormal", "psi-row")

#: The paper's worked examples: f1 is subnormal, n1 is not.
FIXTURES = {
    "f1": {
        "kind": "tc",
        "xi_x": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "eta_y": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "xi": {"atoms": [[1.0, 1.0]]},
        "eta": {"atoms": [[1.0, 1.0]]},
        "a": 0.7071067811865476,
    },
    "n1": {
        "kind": "tc",
        "xi_x": {"atoms": [[0.0, 0.1], [1.0, 0.9]]},
        "eta_y": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "xi": {"atoms": [[1.0, 1.0]]},
        "eta": {"atoms": [[1.0, 1.0]]},
        "a": 0.7071067811865476,
    },
    "f1_flat": {"kind": "flat", "p": 0.5, "q": 0.5, "l": 0.5, "m": 0.5, "b": 1.0,
                "a": 0.7071067811865476},
    "n1_flat": {"kind": "flat", "p": 0.1, "q": 0.9, "l": 0.5, "m": 0.5, "b": 1.0,
                "a": 0.7071067811865476},
}
FIXTURE_VERDICTS = {
    "f1": "subnormal",
    "n1": "not-subnormal",
    "f1_flat": "subnormal",
    "n1_flat": "not-subnormal",
}

# Workload shapes: (atoms per core measure, number of files).
DECIDE_TC = ((2, 24), (10, 12), (50, 12), (200, 6))
DECIDE_FLAT = 8
VERIFY_TC = ((2, 24), (10, 12))
COLD_OPS = (("check", "f1"), ("check", "n1"), ("verify", "f1"),
            ("check", "n1"), ("check", "f1"), ("verify", "n1"))
SWEEP_FILES, SWEEP_ATOMS, SWEEP_POINTS, SWEEP_WIDE_EVERY = 400, 10, 41, 5


def _locations(rng, count, lo=LO, hi=HI, avoid=(), spacing=1e-3):
    found: list[float] = []
    while len(found) < count:
        candidate = rng.uniform(lo, hi)
        if all(abs(candidate - other) > spacing for other in (*found, *avoid)):
            found.append(candidate)
    return found


def _probability(rng, count, lo=LO, hi=HI, avoid=(), spacing=1e-3, zero_prob=0.0):
    """Probability measure with Dirichlet-uniform masses on [lo, hi],
    optionally moving one atom to the origin."""
    locations = _locations(rng, count, lo, hi, avoid, spacing)
    if zero_prob and count >= 2 and rng.random() < zero_prob:
        locations[0] = 0.0
    masses = [rng.gammavariate(1.0, 1.0) + 1e-3 for _ in locations]
    total = sum(masses)
    return [(loc, mass / total) for loc, mass in zip(locations, masses)]


def _recip(atoms):
    return sum(mass / loc for loc, mass in atoms)


def _tilde(atoms):
    norm = _recip(atoms)
    return [(loc, mass / (loc * norm)) for loc, mass in atoms]


def _column(rng, eta, u):
    """Column-0 measure whose vertical slack psi has mass 1 - u and is
    nonnegative.  Returns (eta_y, slack atoms, ell, y0^2)."""
    slack = _probability(rng, rng.randint(1, 3), avoid=[loc for loc, _ in eta])
    slack = [(loc, (1.0 - u) * mass) for loc, mass in slack]
    tail = [(loc, u * mass) for loc, mass in eta] + slack
    ell = rng.uniform(0.0, 0.5)
    y0_sq = (1.0 - ell) / _recip(tail)
    eta_y = [(t, y0_sq * mass / t) for t, mass in tail]
    if ell > 1e-12:
        eta_y.append((0.0, ell))
    return eta_y, slack, ell, y0_sq


def _row(rng, xi, eta, u, slack, ell, y0_sq, free_at_zero=None):
    """Row-0 measure dominating the forced part of the horizontal slack
    phi, so phi is nonnegative with a free remainder of mass ell.

    The free part puts an atom at 0 with probability 0.3 when it has two or
    more atoms, or always (``True``) or never (``False``).  Slack at 0 is
    what lets ``a`` decrease and stay subnormal, so it sets how wide the
    subnormal interval in ``a`` is.
    """
    forced = [(loc, u * y0_sq * _recip(eta) * mass) for loc, mass in _tilde(xi)]
    forced.append((0.0, y0_sq * _recip(slack)))
    if ell > 1e-12:
        if free_at_zero is None:
            free = _probability(rng, rng.randint(1, 3), lo=0.05, zero_prob=0.3)
        else:
            count = rng.randint(2, 3) if free_at_zero else rng.randint(1, 3)
            free = _probability(rng, count, lo=0.05, zero_prob=float(free_at_zero))
        forced.extend((loc, ell * mass) for loc, mass in free)
    return forced


def _measure(atoms):
    return {"atoms": [[loc, mass] for loc, mass in atoms]}


def tc_instance(rng: random.Random, family: str, n: int, free_at_zero=None) -> dict:
    """One tc instance of the given family with n atoms per core measure."""
    xi = _probability(rng, n)
    eta = _probability(rng, n)
    if family in ("arb-low", "arb-high"):
        u = rng.uniform(0.05, 0.95) if family == "arb-low" else rng.uniform(1.0 + 1e-6, 2.0)
        eta_y = _probability(rng, n, zero_prob=0.4)
        xi_x = _probability(rng, n, lo=0.05, zero_prob=0.4)
    else:
        u = rng.uniform(0.2, 0.95)
        eta_y, slack, ell, y0_sq = _column(rng, eta, u)
        if family == "psi-random":
            xi_x = _probability(rng, n, lo=0.05, zero_prob=0.4)
        elif family in SUBNORMAL_FAMILIES:
            xi_x = _row(rng, xi, eta, u, slack, ell, y0_sq, free_at_zero)
        else:
            raise ValueError(f"unknown family {family!r}")
    return {
        "kind": "tc",
        "xi_x": _measure(xi_x),
        "eta_y": _measure(eta_y),
        "xi": _measure(xi),
        "eta": _measure(eta),
        "a": math.sqrt(u / _recip(xi)),
    }


def flat_instance(rng: random.Random) -> dict:
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
    data = {"kind": "flat", "p": p, "q": q, "l": l, "m": m, "b": b, "a": a}
    if rest_x > 0.0:
        data["rho"] = _measure(_probability(rng, rng.randint(1, 3), avoid=(1.0,), spacing=0.05))
    if rest_y > 0.0:
        data["sigma"] = _measure(
            _probability(rng, rng.randint(1, 3), avoid=(b**2,), spacing=0.05)
        )
    return data


class _Writer:
    """Writes instance files into one directory and builds the op list."""

    def __init__(self, directory: str):
        self.directory = directory
        self.ops: list[dict] = []
        self.files: dict[str, str] = {}

    def file(self, name: str, data: dict) -> str:
        path = os.path.join(self.directory, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        self.files[name] = path
        return path

    def op(self, cmd, name, *, json_out=False, expect=None, agree_with=None, extra=()):
        argv = [cmd, self.files[name], *extra] + (["--json"] if json_out else [])
        self.ops.append(
            {
                "cmd": cmd,
                "file": name,
                "argv": argv,
                "json": json_out,
                "expect": expect,
                "agree_with": agree_with,
            }
        )
        return len(self.ops) - 1


def _tc_files(writer, rng, shape):
    """Write the mixed tc files of a workload; returns (name, family) pairs."""
    written = []
    for n, count in shape:
        for index in range(count):
            family = MIXED_FAMILIES[index % len(MIXED_FAMILIES)]
            name = f"tc{n}_{index:02d}_{family}"
            writer.file(name, tc_instance(rng, family, n))
            written.append((name, family))
    return written


def _expected(family: str):
    return "subnormal" if family in SUBNORMAL_FAMILIES else None


def build(workload: str, seed: int, directory: str) -> dict:
    """Write the inputs of one workload and return its manifest: the
    warm-up op's argv, the ops of one pass, in order, and the file count."""
    rng = random.Random(f"{workload}:{seed}")
    writer = _Writer(directory)
    for name, data in FIXTURES.items():
        writer.file(name, data)
    if workload == "decide":
        warmup = ["check", writer.files["f1"]]
        for name, family in _tc_files(writer, rng, DECIDE_TC):
            writer.op("check", name, expect=_expected(family))
            writer.op("reconstruct", name, json_out=True, expect=_expected(family))
        for index in range(DECIDE_FLAT):
            writer.file(f"flat_{index:02d}", flat_instance(rng))
        for name in [f"flat_{i:02d}" for i in range(DECIDE_FLAT)] + ["f1_flat", "n1_flat"]:
            first = writer.op("flat", name, expect=FIXTURE_VERDICTS.get(name))
            writer.op("check", name, expect=FIXTURE_VERDICTS.get(name), agree_with=first)
        for name in ("f1", "n1"):
            writer.op("check", name, expect=FIXTURE_VERDICTS[name])
            writer.op("reconstruct", name, json_out=True, expect=FIXTURE_VERDICTS[name])
    elif workload == "verify":
        warmup = ["verify", writer.files["f1"], "--json"]
        for name, family in _tc_files(writer, rng, VERIFY_TC):
            writer.op("verify", name, json_out=True, expect=_expected(family))
    elif workload == "sweep":
        for index in range(SWEEP_FILES):
            # One file in SWEEP_WIDE_EVERY gets slack at 0, so the share of
            # wide subnormal intervals is the same for every seed.
            wide = index % SWEEP_WIDE_EVERY == 0
            data = tc_instance(rng, "subnormal", SWEEP_ATOMS, free_at_zero=wide)
            name = f"sweep_{index:02d}"
            writer.file(name, data)
            a = data["a"]
            grid = f"{0.5 * a!r}:{1.5 * a!r}:{a / (SWEEP_POINTS - 1)!r}"
            writer.op("sweep", name, json_out=True, extra=["--param", "a", "--range", grid])
        warmup = ["sweep", writer.files["f1"], "--param", "a", "--range", "0.35:1.05:0.0175"]
    elif workload == "cold":
        warmup = ["check", writer.files["f1"]]
        # Two checks per verify, so that p50 falls inside the check ops and
        # p90 inside the verify ops rather than on the step between them.
        for cmd, name in COLD_OPS:
            writer.op(cmd, name, json_out=cmd == "verify", expect=FIXTURE_VERDICTS[name])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        "seed": seed,
        "warmup": warmup,
        "ops": writer.ops,
        "files": len(writer.files),
        "sweep_points": SWEEP_POINTS,
    }
