"""Per-op output checks.  An op fails when it raises, exits with a code
other than 0 or 1, or when its report breaks one of the rules below."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

VERDICT_OF_CODE = {0: "subnormal", 1: "not-subnormal"}


@dataclass
class Outcome:
    """What the checks read from one op's output."""

    verdict: str | None = None
    problem: str | None = None
    mu_printed: bool = False
    points: list[str] = field(default_factory=list)


def _statuses(oracles):
    for payload in oracles.values():
        for entry in payload if isinstance(payload, list) else [payload]:
            yield entry.get("status")


def _sweep_problem(out: str, points: int, outcome: Outcome) -> str | None:
    for line in out.splitlines():
        payload = json.loads(line)
        if "error" in payload:
            return f"sweep point {payload.get('value')!r} failed: {payload['error']}"
        if "verdict" in payload:
            outcome.points.append(payload["verdict"])
    if len(outcome.points) != points:
        return f"sweep printed {len(outcome.points)} points, expected {points}"
    hits = [i for i, verdict in enumerate(outcome.points) if verdict == "subnormal"]
    # The subnormal set in a is one interval, so its grid points are contiguous.
    if hits and hits[-1] - hits[0] + 1 != len(hits):
        return f"subnormal sweep points are not contiguous: {hits}"
    return None


def _problem(op: dict, code: int, out: str, sweep_points: int, outcome: Outcome) -> str | None:
    if op["cmd"] == "sweep":
        return _sweep_problem(out, sweep_points, outcome)
    payload: dict = {}
    if op["json"]:
        payload = json.loads(out)
        outcome.verdict = payload["verdict"]
        outcome.mu_printed = payload.get("mu") is not None
    else:
        lines = out.splitlines()
        found = [line[len("verdict: "):] for line in lines if line.startswith("verdict: ")]
        outcome.verdict = found[0] if len(found) == 1 else None
        outcome.mu_printed = any(line.startswith("mu: ") and line != "mu: none" for line in lines)
    if outcome.verdict != VERDICT_OF_CODE[code]:
        return f"verdict {outcome.verdict!r} does not match exit code {code}"
    if op.get("expect") and outcome.verdict != op["expect"]:
        return f"verdict {outcome.verdict!r}, expected {op['expect']!r}"
    if op["cmd"] == "verify":
        oracles = payload["oracles"]
        if "contradiction" in _statuses(oracles):
            return "an oracle reports a contradiction"
        if outcome.verdict == "subnormal" and not oracles["moment_interpolation"]["passed"]:
            return "moment interpolation did not pass on a subnormal verdict"
    return None


def check(op: dict, code: int, out: str, sweep_points: int) -> Outcome:
    """Check one op's exit code and report against its expectations."""
    outcome = Outcome()
    if code not in VERDICT_OF_CODE:
        outcome.problem = f"exit code {code}"
        return outcome
    try:
        outcome.problem = _problem(op, code, out, sweep_points, outcome)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        outcome.problem = f"unreadable report: {exc!r}"
    return outcome
