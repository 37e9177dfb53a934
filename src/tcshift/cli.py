"""Batch command-line interface: JSON instance files in, deterministic
reports out.

Commands: check (verdict only), reconstruct (verdict plus the joint
measure), flat (the scalar criterion for flat instances), verify (verdict
plus every brute-force oracle) and sweep (grid over one scalar parameter).
Exit codes: 0 subnormal, 1 not subnormal, 2 invalid instance, 3 parse
error.  Every failure after parsing, including a numeric one, exits 2 with
a message instead of a traceback.  Reports are byte-identical across runs;
wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from .errors import ParseError, TCShiftError, ValidationError
from .diagram import FlatInstance, TCInstance
from .measures import AtomicMeasure1D, AtomicMeasure2D, SignedMeasure1D
from .oracles import (
    hankel_psd,
    joint_hyponormality_compression,
    moment_interpolation_check,
    moment_matrix_2d,
    oracle_status,
)
from .reconstruct import Verdict, flat_verdict, subnormality_verdict

EXIT_SUBNORMAL = 0
EXIT_NOT_SUBNORMAL = 1
EXIT_INVALID = 2
EXIT_PARSE = 3

DEFAULT_CLI_TOL = 1e-10
DEFAULT_ORDER = 12
DEFAULT_WINDOW = 4

_TC_KEYS = ("xi_x", "eta_y", "xi", "eta")
_FLAT_SCALARS = ("p", "q", "l", "m", "b", "a")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _option(default: float, minimum: int, help_text: str):
    return field(default=default, metadata={"min": minimum, "help": help_text})


@dataclass(frozen=True)
class Options:
    """Numerical settings: the file's ``options`` object, overridden by the
    command-line flags of the same names.  The type of each default is the
    option's type; a value of another type is a parse error, a value below
    the minimum or not finite a validation error."""

    tol: float = _option(DEFAULT_CLI_TOL, 0, "positivity tolerance")
    order: int = _option(DEFAULT_ORDER, 0, "moment order for oracles")
    window: int = _option(DEFAULT_WINDOW, 1, "index window for oracles")

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            kind, minimum = type(spec.default), spec.metadata["min"]
            value = getattr(self, spec.name)
            _require(
                isinstance(value, (int, kind)) and not isinstance(value, bool),
                f"option {spec.name} must be {'a number' if kind is float else 'an integer'}",
            )
            value = kind(value)
            if not (math.isfinite(value) and value >= minimum):
                raise ValidationError(
                    f"option {spec.name} must be finite and at least {minimum}, got {value!r}"
                )
            object.__setattr__(self, spec.name, value)


@dataclass(frozen=True)
class ParsedFile:
    instance: TCInstance | FlatInstance
    options: Options


@dataclass
class Report:
    """Everything one command run produced; the fields are the JSON
    payload."""

    command: str
    kind: str
    verdict: str
    witness: dict[str, Any] | None
    diagnostics: dict[str, float]
    psi: list[list[float]] | None = None
    phi: list[list[float]] | None = None
    mu: list[list[float]] | None = None
    oracles: dict[str, Any] | None = None


def _parse_measure(obj: Any, name: str) -> AtomicMeasure1D:
    _require(isinstance(obj, dict), f"{name} must be an object with an 'atoms' array")
    atoms = obj.get("atoms")
    _require(isinstance(atoms, list), f"{name}.atoms must be an array")
    pairs = []
    for atom in atoms:
        _require(
            isinstance(atom, list)
            and len(atom) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in atom),
            f"{name}.atoms entries must be [location, mass] number pairs",
        )
        pairs.append((float(atom[0]), float(atom[1])))
    try:
        return AtomicMeasure1D(tuple(pairs))
    except (TCShiftError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _parse_scalar(obj: dict, key: str) -> float:
    _require(key in obj, f"missing required key {key!r}")
    value = obj[key]
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{key} must be a number",
    )
    return float(value)


def _parse_options(obj: Any) -> Options:
    if obj is None:
        return Options()
    _require(isinstance(obj, dict), "options must be an object")
    unknown = set(obj) - {spec.name for spec in dataclasses.fields(Options)}
    _require(not unknown, f"unknown options: {sorted(unknown)}")
    return Options(**obj)


def parse_instance(path: str) -> ParsedFile:
    """Read and validate an instance file.

    Structural problems raise ParseError (exit 3); files that parse but
    violate a model invariant raise ValidationError (exit 2) naming the
    invariant.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "instance file must be a JSON object")
    kind = data.get("kind")
    _require(kind in ("tc", "flat"), "kind must be 'tc' or 'flat'")
    options = _parse_options(data.get("options"))
    if kind == "tc":
        measures = {name: _parse_measure(data.get(name), name) for name in _TC_KEYS}
        a = _parse_scalar(data, "a")
        try:
            instance: TCInstance | FlatInstance = TCInstance(a=a, **measures)
        except (TCShiftError, ValueError) as exc:
            raise ValidationError(str(exc)) from exc
        return ParsedFile(instance, options)
    scalars = {key: _parse_scalar(data, key) for key in _FLAT_SCALARS}
    remainders: dict[str, AtomicMeasure1D | None] = {}
    for name in ("rho", "sigma"):
        value = data.get(name)
        remainders[name] = None if value is None else _parse_measure(value, name)
    try:
        instance = FlatInstance(**scalars, **remainders)
    except (TCShiftError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc
    return ParsedFile(instance, options)


def _atoms_1d(measure: SignedMeasure1D | AtomicMeasure1D) -> list[list[float]]:
    return [[loc, mass] for loc, mass in measure.atoms]


def _atoms_2d(measure: AtomicMeasure2D) -> list[list[float]]:
    return [[s, t, mass] for s, t, mass in measure.atoms]


def _verdict_name(verdict: Verdict) -> str:
    return "subnormal" if verdict.subnormal else "not-subnormal"


# Payloads are the field dicts of the result dataclasses, copied with
# vars(): their fields are scalars, and dataclasses.asdict costs ten times
# as much, once per sweep point.
def _witness_payload(verdict: Verdict) -> dict[str, Any] | None:
    if verdict.witness is None:
        return None
    return dict(vars(verdict.witness), reason=verdict.reason)


def _oracle_payloads(instance: TCInstance, verdict: Verdict, opts: Options) -> dict[str, Any]:
    def status(passed: bool) -> str:
        return oracle_status(verdict.subnormal, passed)

    oracles: dict[str, Any] = {}
    if verdict.subnormal:
        interp = moment_interpolation_check(instance, verdict.berger, opts.order)
        oracles["moment_interpolation"] = {
            "passed": interp.passed,
            "order": interp.order,
            "max_rel_error": interp.max_rel_error,
            "status": status(interp.passed),
        }
    n = opts.window
    for name, moments in (
        ("hankel_rows", instance.row_moments),
        ("hankel_columns", instance.column_moments),
    ):
        entries = []
        for index in range(n + 1):
            base, shifted = hankel_psd(moments(index, 2 * n + 2), n)
            passed = base.passed and shifted.passed
            entries.append(
                {
                    "index": index,
                    "passed": passed,
                    "min_eigenvalue": min(base.min_eigenvalue, shifted.min_eigenvalue),
                    "status": status(passed),
                }
            )
        oracles[name] = entries
    for name, psd in (
        ("moment_matrix", moment_matrix_2d(instance, max(1, opts.order // 2))),
        ("joint_hyponormality", joint_hyponormality_compression(instance, n)),
    ):
        oracles[name] = dict(vars(psd), status=status(psd.passed))
    return oracles


def _build_report(
    command: str,
    kind: str,
    verdict: Verdict,
    *,
    with_measures: bool,
    oracles: dict[str, Any] | None = None,
) -> Report:
    report = Report(
        command=command,
        kind=kind,
        verdict=_verdict_name(verdict),
        witness=_witness_payload(verdict),
        diagnostics=dict(vars(verdict.diagnostics)),
        oracles=oracles,
    )
    if with_measures:
        report.psi = _atoms_1d(verdict.psi)
        report.phi = _atoms_1d(verdict.phi)
        report.mu = _atoms_2d(verdict.berger) if verdict.berger is not None else None
    return report


def _fmt6(value: float) -> str:
    return f"{value:.6g}"


def _fmt_atoms(atoms: list[list[float]] | None) -> str:
    if atoms is None:
        return "none"
    return "[" + ", ".join("[" + ", ".join(_fmt6(v) for v in atom) + "]" for atom in atoms) + "]"


def render_text(report: Report) -> str:
    lines = [
        f"command: {report.command}",
        f"kind: {report.kind}",
        f"verdict: {report.verdict}",
    ]
    if report.witness is None:
        lines.append("witness: none")
    else:
        w = report.witness
        lines.append(
            f"witness: {w['measure']} @ {_fmt6(w['location'])} mass {_fmt6(w['mass'])}"
            f" ({w['reason']})"
        )
    for key, value in report.diagnostics.items():
        lines.append(f"{key}: {_fmt6(value)}")
    if report.psi is not None:
        lines.append(f"psi: {_fmt_atoms(report.psi)}")
    if report.phi is not None:
        lines.append(f"phi: {_fmt_atoms(report.phi)}")
    if report.command in ("reconstruct", "flat", "verify"):
        lines.append(f"mu: {_fmt_atoms(report.mu)}")
    if report.oracles is not None:
        for name, payload in sorted(report.oracles.items()):
            if isinstance(payload, list):
                for entry in payload:
                    lines.append(
                        f"oracle {name}[{entry['index']}]: "
                        f"{'pass' if entry['passed'] else 'fail'}"
                        f" min_eig={_fmt6(entry['min_eigenvalue'])}"
                        f" status={entry['status']}"
                    )
            else:
                detail = (
                    f" max_rel_error={_fmt6(payload['max_rel_error'])}"
                    if "max_rel_error" in payload
                    else f" min_eig={_fmt6(payload['min_eigenvalue'])}"
                )
                lines.append(
                    f"oracle {name}: {'pass' if payload['passed'] else 'fail'}"
                    f"{detail} status={payload['status']}"
                )
    return "\n".join(lines)


def render_json(report: Report) -> str:
    return json.dumps(vars(report), sort_keys=True)


def _as_tc(instance: TCInstance | FlatInstance) -> TCInstance:
    return instance.embed() if isinstance(instance, FlatInstance) else instance


def _execute(command: str, parsed: ParsedFile, opts: Options) -> tuple[Report, int]:
    instance = parsed.instance
    kind = "flat" if isinstance(instance, FlatInstance) else "tc"
    oracles = None
    if command == "flat":
        if not isinstance(instance, FlatInstance):
            raise ValidationError("the flat command requires a kind='flat' instance file")
        verdict = flat_verdict(instance, opts.tol)
    else:
        tc = _as_tc(instance)
        verdict = subnormality_verdict(tc, opts.tol)
        if command == "verify":
            oracles = _oracle_payloads(tc, verdict, opts)
    report = _build_report(
        command, kind, verdict, with_measures=command != "check", oracles=oracles
    )
    return report, EXIT_SUBNORMAL if verdict.subnormal else EXIT_NOT_SUBNORMAL


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    _require(len(parts) == 3, "range must be lo:hi:step")
    try:
        lo, hi, step = (float(part) for part in parts)
    except ValueError as exc:
        raise ParseError(f"range must be numeric lo:hi:step, got {text!r}") from exc
    _require(step > 0.0, "range step must be positive")
    _require(hi >= lo, "range upper bound must not be below the lower bound")
    return lo, hi, step


def _grid(lo: float, hi: float, step: float) -> list[float]:
    values = []
    index = 0
    while True:
        value = lo + index * step
        if value > hi + 1e-9 * step:
            break
        values.append(value)
        index += 1
    return values


def _validate_sweep_param(instance, param: str) -> None:
    if isinstance(instance, TCInstance):
        if param != "a":
            raise ValidationError("tc instances sweep over the parameter 'a' only")
    elif param not in _FLAT_SCALARS:
        raise ValidationError(
            f"flat instances sweep over one of {', '.join(_FLAT_SCALARS)}"
        )


def _run_sweep(parsed: ParsedFile, args, opts: Options, out) -> int:
    _validate_sweep_param(parsed.instance, args.param)
    lo, hi, step = _parse_range(args.range)
    for value in _grid(lo, hi, step):
        try:
            candidate = dataclasses.replace(parsed.instance, **{args.param: value})
            verdict = subnormality_verdict(_as_tc(candidate), opts.tol)
        except (TCShiftError, ValueError) as exc:
            if args.json:
                line = json.dumps(
                    {"param": args.param, "value": value, "error": str(exc)},
                    sort_keys=True,
                )
            else:
                line = f"{args.param}={_fmt6(value)} invalid: {exc}"
            print(line, file=out)
            continue
        if args.json:
            payload: dict[str, Any] = {
                "param": args.param,
                "value": value,
                "verdict": _verdict_name(verdict),
                "witness": _witness_payload(verdict),
            }
            line = json.dumps(payload, sort_keys=True)
        else:
            line = f"{args.param}={_fmt6(value)} {_verdict_name(verdict)}"
            if verdict.witness is not None:
                w = verdict.witness
                line += f" witness={w.measure}@{_fmt6(w.location)} mass={_fmt6(w.mass)}"
        print(line, file=out)
    return EXIT_SUBNORMAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcshift",
        description="Subnormality and Berger-measure reconstruction for "
        "2-variable weighted shifts with a tensor-form core.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "decide subnormality, report the verdict only"),
        ("reconstruct", "decide subnormality and reconstruct the joint measure"),
        ("flat", "decide a flat instance via the scalar criterion"),
        ("verify", "decide subnormality and run every brute-force oracle"),
        ("sweep", "re-evaluate the verdict over a grid of one parameter"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("path", help="JSON instance file")
        for spec in dataclasses.fields(Options):
            cmd.add_argument(
                f"--{spec.name}", type=type(spec.default), help=spec.metadata["help"]
            )
        mode = cmd.add_mutually_exclusive_group()
        mode.add_argument("--json", action="store_true", help="JSON report")
        mode.add_argument("--text", action="store_true", help="text report (default)")
        if name == "sweep":
            cmd.add_argument("--param", required=True, help="scalar parameter to vary")
            cmd.add_argument("--range", required=True, help="grid as lo:hi:step")
    return parser


def _resolve_options(args, file_options: Options) -> Options:
    flags = {spec.name: getattr(args, spec.name) for spec in dataclasses.fields(Options)}
    return dataclasses.replace(
        file_options, **{name: value for name, value in flags.items() if value is not None}
    )


def run(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    """Entry point; returns the exit code and prints the report to ``out``."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        parsed = parse_instance(args.path)
        opts = _resolve_options(args, parsed.options)
        if args.command == "sweep":
            code = _run_sweep(parsed, args, opts, out)
        else:
            report, code = _execute(args.command, parsed, opts)
            print(render_json(report) if args.json else render_text(report), file=out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_PARSE
    except (TCShiftError, ArithmeticError) as exc:
        print(f"invalid instance: {exc}", file=err)
        return EXIT_INVALID
    print(f"elapsed: {time.perf_counter() - started:.6f}s", file=err)
    return code


def main() -> None:
    raise SystemExit(run())
