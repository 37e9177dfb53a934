"""Batch command-line interface: JSON instance files in, deterministic
reports out.

Commands: check (verdict only), reconstruct (verdict plus the joint
measure), flat (reconstruct's report of a flat file, whose verdict the
scalar criterion must confirm), verify (verdict plus every brute-force
oracle) and sweep (grid over one scalar parameter).
Exit codes: 0 subnormal, 1 not subnormal, 2 invalid instance, 3 parse
error.  Every failure after parsing, including a numeric one, exits 2 with
a message instead of a traceback.  Reports are byte-identical across runs;
wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import signal
import sys
import time
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .errors import ParseError, TCShiftError, ValidationError
from .diagram import FlatInstance, TCInstance
from .measures import AtomicMeasure1D, Frozen, to_float
from .oracles import (
    hankel_psd,
    joint_hyponormality_compression,
    moment_interpolation_check,
    moment_matrix_2d,
    oracle_status,
)
from .reconstruct import (
    BergerMeasure,
    Verdict,
    berger_measure,
    compute_phi,
    flat_verdict,
    subnormality_verdict,
)

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


#: (name, default, minimum, help) of each option; the type of the default
#: is the option's type.
OPTIONS = (
    ("tol", DEFAULT_CLI_TOL, 0, "positivity tolerance"),
    ("order", DEFAULT_ORDER, 0, "moment order for oracles"),
    ("window", DEFAULT_WINDOW, 1, "index window for oracles"),
)


class Options(Frozen):
    """Numerical settings: the file's ``options`` object, overridden by the
    command-line flags of the same names.  An unknown name or a value of
    another type than the default's is a parse error, a value below the
    minimum or not finite a validation error."""

    _fields = tuple(name for name, *_ in OPTIONS)

    def __init__(self, /, **values: float) -> None:
        unknown = set(values) - set(self._fields)
        _require(not unknown, f"unknown options: {sorted(unknown)}")
        for name, default, minimum, _ in OPTIONS:
            kind, value = type(default), values.get(name, default)
            _require(
                isinstance(value, (int, kind)) and not isinstance(value, bool),
                f"option {name} must be {'a number' if kind is float else 'an integer'}",
            )
            finite = math.isfinite(to_float(value, f"option {name}"))
            value = kind(value)
            if not (finite and value >= minimum):
                raise ValidationError(
                    f"option {name} must be finite and at least {minimum}, got {value!r}"
                )
            vars(self)[name] = value


class ParsedFile(NamedTuple):
    instance: TCInstance | FlatInstance
    options: Options


def _parse_measure(obj: Any, name: str) -> AtomicMeasure1D:
    """The measure of ``{"atoms": [[location, mass], ...]}``.  The whole
    list's shape is checked first (pairs of JSON numbers, no ``bool``); the
    constructor then converts each number once, naming the first bad value
    in file order (an inf, a NaN or an int too large for a float)."""
    _require(isinstance(obj, dict), f"{name} must be an object with an 'atoms' array")
    atoms = obj.get("atoms")
    _require(isinstance(atoms, list), f"{name}.atoms must be an array")
    _require(
        set(map(type, atoms)) <= {list}
        and set(map(len, atoms)) <= {2}
        and set(map(type, itertools.chain.from_iterable(atoms))) <= {int, float},
        f"{name}.atoms entries must be [location, mass] number pairs",
    )
    try:
        return AtomicMeasure1D(atoms)
    except (TCShiftError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _parse_scalar(obj: dict, key: str) -> float:
    _require(key in obj, f"missing required key {key!r}")
    value = obj[key]
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{key} must be a number",
    )
    return to_float(value, key)


def _parse_options(obj: Any) -> Options:
    if obj is None:
        return Options()
    _require(isinstance(obj, dict), "options must be an object")
    return Options(**obj)


def parse_instance(path: str) -> ParsedFile:
    """Read and validate an instance file.

    Structural problems raise ParseError (exit 3); files that parse but
    violate a model invariant raise ValidationError (exit 2) naming the
    invariant, or NonFinite for a scalar or option too large for a float.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
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


def _verdict_name(subnormal: bool) -> str:
    return "subnormal" if subnormal else "not-subnormal"


# Payloads are the field dicts of the result records, from _asdict(): their
# fields are scalars, so a shallow copy is all that is needed.
def _witness_payload(verdict: Verdict) -> dict[str, Any] | None:
    witness = verdict.witness
    if witness is None:
        return None
    return dict(witness._asdict(), reason=f"{witness.measure} has a negative atom")


def _oracle_payloads(
    instance: TCInstance, verdict: Verdict, mu: BergerMeasure | None, opts: Options
) -> dict[str, Any]:
    def status(passed: bool) -> str:
        return oracle_status(verdict.subnormal, passed)

    n, m = opts.window, max(1, opts.order // 2)
    # the tables only as deep as the oracles read: weights to order - 1 for
    # the interpolation's moments, 2m - 1 for the moment matrix's, 2n + 1
    # for the Hankel matrices' (core moments (2n + 1, k)) and n for the
    # compression; a read past the depth is refused
    instance = instance.with_depth(max(opts.order - 1, 2 * m - 1, 2 * n + 1))
    oracles: dict[str, Any] = {}
    if mu is not None:
        interp = moment_interpolation_check(instance, mu, opts.order)
        oracles["moment_interpolation"] = {
            "passed": interp.passed,
            "order": interp.order,
            "max_rel_error": interp.max_rel_error,
            "status": status(interp.passed),
        }
    lines = (("row", instance.row_moments), ("column", instance.column_moments))
    # every row and column pair in one stack: base, shifted, base, ...
    reports = iter(
        hankel_psd(
            (
                (f"{line} {index}", moments(index, 2 * n + 2))
                for line, moments in lines
                for index in range(n + 1)
            ),
            n,
        )
    )
    for name in ("hankel_rows", "hankel_columns"):
        entries = []
        # zip draws the index first, so each name takes its own n + 1 pairs
        for index, base, shifted in zip(range(n + 1), reports, reports):
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
        ("moment_matrix", moment_matrix_2d(instance, m)),
        ("joint_hyponormality", joint_hyponormality_compression(instance, n)),
    ):
        oracles[name] = dict(psd._asdict(), status=status(psd.passed))
    return oracles


def _fmt6(value: float) -> str:
    return f"{value:.6g}"


def _fmt_atoms(atoms: tuple | None) -> str:
    if atoms is None:
        return "none"
    return "[" + ", ".join("[" + ", ".join(_fmt6(v) for v in atom) + "]" for atom in atoms) + "]"


def render_text(report: dict[str, Any]) -> str:
    lines = [f"{key}: {report[key]}" for key in ("command", "kind", "verdict")]
    w = report["witness"]
    lines.append(
        "witness: none"
        if w is None
        else f"witness: {w['measure']} @ {_fmt6(w['location'])} mass {_fmt6(w['mass'])}"
        f" ({w['reason']})"
    )
    lines += [f"{key}: {_fmt6(value)}" for key, value in report["diagnostics"].items()]
    if report["psi"] is not None:
        atoms = {**report, "mu": None if report["mu"] is None else report["mu"].joined().atoms}
        lines += [f"{key}: {_fmt_atoms(atoms[key])}" for key in ("psi", "phi", "mu")]
    for name, payload in sorted((report["oracles"] or {}).items()):
        for entry in payload if isinstance(payload, list) else [payload]:
            label = f"{name}[{entry['index']}]" if "index" in entry else name
            detail = (
                f"max_rel_error={_fmt6(entry['max_rel_error'])}"
                if "max_rel_error" in entry
                else f"min_eig={_fmt6(entry['min_eigenvalue'])}"
            )
            lines.append(
                f"oracle {label}: {'pass' if entry['passed'] else 'fail'}"
                f" {detail} status={entry['status']}"
            )
    return "\n".join(lines)


def _mu_pieces(mu: BergerMeasure) -> list[str]:
    """Pieces of text that join to exactly ``json.dumps(mu.joined().atoms)``.

    json writes a finite float with ``float.__repr__``, and the masses of
    the pieces are finite, as ``berger_measure`` checks them, so each row of
    ``mu.rows`` is one string: its ``[s, `` once, then each t's text with
    the ``, `` after it and the mass's repr.  The t texts of a row of more
    than one atom are kept for the rows that follow with the same tuple of
    locations: the tensor part of mu has n^2 atoms in n rows that share n
    locations of t, and phi's rows of one atom may stand between them.
    """
    rows = []
    ts_written, t_texts = None, []
    for s, ts, masses in mu.rows:
        texts = t_texts if ts is ts_written else [f"{t!r}, " for t in ts]
        if len(ts) > 1:
            ts_written, t_texts = ts, texts
        head = f"[{s!r}, "
        atoms = ("], " + head).join(map(operator.add, texts, map(repr, masses)))
        rows.append(f"{head}{atoms}]")
    return ["[", ", ".join(rows), "]"]


def render_json(report: dict[str, Any]) -> str:
    """``json.dumps(report, sort_keys=True)`` of the report with mu's joined
    atoms, mu written from its pieces by ``_mu_pieces`` into the place of
    the ``"mu": null`` that the dump of the report without them holds.  With
    sorted keys, that is its first one."""
    head, tail = json.dumps({**report, "mu": None}, sort_keys=True).split('"mu": null', 1)
    mu = report["mu"]
    return "".join([head, '"mu": ', *(["null"] if mu is None else _mu_pieces(mu)), tail])


def _execute(command: str, parsed: ParsedFile, opts: Options) -> tuple[dict[str, Any], int]:
    instance = parsed.instance
    flat = isinstance(instance, FlatInstance)
    if command == "flat" and not flat:
        raise ValidationError("the flat command requires a kind='flat' instance file")
    tc = instance.embed() if flat else instance
    verdict = subnormality_verdict(tc, opts.tol)
    if command == "flat":
        # the scalar criterion must confirm the general verdict
        scalar = flat_verdict(instance, opts.tol) is None
        if scalar != verdict.subnormal:
            raise ValidationError(
                f"the scalar criterion says {_verdict_name(scalar)} but the general"
                f" criterion says {_verdict_name(verdict.subnormal)}"
            )
    # check prints no measure; the others print phi, which a verdict
    # decided by psi has not built
    measures = command != "check"
    phi = verdict.phi
    if measures and phi is None:
        phi = compute_phi(tc, verdict.diagnostics.recip_t_psi)
    mu = None
    if verdict.subnormal and measures:
        mu = berger_measure(tc, opts.tol, psi=verdict.psi, phi=phi)
    report = {
        "command": command,
        "kind": "flat" if flat else "tc",
        "verdict": _verdict_name(verdict.subnormal),
        "witness": _witness_payload(verdict),
        "diagnostics": verdict.diagnostics._asdict(),
        "psi": verdict.psi.atoms if measures else None,
        "phi": phi.atoms if measures else None,
        "mu": mu,
        "oracles": _oracle_payloads(tc, verdict, mu, opts) if command == "verify" else None,
    }
    return report, EXIT_SUBNORMAL if verdict.subnormal else EXIT_NOT_SUBNORMAL


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    _require(len(parts) == 3, "range must be lo:hi:step")
    try:
        lo, hi, step = (float(part) for part in parts)
    except ValueError as exc:
        raise ParseError(f"range must be numeric lo:hi:step, got {text!r}") from exc
    _require(
        all(map(math.isfinite, (lo, hi, step))), f"range must be finite, got {text!r}"
    )
    _require(step > 0.0, "range step must be positive")
    _require(hi >= lo, "range upper bound must not be below the lower bound")
    largest = max(abs(lo), abs(hi))
    _require(
        largest + step != largest,
        f"range step {step!r} is below the float spacing at {largest!r}",
    )
    return lo, hi, step


def _grid(lo: float, hi: float, step: float) -> Iterator[float]:
    """The grid points in order, made one at a time: a range may hold more
    points than fit in memory, and each is printed as it is decided."""
    for index in itertools.count():
        value = lo + index * step
        # near the largest float the bound itself can round up to inf
        if value > hi + 1e-9 * step or math.isinf(value):
            return
        yield value


def _validate_sweep_param(instance, param: str) -> None:
    if isinstance(instance, TCInstance):
        if param != "a":
            raise ValidationError("tc instances sweep over the parameter 'a' only")
    elif param not in _FLAT_SCALARS:
        raise ValidationError(
            f"flat instances sweep over one of {', '.join(_FLAT_SCALARS)}"
        )


def _point_text(param: str, value: float, outcome: Verdict | str) -> str:
    """A sweep point's text line; ``outcome`` is its verdict, or the
    message of the error that made the point invalid."""
    head = f"{param}={_fmt6(value)}"
    if isinstance(outcome, str):
        return f"{head} invalid: {outcome}"
    w = outcome.witness
    if w is None:
        return f"{head} {_verdict_name(outcome.subnormal)}"
    return (
        f"{head} {_verdict_name(outcome.subnormal)}"
        f" witness={w.measure}@{_fmt6(w.location)} mass={_fmt6(w.mass)}"
    )


def _json_points(param: str) -> Callable[[float, Verdict | str], str]:
    """The writer of a sweep's ``--json`` lines over ``param``: each is
    ``json.dumps(point, sort_keys=True)`` of the point's dict.

    A decided point's line is written from its fields in sorted-key order,
    as ``_mu_pieces`` writes mu: the param is quoted once per sweep, and
    json writes a finite float with ``float.__repr__``.  The grid never
    yields inf, and a witness atom is finite by construction.  The verdict,
    the measure and the reason are fixed ASCII strings.  An error point's
    message may need escaping, so its line is the dump itself.
    """
    quoted = json.dumps(param)

    def line(value: float, outcome: Verdict | str) -> str:
        if isinstance(outcome, str):
            return json.dumps({"param": param, "value": value, "error": outcome}, sort_keys=True)
        verdict = _verdict_name(outcome.subnormal)
        head = f'{{"param": {quoted}, "value": {value!r}, "verdict": "{verdict}"'
        w = outcome.witness
        if w is None:
            return f'{head}, "witness": null}}'
        return (
            f'{head}, "witness": {{"location": {w.location!r}, "mass": {w.mass!r},'
            f' "measure": "{w.measure}", "reason": "{w.measure} has a negative atom"}}}}'
        )

    return line


def _run_sweep(parsed: ParsedFile, args, opts: Options, out) -> int:
    _validate_sweep_param(parsed.instance, args.param)
    lo, hi, step = _parse_range(args.range)
    instance = parsed.instance
    write = _json_points(args.param) if args.json else functools.partial(_point_text, args.param)
    for value in _grid(lo, hi, step):
        try:
            # each tc point is built from the last, so it reads the parts
            # that do not depend on a as plain attributes
            if isinstance(instance, TCInstance):
                instance = candidate = instance.with_a(value)
            else:
                candidate = instance._replace(**{args.param: value}).embed()
            outcome: Verdict | str = subnormality_verdict(candidate, opts.tol)
        except (TCShiftError, ValueError, ArithmeticError) as exc:
            outcome = str(exc)
        out.write(write(value, outcome) + "\n")
    return EXIT_SUBNORMAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
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
        for option, default, _, option_help in OPTIONS:
            cmd.add_argument(f"--{option}", type=type(default), help=option_help)
        mode = cmd.add_mutually_exclusive_group()
        mode.add_argument("--json", action="store_true", help="JSON report")
        mode.add_argument("--text", action="store_true", help="text report (default)")
        if name == "sweep":
            cmd.add_argument("--param", required=True, help="scalar parameter to vary")
            cmd.add_argument("--range", required=True, help="grid as lo:hi:step")
    return parser


def _resolve_options(args, file_options: Options) -> Options:
    """The file's options with the flags that are set in their place; the
    file's own, already checked, when no flag is set."""
    flags = {name: getattr(args, name) for name, *_ in OPTIONS}
    flags = {name: value for name, value in flags.items() if value is not None}
    return file_options._replace(**flags) if flags else file_options


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
    # A reader that closes the pipe early (``| head``) ends the process
    # quietly, as it does any other command-line filter.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run())
