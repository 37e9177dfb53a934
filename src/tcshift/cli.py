"""Batch command-line interface: JSON instance files in, deterministic
reports out.

Commands: check (verdict only), reconstruct (verdict plus the joint
measure), flat (reconstruct's report of a flat file, whose verdict the
scalar criterion must confirm), verify (verdict plus every brute-force
oracle) and sweep (grid over one scalar parameter).
Exit codes: 0 subnormal, 1 not subnormal, 2 invalid instance or a
refused command line, 3 parse error, 4 internal error.  Every failure after
parsing, including a numeric one, exits 2 with a message instead of a
traceback; an exception that the program does not expect (such as a
MemoryError) exits 4 with one ``internal error:`` line, never 1, which
would read as a verdict.  Reports are byte-identical across runs;
wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
import signal
import sys
import time
from typing import Any, Callable, Iterator, NamedTuple, NoReturn, Sequence

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
EXIT_INTERNAL = 4

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


#: (name, help) of each command; each reads one instance file.
COMMANDS = (
    ("check", "decide subnormality, report the verdict only"),
    ("reconstruct", "decide subnormality and reconstruct the joint measure"),
    ("flat", "decide a flat instance via the scalar criterion"),
    ("verify", "decide subnormality and run every brute-force oracle"),
    ("sweep", "re-evaluate the verdict over a grid of one parameter"),
)
#: (name, help) of the two report modes, of which at most one is given.
MODES = (("json", "JSON report"), ("text", "text report (default)"))
#: (name, help) of the flags that sweep requires and no other command takes.
SWEEP_FLAGS = (("param", "scalar parameter to vary"), ("range", "grid as lo:hi:step"))
_HELP = {"-h": ("help", None), "--help": ("help", None)}
# argparse's pattern of a negative number, which is a value and not a flag
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


class Args(NamedTuple):
    """A parsed command line: each flag that is not given is None, and
    ``json`` False."""

    command: str
    path: str
    json: bool = False
    param: str | None = None
    range: str | None = None
    tol: float | None = None
    order: int | None = None
    window: int | None = None


def _split_flag(arg: str, flags: dict) -> tuple[str, str | None] | None:
    """(flag, the value after its ``=`` or None) when ``arg`` reads as a
    flag, known or not, as argparse reads it; None when it is a value.  A
    known flag's abbreviation is a whole unknown flag, and ``-h`` with more
    letters after it is ``-h`` with those letters as its value."""
    if arg in flags:
        return arg, None
    if arg[:1] != "-" or arg == "-":
        return None
    name, equals, value = arg.partition("=")
    if equals and name in flags:
        return name, value
    if arg[1] == "h":
        return "-h", arg[2:]
    if arg[1] == "-" and any(flag.startswith(name) for flag in flags):
        return arg, None
    if " " in arg or re.match(_NEGATIVE, arg):
        return None
    return arg, None


class Parser:
    """The command line of ``tcshift``: a command, its instance file and its
    flags, read from the tables above as argparse read them.  Flags may
    come before or after the path, as ``--flag value`` or ``--flag=value``;
    the last of a repeated flag wins, and after ``--`` every argument is a
    value.  An abbreviated flag is unknown.  A refused command line prints
    the usage and the reason to stderr and exits 2; ``-h`` or ``--help``
    prints the help to stdout and exits 0."""

    def __init__(self) -> None:
        common = {f"--{name}": (name, type(default)) for name, default, *_ in OPTIONS}
        common.update((f"--{name}", (name, None)) for name, _ in MODES)
        common.update(_HELP)
        sweep = {f"--{name}": (name, str) for name, _ in SWEEP_FLAGS}
        self.flags = {
            name: {**common, **sweep} if name == "sweep" else common for name, _ in COMMANDS
        }

    def parse_args(self, argv: Sequence[str] | None = None) -> Args:
        argv = sys.argv[1:] if argv is None else list(argv)
        extras: list[str] = []
        # before the command only the help flags are known
        for index, arg in enumerate(argv):
            flag = None if arg == "--" else _split_flag(arg, _HELP)
            if flag is None:
                break
            if flag[0] in _HELP:
                _read_help(None, *flag)
            extras.append(arg)
        else:
            _fail(None, "the following arguments are required: command")
        command, rest = arg, argv[index + 1 :]
        if command not in self.flags:
            choices = ", ".join(repr(name) for name, _ in COMMANDS)
            _fail(None, f"invalid choice: {command!r} (choose from {choices})")
        flags = self.flags[command]
        head, dashes, tail = rest, False, []
        if "--" in rest:
            split = rest.index("--")
            head, dashes, tail = rest[:split], True, rest[split + 1 :]
        values: dict[str, Any] = {}
        positionals: list[str] = []
        mode = last_was_path = None
        tokens = iter(head)
        for arg in tokens:
            flag = _split_flag(arg, flags)
            last_was_path = flag is None and not positionals
            if flag is None:
                positionals.append(arg)
                continue
            name, value = flag
            field, kind = flags.get(name, (None, None))
            if field is None:
                extras.append(arg)
            elif field == "help":
                _read_help(command, name, value)
            elif kind is None:
                if value is not None:
                    _fail(command, f"argument {name}: ignored explicit argument {value!r}")
                if mode not in (None, field):
                    _fail(command, f"argument {name}: not allowed with argument --{mode}")
                mode = field
            else:
                if value is None:
                    value = next(tokens, None)
                    if value is None or _split_flag(value, flags) is not None:
                        _fail(command, f"argument {name}: expected one argument")
                try:
                    values[field] = kind(value)
                except ValueError:
                    _fail(
                        command, f"argument {name}: invalid {kind.__name__} value: {value!r}"
                    )
        # argparse drops the first ``--`` only next to the path
        if dashes and positionals and not last_was_path:
            extras.append("--")
        positionals += tail
        given = {"path": bool(positionals)}
        if command == "sweep":
            given.update((f"--{name}", name in values) for name, _ in SWEEP_FLAGS)
        missing = [name for name, present in given.items() if not present]
        if missing:
            _fail(command, f"the following arguments are required: {', '.join(missing)}")
        if extras or positionals[1:]:
            _fail(None, f"unrecognized arguments: {' '.join(extras + positionals[1:])}")
        return Args(command, positionals[0], mode == "json", **values)


def _read_help(command: str | None, name: str, value: str | None) -> NoReturn:
    """``-h``, ``--help`` or ``-hh...`` print the help and exit 0; a help
    flag with any other value is refused."""
    if value is None or (name == "-h" and value and not value.strip("h")):
        print(f"{_usage(command)}\n\n{_help_text()}")
        raise SystemExit(0)
    _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")


def _fail(command: str | None, message: str) -> NoReturn:
    print(f"{_usage(command)}\ntcshift: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _usage(command: str | None) -> str:
    names = command or "{" + ",".join(name for name, _ in COMMANDS) + "}"
    flags = "".join(f" [--{name} {name.upper()}]" for name, *_ in OPTIONS) + " [--json | --text]"
    if command == "sweep":
        flags += "".join(f" --{name} {name.upper()}" for name, _ in SWEEP_FLAGS)
    return f"usage: tcshift {names} path{flags}"


def _help_text() -> str:
    rows = [("commands:", None), *COMMANDS, ("", None), ("arguments:", None)]
    rows.append(("path", "JSON instance file"))
    rows += [(f"--{name} {name.upper()}", text) for name, _, _, text in OPTIONS]
    rows += [(f"--{name}", text) for name, text in MODES]
    rows += [(f"--{name} {name.upper()}", f"{text} (sweep only)") for name, text in SWEEP_FLAGS]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, text in rows if text)
    lines = [left if text is None else f"  {left:<{width}}  {text}" for left, text in rows]
    return (
        "Subnormality and Berger-measure reconstruction for 2-variable weighted\n"
        "shifts with a tensor-form core.\n\n" + "\n".join(lines)
    )


@functools.cache
def build_parser() -> Parser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    return Parser()


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
    try:
        code = run()
    except Exception as exc:  # KeyboardInterrupt and SystemExit pass through
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = EXIT_INTERNAL
    raise SystemExit(code)
