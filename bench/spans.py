"""Spans around the calls into each layer's public functions.

The tracer wraps functions from outside the package: every name is
patched in each ``tcshift`` namespace that binds it, because
``from .x import y`` copies the binding at import time and a caller looks
the name up in its own module.  Spans (name, start, end, parent) stay in
memory for the op that made them; self times are computed when the op
ends, so the only cost inside an op is the wrappers themselves.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Timed layers of the in-process workloads and the workload on which each
#: must record calls (the hook self-check).
LAYERS = {
    "cli.build_parser": "decide",
    "cli.parse_instance": "decide",
    "cli.render_text": "decide",
    "cli.render_json": "decide",
    "reconstruct.berger_measure": "decide",
    "measures.product": "decide",
    "reconstruct.flat_verdict": "decide",
    "reconstruct.subnormality_verdict": "sweep",
    "reconstruct.compute_psi": "sweep",
    "reconstruct.compute_phi": "sweep",
    "measures.combine": "sweep",
    "measures.positivity": "sweep",
    "diagram.TCInstance.row_moments": "verify",
    "diagram.TCInstance.column_moments": "verify",
    "shifts.weights_from_measure": "verify",
    "oracles.moment_interpolation_check": "verify",
    "oracles.hankel_psd": "verify",
    "oracles.moment_matrix_2d": "verify",
    "oracles.joint_hyponormality_compression": "verify",
}

#: The gamma function is hot, so it is counted but not timed.
COUNTED = {"diagram.TCInstance.moment": "verify"}

#: Import layers, read from ``-X importtime`` in the cold workload.
IMPORTS = {"import.tcshift": "cold", "import.numpy": "cold"}

ROOT_SPAN = "op"


class TraceError(RuntimeError):
    """The spans of an op are inconsistent, or a hook was never called."""


def _resolve(layer: str):
    """(module, owner, attribute) for a layer name such as
    ``diagram.TCInstance.moment``."""
    module_name, *path = layer.split(".")
    module = sys.modules["tcshift." + module_name]
    owner = module
    for part in path[:-1]:
        owner = getattr(owner, part)
    return module, owner, path[-1]


class Tracer:
    """Wraps the layers, records spans per op and aggregates them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.unspanned_ns = 0
        self.op_ns = 0
        self.ops = 0
        self.moment_pairs: set = set()
        self.distinct_pairs = 0
        self.product_atoms = 0
        self._restore: list[tuple[object, str, object]] = []

    # Hooks.

    def _timed(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            record = [name, time.perf_counter_ns(), None, tracer.stack[-1] if tracer.stack else None]
            tracer.spans.append(record)
            tracer.stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                record[2] = time.perf_counter_ns()
                tracer.stack.pop()

        return wrapper

    def _product(self, fn):
        tracer = self

        @functools.wraps(fn)
        def product(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.product_atoms += len(result.atoms)
            return result

        return product

    def _moment(self, fn):
        tracer = self

        @functools.wraps(fn)
        def moment(instance, k1, k2):
            tracer.calls["diagram.TCInstance.moment"] += 1
            tracer.moment_pairs.add((id(instance), k1, k2))
            try:
                return fn(instance, k1, k2)
            except BaseException:
                tracer.errors["diagram.TCInstance.moment"] += 1
                raise

        return moment

    def _patch(self, layer: str, wrap) -> None:
        module, owner, attr = _resolve(layer)
        original = getattr(owner, attr)
        wrapper = wrap(original)
        if owner is not module:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, namespace in list(sys.modules.items()):
            if name.split(".")[0] != "tcshift" or namespace is None:
                continue
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    setattr(namespace, key, wrapper)

    def install(self) -> None:
        for layer in LAYERS:
            if layer == "measures.product":
                self._patch(layer, lambda fn: self._timed("measures.product", self._product(fn)))
            else:
                self._patch(layer, functools.partial(self._timed, layer))
        self._patch("diagram.TCInstance.moment", self._moment)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # Per-op bookkeeping.

    def run_op(self, call):
        """Run ``call`` as one op under a root span and fold its spans
        into the totals.  Returns what ``call`` returns."""
        self.spans.clear()
        self.moment_pairs.clear()
        wrapped = self._timed(ROOT_SPAN, call)
        try:
            return wrapped()
        finally:
            self._fold()

    def _fold(self) -> None:
        if self.stack:
            raise TraceError(f"spans left open after the op: {self.stack}")
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is None or end < start:
                raise TraceError(f"span {name} has no valid end")
            if parent is not None:
                child_ns[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child_ns[index]
            if own < 0:
                raise TraceError(f"children of span {name} outlast it by {-own} ns")
            if parent is None:
                if name != ROOT_SPAN or index != 0:
                    raise TraceError(f"span {name} is not inside the op")
                self.op_ns += end - start
                self.unspanned_ns += own
            else:
                self.calls[name] += 1
                self.self_ns[name] += own
        self.ops += 1
        self.distinct_pairs += len(self.moment_pairs)

    def check_hooks(self, workload: str) -> None:
        """Fail loudly when a layer that the workload must reach recorded
        no call (a name patched in the wrong namespace), or when the self
        times and the unspanned remainder do not add up to op wall time."""
        homes = {**LAYERS, **COUNTED}
        silent = [layer for layer, home in homes.items() if home == workload and not self.calls[layer]]
        if silent:
            raise TraceError(f"no calls recorded on {workload} for {', '.join(silent)}")
        if sum(self.self_ns.values()) + self.unspanned_ns != self.op_ns:
            raise TraceError("layer self times plus the remainder differ from op wall time")

    def layer_metrics(self, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); ``scale`` converts
        measured to speed-rescaled time."""
        ops = max(self.ops, 1)
        wall = max(self.op_ns, 1)
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (self.calls[layer] / ops, "count/op")
            metrics[f"{layer}.self_ms_per_op"] = (self.self_ns[layer] * scale / ops / 1e6, "ms")
            metrics[f"{layer}.share"] = (self.self_ns[layer] / wall, "ratio")
            metrics[f"{layer}.errors"] = (self.errors[layer], "count")
        moment = "diagram.TCInstance.moment"
        metrics[f"{moment}.calls"] = (self.calls[moment] / ops, "count/op")
        metrics[f"{moment}.errors"] = (self.errors[moment], "count")
        metrics[f"{moment}.calls_per_distinct"] = (
            self.calls[moment] / self.distinct_pairs if self.distinct_pairs else 0.0,
            "ratio",
        )
        metrics["measures.product.atoms_out"] = (self.product_atoms / ops, "count/op")
        metrics["trace.unspanned_share"] = (self.unspanned_ns / wall, "ratio")
        return metrics


def import_times(stderr: str) -> tuple[int, int]:
    """Self microseconds of importing tcshift (numpy excluded) and of
    importing numpy, read from ``python -X importtime`` output.

    Each line reads ``import time: self | cumulative | <indent>name``;
    children are printed before their parent, one indent level deeper.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(fields[1])))
    tcshift_us = numpy_us = numpy_inside_us = 0
    pending_numpy = 0
    for depth, name, cumulative in rows:
        if name == "numpy":
            numpy_us += cumulative
            pending_numpy += cumulative
        if depth == 0:
            if name == "tcshift" or name.startswith("tcshift."):
                tcshift_us += cumulative
                numpy_inside_us += pending_numpy
            pending_numpy = 0
    return tcshift_us - numpy_inside_us, numpy_us
