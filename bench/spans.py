"""Per-layer tracing from outside the program.

`Tracer.install` rebinds public functions of the dhsim modules to
wrappers that record spans (name, start, end, parent) or only count
calls. A function is rebound in every module that holds a reference to
it, since the modules import each other's functions by name. Self time
is a span's duration minus the durations of its direct children, so the
self times of all spans add up to the time of the operations that
enclose them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "engine", "pauli", "density", "relative", "uniqueness",
           "protocols", "oracle")

# Functions timed as spans, by module.
TIMED = {
    "cli": ("parse_circuit", "render_json"),
    "engine": ("evolve_circuit", "expectation"),
    "pauli": ("sum_mul",),
    "density": ("diagonal_probabilities", "expectation_table", "reconstruct_density"),
    "relative": ("relative_descriptor_pair", "conditional_restriction"),
    "uniqueness": ("density_symmetries", "generate_equivalent_sets", "validate_basis",
                   "construct_from_density"),
    "protocols": ("run_entanglement_swap", "dependency_trace"),
    "oracle": ("apply_circuit", "expectation_dense"),
}
# Functions only counted: their time stays in the enclosing span.
COUNTED = {"engine": ("apply_gate",), "oracle": ("gate_matrix",)}

OP = "cli.op"

# Per-layer metrics the traced run reports: (name, unit). Times and counts
# are per operation, except the peak, which is the largest over the run.
METRICS = (
    ("cli.op.total_s", "s"),
    ("cli.op.self_s", "s"),
    ("cli.parse_circuit.self_s", "s"),
    ("cli.render_json.self_s", "s"),
    ("engine.evolve_circuit.self_s", "s"),
    ("engine.apply_gate.calls", "count"),
    ("engine.expectation.self_s", "s"),
    ("engine.expectation.calls", "count"),
    ("pauli.sum_mul.self_s", "s"),
    ("pauli.sum_mul.calls", "count"),
    ("pauli.sum_mul.terms_out", "count"),
    ("pauli.sum_mul.peak_terms", "count"),
    ("density.diagonal_probabilities.self_s", "s"),
    ("density.expectation_table.self_s", "s"),
    ("density.reconstruct_density.self_s", "s"),
    ("relative.relative_descriptor_pair.self_s", "s"),
    ("relative.conditional_restriction.self_s", "s"),
    ("uniqueness.density_symmetries.self_s", "s"),
    ("uniqueness.generate_equivalent_sets.self_s", "s"),
    ("uniqueness.validate_basis.self_s", "s"),
    ("uniqueness.construct_from_density.self_s", "s"),
    ("protocols.run_entanglement_swap.self_s", "s"),
    ("protocols.dependency_trace.self_s", "s"),
    ("oracle.apply_circuit.self_s", "s"),
    ("oracle.gate_matrix.calls", "count"),
    ("oracle.gate_matrix.bytes", "count"),
    ("oracle.expectation_dense.self_s", "s"),
    ("oracle.expectation_dense.calls", "count"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peak_terms = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        ident = len(self.spans)
        self.spans.append(None)
        self.stack.append(ident)
        return ident, parent

    def _exit(self, ident: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[ident] = (name, start, end, parent)

    def op(self, fn, *args):
        """Run one operation inside a `cli.op` span."""
        ident, parent = self._enter()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(ident, parent, OP, start)

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            ident, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(ident, parent, name, start)
            if name == "pauli.sum_mul":
                terms = len(result)
                self.counts["pauli.sum_mul.terms_out"] += terms
                self.peak_terms = max(self.peak_terms, terms)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if name == "oracle.gate_matrix":
                n = args[1] if len(args) > 1 else kwargs["n"]
                self.counts["oracle.gate_matrix.bytes"] += 16 * 4 ** n
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package: str = "dhsim") -> None:
        modules = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers = {}
        for kinds, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for mod, names in kinds.items():
                module = importlib.import_module(f"{package}.{mod}")
                for fname in names:
                    original = getattr(module, fname)
                    wrappers[id(original)] = make(f"{mod}.{fname}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for ident, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[ident]
        return totals

    def op_total(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == OP)

    def metrics(self, ops: int) -> dict[str, dict]:
        values = {f"{name}.self_s": t / ops for name, t in self.self_times().items()}
        values.update({name: c / ops for name, c in self.counts.items()})
        values["cli.op.total_s"] = self.op_total() / ops
        values["pauli.sum_mul.peak_terms"] = self.peak_terms
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in METRICS}

    def write(self, path: Path) -> None:
        """Spans as tab-separated rows: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for ident, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{ident}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
