"""Command-line front end: parse circuit files, run the engines, emit
JSON or text reports, and cross-check reported numbers against the dense
oracle.

Circuit files are line oriented and case insensitive, with 1-based qubit
labels::

    qubits 2      # register size, first
    h 1
    cnot 1 2
    bell 3 2      # rotation of the pair to Bell labels, control first
    ancilla       # allocate one fresh |0> qubit
    # comments and blank lines are ignored

Exit codes: 0 success, 1 usage or parse error, 2 verification failure,
3 internal error.  DH_MAX_QUBITS (default 10) caps the register size.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .pauli import I, X, Y, Z, ComplexDyadic, PauliSum
from .engine import (
    AddAncilla, Circuit, DescriptorSet, Gate,
    evolve_circuit, expectation, gate_steps, step_label,
)
from .density import (
    density_report, diagonal_probabilities, expectation_table,
    reconstruct_density,
)
from .uniqueness import (
    NotFound, construct_from_density, density_symmetries,
    generate_equivalent_sets, canonical_signs, validate_basis,
)
from .protocols import (
    PAIRS_1BASED, dependency_trace, run_entanglement_swap,
    run_generalized_measurement_demo, run_ultimate_chain_demo,
    swap_relative_bell,
)
from . import oracle

SUBCOMMANDS = ("run", "validate", "symmetries", "construct",
               "swap-demo", "measure-demo", "chain-demo", "trace")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

DEFAULT_MAX_QUBITS = 10
# The exact diagonal's cost grows as 4^n; `run` reports it up to this size.
DIAGONAL_MAX_QUBITS = 8


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


@dataclass
class RunConfig:
    subcommand: str
    input_path: str | None = None
    verify: bool = False
    output_format: str = "json"
    seed: int = 0
    out_path: str | None = None
    ancilla_budget: int = 1
    max_qubits: int = DEFAULT_MAX_QUBITS


_GATE_ARITY = {"h": 1, "x": 1, "y": 1, "z": 1, "s": 1, "cnot": 2, "bell": 2}

_TOKEN = re.compile(r"\S+")


def parse_circuit(text: str, max_qubits: int | None = None) -> Circuit:
    """Line-oriented circuit parser with located errors."""
    cap = max_qubits if max_qubits is not None else DEFAULT_MAX_QUBITS
    n: int | None = None
    initial_n = 0
    steps: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group(0)) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        col0, word = tokens[0]
        word = word.lower()

        if word == "qubits":
            if n is not None:
                raise ParseError(lineno, col0, "duplicate qubits declaration")
            if len(tokens) != 2:
                raise ParseError(lineno, col0, "qubits takes one count")
            col, value = tokens[1]
            if not value.isdigit() or int(value) < 1:
                raise ParseError(lineno, col, f"bad qubit count {value!r}")
            n = initial_n = int(value)
            if n > cap:
                raise ParseError(lineno, col,
                                 f"register of {n} exceeds cap {cap}")
            continue

        if n is None:
            raise ParseError(lineno, col0,
                             "qubits declaration must come first")

        if word == "ancilla":
            if len(tokens) != 1:
                raise ParseError(lineno, tokens[1][0],
                                 "ancilla takes no arguments")
            n += 1
            if n > cap:
                raise ParseError(lineno, col0,
                                 f"register of {n} exceeds cap {cap}")
            steps.append(AddAncilla())
            continue

        if word not in _GATE_ARITY:
            raise ParseError(lineno, col0, f"unknown gate {word!r}")
        arity = _GATE_ARITY[word]
        if len(tokens) - 1 != arity:
            raise ParseError(lineno, col0,
                             f"{word} takes {arity} qubit label(s), "
                             f"got {len(tokens) - 1}")
        operands = []
        for col, value in tokens[1:]:
            if not value.isdigit():
                raise ParseError(lineno, col, f"bad qubit label {value!r}")
            label = int(value)
            if not 1 <= label <= n:
                raise ParseError(lineno, col,
                                 f"qubit {label} out of range 1..{n}")
            operands.append(label - 1)
        if len(set(operands)) != len(operands):
            raise ParseError(lineno, tokens[1][0],
                             f"{word} operands must be distinct")
        steps.append(Gate(word.upper(), tuple(operands)))

    if n is None:
        raise ParseError(1, 1, "missing qubits declaration")
    return Circuit(initial_n, steps)


# -- report primitives ----------------------------------------------------

def _num(value) -> dict:
    """Exact-plus-float rendering of a dyadic quantity."""
    if isinstance(value, ComplexDyadic):
        if not value.is_real:
            raise ValueError("reports carry real quantities only")
        value = value.re
    frac = Fraction(value)
    return {"exact": str(frac), "float": float(frac)}


def _descriptor_rows(set_: DescriptorSet) -> list[dict]:
    rows = []
    for q in range(set_.n):
        d = set_.descriptor(q)
        rows.append({"qubit": q + 1,
                     "x": d.qx.render(),
                     "y": d.qy.render(),
                     "z": d.qz.render()})
    return rows


def _singles_rows(set_: DescriptorSet) -> list[dict]:
    rows = []
    for q in range(set_.n):
        idx = [I] * set_.n
        row = {"qubit": q + 1}
        for name, w in (("x", X), ("y", Y), ("z", Z)):
            idx[q] = w
            row[name] = _num(expectation(set_, tuple(idx)))
            idx[q] = I
        rows.append(row)
    return rows


def _history_rows(set_: DescriptorSet) -> list[str]:
    return [step_label(step) for step in set_.history]


def _oracle_average(psi, letters: tuple[int, ...]) -> complex:
    """Oracle average of one Pauli string; the identity string gives 1."""
    if not any(letters):
        return 1.0
    return oracle.expectation_dense(
        psi, PauliSum(len(letters), {letters: ComplexDyadic.of(1)}))


def _verify_set(set_: DescriptorSet, seed: int, samples: int = 200) -> bool:
    """Sampled picture-equivalence check of a descriptor set."""
    psi = oracle.apply_circuit(set_.n, gate_steps(set_))
    rng = random.Random(seed)
    space = 4 ** set_.n
    count = min(samples, space)
    picks = rng.sample(range(space), count) if space <= 10 ** 6 else [
        rng.randrange(space) for _ in range(count)]
    for pick in picks:
        idx = []
        v = pick
        for _ in range(set_.n):
            idx.append(v % 4)
            v //= 4
        letters = tuple(idx)
        got = complex(expectation(set_, letters))
        if abs(got - _oracle_average(psi, letters)) > oracle.ATOL:
            return False
    return True


# -- subcommand implementations -------------------------------------------

def _load_circuit(cfg: RunConfig) -> Circuit:
    if not cfg.input_path:
        raise ParseError(0, 0, f"{cfg.subcommand} requires a circuit file")
    with open(cfg.input_path, "r", encoding="utf-8") as handle:
        return parse_circuit(handle.read(), cfg.max_qubits)


def _cmd_run(cfg: RunConfig) -> dict:
    set_ = evolve_circuit(_load_circuit(cfg))
    sections: dict = {
        "qubits": set_.n,
        "history": _history_rows(set_),
        "descriptors": _descriptor_rows(set_),
        "singles": _singles_rows(set_),
    }
    if set_.n <= DIAGONAL_MAX_QUBITS:
        probs = diagonal_probabilities(set_, range(set_.n))
        sections["diagonal"] = [
            {"bitstring": format(k, f"0{set_.n}b"), "probability": _num(p)}
            for k, p in enumerate(probs)]
    else:
        print(f"note: diagonal omitted for the {set_.n}-qubit register "
              f"(computed up to {DIAGONAL_MAX_QUBITS} qubits)", file=sys.stderr)
    if set_.n == 2:
        sections["pair_analysis"] = density_report(set_, [0, 1])
    if cfg.verify:
        sections["verified"] = _verify_set(set_, cfg.seed)
    return sections


def _cmd_validate(cfg: RunConfig) -> dict:
    set_ = evolve_circuit(_load_circuit(cfg))
    if set_.n != 2:
        raise ParseError(0, 0, "validate needs a two-qubit circuit")
    report = validate_basis(set_)
    out = {
        "independent_count": report.independent_count,
        "orthogonal": report.orthogonal,
        "complete": report.complete,
        "hermitian": report.hermitian,
        "traceless_ok": report.traceless_ok,
        "distinct_ok": report.distinct_ok,
        "violations": list(report.violations),
        "well_formed": report.well_formed,
    }
    if cfg.verify:
        out["verified"] = _verify_set(set_, cfg.seed)
    return out


def _cmd_symmetries(cfg: RunConfig) -> dict:
    set_ = evolve_circuit(_load_circuit(cfg))
    if set_.n != 2:
        raise ParseError(0, 0, "symmetries needs a two-qubit circuit")
    rho = reconstruct_density(set_, [0, 1])
    transforms = density_symmetries(rho)
    sets = generate_equivalent_sets(canonical_signs(set_), rho)
    out = {
        "transform_count": len(transforms),
        "transforms": sorted(t.slot_cycles() for t in transforms),
        "set_count": len(sets),
        "sets": [_descriptor_rows(s) for s in sets],
    }
    if cfg.verify:
        psi = oracle.apply_circuit(2, gate_steps(set_))
        ok = _verify_set(set_, cfg.seed)
        for candidate in sets:
            for idx, val in expectation_table(candidate, [0, 1]).items():
                if abs(complex(val) - _oracle_average(psi, idx)) > oracle.ATOL:
                    ok = False
        out["verified"] = ok
    return out


def _cmd_construct(cfg: RunConfig) -> dict:
    set_ = evolve_circuit(_load_circuit(cfg))
    if set_.n > 2:
        raise ParseError(0, 0, "construct covers 1- or 2-qubit densities")
    rho = reconstruct_density(set_, range(set_.n))
    found = construct_from_density(rho, cfg.ancilla_budget)
    if found is NotFound:
        return {"found": False, "system_qubits": set_.n,
                "ancilla_budget": cfg.ancilla_budget}
    out = {
        "found": True,
        "system_qubits": set_.n,
        "ancilla_budget": cfg.ancilla_budget,
        "register_qubits": found.n,
        "descriptors": _descriptor_rows(found),
    }
    if cfg.verify:
        table = expectation_table(found, range(set_.n))
        ok = all(ComplexDyadic.of(rho.coefficient(idx)) == val
                 for idx, val in table.items())
        out["verified"] = ok
    return out


def _cmd_swap_demo(cfg: RunConfig) -> dict:
    result = run_entanglement_swap()
    outcomes = swap_relative_bell(result)
    set_ = result.final_set
    sections: dict = {
        "qubits": set_.n,
        "history": _history_rows(set_),
        "descriptors": _descriptor_rows(set_),
        "dependencies": {str(q): fs for q, fs
                         in result.dependency.supports_1based().items()},
        "pair_purity": {f"{a},{b}": _num(result.pair_purity[a, b][0])
                        for a, b in PAIRS_1BASED},
        "relative_bell": [
            {
                "bits": "".join(map(str, o.bits)),
                "probability": _num(o.probability),
                "communication": [f"qz {5}", f"qz {6}"],
                "reduced_1": [o.reduced_1.qx.render(),
                              o.reduced_1.qy.render(),
                              o.reduced_1.qz.render()],
                "reduced_4": [o.reduced_4.qx.render(),
                              o.reduced_4.qy.render(),
                              o.reduced_4.qz.render()],
                "sign_x": o.sign_x,
                "sign_z": o.sign_z,
            }
            for o in outcomes],
    }
    if cfg.verify:
        psi = oracle.apply_circuit(set_.n, gate_steps(set_))
        ok = _verify_set(set_, cfg.seed)
        for o in outcomes:
            rem, prob = oracle.conditional_state(psi, [4, 5], list(o.bits))
            if abs(prob - float(o.probability)) > oracle.ATOL:
                ok = False
        sections["verified"] = ok
    return sections


def _cmd_measure_demo(cfg: RunConfig) -> dict:
    demo = run_generalized_measurement_demo()
    set_ = demo["final_set"]
    sections = {
        "rotated_descriptors": _descriptor_rows(demo["rotated_set"]),
        "final_descriptors": _descriptor_rows(set_),
        "singles": {str(q): [_num(v) for v in vals]
                    for q, vals in demo["singles"].items()},
        "system_bloch": [_num(v) for v in demo["system_bloch"]],
    }
    if cfg.verify:
        sections["verified"] = _verify_set(set_, cfg.seed)
    return sections


def _cmd_chain_demo(cfg: RunConfig) -> dict:
    demo = run_ultimate_chain_demo()
    set_ = demo["set"]
    render3 = lambda d: [d.qx.render(), d.qy.render(), d.qz.render()]
    sections = {
        "descriptors": _descriptor_rows(set_),
        "relative_zero": render3(demo["relative_zero"]),
        "relative_one": render3(demo["relative_one"]),
        "chained_plus": render3(demo["plus"]),
        "chained_minus": render3(demo["minus"]),
        "third_system": demo["third_system"],
        "sum_identity": demo["sum_identity"],
        "chain_matches_relative": {str(k): v for k, v
                                   in demo["chain_matches_relative"].items()},
    }
    if cfg.verify:
        sections["verified"] = (_verify_set(set_, cfg.seed)
                                and demo["sum_identity"]
                                and all(demo["chain_matches_relative"].values()))
    return sections


def _cmd_trace(cfg: RunConfig) -> dict:
    circuit = _load_circuit(cfg)
    report = dependency_trace(circuit)
    return {
        "per_qubit": {str(q): fs for q, fs
                      in report.supports_1based().items()},
        "per_step": [
            {"step": label,
             "supports": [[f + 1 for f in fs] for fs in supports]}
            for label, supports in report.per_step],
    }


_HANDLERS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "symmetries": _cmd_symmetries,
    "construct": _cmd_construct,
    "swap-demo": _cmd_swap_demo,
    "measure-demo": _cmd_measure_demo,
    "chain-demo": _cmd_chain_demo,
    "trace": _cmd_trace,
}

_NEEDS_INPUT = {"run", "validate", "symmetries", "construct", "trace"}


def run_report(cfg: RunConfig) -> tuple[int, dict]:
    """Execute a subcommand; returns (exit code, report)."""
    sections = _HANDLERS[cfg.subcommand](cfg)
    report = {"subcommand": cfg.subcommand, "sections": sections}
    code = EXIT_OK
    if cfg.verify:
        flags = [v for k, v in sections.items() if k == "verified"]
        if not all(flags):
            code = EXIT_VERIFY
    return code, report


# -- rendering -------------------------------------------------------------

def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _text_value(value, indent: str = "") -> list[str]:
    lines = []
    if isinstance(value, dict):
        if set(value) == {"exact", "float"}:
            return [f"{value['exact']}"]
        for key in sorted(value):
            sub = _text_value(value[key], indent + "  ")
            if len(sub) == 1:
                lines.append(f"{indent}{key}: {sub[0].strip()}")
            else:
                lines.append(f"{indent}{key}:")
                lines.extend(sub)
    elif isinstance(value, list):
        for item in value:
            sub = _text_value(item, indent + "  ")
            if len(sub) == 1:
                lines.append(f"{indent}- {sub[0].strip()}")
            else:
                lines.append(f"{indent}-")
                lines.extend(sub)
    else:
        lines.append(f"{indent}{value}")
    return lines


def render_text(report: dict) -> str:
    lines = [f"subcommand: {report['subcommand']}"]
    lines.extend(_text_value(report["sections"]))
    return "\n".join(lines) + "\n"


def _nonnegative_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dhsim",
        description="Heisenberg-picture descriptor engine for Clifford circuits")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("input", nargs="?", help="circuit file")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check reported numbers against the dense oracle")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--ancillas", type=_nonnegative_int, default=1,
                        help="ancilla budget for construct")
    try:
        args = parser.parse_intermixed_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    raw_cap = os.environ.get("DH_MAX_QUBITS")
    try:
        cap = DEFAULT_MAX_QUBITS if raw_cap is None else int(raw_cap)
    except ValueError:
        cap = 0
    if cap < 1:
        print(f"error: DH_MAX_QUBITS must be a positive integer, got {raw_cap!r}",
              file=sys.stderr)
        return EXIT_USAGE
    cfg = RunConfig(
        subcommand=args.subcommand,
        input_path=args.input,
        verify=args.verify,
        output_format=args.format,
        seed=args.seed,
        out_path=args.out,
        ancilla_budget=args.ancillas,
        max_qubits=cap,
    )
    if cfg.subcommand in _NEEDS_INPUT and not cfg.input_path:
        print(f"error: {cfg.subcommand} requires a circuit file", file=sys.stderr)
        return EXIT_USAGE

    try:
        code, report = run_report(cfg)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    rendered = (render_json(report) if cfg.output_format == "json"
                else render_text(report))
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
