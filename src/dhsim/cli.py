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

Reports are exact and need no floats.  Only ``pauli`` and ``engine`` are
imported at module level; the oracle (with numpy) and each analysis module
are imported inside the handler, or the report section, that uses them.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Any, Iterable, NamedTuple

from .pauli import I, X, Y, Z, ComplexDyadic
from .engine import (
    GATE_ARITY, AddAncilla, Circuit, Descriptor, DescriptorSet, Gate,
    descriptor_texts, evolve_circuit, expectations, gate_steps, single_averages,
    step_label,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

DEFAULT_MAX_QUBITS = 10
# `run` reports the exact diagonal up to this size.  A set costs one pass of
# GF(2) elimination on its rows and one pass over the 2^n entries; a larger
# cap changes the reports.
DIAGONAL_MAX_QUBITS = 8
# `--verify` compares the averages of this many seeded random strings.
VERIFY_SAMPLES = 200


class ParseError(ValueError):
    """Bad input; line and column are None where the file has no place for it."""

    def __init__(self, line: int | None, column: int | None, message: str):
        super().__init__(message if line is None
                         else f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class RunConfig(NamedTuple):
    subcommand: str
    input_path: str | None = None
    verify: bool = False
    output_format: str = "json"
    seed: int = 0
    out_path: str | None = None
    ancilla_budget: int = 1
    max_qubits: int = DEFAULT_MAX_QUBITS


_TOKEN = re.compile(r"\S+")
# int()'s digit limit; 0, or a Python before 3.10.7 that lacks it: none.
_digit_limit = getattr(sys, "get_int_max_str_digits", int)


def _ascii_digits(text: str, limit: int) -> bool:
    """0-9 only, and no more than ``limit`` digits, which int() refuses:
    str.isdigit also takes superscripts."""
    return text.isascii() and text.isdigit() and not 0 < limit < len(text)


def _error_at(lineno: int, line: str, index: int, message: str) -> ParseError:
    """The error located at the line's token ``index`` (``str.split`` order)."""
    column = [match.start() for match in _TOKEN.finditer(line)][index] + 1
    return ParseError(lineno, column, message)


def parse_circuit(text: str, max_qubits: int = DEFAULT_MAX_QUBITS) -> Circuit:
    """Line-oriented circuit parser with located errors.

    It checks each gate line's kind, arity, distinct labels and range on
    the register at that line, ancillas included, so it builds its
    ``Gate``s and ``Circuit`` past their constructors' checks, which guard
    circuits built in code.  A gate line with the tokens of an earlier one
    reuses its ``Gate``: the register only grows.
    """
    n: int | None = None
    initial_n = 0
    steps: list = []
    seen: dict[tuple[str, ...], Gate] = {}
    limit = _digit_limit()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        key = tuple(tokens)
        gate = seen.get(key)
        if gate is not None:
            steps.append(gate)
            continue
        word = tokens[0].lower()

        if word == "qubits":
            if n is not None:
                raise _error_at(lineno, line, 0, "duplicate qubits declaration")
            if len(tokens) != 2:
                raise _error_at(lineno, line, 0, "qubits takes one count")
            value = tokens[1]
            if not _ascii_digits(value, limit) or int(value) < 1:
                raise _error_at(lineno, line, 1, f"bad qubit count {value!r}")
            n = initial_n = int(value)
            if n > max_qubits:
                raise _error_at(lineno, line, 1,
                                f"register of {n} exceeds cap {max_qubits}")
            continue

        if n is None:
            raise _error_at(lineno, line, 0, "qubits declaration must come first")

        if word == "ancilla":
            if len(tokens) != 1:
                raise _error_at(lineno, line, 1, "ancilla takes no arguments")
            n += 1
            if n > max_qubits:
                raise _error_at(lineno, line, 0,
                                f"register of {n} exceeds cap {max_qubits}")
            steps.append(AddAncilla())
            continue

        # ASCII only: str.upper maps some other letters onto gate names.
        arity = GATE_ARITY.get(word.upper()) if word.isascii() else None
        if arity is None:
            raise _error_at(lineno, line, 0, f"unknown gate {word!r}")
        if len(tokens) - 1 != arity:
            raise _error_at(lineno, line, 0, f"{word} takes {arity} qubit label(s), "
                                             f"got {len(tokens) - 1}")
        operands = []
        for index, value in enumerate(tokens[1:], start=1):
            if not _ascii_digits(value, limit):
                raise _error_at(lineno, line, index, f"bad qubit label {value!r}")
            label = int(value)
            if not 1 <= label <= n:
                raise _error_at(lineno, line, index,
                                f"qubit {label} out of range 1..{n}")
            operands.append(label - 1)
        if len(set(operands)) != len(operands):
            raise _error_at(lineno, line, 1, f"{word} operands must be distinct")
        gate = seen[key] = tuple.__new__(Gate, (word.upper(), tuple(operands)))
        steps.append(gate)

    if n is None:
        raise ParseError(1, 1, "missing qubits declaration")
    return tuple.__new__(Circuit, (initial_n, tuple(steps)))


# -- report primitives ----------------------------------------------------

def _num(value) -> dict:
    """Exact-plus-float rendering of a dyadic quantity."""
    if isinstance(value, ComplexDyadic):
        if not value.is_real:
            raise ValueError("reports carry real quantities only")
        value = value.re
    frac = Fraction(value)
    return {"exact": str(frac), "float": float(frac)}


class _Shared(dict):
    """A ``_num`` rendering that ``_nums`` shares among its uses, so that
    ``render_json`` writes its text once per depth."""

    __slots__ = ()


def _nums(values: list) -> list[dict]:
    """``_num`` of each value as one ``_Shared`` per distinct object: a
    Clifford diagonal holds at most two, and a Clifford single is ZERO or
    i**k."""
    rendered: dict[int, dict] = {}
    return [rendered.get(id(v)) or rendered.setdefault(id(v), _Shared(_num(v)))
            for v in values]


def _descriptor_rows(set_: DescriptorSet) -> list[dict]:
    return [{"qubit": q + 1, "x": x, "y": y, "z": z}
            for q, (x, y, z) in enumerate(descriptor_texts(set_))]


def _render3(d: Descriptor) -> list[str]:
    return [c.render() for c in d]


def _history_rows(set_: DescriptorSet) -> list[str]:
    return [step_label(step) for step in set_.history]


def _verify_set(set_: DescriptorSet, seed: int,
                checks: Iterable[tuple[tuple[int, ...], ComplexDyadic | Fraction]] = (),
                psi: Any = None) -> bool:
    """Sampled picture-equivalence check of a descriptor set.

    ``VERIFY_SAMPLES`` seeded random strings (base-4 digits of a pick,
    qubit 0 lowest), or every string of a register with no more than that
    many, in pick order, are one ``oracle.pick_letters`` array.  Each
    (string, exact average) pair in ``checks`` is compared with the row of
    its own pick when every string is sampled, else with a row of its own
    appended.  The engine's averages of the samples and the checks' values
    are compared with the oracle's averages of those rows on the circuit's
    state ``psi`` (an ``oracle.apply_circuit`` state vector, evolved here
    when not given), taken in one ``oracle.string_averages`` call.  The set
    passes when the worst deviation is within ATOL.
    """
    import random
    from . import oracle
    if set_.n > oracle.DENSE_MAX_QUBITS:
        raise ParseError(None, None,
                         f"--verify checks registers of up to "
                         f"{oracle.DENSE_MAX_QUBITS} qubits against the "
                         f"dense oracle; this one has {set_.n}")
    space = 4 ** set_.n
    whole = space <= VERIFY_SAMPLES
    picks = (list(range(space)) if whole
             else random.Random(seed).sample(range(space), VERIFY_SAMPLES))
    count = len(picks)
    rows, checked = list(range(count)), []
    for letters, value in checks:
        pick = sum(letter << 2 * q for q, letter in enumerate(letters))
        if whole:
            rows.append(pick)
        else:
            rows.append(len(picks))
            picks.append(pick)
        checked.append(value)
    strings = oracle.pick_letters(picks, set_.n)
    values = expectations(set_, strings[:count].tolist()) + checked
    if psi is None:
        psi = oracle.apply_circuit(set_.n, gate_steps(set_))
    averages = oracle.string_averages(psi, strings)
    return oracle.worst_deviation(averages[rows], values) <= oracle.ATOL


# -- subcommand implementations -------------------------------------------

def _load_circuit(cfg: RunConfig) -> Circuit:
    if not cfg.input_path:
        raise ParseError(None, None, f"{cfg.subcommand} requires a circuit file")
    with open(cfg.input_path, "rb") as handle:
        # A leading UTF-8 byte-order mark is dropped before decoding, so a
        # bad byte's line and column count from after it.
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The text before the bad byte decodes; a sentinel stands in for the
        # byte so the last line's length is its column.
        lines = (data[:exc.start].decode("utf-8") + "\0").splitlines()
        raise ParseError(len(lines), len(lines[-1]),
                         f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None
    return parse_circuit(text, cfg.max_qubits)


def _cmd_run(cfg: RunConfig) -> dict:
    set_ = evolve_circuit(_load_circuit(cfg))
    singles = single_averages(set_)
    nums = _nums(singles)
    sections: dict = {
        "qubits": set_.n,
        "history": _history_rows(set_),
        "descriptors": _descriptor_rows(set_),
        "singles": [{"qubit": q + 1, **dict(zip("xyz", nums[3 * q:3 * q + 3]))}
                    for q in range(set_.n)],
    }
    if set_.n <= DIAGONAL_MAX_QUBITS:
        from .density import diagonal_probabilities
        probs = diagonal_probabilities(set_, range(set_.n))
        width = f"0{set_.n}b"
        sections["diagonal"] = [{"bitstring": format(k, width), "probability": num}
                                for k, num in enumerate(_nums(probs))]
        if set_.n == 2:
            from .density import density_report
            sections["pair_analysis"] = density_report(set_, [0, 1], probs)
    else:
        print(f"note: diagonal omitted for the {set_.n}-qubit register "
              f"(computed up to {DIAGONAL_MAX_QUBITS} qubits)", file=sys.stderr)
    if cfg.verify:
        # The samples almost never hold a single at n = 10, so the printed
        # singles are checked too, in the same oracle call.
        n = set_.n
        strings = [(I,) * q + (w,) + (I,) * (n - 1 - q)
                   for q in range(n) for w in (X, Y, Z)]
        sections["verified"] = _verify_set(set_, cfg.seed,
                                           checks=zip(strings, singles))
    return sections


def _cmd_validate(cfg: RunConfig) -> dict:
    from .uniqueness import validate_basis
    set_ = evolve_circuit(_load_circuit(cfg))
    if set_.n != 2:
        raise ParseError(None, None, "validate needs a two-qubit circuit")
    report = validate_basis(set_)
    out = report._asdict()
    del out["table"]
    out.update(violations=list(report.violations), well_formed=report.well_formed)
    if cfg.verify:
        out["verified"] = _verify_set(set_, cfg.seed)
    return out


def _cmd_symmetries(cfg: RunConfig) -> dict:
    from .uniqueness import generate_equivalent_sets
    set_ = evolve_circuit(_load_circuit(cfg))
    if set_.n != 2:
        raise ParseError(None, None, "symmetries needs a two-qubit circuit")
    transforms, sets = generate_equivalent_sets(set_)
    out = {
        "transform_count": len(transforms),
        "transforms": sorted(t.slot_cycles() for t in transforms),
        "set_count": len(sets),
        "sets": [_descriptor_rows(s) for s, _ in sets],
    }
    if cfg.verify:
        # Each set's table comes with it, from the products that validated it.
        checks = [entry for _, table in sets for entry in table.items()]
        out["verified"] = _verify_set(set_, cfg.seed, checks=checks)
    return out


def _cmd_construct(cfg: RunConfig) -> dict:
    from .density import expectation_table, reconstruct_density
    from .uniqueness import construct_from_density
    set_ = evolve_circuit(_load_circuit(cfg))
    if set_.n > 2:
        raise ParseError(None, None, "construct covers 1- or 2-qubit densities")
    rho = reconstruct_density(set_, range(set_.n))
    found = construct_from_density(rho, cfg.ancilla_budget)
    out = {"found": found is not None, "system_qubits": set_.n,
           "ancilla_budget": cfg.ancilla_budget}
    if found is not None:
        out["register_qubits"] = found.n
        out["descriptors"] = _descriptor_rows(found)
    if cfg.verify:
        # The found set's averages on the system qubits are strings on the
        # circuit's register, checked against the oracle's state of the
        # circuit.  Its own set reproduces its (pure) density, so a search
        # that finds nothing fails the check.
        out["verified"] = found is not None and _verify_set(
            set_, cfg.seed, checks=expectation_table(found, range(set_.n)).items())
    return out


def _cmd_swap_demo(cfg: RunConfig) -> dict:
    from .protocols import PAIRS_1BASED, RECORD_QUBITS, run_entanglement_swap
    result = run_entanglement_swap()
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
                "communication": [f"qz {q + 1}" for q in RECORD_QUBITS],
                "reduced_1": _render3(o.reduced_1),
                "reduced_4": _render3(o.reduced_4),
                "sign_x": o.sign_x,
                "sign_z": o.sign_z,
            }
            for o in result.relative_bell],
    }
    if cfg.verify:
        from . import oracle
        psi = oracle.apply_circuit(set_.n, gate_steps(set_))
        ok = _verify_set(set_, cfg.seed, psi=psi)
        # Each reduced (1,4) pair against the conditioned state of qubits
        # 1-4: its sixteen strings sit on slots 0 and 3 of that remainder.
        pair = [(a, b) for a in range(4) for b in range(4)]
        remainder = [(a, I, I, b) for a, b in pair]
        for o in result.relative_bell:
            rem, prob = oracle.conditional_state(psi, list(RECORD_QUBITS), list(o.bits))
            reduced = expectations(DescriptorSet(2, (o.reduced_1, o.reduced_4)), pair)
            worst = oracle.worst_deviation(oracle.string_averages(rem, remainder), reduced)
            if abs(prob - float(o.probability)) > oracle.ATOL or worst > oracle.ATOL:
                ok = False
        sections["verified"] = ok
    return sections


def _cmd_measure_demo(cfg: RunConfig) -> dict:
    from .protocols import run_generalized_measurement_demo
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
        # The printed singles of systems 1 and 2, and system 1's Bloch
        # vector, on the final register.
        n = set_.n
        printed = [(q - 1, vals) for q, vals in demo["singles"].items()]
        printed.append((0, demo["system_bloch"]))
        checks = [((I,) * q + (w,) + (I,) * (n - 1 - q), v)
                  for q, vals in printed for w, v in zip((X, Y, Z), vals)]
        sections["verified"] = _verify_set(set_, cfg.seed, checks=checks)
    return sections


def _cmd_chain_demo(cfg: RunConfig) -> dict:
    from .protocols import run_ultimate_chain_demo
    demo = run_ultimate_chain_demo()
    set_ = demo["set"]
    sections = {
        "descriptors": _descriptor_rows(set_),
        "relative_zero": _render3(demo["relative_zero"]),
        "relative_one": _render3(demo["relative_one"]),
        "chained_plus": _render3(demo["plus"]),
        "chained_minus": _render3(demo["minus"]),
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
    if cfg.verify:
        raise ParseError(None, None, "trace has no oracle check; "
                                     "run it without --verify")
    from .protocols import dependency_trace
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
SUBCOMMANDS = tuple(_HANDLERS)


def run_report(cfg: RunConfig) -> tuple[int, dict]:
    """Execute a subcommand; returns (exit code, report)."""
    if cfg.subcommand.endswith("-demo") and cfg.input_path:
        raise ParseError(None, None, f"{cfg.subcommand} builds its own circuit; "
                                     "run it without a circuit file")
    sections = _HANDLERS[cfg.subcommand](cfg)
    report = {"subcommand": cfg.subcommand, "sections": sections}
    code = EXIT_VERIFY if cfg.verify and not sections["verified"] else EXIT_OK
    return code, report


# -- rendering -------------------------------------------------------------

def render_json(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"``, byte for byte, in one recursive pass.

    ``indent`` turns ``json``'s C encoder off; this writer keeps its C string
    escaping (``encode_basestring``) and ``float.__repr__``.  A dict key
    that is not a string raises TypeError.  A value that ``_nums`` shares
    is rendered once per depth, for this call only.
    """
    out: list[str] = []
    _write_json(report, "\n", out.append, {})
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring
# The JSON text of a scalar item, by its exact type.
_SCALARS = {str: _encode_str, int: int.__repr__,
            float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v),
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda v: "null"}


def _write_json(value: Any, newline: str, put, memo: dict) -> None:
    """Put the JSON text of ``value``, its nested lines starting ``newline``:
    a container puts each scalar item inline, recursing only into containers.
    A ``_Shared`` value is put from ``memo``, keyed by its id and depth,
    where its first use at that depth keeps its text."""
    if type(value) is _Shared:
        at = id(value), len(newline)
        if at not in memo:
            parts: list[str] = []
            _write_json(dict(value), newline, parts.append, memo)
            memo[at] = "".join(parts)
        put(memo[at])
    elif isinstance(value, dict):
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            item = value[key]
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                put(f"{sep}{_encode_str(key)}: ")
                _write_json(item, inner, put, memo)
            else:
                put(f"{sep}{_encode_str(key)}: {scalar(item)}")
            sep = comma
        put(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                put(sep)
                _write_json(item, inner, put, memo)
            else:
                put(sep + scalar(item))
            sep = comma
        put(newline + "]" if value else "[]")
    else:
        # A scalar at the top or of a subclass; anything else raises TypeError.
        put(json.dumps(value, ensure_ascii=False))


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
    if not _ascii_digits(text, _digit_limit()):
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dhsim",
        description="Heisenberg-picture descriptor engine for Clifford circuits")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    # Each dest is a ``RunConfig`` field; the metavars keep the help's names.
    parser.add_argument("input_path", nargs="?", metavar="input", help="circuit file")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check reported numbers against the dense oracle")
    parser.add_argument("--format", dest="output_format", metavar="{json,text}",
                        choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", dest="out_path", metavar="OUT", default=None,
                        help="write the report to a file")
    parser.add_argument("--ancillas", dest="ancilla_budget", metavar="ANCILLAS",
                        type=_nonnegative_int, default=1,
                        help="ancilla budget for construct")
    # A usage error starts "error:", as every other exit-1 message does.
    parser.error = lambda message: parser.exit(
        2, f"error: {message}\n{parser.format_usage()}")
    # parse_intermixed_args formats the usage on every call while it is
    # None; the same text, set once, gives the same messages.
    parser.usage = parser.format_usage()[len("usage: "):]
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_intermixed_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    raw_cap = os.environ.get("DH_MAX_QUBITS", str(DEFAULT_MAX_QUBITS))
    cap = int(raw_cap) if _ascii_digits(raw_cap, _digit_limit()) else 0
    if cap < 1:
        print(f"error: DH_MAX_QUBITS must be a positive integer, got {raw_cap!r}",
              file=sys.stderr)
        return EXIT_USAGE
    cfg = RunConfig(**vars(args), max_qubits=cap)
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
    if not cfg.out_path:
        sys.stdout.write(rendered)
        return code
    try:
        with open(cfg.out_path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
