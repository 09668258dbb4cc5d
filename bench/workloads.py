"""The benchmark's workloads: seeded inputs, operation lists and output checks.

A workload builds one round of operations from its seed. An operation is
one or more `dhsim` command lines run in-process; every report it prints
is checked against the statevector reference in `statevector.py` and the
properties the paper requires. A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import statevector as sv
from statevector import ATOL


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class CircuitFile:
    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]   # time order, 0-based operands
    path: str

    @property
    def labels(self) -> list[str]:
        return [f"{kind} " + " ".join(str(q + 1) for q in ops)
                for kind, ops in self.gates]

    def write(self) -> None:
        Path(self.path).write_text(
            "\n".join([f"qubits {self.n}", *self.labels]) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Step:
    argv: list[str]
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Operation:
    steps: list[Step]

    def problem(self, results: list[tuple[int, str, str]]) -> str | None:
        """The first problem with the (exit code, stdout, stderr) of each step, or None."""
        for step, (code, out, err) in zip(self.steps, results):
            where = " ".join(Path(a).name for a in step.argv)
            if code != 0:
                return f"{where}: exit {code}: {err.strip()[-200:]}"
            try:
                step.check(json.loads(out))
            except CheckFailed as exc:
                return f"{where}: {exc}"
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                return f"{where}: malformed report: {exc!r}"
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    round_s: float        # nominal seconds per round, turns --seconds into a round count
    build: Callable[[random.Random, Path], list[Operation]]

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))


# -- seeded inputs ------------------------------------------------------------

# Every circuit of a workload has exactly this many gates of each kind, so
# the dense oracle's cost (dominated by BELL, a 2^n x 2^n matrix product)
# is the same for every report.
DIAG_MIX = {"h": 14, "s": 10, "x": 4, "y": 4, "z": 4, "cnot": 18, "bell": 6}
WIDE_MIX = {"h": 6, "s": 3, "x": 1, "y": 1, "z": 1, "cnot": 8, "bell": 4}
DIAG_QUBITS = 6
WIDE_QUBITS = 10


def random_circuit(rng: random.Random, n: int, mix: dict[str, int],
                   path: Path) -> CircuitFile:
    kinds = [kind for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(kinds)
    gates = tuple((kind, tuple(rng.sample(range(n), 2)) if kind in ("cnot", "bell")
                   else (rng.randrange(n),))
                  for kind in kinds)
    circuit = CircuitFile(n, gates, str(path))
    circuit.write()
    return circuit


def bell_circuit(rng: random.Random, path: Path) -> CircuitFile:
    """A maximally entangled pair in a seeded Pauli frame (one of the four Bell states)."""
    gates = [("h", (0,)), ("cnot", (0, 1))]
    for q in (0, 1):
        frame = rng.choice(("", "x", "y", "z"))
        if frame:
            gates.append((frame, (q,)))
    circuit = CircuitFile(2, tuple(gates), str(path))
    circuit.write()
    return circuit


# -- checks -----------------------------------------------------------------

def _exact(value: dict, what: str) -> Fraction:
    """A reported exact number: a dyadic fraction whose float field agrees."""
    frac = Fraction(value["exact"])
    den = frac.denominator
    _require(den & (den - 1) == 0, f"{what}: {frac} has no power-of-two denominator")
    _require(value["float"] == float(frac), f"{what}: float {value['float']} != {frac}")
    return frac


def _close(got, want, what: str) -> None:
    _require(abs(complex(got) - complex(want)) <= ATOL,
             f"{what}: {got} deviates from reference {want}")


def _sections(report: dict, subcommand: str, verify: bool) -> dict:
    _require(report["subcommand"] == subcommand, f"report is for {report['subcommand']}")
    sections = report["sections"]
    if verify:
        _require(sections.get("verified") is True, f"{subcommand} is not verified")
    return sections


def _descriptors(n: int, gates, rows) -> None:
    problems = sv.descriptor_mismatches(n, gates, rows)
    _require(not problems, "; ".join(problems[:3]))


def _gates_from_history(history: list[str]):
    gates = []
    for row in history:
        if row == "ancilla":
            continue
        kind, *labels = row.split()
        gates.append((kind, tuple(int(q) - 1 for q in labels)))
    return gates


def _diagonal(entries: list[dict], psi: np.ndarray) -> None:
    n = psi.ndim
    probs = sv.probabilities(psi)
    _require(len(entries) == 2 ** n, f"{len(entries)} diagonal entries for {n} qubits")
    total = Fraction(0)
    for k, entry in enumerate(entries):
        _require(entry["bitstring"] == format(k, f"0{n}b"), f"diagonal entry {k} out of order")
        p = _exact(entry["probability"], f"P({entry['bitstring']})")
        _close(p, probs[k], f"P({entry['bitstring']})")
        total += p
    _require(total == 1, f"probabilities sum to {total}")


def _pair_analysis(analysis: dict, psi: np.ndarray) -> None:
    ref = sv.pair_table(psi, (0, 1))
    coeffs = analysis["coefficients"]
    for index, want in ref.items():
        _close(Fraction(coeffs.get(index, "0")), want, f"pair coefficient {index}")
    probs = sv.probabilities(psi)
    for k, text in enumerate(analysis["diagonal"]):
        _close(Fraction(text), probs[k], f"pair diagonal {k}")
    rho = sv.reduced_density(psi, (0, 1))
    _close(Fraction(analysis["purity_sum"]), 4 * np.trace(rho @ rho).real - 1, "purity sum")


def check_run(circuit: CircuitFile, verify: bool) -> Callable[[dict], None]:
    """Every descriptor, single average and diagonal probability against the reference."""
    def check(report: dict) -> None:
        s = _sections(report, "run", verify)
        if not verify:
            _require("verified" not in s, "unverified run reports a verification")
        n = circuit.n
        _require(s["qubits"] == n, f"qubits {s['qubits']} != {n}")
        _require(s["history"] == circuit.labels, "history does not match the circuit")
        _descriptors(n, circuit.gates, s["descriptors"])
        psi = sv.final_state(n, circuit.gates)
        _require(len(s["singles"]) == n, "one singles row per qubit expected")
        for q, (row, ref) in enumerate(zip(s["singles"], sv.single_averages(psi))):
            _require(row["qubit"] == q + 1, f"singles row {q} is labelled {row['qubit']}")
            for which, want in zip("xyz", ref):
                _close(_exact(row[which], f"<q{q + 1}{which}>"), want, f"<q{q + 1}{which}>")
        # run reports the diagonal up to eight qubits; above that it is optional.
        if n <= 8 or "diagonal" in s:
            _diagonal(s["diagonal"], psi)
        if n == 2:
            _pair_analysis(s["pair_analysis"], psi)
    return check


# Pair purity sums 4 Tr(rho_ab^2) - 1 the paper gives for the swap register.
SWAP_PURITY = {(1, 2): 0, (3, 4): 0, (1, 4): 0, (2, 3): 0, (3, 5): 1, (2, 6): 1}


def check_swap(report: dict) -> None:
    s = _sections(report, "swap-demo", True)
    n = s["qubits"]
    gates = _gates_from_history(s["history"])
    _descriptors(n, gates, s["descriptors"])
    final_supports = sv.support_steps(n, gates)[-1]
    _require(s["dependencies"] == {str(q + 1): fs for q, fs in enumerate(final_supports)},
             "dependencies differ from the reference supports")
    psi = sv.final_state(n, gates)
    for (a, b), want in SWAP_PURITY.items():
        got = _exact(s["pair_purity"][f"{a},{b}"], f"purity ({a},{b})")
        rho = sv.reduced_density(psi, (a - 1, b - 1))
        _close(got, 4 * np.trace(rho @ rho).real - 1, f"purity ({a},{b})")
        _require(got == want, f"purity ({a},{b}) is {got}, the paper has {want}")
    outcomes = s["relative_bell"]
    _require([o["bits"] for o in outcomes] == ["00", "01", "10", "11"], "swap outcome labels")
    marginal = np.sum(np.abs(psi) ** 2, axis=(0, 1, 2, 3)).reshape(-1)
    for k, o in enumerate(outcomes):
        p = _exact(o["probability"], f"swap outcome {o['bits']}")
        _require(p == Fraction(1, 4), f"swap outcome {o['bits']} has probability {p}")
        _close(p, marginal[k], f"swap outcome {o['bits']}")
    _require([o["sign_x"] for o in outcomes] == [1, 1, -1, -1], "q_1x signs are not (++--)")
    _require([o["sign_z"] for o in outcomes] == [1, -1, 1, -1], "q_4z signs are not (+-+-)")


# The circuits behind measure-demo and chain-demo (dhsim.protocols), with
# each measurement written as a CNOT onto the ancilla it allocates.
MEASURE_ROTATED = (("h", (0,)), ("h", (0,)), ("cnot", (0, 1)))
MEASURE_FINAL = MEASURE_ROTATED + (("cnot", (0, 2)), ("cnot", (1, 3)))
CHAIN = (("h", (0,)), ("cnot", (0, 1)), ("cnot", (1, 2)))


def check_measure(report: dict) -> None:
    s = _sections(report, "measure-demo", True)
    _descriptors(2, MEASURE_ROTATED, s["rotated_descriptors"])
    _descriptors(4, MEASURE_FINAL, s["final_descriptors"])
    ref = sv.single_averages(sv.final_state(4, MEASURE_FINAL))
    for q in (1, 2):
        values = [_exact(v, f"<q{q}>") for v in s["singles"][str(q)]]
        for got, want, which in zip(values, ref[q - 1], "xyz"):
            _close(got, want, f"<q{q}{which}>")
        _require(values[0] == values[1] == 0, f"q{q} keeps an x or y average after measurement")
    bloch = [_exact(v, "system Bloch vector") for v in s["system_bloch"]]
    _require(bloch == [_exact(v, "<q1>") for v in s["singles"]["1"]],
             "system Bloch vector differs from qubit 1's averages")


def check_chain(report: dict) -> None:
    s = _sections(report, "chain-demo", True)
    _descriptors(3, CHAIN, s["descriptors"])
    _require(s["sum_identity"] is True, "conditioned descriptors do not sum to twice the original")
    _require(s["chain_matches_relative"] == {"0": True, "1": True},
             "chain does not reproduce the relative descriptors")
    _require(s["third_system"] == 3, f"third system is {s['third_system']}")


def _reproduces_pair(n: int, rows, psi: np.ndarray, what: str) -> None:
    ref = sv.pair_table(psi, (0, 1))
    for index, got in sv.vacuum_pair_table(n, rows).items():
        _close(got, ref[index], f"{what} <{index}>")


def check_symmetries(circuit: CircuitFile, set_count: int | None) -> Callable[[dict], None]:
    """Every generated set reproduces the pair's expectation table; the Bell pair has 12."""
    def check(report: dict) -> None:
        s = _sections(report, "symmetries", True)
        _require(s["transform_count"] == len(s["transforms"]), "transform count")
        _require(s["set_count"] == len(s["sets"]), "set count")
        if set_count is not None:
            _require(s["set_count"] == set_count,
                     f"{s['set_count']} equivalent sets, the paper has {set_count}")
        distinct = {json.dumps(rows, sort_keys=True) for rows in s["sets"]}
        _require(len(distinct) == len(s["sets"]), "equivalent sets repeat")
        psi = sv.final_state(2, circuit.gates)
        for k, rows in enumerate(s["sets"]):
            _reproduces_pair(2, rows, psi, f"set {k}")
    return check


def check_validate(report: dict) -> None:
    s = _sections(report, "validate", True)
    _require(s["independent_count"] == 16, f"{s['independent_count']} independent products, not 16")
    _require(s["well_formed"] is True and s["violations"] == [], "basis is not well formed")


def check_construct(circuit: CircuitFile) -> Callable[[dict], None]:
    def check(report: dict) -> None:
        s = _sections(report, "construct", True)
        _require(s["found"] is True, "no descriptors constructed")
        psi = sv.final_state(2, circuit.gates)
        _reproduces_pair(s["register_qubits"], s["descriptors"], psi, "constructed set")
    return check


def check_trace(circuit: CircuitFile) -> Callable[[dict], None]:
    def check(report: dict) -> None:
        _require(report["subcommand"] == "trace", "report is not a trace")
        s = report["sections"]
        steps = sv.support_steps(circuit.n, circuit.gates)
        _require([row["step"] for row in s["per_step"]] == ["initial", *circuit.labels],
                 "trace steps do not match the circuit")
        for row, want in zip(s["per_step"], steps):
            _require(row["supports"] == want, f"supports after {row['step']} differ")
        _require(s["per_qubit"] == {str(q + 1): fs for q, fs in enumerate(steps[-1])},
                 "final supports differ")
    return check


# -- workloads --------------------------------------------------------------

DIAG_PER_ROUND = 8
WIDE_PER_ROUND = 4
PASSES_PER_ROUND = 4


def build_diag_sweep(rng: random.Random, work: Path) -> list[Operation]:
    ops = []
    for k in range(DIAG_PER_ROUND):
        c = random_circuit(rng, DIAG_QUBITS, DIAG_MIX, work / f"diag{k}.dh")
        ops.append(Operation([Step(["run", c.path], check_run(c, verify=False))]))
    return ops


def build_verify_wide(rng: random.Random, work: Path) -> list[Operation]:
    ops = []
    for k in range(WIDE_PER_ROUND):
        c = random_circuit(rng, WIDE_QUBITS, WIDE_MIX, work / f"wide{k}.dh")
        ops.append(Operation([Step(["run", c.path, "--verify"], check_run(c, verify=True))]))
    return ops


def build_paper_protocols(rng: random.Random, work: Path) -> list[Operation]:
    # The product state is the fresh register |00>; symmetries fails on most
    # other product states (see CHANGES.md), so it is not drawn from the seed.
    product = CircuitFile(2, (), str(work / "product.dh"))
    product.write()
    ops = []
    for k in range(PASSES_PER_ROUND):
        bell = bell_circuit(rng, work / f"bell{k}.dh")
        wide = random_circuit(rng, WIDE_QUBITS, WIDE_MIX, work / f"trace{k}.dh")
        ops.append(Operation([
            Step(["swap-demo", "--verify"], check_swap),
            Step(["measure-demo", "--verify"], check_measure),
            Step(["chain-demo", "--verify"], check_chain),
            Step(["symmetries", bell.path, "--verify"], check_symmetries(bell, 12)),
            Step(["symmetries", product.path, "--verify"], check_symmetries(product, None)),
            Step(["validate", bell.path, "--verify"], check_validate),
            Step(["construct", bell.path, "--verify"], check_construct(bell)),
            Step(["run", bell.path, "--verify"], check_run(bell, verify=True)),
            Step(["trace", wide.path], check_trace(wide)),
        ]))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("diag-sweep", DIAG_PER_ROUND * 0.53, build_diag_sweep),
    Workload("verify-wide", WIDE_PER_ROUND * 1.1, build_verify_wide),
    Workload("paper-protocols", PASSES_PER_ROUND * 0.5, build_paper_protocols),
)}


def build(name: str, seed: int, work: Path) -> list[Operation]:
    """Write a workload's seeded circuit files under `work` and return one round."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"), work)
