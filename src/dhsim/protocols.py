"""Canned end-to-end constructions: generalized measurement, the
three-system conditioning chain, and the six-qubit entanglement swap with
dependency tracing.

Each is one ``Circuit`` evolved by the one ``engine.fold``: a measurement
is a fresh ancilla and a CNOT onto it, as in ``relative.measure``, and a
set shown midway is the evolution of a prefix of the steps.  Every
analysis here calls the public form of its operation on the value it
already holds: ``dependency_trace`` builds its set from the final
packed rows of the one ``engine.fold`` it reads, each record context's
``context_factor`` feeds both ``relative_descriptor`` and
``conditional_restriction``, which reduces the whole conditioned
descriptor, and a reduced pair's ``validate_basis`` report carries the
table its density is built from: the swap's outcomes are built, weighed
and checked in that one pass.

Qubit labels in every report are 1-based.  ``density``, ``relative`` and
``uniqueness`` are imported inside the functions that call them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .pauli import X, Y, Z, vacuum_expectation
from .engine import (
    AddAncilla, Circuit, Descriptor, DescriptorSet, Gate,
    descriptor_set, evolve_circuit, fold, row_support, single_averages, step_label,
)

if TYPE_CHECKING:
    from .density import DensityMatrix

COMPONENTS = (X, Y, Z)


class DependencyReport(NamedTuple):
    """Hilbert-space factors each qubit's descriptor touches (0-based sets),
    after each step of a circuit, and the circuit's final descriptor set."""

    per_qubit: tuple[tuple[int, ...], ...]
    per_step: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    final_set: DescriptorSet

    def supports_1based(self) -> dict[int, list[int]]:
        return {q + 1: [f + 1 for f in fs]
                for q, fs in enumerate(self.per_qubit)}


def dependency_trace(circuit: Circuit) -> DependencyReport:
    """Support of every qubit's descriptor after each step of a circuit.

    The locality rule is asserted along the way: a gate can only change the
    support of its own operands, and only by pulling in factors the
    operands already touched.  Supports are read (``row_support``) only
    from the packed rows a step changed; the others keep their "before".
    The final set is built from the rows the fold reaches, the same
    ``engine.fold`` that ``evolve_circuit`` runs.
    """
    prev, supports, steps = [], (), []
    for step, rows in zip((None,) + circuit.steps, fold(circuit)):
        before, after = supports, list(supports) + [()] * (len(rows) - len(supports))
        changed = [q for q, row in enumerate(rows) if q >= len(prev) or row != prev[q]]
        for q in changed:
            after[q] = row_support(rows[q])
        if isinstance(step, Gate):
            reachable = set(step.operands)
            for q in step.operands:
                reachable.update(before[q])
            for q in changed:
                if q not in step.operands and after[q] != before[q]:
                    raise AssertionError(f"locality violated for bystander {q + 1}")
                if q in step.operands and not reachable.issuperset(after[q]):
                    raise AssertionError(f"locality violated for operand {q + 1}")
        supports, prev = tuple(after), list(rows)
        steps.append(("initial" if step is None else step_label(step), supports))
    return DependencyReport(supports, tuple(steps), descriptor_set(rows, circuit.steps))


def swap_circuit() -> Circuit:
    """Two Bell pairs, the pair rotation on (2,3), and the record CNOTs.

    The rotation uses qubit 3 as the CNOT control and carries the Hadamard,
    i.e. BELL with operand order (3, 2); the measurement records go to the
    fresh qubits 5 (from 3) and 6 (from 2).
    """
    return Circuit(4, (
        Gate("H", (0,)), Gate("CNOT", (0, 1)),
        Gate("H", (2,)), Gate("CNOT", (2, 3)),
        Gate("BELL", (2, 1)),
        AddAncilla(), AddAncilla(),
        Gate("CNOT", (2, 4)),
        Gate("CNOT", (1, 5)),
    ))


PAIRS_1BASED = ((1, 2), (3, 4), (1, 4), (2, 3), (3, 5), (2, 6))
# The swap's measurement records, 0-based: the fresh qubits 5 and 6.
RECORD_QUBITS = (4, 5)


class RelativeBellOutcome(NamedTuple):
    """One conditioning branch of the swap: the bits of ``RECORD_QUBITS``."""

    bits: tuple[int, int]
    probability: Fraction
    conditioned_1: Descriptor
    conditioned_4: Descriptor
    reduced_1: Descriptor
    reduced_4: Descriptor
    sign_x: int
    sign_z: int


class SwapResult(NamedTuple):
    final_set: DescriptorSet
    pair_densities: Mapping[tuple[int, int], DensityMatrix]
    pair_purity: Mapping[tuple[int, int], tuple[Fraction, bool]]
    relative_bell: tuple[RelativeBellOutcome, ...]
    dependency: DependencyReport


def _swap_relative_outcomes(set_: DescriptorSet) -> tuple[RelativeBellOutcome, ...]:
    """The four record outcomes, each built, weighed and checked in one pass.

    Each context's factor is built once: its vacuum average is four times
    the outcome's probability, and ``conditional_restriction`` reduces the
    descriptors already conditioned on it.  Each reduced pair is asserted
    where it is built to be a proper two-qubit basis with purity sum 3 (a
    pure, maximally entangled pair), on the pair's basis report and the
    density of the report's table.  Signs are read against outcome (0, 0).
    """
    from . import density, relative, uniqueness
    outcomes = []
    for bits in itertools.product((0, 1), repeat=2):
        factor = relative.context_factor(
            set_, relative.RelativeContext.pair_computational(RECORD_QUBITS, bits))
        cond1 = relative.relative_descriptor(set_, 0, factor)
        cond4 = relative.relative_descriptor(set_, 3, factor)
        red1, red4 = (relative.conditional_restriction(cond, (0, 3), factor)
                      for cond in (cond1, cond4))
        report = uniqueness.validate_basis(DescriptorSet(2, (red1, red4)))
        if not report.well_formed:
            raise AssertionError(f"reduced pair for bits {bits} is not a proper basis")
        total, mixed = density.purity_condition(density.table_density(report.table))
        if mixed or total != 3:
            raise AssertionError(f"reduced pair for bits {bits} is not pure")
        if not outcomes:
            ref1, ref4 = red1, red4
        outcomes.append(RelativeBellOutcome(
            bits, vacuum_expectation(factor).re / 4, cond1, cond4, red1, red4,
            1 if red1.qx == ref1.qx else -1, 1 if red4.qz == ref4.qz else -1))
    return tuple(outcomes)


def run_entanglement_swap() -> SwapResult:
    """Evolve the swap protocol and collect every analysis the report needs.

    Before conditioning, the cross pairs (1,4) and (2,3) and the original
    pairs (1,2), (3,4) are all maximally mixed; the entangled pairs are
    (3,5) and (2,6).  Conditioning (1,4) on the records held by (5,6)
    produces, after reduction, the four maximally entangled pair
    descriptors with sign patterns (++--) on q_1x and (+-+-) on q_4z;
    ``relative_bell`` holds them, each already asserted to be a proper
    basis and pure.
    """
    from .density import expectation_table, purity_condition, table_density
    dependency = dependency_trace(swap_circuit())
    set_ = dependency.final_set
    densities = {(a, b): table_density(expectation_table(set_, (a - 1, b - 1)))
                 for a, b in PAIRS_1BASED}
    return SwapResult(
        final_set=set_,
        pair_densities=densities,
        pair_purity={pair: purity_condition(rho) for pair, rho in densities.items()},
        relative_bell=_swap_relative_outcomes(set_),
        dependency=dependency,
    )


def run_generalized_measurement_demo() -> dict:
    """Model a generalized measurement by enlarging the system.

    A second qubit in |0> joins the system, the pair is rotated to the
    Bell basis (H then CNOT), and a two-qubit ancilla register is attached
    by CNOTs.  Afterwards every single-qubit x and y average vanishes, so
    the record accessible to the ancillas is carried entirely by the z
    components; tracing the second system leaves the 1 + a.sigma form.
    """
    from . import density
    steps = (Gate("H", (0,)), AddAncilla(), Gate("H", (0,)), Gate("CNOT", (0, 1)),
             AddAncilla(), Gate("CNOT", (0, 2)),    # measure system 1 ...
             AddAncilla(), Gate("CNOT", (1, 3)))    # ... and system 2
    rotated = evolve_circuit(Circuit(1, steps[:4]))
    set_ = evolve_circuit(Circuit(1, steps))
    averages = single_averages(set_)
    singles = {qubit + 1: averages[3 * qubit:3 * qubit + 3] for qubit in (0, 1)}
    rho_1 = density.reconstruct_density(set_, [0])
    bloch = tuple(rho_1.single(0, w) for w in COMPONENTS)
    return {
        "rotated_set": rotated,
        "final_set": set_,
        "singles": singles,
        "system_bloch": bloch,
    }


def run_ultimate_chain_demo() -> dict:
    """Three-system chain: system, measuring ancilla, and its own measurer.

    The ancilla descriptors conditioned on |0> / |1> of the third system
    carry (x +/- z)-type factors on the third slot and sum to twice the
    unconditioned ancilla; the system conditioned on those ancilla states
    reproduces the two-qubit relative descriptors exactly.
    """
    from . import relative
    steps = (Gate("H", (0,)),
             AddAncilla(), Gate("CNOT", (0, 1)),    # ancilla is qubit 2
             AddAncilla(), Gate("CNOT", (1, 2)))    # third system is qubit 3
    two_qubit = evolve_circuit(Circuit(1, steps[:3]))
    rel_zero, rel_one = (
        relative.relative_descriptor(two_qubit, 0, relative.context_factor(
            two_qubit, relative.RelativeContext.computational(1, bit))) for bit in (0, 1))
    set_ = evolve_circuit(Circuit(1, steps))
    # Each third-system factor is built once and serves both the chained
    # ancilla state and the restriction of the system conditioned on it.
    plus, minus, third, factors = relative.ultimate_state_chain(set_, 1)
    sum_ok = all(p + m == c.scale(2)
                 for p, m, c in zip(plus, minus, set_.descriptor(1)))
    # The chained ancilla states certify the computational contexts: their
    # averages are (0, 0, +/-1), and conditioning the system on the third
    # system's record, restricted to the original two qubits, reproduces
    # the plain two-qubit relative descriptors exactly.
    blochs = {name: [vacuum_expectation(desc.component(w)) for w in COMPONENTS]
              for name, desc in (("plus", plus), ("minus", minus))}
    cross = {}
    for bit, (reference, factor) in enumerate(zip((rel_zero, rel_one), factors)):
        conditioned = relative.relative_descriptor(set_, 0, factor)
        cross[bit] = reference == relative.conditional_restriction(
            conditioned, (0, 1), factor)
    return {
        "set": set_,
        "relative_zero": rel_zero,
        "relative_one": rel_one,
        "plus": plus,
        "minus": minus,
        "third_system": third + 1,
        "sum_identity": sum_ok,
        "conditioned_blochs": blochs,
        "chain_matches_relative": cross,
    }
