"""Canned end-to-end constructions: decoherence, generalized measurement,
the three-system conditioning chain, and the six-qubit entanglement swap
with dependency tracing.

Qubit labels in every report are 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .pauli import I, X, Y, Z, vacuum_expectation
from .engine import (
    AddAncilla, Circuit, Descriptor, DescriptorSet, Gate,
    add_ancilla, apply_gate, evolve_circuit, expectation, initial_set,
    step_label,
)
from .density import (
    DensityMatrix, diagonal_probabilities, purity_condition,
    reconstruct_density,
)
from .relative import (
    RelativeContext, conditional_restriction, measure,
    relative_descriptor, ultimate_state_chain,
)
from .uniqueness import validate_basis

COMPONENTS = (X, Y, Z)


@dataclass(frozen=True)
class DependencyReport:
    """Hilbert-space factors each qubit's descriptor touches (0-based sets)."""

    per_qubit: tuple[tuple[int, ...], ...]
    per_step: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...] = ()

    def supports_1based(self) -> dict[int, list[int]]:
        return {q + 1: [f + 1 for f in fs]
                for q, fs in enumerate(self.per_qubit)}


def _supports(set_: DescriptorSet) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(set_.descriptor(q).support()))
                 for q in range(set_.n))


def dependency_trace(target: DescriptorSet | Circuit) -> DependencyReport:
    """Support of every qubit's descriptor, per step for a circuit input.

    For a circuit the locality rule is asserted along the way: a gate can
    only change the support of its own operands, and only by pulling in
    factors the operands already touched.
    """
    if isinstance(target, DescriptorSet):
        return DependencyReport(_supports(target))
    set_ = initial_set(target.initial_qubits)
    steps = [("initial", _supports(set_))]
    for step in target.steps:
        before = {q: set(set_.descriptor(q).support()) for q in range(set_.n)}
        if isinstance(step, AddAncilla):
            set_ = add_ancilla(set_)
        else:
            set_ = apply_gate(set_, step)
            reachable: set[int] = set()
            for q in step.operands:
                reachable |= before[q] | {q}
            for q in range(set_.n):
                after = set(set_.descriptor(q).support())
                if q not in step.operands and after != before[q]:
                    raise AssertionError(f"locality violated for bystander {q + 1}")
                if q in step.operands and not after <= reachable:
                    raise AssertionError(f"locality violated for operand {q + 1}")
        steps.append((step_label(step), _supports(set_)))
    return DependencyReport(_supports(set_), tuple(steps))


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


@dataclass(frozen=True)
class RelativeBellOutcome:
    """One conditioning branch of the swap: record bits on qubits (5,6)."""

    bits: tuple[int, int]
    probability: Fraction
    conditioned_1: Descriptor
    conditioned_4: Descriptor
    reduced_1: Descriptor
    reduced_4: Descriptor
    sign_x: int
    sign_z: int


@dataclass(frozen=True)
class SwapResult:
    final_set: DescriptorSet
    pair_densities: Mapping[tuple[int, int], DensityMatrix]
    pair_purity: Mapping[tuple[int, int], tuple[Fraction, bool]]
    relative_bell: tuple[RelativeBellOutcome, ...]
    dependency: DependencyReport


def _swap_relative_outcomes(set_: DescriptorSet) -> tuple[RelativeBellOutcome, ...]:
    base: dict[tuple[int, int], tuple[Descriptor, Descriptor]] = {}
    outcomes = []
    diag = diagonal_probabilities(set_, [4, 5])
    for k, bits in enumerate(itertools.product((0, 1), repeat=2)):
        ctx = RelativeContext.pair_computational((4, 5), bits)
        cond1 = relative_descriptor(set_, 0, ctx)
        cond4 = relative_descriptor(set_, 3, ctx)
        red1 = Descriptor(*(conditional_restriction(set_, c, (0, 3), ctx)
                            for c in set_.descriptor(0).components()))
        red4 = Descriptor(*(conditional_restriction(set_, c, (0, 3), ctx)
                            for c in set_.descriptor(3).components()))
        if bits == (0, 0):
            base[0, 0] = (red1, red4)
        ref1, ref4 = base[0, 0]
        sign_x = 1 if red1.qx == ref1.qx else -1
        sign_z = 1 if red4.qz == ref4.qz else -1
        outcomes.append(RelativeBellOutcome(
            bits, diag[k], cond1, cond4, red1, red4, sign_x, sign_z))
    return tuple(outcomes)


def run_entanglement_swap() -> SwapResult:
    """Evolve the swap protocol and collect every analysis the report needs.

    Before conditioning, the cross pairs (1,4) and (2,3) and the original
    pairs (1,2), (3,4) are all maximally mixed; the entangled pairs are
    (3,5) and (2,6).  Conditioning (1,4) on the records held by (5,6)
    produces, after reduction, the four maximally entangled pair
    descriptors with sign patterns (++--) on q_1x and (+-+-) on q_4z.
    """
    circuit = swap_circuit()
    set_ = evolve_circuit(circuit)
    densities = {}
    purities = {}
    for pair in PAIRS_1BASED:
        zero_based = (pair[0] - 1, pair[1] - 1)
        densities[pair] = reconstruct_density(set_, zero_based)
        purities[pair] = purity_condition(set_, zero_based)
    return SwapResult(
        final_set=set_,
        pair_densities=densities,
        pair_purity=purities,
        relative_bell=_swap_relative_outcomes(set_),
        dependency=dependency_trace(circuit),
    )


def swap_relative_bell(result: SwapResult) -> tuple[RelativeBellOutcome, ...]:
    """The four conditioned, reduced (1,4) descriptor pairs of the swap.

    Each reduced pair is a proper two-qubit basis with purity sum 3 (a
    pure, maximally entangled pair); both facts are asserted here.
    """
    for outcome in result.relative_bell:
        reduced = DescriptorSet(2, (outcome.reduced_1, outcome.reduced_4))
        report = validate_basis(reduced)
        if not report.well_formed:
            raise AssertionError(
                f"reduced pair for bits {outcome.bits} is not a proper basis")
        total, mixed = purity_condition(reduced, (0, 1))
        if mixed or total != 3:
            raise AssertionError(
                f"reduced pair for bits {outcome.bits} is not pure")
    return result.relative_bell


def run_generalized_measurement_demo() -> dict:
    """Model a generalized measurement by enlarging the system.

    A second qubit in |0> joins the system, the pair is rotated to the
    Bell basis (H then CNOT), and a two-qubit ancilla register is attached
    by CNOTs.  Afterwards every single-qubit x and y average vanishes, so
    the record accessible to the ancillas is carried entirely by the z
    components; tracing the second system leaves the 1 + a.sigma form.
    """
    set_ = initial_set(1)
    set_ = apply_gate(set_, Gate("H", (0,)))
    set_ = add_ancilla(set_)
    set_ = apply_gate(set_, Gate("H", (0,)))
    set_ = apply_gate(set_, Gate("CNOT", (0, 1)))
    rotated = set_
    set_ = measure(set_, 0)
    set_ = measure(set_, 1)
    singles = {}
    for qubit in (0, 1):
        idx = [I] * set_.n
        values = []
        for w in COMPONENTS:
            idx[qubit] = w
            values.append(expectation(set_, tuple(idx)))
            idx[qubit] = I
        singles[qubit + 1] = values
    rho_1 = reconstruct_density(set_, [0])
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
    set_ = initial_set(1)
    set_ = apply_gate(set_, Gate("H", (0,)))
    set_ = measure(set_, 0)            # ancilla is qubit 2
    two_qubit = set_
    rel_zero = relative_descriptor(two_qubit, 0, RelativeContext.computational(1, 0))
    rel_one = relative_descriptor(two_qubit, 0, RelativeContext.computational(1, 1))
    set_ = measure(set_, 1)            # third system is qubit 3
    plus, minus, third = ultimate_state_chain(set_, 1)
    sum_ok = all(p + m == set_.component(1, w).scale(2)
                 for p, m, w in zip(plus.components(), minus.components(),
                                    COMPONENTS))
    # The chained ancilla states certify the computational contexts: their
    # averages are (0, 0, +/-1), and conditioning the system on the third
    # system's record, restricted to the original two qubits, reproduces
    # the plain two-qubit relative descriptors exactly.
    blochs = {name: [vacuum_expectation(desc.component(w)) for w in COMPONENTS]
              for name, desc in (("plus", plus), ("minus", minus))}
    cross = {}
    for bit, reference in ((0, rel_zero), (1, rel_one)):
        ctx = RelativeContext.computational(2, bit)
        reduced = Descriptor(*(conditional_restriction(set_, c, (0, 1), ctx)
                               for c in set_.descriptor(0).components()))
        cross[bit] = all(r == c for r, c in zip(reference.components(),
                                                reduced.components()))
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


def run_decoherence_demo() -> dict:
    """Single-qubit decoherence: off-diagonals die, diagonals survive."""
    set_ = initial_set(1)
    set_ = apply_gate(set_, Gate("H", (0,)))
    before = reconstruct_density(set_, [0])
    from .relative import decohere
    set_ = decohere(set_, [0])
    after = reconstruct_density(set_, [0])
    return {
        "set": set_,
        "before": before,
        "after": after,
        "diagonal": diagonal_probabilities(set_, [0]),
    }
