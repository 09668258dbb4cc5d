"""Measurement as CNOT coupling, decoherence, and relative descriptors.

Measurement never collapses anything here: coupling a system qubit to a
fresh ancilla by CNOT zeroes its x/y averages and leaves z alone, which is
all a projective measurement can do.  Conditioning on a state of another
subsystem multiplies a descriptor by an unnormalized (1 + ...) factor; the
outcome probability is reported separately rather than divided out, which
keeps the sum-over-a-complete-measurement identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .pauli import (
    I, X, Y, Z,
    PauliSum, sum_mul, vacuum_expectation,
)
from .engine import (
    AddAncilla, Descriptor, DescriptorSet, Gate,
    add_ancilla, apply_gate, component_product,
)
from . import oracle

MultiIndex = tuple[int, ...]


class ContextError(ValueError):
    pass


@dataclass(frozen=True)
class RelativeContext:
    """Expectation data of a conditioning state on one or two qubits.

    ``table`` maps non-identity component multi-indices of the target
    qubits to exact expectation values; the identity average is ``weight``
    (1 for a normalized state, smaller for sub-normalized elements of a
    generalized measurement).
    """

    target_qubits: tuple[int, ...]
    table: Mapping[MultiIndex, Fraction] = field(default_factory=dict)
    weight: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "target_qubits", tuple(self.target_qubits))
        object.__setattr__(self, "weight", Fraction(self.weight))
        k = len(self.target_qubits)
        if k not in (1, 2):
            raise ContextError("contexts cover one or two qubits")
        clean: dict[MultiIndex, Fraction] = {}
        for index, value in self.table.items():
            index = tuple(index)
            if len(index) != k or index == (I,) * k:
                raise ContextError(f"bad table index {index}")
            value = Fraction(value)
            if value:
                clean[index] = value
        object.__setattr__(self, "table", clean)
        self._validate_state()

    def _validate_state(self) -> None:
        """The table, with the identity average, must be a valid (sub)state."""
        k = len(self.target_qubits)
        dim = 2 ** k
        m = np.zeros((dim, dim), dtype=complex)
        m += float(self.weight) * np.eye(dim)
        for index, value in self.table.items():
            m += float(value) * oracle.string_matrix(index)
        eigs = np.linalg.eigvalsh(m / dim)
        if eigs.min() < -1e-9:
            raise ContextError("context is not a positive (sub)state")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def bloch(qubit: int, x: Fraction | int, y: Fraction | int,
              z: Fraction | int) -> "RelativeContext":
        return RelativeContext((qubit,), {(X,): Fraction(x),
                                          (Y,): Fraction(y),
                                          (Z,): Fraction(z)})

    @staticmethod
    def computational(qubit: int, bit: int) -> "RelativeContext":
        """|0><0| or |1><1| on one qubit."""
        return RelativeContext.bloch(qubit, 0, 0, 1 if bit == 0 else -1)

    @staticmethod
    def maximally_mixed(qubits: Sequence[int]) -> "RelativeContext":
        return RelativeContext(tuple(qubits))

    @staticmethod
    def pair_computational(qubits: Sequence[int], bits: Sequence[int]) -> "RelativeContext":
        """|b1 b2><b1 b2| on a qubit pair."""
        a, b = (1 if bit == 0 else -1 for bit in bits)
        table = {(Z, I): Fraction(a), (I, Z): Fraction(b), (Z, Z): Fraction(a * b)}
        return RelativeContext(tuple(qubits), table)


def measure(set_: DescriptorSet, system_qubit: int) -> DescriptorSet:
    """Couple the system to one fresh ancilla by CNOT(system -> ancilla).

    The ancilla is the new last qubit.  Afterwards the system's x and y
    averages vanish while z is untouched; the ancilla picks up exactly the
    information carried by the system's q_z.
    """
    if not 0 <= system_qubit < set_.n:
        raise ValueError(f"qubit {system_qubit} out of range")
    grown = add_ancilla(set_)
    return apply_gate(grown, Gate("CNOT", (system_qubit, grown.n - 1)))


def decohere(set_: DescriptorSet, qubits: Sequence[int]) -> DescriptorSet:
    """Measure every listed qubit; the subset density becomes diagonal."""
    out = set_
    for qubit in qubits:
        out = measure(out, qubit)
    return out


def measure_in_basis(set_: DescriptorSet, system_qubit: int,
                     rotation: Sequence[Gate]) -> DescriptorSet:
    """Rotate the system qubit, then measure it in the computational basis."""
    out = set_
    for gate in rotation:
        if gate.operands != (system_qubit,):
            raise ValueError("rotation may only touch the system qubit")
        out = apply_gate(out, gate)
    return measure(out, system_qubit)


def _context_factor(set_: DescriptorSet, ctx: RelativeContext) -> PauliSum:
    """weight * 1 + sum over the context table of <sigma> times partner components."""
    factor = PauliSum.identity(set_.n).scale(ctx.weight)
    index = [I] * set_.n
    for key, value in sorted(ctx.table.items()):
        for qubit, which in zip(ctx.target_qubits, key):
            index[qubit] = which
        factor = factor + component_product(set_, index).scale(value)
    return factor


def relative_descriptor(set_: DescriptorSet, qubit: int,
                        ctx: RelativeContext) -> Descriptor:
    """Descriptor of one qubit relative to a state of one or two partner qubits.

    Each component is multiplied on the right by the context factor,
    weight + sum_n <sigma_n> q_{a,n} for one partner and
    weight + sum_{nm} <sigma_n x sigma_m> q_{an} q_{bm} for two; for a
    computational-basis pair context the latter is the product of the two
    single-qubit outcome factors.  No normalization by the outcome
    probability is applied.
    """
    factor = _context_factor(set_, ctx)
    d = set_.descriptor(qubit)
    return Descriptor(*(sum_mul(c, factor) for c in d.components()))


# The benchmark's tracer (bench/spans.py) still looks the function up by this name.
relative_descriptor_pair = relative_descriptor


def outcome_probability(set_: DescriptorSet, ctx: RelativeContext) -> Fraction:
    """Probability weight of the conditioning context: <factor> / 2**k."""
    factor = _context_factor(set_, ctx)
    value = vacuum_expectation(factor)
    if not value.is_real:
        raise ContextError("context probability came out complex")
    return value.re / (2 ** len(ctx.target_qubits))


def povm_sum_check(set_: DescriptorSet, qubit: int,
                   povm: Sequence[RelativeContext]) -> bool:
    """Sum-over-outcomes identity for a complete family of pure contexts.

    The contexts must resolve the identity up to the unavoidable scale
    (their projectors sum to (m/2) * identity, i.e. the component averages
    cancel exactly).  Returns whether the relative descriptors sum to m
    times the unconditioned descriptor, exactly and operator-by-operator.
    """
    if not povm:
        raise ContextError("empty measurement family")
    totals: dict[MultiIndex, Fraction] = {}
    for ctx in povm:
        if ctx.target_qubits != povm[0].target_qubits:
            raise ContextError("contexts must share their target qubits")
        if ctx.weight != 1:
            raise ContextError("sum identity needs normalized state contexts")
        for index, value in ctx.table.items():
            totals[index] = totals.get(index, Fraction(0)) + value
    if any(totals.values()):
        raise ContextError("contexts do not resolve the identity")
    m = len(povm)
    summed = [PauliSum.zero(set_.n)] * 3
    for ctx in povm:
        cond = relative_descriptor(set_, qubit, ctx)
        summed = [acc + comp for acc, comp in zip(summed, cond.components())]
    original = set_.descriptor(qubit)
    return all(acc == comp.scale(m)
               for acc, comp in zip(summed, original.components()))


def ultimate_state_chain(set_: DescriptorSet, ancilla_qubit: int
                         ) -> tuple[Descriptor, Descriptor, int]:
    """Ancilla descriptors conditioned on |0> / |1> of its own measurer.

    Requires that the ancilla was itself measured (a CNOT with the ancilla
    as control onto a later qubit).  Returns (q_plus, q_minus, third) with
    q_pm = q_ancilla (1 +/- q_{third,z}); their sum is exactly twice the
    unconditioned ancilla descriptor.
    """
    third = None
    for entry in set_.history:
        if isinstance(entry, AddAncilla):
            continue
        if entry.kind == "CNOT" and entry.operands[0] == ancilla_qubit:
            third = entry.operands[1]
    if third is None:
        raise ValueError(
            f"qubit {ancilla_qubit} has not been measured by a further system")
    plus = relative_descriptor(set_, ancilla_qubit,
                               RelativeContext.computational(third, 0))
    minus = relative_descriptor(set_, ancilla_qubit,
                                RelativeContext.computational(third, 1))
    return plus, minus, third


def conditional_restriction(set_: DescriptorSet, operator: PauliSum,
                            keep: Sequence[int], ctx: RelativeContext
                            ) -> PauliSum:
    """Reduce a conditioned operator onto a factor space.

    Multiplies the operator by the context factor, evaluates the dropped
    slots in the universal state (each I or Z letter there contributes 1,
    X or Y kills the term), and normalizes by the context average.  For
    every operator B supported on ``keep``,

        <restriction * B> = <operator * factor * B_extended> / <factor>

    exactly, so the reduction represents the conditioned operator on the
    smaller space: all averages over the surviving subsystem are retained.

    This is how a conditioned descriptor with wide support collapses to
    the small descriptor of the surviving subsystem once the measurement
    record (the z components of the measured qubits) has been consumed.
    """
    keep = sorted(keep)
    complement = [q for q in range(set_.n) if q not in keep]
    factor = _context_factor(set_, ctx)
    norm = vacuum_expectation(factor)
    if not norm.is_real or norm.re <= 0:
        raise ContextError("context has zero weight")
    conditioned = sum_mul(operator, factor)
    out = PauliSum.zero(len(keep))
    for letters, coef in conditioned.terms():
        if any(letters[q] in (X, Y) for q in complement):
            continue
        kept = tuple(letters[q] for q in keep)
        out = out + PauliSum(len(keep), {kept: coef})
    inv = Fraction(1) / norm.re
    if inv.denominator & (inv.denominator - 1):
        raise ContextError(f"context weight {norm.re} has no dyadic inverse")
    return out.scale(inv)
