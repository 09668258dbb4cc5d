"""Measurement as CNOT coupling, and relative descriptors.

Measurement never collapses anything here: coupling a system qubit to a
fresh ancilla by CNOT zeroes its x/y averages and leaves z alone, which is
all a projective measurement can do.  Conditioning on a state of another
subsystem multiplies a descriptor by an unnormalized (1 + ...) factor; the
outcome probability is reported separately rather than divided out, which
keeps the sum-over-a-complete-measurement identity exact.

A context's factor is built once, by ``context_factor``, and is the input
of the analyses that use it: ``relative_descriptor`` conditions a qubit on
it, ``conditional_restriction`` reduces a whole descriptor already
conditioned on it, with the context's weight checked and inverted once,
and ``ultimate_state_chain`` returns the two it builds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .pauli import (
    I, X, Y, Z,
    ComplexDyadic, PauliSum, sum_mul, vacuum_expectation,
)
from .engine import (
    AddAncilla, Descriptor, DescriptorSet, Gate,
    add_ancilla, apply_gate, component_product, check_qubits,
)
from .density import is_positive

MultiIndex = tuple[int, ...]


class ContextError(ValueError):
    pass


class RelativeContext(NamedTuple("RelativeContext", [
        ("target_qubits", tuple[int, ...]), ("table", Mapping[MultiIndex, Fraction]),
        ("weight", Fraction)])):
    """Expectation data of a conditioning state on one or two qubits.

    ``table`` maps non-identity component multi-indices of the target
    qubits to exact expectation values; the identity average is ``weight``
    (1 for a normalized state, smaller for sub-normalized elements of a
    generalized measurement).
    """

    __slots__ = ()

    def __new__(cls, target_qubits: Sequence[int],
                table: Mapping[MultiIndex, Fraction] | None = None,
                weight: Fraction = Fraction(1)) -> RelativeContext:
        target_qubits = tuple(target_qubits)
        k = len(target_qubits)
        if k not in (1, 2):
            raise ContextError("contexts cover one or two qubits")
        if len(set(target_qubits)) != k:
            raise ContextError(f"context target qubits {target_qubits} repeat a qubit")
        clean: dict[MultiIndex, Fraction] = {}
        for index, value in (table or {}).items():
            index = tuple(index)
            if len(index) != k or index == (I,) * k:
                raise ContextError(f"bad table index {index}")
            value = Fraction(value)
            if value:
                clean[index] = value
        # The table, with the identity average, must be a valid (sub)state,
        # which ``density.is_positive`` decides exactly.
        if not is_positive(k, {(I,) * k: Fraction(weight), **clean}):
            raise ContextError("context is not a positive (sub)state")
        return super().__new__(cls, target_qubits, clean, Fraction(weight))

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
        return RelativeContext.bloch(qubit, 0, 0, _z_of(bit))

    @staticmethod
    def pair_computational(qubits: Sequence[int], bits: Sequence[int]) -> "RelativeContext":
        """|b1 b2><b1 b2| on a qubit pair."""
        a, b = map(_z_of, bits)
        table = {(Z, I): Fraction(a), (I, Z): Fraction(b), (Z, Z): Fraction(a * b)}
        return RelativeContext(tuple(qubits), table)


def _z_of(bit: int) -> int:
    """The z average of computational outcome ``bit``: +1 for 0, -1 for 1."""
    if bit not in (0, 1):
        raise ContextError(f"computational outcome {bit!r} is not 0 or 1")
    return 1 - 2 * bit


def measure(set_: DescriptorSet, system_qubit: int) -> DescriptorSet:
    """Couple the system to one fresh ancilla by CNOT(system -> ancilla).

    The ancilla is the new last qubit.  Afterwards the system's x and y
    averages vanish while z is untouched; the ancilla picks up exactly the
    information carried by the system's q_z.
    """
    check_qubits(set_.n, (system_qubit,))
    grown = add_ancilla(set_)
    return apply_gate(grown, Gate("CNOT", (system_qubit, grown.n - 1)))


def measure_in_basis(set_: DescriptorSet, system_qubit: int,
                     rotation: Sequence[Gate]) -> DescriptorSet:
    """Rotate the system qubit, then measure it in the computational basis."""
    out = set_
    for gate in rotation:
        if gate.operands != (system_qubit,):
            raise ValueError("rotation may only touch the system qubit")
        out = apply_gate(out, gate)
    return measure(out, system_qubit)


def context_factor(set_: DescriptorSet, ctx: RelativeContext) -> PauliSum:
    """The conditioning factor of a context: weight * 1 + sum over the
    context table of <sigma> times the matching partner components, that is
    weight + sum_n <sigma_n> q_{a,n} for one partner and
    weight + sum_{nm} <sigma_n x sigma_m> q_{an} q_{bm} for two; for a
    computational-basis pair context the latter is the product of the two
    single-qubit outcome factors."""
    check_qubits(set_.n, ctx.target_qubits, ContextError)
    factor = PauliSum.identity(set_.n).scale(ctx.weight)
    index = [I] * set_.n
    for key, value in sorted(ctx.table.items()):
        for qubit, which in zip(ctx.target_qubits, key):
            index[qubit] = which
        factor = factor + component_product(set_, index).scale(value)
    return factor


def relative_descriptor(set_: DescriptorSet, qubit: int,
                        factor: PauliSum) -> Descriptor:
    """Descriptor of one qubit relative to a state of one or two partner qubits.

    Each component is multiplied on the right by the context's factor
    (``context_factor``).  No normalization by the outcome probability is
    applied.
    """
    check_qubits(set_.n, (qubit,), ContextError)
    return Descriptor(*(sum_mul(c, factor) for c in set_.descriptor(qubit)))


# The benchmark's tracer (bench/spans.py) still looks the function up by this name.
relative_descriptor_pair = relative_descriptor


def outcome_probability(set_: DescriptorSet, ctx: RelativeContext) -> Fraction:
    """Probability weight of the conditioning context: <factor> / 2**k."""
    value = vacuum_expectation(context_factor(set_, ctx))
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
        cond = relative_descriptor(set_, qubit, context_factor(set_, ctx))
        summed = [acc + comp for acc, comp in zip(summed, cond)]
    return all(acc == comp.scale(m)
               for acc, comp in zip(summed, set_.descriptor(qubit)))


def ultimate_state_chain(set_: DescriptorSet, ancilla_qubit: int
                         ) -> tuple[Descriptor, Descriptor, int,
                                    tuple[PauliSum, PauliSum]]:
    """Ancilla descriptors conditioned on |0> / |1> of its own measurer.

    Requires that the ancilla was itself measured (a CNOT with the ancilla
    as control onto a later qubit).  Returns (q_plus, q_minus, third,
    factors) with q_pm = q_ancilla (1 +/- q_{third,z}), whose sum is
    exactly twice the unconditioned ancilla descriptor, and the factors of
    the third system's |0> and |1> contexts, for callers that condition
    more on them.
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
    factors = tuple(context_factor(set_, RelativeContext.computational(third, bit))
                    for bit in (0, 1))
    plus, minus = (relative_descriptor(set_, ancilla_qubit, f) for f in factors)
    return plus, minus, third, factors


def conditional_restriction(conditioned: Descriptor, keep: Sequence[int],
                            factor: PauliSum) -> Descriptor:
    """Reduce a conditioned descriptor onto a factor space.

    ``conditioned`` is a descriptor already multiplied by the context's
    ``factor`` (a ``relative_descriptor``).  Each component's dropped slots
    are evaluated in the universal state (``PauliSum.restrict``) and scaled
    by the inverse of the context average, which must be a positive real
    with a dyadic inverse and is inverted once.  For every component c and
    every operator B supported on ``keep``,

        <restriction(c) * B> = <c * B_extended> / <factor>

    exactly, so the reduction represents the conditioned descriptor on the
    smaller space: all averages over the surviving subsystem are retained.

    This is how a conditioned descriptor with wide support collapses to
    the small descriptor of the surviving subsystem once the measurement
    record (the z components of the measured qubits) has been consumed.
    """
    norm = vacuum_expectation(factor)
    if not norm.is_real or norm.re <= 0:
        raise ContextError("context has zero weight")
    inverse = Fraction(1) / norm.re
    if inverse.denominator & (inverse.denominator - 1):
        raise ContextError(f"context weight {norm.re} has no dyadic inverse")
    inverse = ComplexDyadic.of(inverse)
    return Descriptor(*(c.restrict(keep).scale(inverse) for c in conditioned))
