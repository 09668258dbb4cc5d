"""Heisenberg-picture descriptor evolution for Clifford circuits.

Each qubit of an n-qubit register carries a descriptor: the triple
(q_x, q_y, q_z) of Pauli sums obtained by conjugating the qubit's initial
sigma operators through the circuit run so far.  The fixed universal state
is |0...0>, and every physical average is a vacuum expectation of a product
of descriptor components.

A gate is applied through its conjugation rewrite rule.  For gate V acting
on operand slots S, the rule expresses V^dagger sigma_{a,i} V (a in S) as a
sign times a product of letters on S; the new component is that product
evaluated on the *current* descriptor components.  Components of qubits
outside S never change.  This is exactly the composition order demanded by
U^dagger sigma U with U = V_k ... V_0, and it is why rewriting the letters
of the evolved strings in place would be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .pauli import (
    I, X, Y, Z,
    ComplexDyadic, DimensionError, PauliSum,
    sum_mul, vacuum_expectation,
)

SINGLE_QUBIT_KINDS = ("H", "X", "Y", "Z", "S")
TWO_QUBIT_KINDS = ("CNOT", "BELL")
GATE_KINDS = SINGLE_QUBIT_KINDS + TWO_QUBIT_KINDS

# Heisenberg rewrite V^dagger sigma V for single-qubit gates:
# letter -> (sign, letter).
_SINGLE_RULES: dict[str, dict[int, tuple[int, int]]] = {
    "H": {X: (1, Z), Y: (-1, Y), Z: (1, X)},
    "X": {X: (1, X), Y: (-1, Y), Z: (-1, Z)},
    "Y": {X: (-1, X), Y: (1, Y), Z: (-1, Z)},
    "Z": {X: (-1, X), Y: (-1, Y), Z: (1, Z)},
    "S": {X: (-1, Y), Y: (1, X), Z: (1, Z)},
}

# Two-qubit rules: (operand position, letter) -> (sign, ((position, letter), ...)).
# Position 0 is the first operand (CNOT control); position 1 the second.
_CNOT_RULE: dict[tuple[int, int], tuple[int, tuple[tuple[int, int], ...]]] = {
    (0, X): (1, ((0, X), (1, X))),
    (0, Y): (1, ((0, Y), (1, X))),
    (0, Z): (1, ((0, Z),)),
    (1, X): (1, ((1, X),)),
    (1, Y): (1, ((0, Z), (1, Y))),
    (1, Z): (1, ((0, Z), (1, Z))),
}

# BELL(a, b) = CNOT(a -> b) followed by H on a: the rotation taking the
# four Bell states of the pair to the four computational labels (the
# inverse of the usual H-then-CNOT Bell preparation).
_BELL_RULE: dict[tuple[int, int], tuple[int, tuple[tuple[int, int], ...]]] = {
    (0, X): (1, ((0, Z),)),
    (0, Y): (-1, ((0, Y), (1, X))),
    (0, Z): (1, ((0, X), (1, X))),
    (1, X): (1, ((1, X),)),
    (1, Y): (1, ((0, Z), (1, Y))),
    (1, Z): (1, ((0, Z), (1, Z))),
}

_TWO_RULES = {"CNOT": _CNOT_RULE, "BELL": _BELL_RULE}


class GateError(ValueError):
    pass


class EmptyRegisterError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    """One gate application: a kind plus 0-based operand qubits."""

    kind: str
    operands: tuple[int, ...]

    def __post_init__(self) -> None:
        kind = self.kind.upper()
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "operands", tuple(self.operands))
        if kind not in GATE_KINDS:
            raise GateError(f"unknown gate kind {kind!r}")
        want = 1 if kind in SINGLE_QUBIT_KINDS else 2
        if len(self.operands) != want:
            raise GateError(f"{kind} takes {want} operand(s), got {len(self.operands)}")
        if len(set(self.operands)) != len(self.operands):
            raise GateError(f"{kind} operands must be distinct")

    def validate_for(self, n: int) -> None:
        for q in self.operands:
            if not 0 <= q < n:
                raise GateError(f"operand {q} out of range for {n} qubits")


class AddAncilla:
    """Directive allocating one fresh |0> qubit at the end of the register."""

    def __repr__(self) -> str:
        return "AddAncilla()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AddAncilla)

    def __hash__(self) -> int:
        return hash(AddAncilla)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate applications and ancilla allocations."""

    initial_qubits: int
    steps: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.initial_qubits < 1:
            raise EmptyRegisterError("a circuit needs at least one qubit")
        n = self.initial_qubits
        for k, step in enumerate(self.steps):
            if isinstance(step, AddAncilla):
                n += 1
            elif isinstance(step, Gate):
                try:
                    step.validate_for(n)
                except GateError as exc:
                    raise GateError(f"step {k + 1}: {exc}") from exc
            else:
                raise GateError(f"step {k + 1}: not a gate or ancilla directive")

    @property
    def final_qubits(self) -> int:
        return self.initial_qubits + sum(1 for s in self.steps
                                         if isinstance(s, AddAncilla))


@dataclass(frozen=True)
class Descriptor:
    """Per-qubit triple of Pauli sums on the full current register."""

    qx: PauliSum
    qy: PauliSum
    qz: PauliSum

    def component(self, which: int) -> PauliSum:
        if which == X:
            return self.qx
        if which == Y:
            return self.qy
        if which == Z:
            return self.qz
        raise ValueError(f"component index {which} must be X, Y or Z")

    def components(self) -> tuple[PauliSum, PauliSum, PauliSum]:
        return self.qx, self.qy, self.qz

    @staticmethod
    def from_xz(qx: PauliSum, qz: PauliSum) -> "Descriptor":
        """Build with q_y = i q_x q_z, the convention used throughout."""
        return Descriptor(qx, sum_mul(qx, qz).scale(ComplexDyadic.i_power(1)), qz)

    def is_canonical(self) -> bool:
        """q_y = i q_x q_z and all components Hermitian."""
        want_y = sum_mul(self.qx, self.qz).scale(ComplexDyadic.i_power(1))
        return (want_y == self.qy
                and self.qx.is_hermitian
                and self.qy.is_hermitian
                and self.qz.is_hermitian)

    def support(self) -> set[int]:
        return self.qx.support() | self.qy.support() | self.qz.support()

    def scale_xz(self, sx: int, sz: int) -> "Descriptor":
        """Flip component signs, rebuilding q_y from the convention."""
        return Descriptor.from_xz(self.qx.scale(sx), self.qz.scale(sz))


@dataclass(frozen=True)
class DescriptorSet:
    """Complete register description: one descriptor per qubit plus history."""

    n: int
    descriptors: tuple[Descriptor, ...]
    history: tuple = field(default_factory=tuple, compare=False)

    def descriptor(self, qubit: int) -> Descriptor:
        return self.descriptors[qubit]

    def component(self, qubit: int, which: int) -> PauliSum:
        return self.descriptors[qubit].component(which)


def initial_set(n: int) -> DescriptorSet:
    """Fresh register: descriptor a is sigma on slot a, identity elsewhere."""
    if n < 1:
        raise EmptyRegisterError("register must hold at least one qubit")
    descs = []
    for a in range(n):
        descs.append(Descriptor(
            PauliSum.single(n, a, X),
            PauliSum.single(n, a, Y),
            PauliSum.single(n, a, Z),
        ))
    return DescriptorSet(n, tuple(descs))


def _rewrite_two(set_: DescriptorSet, kind: str, operands: tuple[int, ...],
                 pos: int, letter: int) -> PauliSum:
    sign, factors = _TWO_RULES[kind][pos, letter]
    index = [I] * set_.n
    for fpos, fletter in factors:
        index[operands[fpos]] = fletter
    return component_product(set_, index).scale(sign)


def apply_gate(set_: DescriptorSet, gate: Gate) -> DescriptorSet:
    """Rewrite the operand descriptors under the gate's conjugation rule.

    All products are taken on the pre-gate components (the rule refers to
    one common time slice).
    """
    gate.validate_for(set_.n)
    descs = list(set_.descriptors)
    if gate.kind in SINGLE_QUBIT_KINDS:
        (q,) = gate.operands
        rule = _SINGLE_RULES[gate.kind]
        new = {}
        for letter in (X, Y, Z):
            sign, src = rule[letter]
            new[letter] = set_.component(q, src).scale(sign)
        descs[q] = Descriptor(new[X], new[Y], new[Z])
    else:
        new_ops = {}
        for pos, qubit in enumerate(gate.operands):
            comps = [_rewrite_two(set_, gate.kind, gate.operands, pos, letter)
                     for letter in (X, Y, Z)]
            new_ops[qubit] = Descriptor(*comps)
        for qubit, desc in new_ops.items():
            descs[qubit] = desc
    return DescriptorSet(set_.n, tuple(descs), set_.history + (gate,))


def add_ancilla(set_: DescriptorSet) -> DescriptorSet:
    """Grow the register by one fresh |0> qubit.

    Existing components gain an identity slot; the new qubit starts with
    sigma on its own slot.
    """
    n = set_.n + 1
    descs = [Descriptor(d.qx.extended(1), d.qy.extended(1), d.qz.extended(1))
             for d in set_.descriptors]
    descs.append(Descriptor(
        PauliSum.single(n, n - 1, X),
        PauliSum.single(n, n - 1, Y),
        PauliSum.single(n, n - 1, Z),
    ))
    return DescriptorSet(n, tuple(descs), set_.history + (AddAncilla(),))


def component_product(set_: DescriptorSet, indices: Sequence[int]) -> PauliSum:
    """Ordered product of chosen components (identity for index 0).

    ``indices`` has one entry per qubit: 0 selects the identity factor,
    X/Y/Z select that descriptor component.  Components of different
    qubits commute, so taking the factors in qubit order loses nothing.
    """
    if len(indices) != set_.n:
        raise DimensionError(f"need {set_.n} component indices, got {len(indices)}")
    product = None
    for qubit, which in enumerate(indices):
        if which == I:
            continue
        component = set_.component(qubit, which)
        product = component if product is None else sum_mul(product, component)
    return PauliSum.identity(set_.n) if product is None else product


def expectation(set_: DescriptorSet, indices: Sequence[int]) -> ComplexDyadic:
    """Vacuum expectation of the ordered product of chosen components."""
    return vacuum_expectation(component_product(set_, indices))


def heisenberg_image(set_: DescriptorSet, operator: PauliSum) -> PauliSum:
    """Map an operator written in initial Pauli letters through the evolution.

    Conjugation by the circuit unitary is an algebra homomorphism, so the
    image of each initial string is the ordered product of the matching
    descriptor components, extended linearly over the terms.
    """
    if operator.n != set_.n:
        raise DimensionError("operator width does not match register")
    out = PauliSum.zero(set_.n)
    for letters, coef in operator.terms():
        out = out + component_product(set_, letters).scale(coef)
    return out


def evolve_circuit(circuit: Circuit) -> DescriptorSet:
    """Fold a circuit into a descriptor set, starting from the fresh register."""
    set_ = initial_set(circuit.initial_qubits)
    for k, step in enumerate(circuit.steps):
        try:
            if isinstance(step, AddAncilla):
                set_ = add_ancilla(set_)
            else:
                set_ = apply_gate(set_, step)
        except (GateError, DimensionError) as exc:
            raise GateError(f"step {k + 1}: {exc}") from exc
    return set_


def gate_steps(set_: DescriptorSet) -> list[tuple[str, tuple[int, ...]]]:
    """Gate history as (kind, operands) pairs for the dense oracle, ancillas dropped."""
    steps: list[tuple[str, tuple[int, ...]]] = []
    for entry in set_.history:
        if isinstance(entry, AddAncilla):
            continue
        steps.append((entry.kind, entry.operands))
    return steps


def step_label(step: Gate | AddAncilla) -> str:
    """History text of one step with 1-based labels, e.g. ``cnot 1 2``."""
    if isinstance(step, AddAncilla):
        return "ancilla"
    return f"{step.kind.lower()} " + " ".join(str(q + 1) for q in step.operands)
