"""dhsim: exact Heisenberg-picture descriptor engine for Clifford circuits.

The package tracks per-qubit descriptor operators as signed Pauli sums,
evolves them under gate conjugation rules, reconstructs densities and
conditional (relative) descriptors, enumerates equivalent descriptor sets,
and cross-checks everything against a dense Schrodinger-picture oracle.
"""

from .pauli import (
    I, X, Y, Z,
    ComplexDyadic, DimensionError, PauliSum,
    parse_sum, sum_mul, vacuum_expectation,
)
from .engine import (
    AddAncilla, Circuit, Descriptor, DescriptorSet, Gate, GateError,
    add_ancilla, apply_gate, evolve_circuit, expectation, initial_set,
)

__all__ = [
    "I", "X", "Y", "Z",
    "ComplexDyadic", "DimensionError", "PauliSum",
    "parse_sum", "sum_mul", "vacuum_expectation",
    "AddAncilla", "Circuit", "Descriptor", "DescriptorSet", "Gate",
    "GateError", "add_ancilla", "apply_gate", "evolve_circuit",
    "expectation", "initial_set",
]

__version__ = "0.1.0"
