"""dhsim: exact Heisenberg-picture descriptor engine for Clifford circuits.

The package tracks per-qubit descriptor operators as signed Pauli sums,
evolves them under gate conjugation rules, reconstructs densities and
conditional (relative) descriptors, enumerates equivalent descriptor sets,
and cross-checks everything against a dense Schrodinger-picture oracle.
"""

from .pauli import (
    I, X, Y, Z,
    ComplexDyadic, DimensionError, PauliString, PauliSum,
    hs_inner, parse_sum, string_mul, sum_mul, vacuum_expectation,
)
from .engine import (
    AddAncilla, Circuit, Descriptor, DescriptorSet, Gate, GateError,
    add_ancilla, apply_gate, evolve_circuit, expectation, heisenberg_image,
    initial_set,
)

__all__ = [
    "I", "X", "Y", "Z",
    "ComplexDyadic", "DimensionError", "PauliString", "PauliSum",
    "hs_inner", "parse_sum", "string_mul", "sum_mul", "vacuum_expectation",
    "AddAncilla", "Circuit", "Descriptor", "DescriptorSet", "Gate",
    "GateError", "add_ancilla", "apply_gate", "evolve_circuit",
    "expectation", "heisenberg_image", "initial_set",
]

__version__ = "0.1.0"
