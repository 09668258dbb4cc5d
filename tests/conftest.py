import os
import random
from fractions import Fraction

import pytest

from dhsim import oracle
from dhsim.engine import GATE_KINDS, Circuit, Gate, apply_gate, initial_set
from dhsim.pauli import Z, PauliSum

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """pyproject.toml's pythonpath puts src/ on this process's path only;
    tests that start `python -m dhsim.cli` need it in the environment too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


def dense_operator(coeffs):
    """sum_I coeffs[I] P_I as a numpy matrix (test-side reference)."""
    return sum(float(c) * oracle.string_matrix(index)
               for index, c in coeffs.items())


def dense_density(rho):
    """A DensityMatrix as the numpy matrix (1/2^n) sum_I a_I P_I."""
    return dense_operator(rho.coeffs) / 2 ** rho.n


def z_projector(n: int, qubit: int, outcome: int) -> PauliSum:
    """(1 +/- sigma_z)/2 on one slot: the computational outcome projector."""
    sign = 1 if outcome == 0 else -1
    return (PauliSum.identity(n)
            + PauliSum.single(n, qubit, Z, sign)).scale(Fraction(1, 2))


def random_gate(rng: random.Random, n: int) -> Gate:
    kinds = GATE_KINDS if n >= 2 else tuple(
        k for k in GATE_KINDS if k not in ("CNOT", "BELL"))
    kind = rng.choice(kinds)
    if kind in ("CNOT", "BELL"):
        a, b = rng.sample(range(n), 2)
        return Gate(kind, (a, b))
    return Gate(kind, (rng.randrange(n),))


def random_circuit(rng: random.Random, n: int, depth: int) -> Circuit:
    return Circuit(n, tuple(random_gate(rng, n) for _ in range(depth)))


@pytest.fixture(scope="session")
def bell_set():
    set_ = initial_set(2)
    set_ = apply_gate(set_, Gate("H", (0,)))
    return apply_gate(set_, Gate("CNOT", (0, 1)))


@pytest.fixture(scope="session")
def swap_result():
    from dhsim.protocols import run_entanglement_swap
    return run_entanglement_swap()
