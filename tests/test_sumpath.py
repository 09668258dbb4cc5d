"""The tests' sum path (``sumpath``) against dense conjugation: on random
circuits with ancillas, and on multi-term registers made by conjugating a
Clifford register with CCZ, every component is U^dagger sigma U for the
circuit's unitary U, and every average, diagonal and single is the dense
state's."""

import random

import numpy as np
import pytest

from dhsim import oracle
from dhsim.engine import AddAncilla, Circuit, Gate, evolve_circuit
from dhsim.pauli import I, X, Y, Z, PauliSum
from conftest import random_gate, random_steps
from test_density import ccz_conjugated
import matrices
import sumpath


def dense_components(n, steps, first=np.eye(1)):
    """Each qubit's (q_x, q_y, q_z) by dense conjugation, U^dagger sigma U,
    with U the product of every gate on the final n qubits after
    ``first``, a unitary on the leading slots applied before the circuit.
    A gate before an ancilla's allocation does not touch its slot, so U
    serves the ancillas too."""
    lead = np.kron(first, np.eye(2 ** n // first.shape[0]))
    u = matrices.circuit_unitary(n, [s for s in steps if isinstance(s, Gate)]) @ lead
    return [tuple(matrices.conjugate(u, PauliSum.single(n, a, w)) for w in (X, Y, Z))
            for a in range(n)]


def ccz(n):
    """CCZ on qubits 0-2 of n as a dense matrix (qubit 0 most significant)."""
    return np.diag([-1 if k >> (n - 3) == 7 else 1 for k in range(2 ** n)]).astype(complex)


def dense_checks(descs, psi, rng):
    """The sum path's averages, singles and full diagonal against the dense
    state psi of the same register."""
    n = len(descs)
    strings = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(60)]
    got = sumpath.expectations(descs, strings)
    want = oracle.string_averages(psi, strings)
    assert np.allclose([complex(v) for v in got], want, atol=1e-12)
    singles = [tuple(w if q == a else I for q in range(n)) for a in range(n) for w in (X, Y, Z)]
    assert np.allclose([complex(v) for v in sumpath.single_averages(descs)],
                       oracle.string_averages(psi, singles), atol=1e-12)
    probs = sumpath.diagonal_probabilities(descs, range(n))
    assert np.allclose([float(p) for p in probs], np.abs(psi) ** 2, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 5))
def test_sum_path_is_dense_conjugation(n):
    rng = random.Random(5200 + n)
    for _ in range(4):
        steps, final = random_steps(rng, n, 3 * n + 4)
        descs = sumpath.evolve(Circuit(n, steps))
        assert len(descs) == final
        assert [tuple(d) for d in descs] == dense_components(final, steps)
        psi = oracle.apply_circuit(final, [s for s in steps if isinstance(s, Gate)])
        dense_checks(descs, psi, rng)


@pytest.mark.parametrize("n", [3, 4])
def test_sum_path_on_multi_term_registers(n):
    """CCZ before a Clifford circuit fixes |0...0>, so the averages stay the
    circuit's while the components become multi-term sums; gates and an
    ancilla after it are stepped on the sums."""
    rng = random.Random(5300 + n)
    for _ in range(2):
        start = [Gate("H", (q,)) for q in range(n)]
        start += [random_gate(rng, n) for _ in range(2 * n)]
        descs = ccz_conjugated(evolve_circuit(Circuit(n, ())))
        steps = start + [AddAncilla()] + [random_gate(rng, n + 1) for _ in range(2 * n)]
        for step in steps:
            descs = (sumpath.add_ancilla(descs) if isinstance(step, AddAncilla)
                     else sumpath.apply_gate(descs, step))
        assert max(len(c) for d in descs for c in d) > 1
        assert [tuple(d) for d in descs] == dense_components(n + 1, steps, ccz(n))
        psi = oracle.apply_circuit(n + 1, [s for s in steps if isinstance(s, Gate)])
        dense_checks(descs, psi, rng)


def test_sum_path_refuses_as_the_row_path_does():
    descs = sumpath.evolve(Circuit(2, (Gate("H", (0,)),)))
    with pytest.raises(ValueError, match="letter 4 at slot 1"):
        sumpath.expectations(descs, [(X, 4)])
    with pytest.raises(ValueError, match="subset must be nonempty"):
        sumpath.diagonal_probabilities(descs, [])
    with pytest.raises(ValueError, match="outside the 2-qubit register"):
        sumpath.diagonal_probabilities(descs, [2])
    assert sumpath.validate_basis(descs) == sumpath.validate_basis(
        evolve_circuit(Circuit(2, (Gate("H", (0,)),))).descriptors)
