"""Dense matrices of strings, sums and circuits, and exact conjugation.

The tests' independent checks of the gate rules and of the oracle's tensor
kernel: a string or a sum as its 2^n x 2^n matrix, a circuit's unitary,
and U^dagger P U projected back onto the Pauli basis exactly.  The program
itself never builds these matrices.  Every builder refuses registers
beyond ``oracle.DENSE_MAX_QUBITS`` before it allocates.
"""

import itertools
from fractions import Fraction

import numpy as np

from dhsim import oracle
from dhsim.oracle import ATOL, OracleError
from dhsim.pauli import LETTER_NAMES, ComplexDyadic, PauliSum

# A non-Clifford phase gate: the tensor kernel's tests multiply it in, and
# conjugation must refuse the non-dyadic images it produces.
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


def string_matrix(letters: tuple[int, ...] | str) -> np.ndarray:
    """Dense matrix of a bare letter sequence (qubit 0 leftmost)."""
    if not isinstance(letters, str):
        letters = "".join(LETTER_NAMES[l] for l in letters)
    oracle._check_dense(len(letters))
    m = np.eye(1, dtype=complex)
    for ch in letters:
        m = np.kron(m, oracle._SQ[ch])
    return m


def sum_matrix(s: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum."""
    oracle._check_dense(s.n)
    m = np.zeros((2 ** s.n, 2 ** s.n), dtype=complex)
    for letters, coef in s.terms():
        m += complex(coef) * string_matrix(letters)
    return m


def circuit_unitary(n: int, steps) -> np.ndarray:
    """U = U_k ... U_0 for gate steps in time order."""
    oracle._check_dense(n)
    return oracle.apply_circuit(n, steps, np.eye(2 ** n, dtype=complex))


def _check_unitary(u: np.ndarray) -> None:
    dim = u.shape[0]
    if not np.allclose(u.conj().T @ u, np.eye(dim), atol=ATOL):
        raise OracleError("matrix is not unitary")


def _snap_fraction(x: float, max_den: int = 2 ** 40) -> Fraction:
    frac = Fraction(x).limit_denominator(max_den)
    if abs(float(frac) - x) > ATOL:
        raise OracleError(f"residual {x} is not within 1e-9 of a dyadic")
    d = frac.denominator
    if d & (d - 1) != 0:
        raise OracleError(f"value {x} does not snap to a dyadic rational")
    return frac


def conjugate(u: np.ndarray, p: PauliSum) -> PauliSum:
    """U^dagger P U, projected back onto the Pauli basis exactly.

    The projection uses the normalized Hilbert-Schmidt inner product; each
    near-dyadic coefficient snaps to its exact value and anything left over
    beyond 1e-9 is an error (the input was not Clifford-compatible).  A
    circuit with steps t0..tk is U = U_k ... U_0, so folding gates one at a
    time conjugates the *initial* operator first:
    ``conjugate(U_0, conjugate(U_1, ... conjugate(U_k, P)))``.
    """
    n = p.n
    dim = 2 ** n
    if u.shape != (dim, dim):
        raise OracleError(f"operator shape {u.shape} does not match {n} qubits")
    _check_unitary(u)
    dense = u.conj().T @ sum_matrix(p) @ u

    # Strings with x-mask m live on the anti-diagonal band row = col ^ m;
    # only masks carrying weight in the dense matrix need projecting.
    cols, sign = oracle._columns(n)
    masks = {int(r) ^ int(c) for r, c in zip(*np.nonzero(np.abs(dense) > ATOL / dim))}
    terms = {}
    captured = np.zeros_like(dense)
    for mask in sorted(masks):
        band = dense[cols ^ mask, cols]
        xy_slots = [q for q in range(n) if (mask >> (n - 1 - q)) & 1]
        iz_slots = [q for q in range(n) if q not in xy_slots]
        for zpick in itertools.product((0, 3), repeat=len(iz_slots)):
            for xypick in itertools.product((1, 2), repeat=len(xy_slots)):
                picked = dict(zip(iz_slots, zpick)) | dict(zip(xy_slots, xypick))
                letters = tuple(picked[q] for q in range(n))
                _, (zmask,), (phase,) = oracle._string_masks([letters], n)
                entries = phase * sign[cols & zmask]
                coef = complex(np.dot(np.conj(entries), band)) / dim
                if abs(coef) <= ATOL:
                    continue
                re = (_snap_fraction(float(coef.real))
                      if abs(coef.real) > ATOL else Fraction(0))
                im = (_snap_fraction(float(coef.imag))
                      if abs(coef.imag) > ATOL else Fraction(0))
                terms[letters] = ComplexDyadic(re, im)
                captured[cols ^ mask, cols] += complex(terms[letters]) * entries
    if np.max(np.abs(dense - captured)) > ATOL:
        raise OracleError("projection residual exceeds tolerance")
    return PauliSum(n, terms)
