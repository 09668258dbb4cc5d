"""Dense Schrodinger-picture reference implementation.

Everything here is floating point (tolerance 1e-9) and exists to
cross-check the exact descriptor path: state vectors, unitary matrices,
operator conjugation with projection back onto the Pauli basis, and
conditional states via projection.

The state of n qubits is a ``(2,)*n`` tensor; each gate multiplies its
2x2 or 4x4 matrix into the operand axes at O(2^n) cost.  Dense 2^n x 2^n
matrices exist only for ``conjugate`` and tests at small n, and are
refused beyond ``DENSE_MAX_QUBITS`` qubits before they are allocated.

Conventions, fixed once:

* qubit 0 is the leftmost tensor factor (most significant bit of the
  basis index);
* a circuit with steps t0..tk corresponds to U = U_k ... U_0, and a
  descriptor evolves as U^dagger P U.  Folding a new gate therefore
  conjugates the *initial* operator first:
  ``conjugate(U_0, conjugate(U_1, ... conjugate(U_k, P)))``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .pauli import ComplexDyadic, PauliSum, LETTER_NAMES

ATOL = 1e-9

_SQ = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}

# Gate kind -> matrix on its operands, the first operand leftmost.  BELL is
# CNOT(a -> b) followed by H on a, the inverse of the Bell-pair preparation.
_GATES = {name: _SQ[name] for name in "HXYZST"}
_GATES["CNOT"] = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_GATES["BELL"] = np.kron(_SQ["H"], _SQ["I"]) @ _GATES["CNOT"]

# Largest register that gets a dense 2^n x 2^n matrix: 16 MiB at n = 10.
DENSE_MAX_QUBITS = 10


class OracleError(ValueError):
    pass


def _check_dense(n: int) -> None:
    if n > DENSE_MAX_QUBITS:
        raise OracleError(f"{n} qubits exceed the dense limit of {DENSE_MAX_QUBITS}")


def zero_state(n: int) -> np.ndarray:
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    return state


def string_matrix(letters: tuple[int, ...] | str) -> np.ndarray:
    """Dense matrix of a bare letter sequence (qubit 0 leftmost)."""
    if not isinstance(letters, str):
        letters = "".join(LETTER_NAMES[l] for l in letters)
    _check_dense(len(letters))
    m = np.eye(1, dtype=complex)
    for ch in letters:
        m = np.kron(m, _SQ[ch])
    return m


def sum_matrix(s: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum."""
    _check_dense(s.n)
    m = np.zeros((2 ** s.n, 2 ** s.n), dtype=complex)
    for letters, coef in s.terms():
        m += complex(coef) * string_matrix(letters)
    return m


def _apply(psi: np.ndarray, matrix: np.ndarray,
           operands: tuple[int, ...]) -> np.ndarray:
    """Multiply a 2^k x 2^k matrix into the operand axes; batch axes follow."""
    k = len(operands)
    front = np.moveaxis(psi, operands, range(k))
    out = (matrix @ front.reshape(2 ** k, -1)).reshape(front.shape)
    return np.moveaxis(out, range(k), operands)


def gate_matrix(kind: str, n: int, operands: tuple[int, ...]) -> np.ndarray:
    return circuit_unitary(n, [(kind, operands)])


def circuit_unitary(n: int, steps) -> np.ndarray:
    """U = U_k ... U_0 for gate steps in time order."""
    _check_dense(n)
    return apply_circuit(n, steps, np.eye(2 ** n, dtype=complex))


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


# i**k for k = 0..3: the phase a string's Y letters contribute to its entries.
_I_POWERS = np.array([1, 1j, -1, -1j])
# Letter (I, X, Y, Z) -> whether it flips the bit (X, Y) or signs it (Y, Z).
_X_BIT = np.array([0, 1, 1, 0])
_Z_BIT = np.array([0, 0, 1, 1])


@functools.lru_cache(maxsize=8)
def _columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices 0..2^n-1 and (-1)^(bit parity) of each, read-only."""
    cols = np.arange(2 ** n)
    parity = np.zeros(2 ** n, dtype=np.int64)
    for bitpos in range(n):
        parity ^= (cols >> bitpos) & 1
    sign = 1.0 - 2.0 * parity
    cols.flags.writeable = False
    sign.flags.writeable = False
    return cols, sign


def _string_masks(strings, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x-masks, z-masks and Y phases i^(#Y) of bare letter sequences.

    A string has exactly one nonzero per column: P[col ^ xmask, col], equal
    to i^(#Y) (-1)^(parity of col & zmask), where zmask covers the Y and Z
    slots (Y = i XZ acting on |b> gives i (-1)^b |1-b>).
    """
    letters = np.array(strings, dtype=np.int64)
    if len(strings) and letters.shape != (len(strings), n):
        raise OracleError(f"strings of shape {letters.shape} on {n} qubits")
    letters = letters.reshape(len(strings), n)
    if letters.size and (letters.min() < 0 or letters.max() > 3):
        raise OracleError("letters must be 0..3 (I, X, Y, Z)")
    bits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)   # qubit 0 is the MSB
    xmask = _X_BIT[letters] @ bits
    zmask = _Z_BIT[letters] @ bits
    phase = _I_POWERS[np.count_nonzero(letters == 2, axis=1) % 4]
    return xmask, zmask, phase


def _string_column_entries(letters: tuple[int, ...], n: int) -> tuple[int, np.ndarray]:
    """x-mask and per-column entries of one Pauli string."""
    (xmask,), (zmask,), (phase,) = _string_masks([letters], n)
    cols, sign = _columns(n)
    return int(xmask), phase * sign[cols & zmask]


def conjugate(u: np.ndarray, p: PauliSum) -> PauliSum:
    """U^dagger P U, projected back onto the Pauli basis exactly.

    The projection uses the normalized Hilbert-Schmidt inner product; each
    near-dyadic coefficient snaps to its exact value and anything left over
    beyond 1e-9 is an error (the input was not Clifford-compatible).
    """
    n = p.n
    dim = 2 ** n
    if u.shape != (dim, dim):
        raise OracleError(f"operator shape {u.shape} does not match {n} qubits")
    _check_unitary(u)
    dense = u.conj().T @ sum_matrix(p) @ u

    # Strings with x-mask m live on the anti-diagonal band row = col ^ m;
    # only masks carrying weight in the dense matrix need projecting.
    cols, _ = _columns(n)
    masks = set()
    rows, cs = np.nonzero(np.abs(dense) > ATOL / dim)
    for r, c in zip(rows, cs):
        masks.add(int(r) ^ int(c))
    terms = {}
    captured = np.zeros_like(dense)
    for mask in sorted(masks):
        band = dense[cols ^ mask, cols]
        xy_slots = [q for q in range(n) if (mask >> (n - 1 - q)) & 1]
        iz_slots = [q for q in range(n) if q not in xy_slots]
        for zpick in itertools.product((0, 3), repeat=len(iz_slots)):
            for xypick in itertools.product((1, 2), repeat=len(xy_slots)):
                letters = [0] * n
                for q, letter in zip(iz_slots, zpick):
                    letters[q] = letter
                for q, letter in zip(xy_slots, xypick):
                    letters[q] = letter
                letters = tuple(letters)
                _, entries = _string_column_entries(letters, n)
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


# Values per temporary of string_averages: AVERAGE_CHUNK * 2^n, 128 KiB at
# n = 10.  A chunk holds as many strings as fit, AVERAGE_CHUNK of them on a
# dense state and all 200 samples on a stabilizer state of small support.
AVERAGE_CHUNK = 8


def string_averages(state: np.ndarray, strings) -> np.ndarray:
    """<psi| P |psi> for each bare letter sequence P, as one complex array.

    The sum i^(#Y) sum_j conj(psi[j ^ x]) (-1)^(j . z) psi[j] runs only over
    the indices j where psi[j] is exactly nonzero: every other term is an
    exact 0, so nothing is dropped by a tolerance.  A stabilizer state has
    2^r such indices.  The strings are taken in chunks whose temporaries
    hold at most AVERAGE_CHUNK * 2^n values, so memory stays bounded
    whatever the support and the number of strings.
    """
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if dim != 2 ** n:
        raise OracleError(f"state of length {dim} is not a register of qubits")
    xmask, zmask, phase = _string_masks(strings, n)
    _, sign = _columns(n)
    support = np.flatnonzero(state)
    ket = state[support]
    bra = np.conj(state)
    out = np.empty(len(xmask), dtype=complex)
    rows = max(1, AVERAGE_CHUNK * dim // max(len(support), 1))
    for lo in range(0, len(out), rows):
        hi = lo + rows
        amps = bra[support ^ xmask[lo:hi, None]]
        amps *= sign[support & zmask[lo:hi, None]]   # in place: one chunk array
        out[lo:hi] = phase[lo:hi] * (amps @ ket)
    return out


def expectation_dense(state: np.ndarray, p: PauliSum) -> complex:
    """<psi| P |psi> for a dense state: coefficient-weighted string averages."""
    if state.shape[0] != 2 ** p.n:
        raise OracleError("state dimension does not match operator")
    terms = list(p.terms())
    averages = string_averages(state, [letters for letters, _ in terms])
    return complex(sum(complex(coef) * avg
                       for (_, coef), avg in zip(terms, averages)))


def apply_circuit(n: int, steps, state: np.ndarray | None = None) -> np.ndarray:
    """Evolve |0...0> (or a given state, or a 2-d batch of column states)
    through gate steps in time order."""
    psi = zero_state(n) if state is None else state.astype(complex)
    shape = psi.shape
    psi = psi.reshape((2,) * n + (-1,))
    for kind, operands in steps:
        matrix = _GATES.get(kind.upper())
        if matrix is None:
            raise OracleError(f"unknown gate kind {kind!r}")
        psi = _apply(psi, matrix, tuple(operands))
    return psi.reshape(shape)


def conditional_state(state: np.ndarray, qubits: list[int],
                      outcome: list[int]) -> tuple[np.ndarray, float]:
    """Project the listed qubits onto a bitstring outcome and renormalize.

    Returns the normalized state of the remaining qubits and the outcome
    probability.  Zero-probability outcomes raise.
    """
    n = int(round(np.log2(state.shape[0])))
    index = [slice(None)] * n
    for q, bit in zip(qubits, outcome):
        index[q] = int(bit)
    amps = state.reshape((2,) * n)[tuple(index)].reshape(-1).astype(complex)
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob <= 1e-12:
        raise OracleError(f"outcome {outcome} has zero probability")
    return amps / np.sqrt(prob), prob


def reduced_density(state: np.ndarray, qubits: list[int]) -> np.ndarray:
    """Partial trace of |psi><psi| keeping only the listed qubits."""
    n = int(round(np.log2(state.shape[0])))
    keep = list(qubits)
    rest = [q for q in range(n) if q not in keep]
    psi = state.reshape([2] * n)
    perm = keep + rest
    psi = np.transpose(psi, perm).reshape(2 ** len(keep), 2 ** len(rest))
    return psi @ psi.conj().T
