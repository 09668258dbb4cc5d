"""Dense Schrodinger-picture reference implementation.

Everything here is floating point (tolerance 1e-9) and exists to
cross-check the exact descriptor path: state vectors, string averages,
reduced densities, and conditional states via projection.

The state of n qubits is a ``(2,)*n`` tensor; each gate multiplies its
2^k x 2^k matrix into the operand axes (one transpose there and back) at
O(2^n) cost.  String averages take one ``(count, n)`` letter array and
never gather a string whose bra amplitudes are all exact zeros.  The one
dense 2^n x 2^n matrix built here is ``gate_matrix``'s, refused beyond
``DENSE_MAX_QUBITS`` qubits before it is allocated.

Conventions, fixed once:

* qubit 0 is the leftmost tensor factor (most significant bit of the
  basis index);
* a circuit with steps t0..tk corresponds to U = U_k ... U_0, and a
  descriptor evolves as U^dagger P U.
"""

from __future__ import annotations

import functools

import numpy as np

from .pauli import PauliSum

ATOL = 1e-9

_SQ = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}

# Gate kind -> matrix on its operands, the first operand leftmost.  BELL is
# CNOT(a -> b) followed by H on a, the inverse of the Bell-pair preparation.
_GATES = {name: _SQ[name] for name in "HXYZS"}
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


def _apply(psi: np.ndarray, matrix: np.ndarray,
           operands: tuple[int, ...]) -> np.ndarray:
    """Multiply a 2^k x 2^k matrix into the operand axes; batch axes follow.
    One transpose brings the operand axes to the front and one puts them back."""
    order = [*operands, *[a for a in range(psi.ndim) if a not in operands]]
    front = psi.transpose(order)
    out = (matrix @ front.reshape(2 ** len(operands), -1)).reshape(front.shape)
    inverse = [0] * len(order)
    for position, axis in enumerate(order):
        inverse[axis] = position
    return out.transpose(inverse)


def gate_matrix(kind: str, n: int, operands: tuple[int, ...]) -> np.ndarray:
    """The 2^n x 2^n matrix of one gate on the listed operands."""
    _check_dense(n)
    return apply_circuit(n, [(kind, operands)], np.eye(2 ** n, dtype=complex))


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
    """x-masks, z-masks and Y phases i^(#Y) of a (count, n) letter array-like.

    A string has exactly one nonzero per column: P[col ^ xmask, col], equal
    to i^(#Y) (-1)^(parity of col & zmask), where zmask covers the Y and Z
    slots (Y = i XZ acting on |b> gives i (-1)^b |1-b>).
    """
    letters = np.asarray(strings, dtype=np.int64)
    if len(strings) and letters.shape != (len(strings), n):
        raise OracleError(f"strings of shape {letters.shape} on {n} qubits")
    letters = letters.reshape(len(strings), n)
    if letters.size and (letters.min() < 0 or letters.max() > 3):
        raise OracleError("letters must be 0..3 (I, X, Y, Z)")
    bits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)   # qubit 0 is the MSB
    xmask = _X_BIT[letters] @ bits
    zmask = _Z_BIT[letters] @ bits
    phase = _I_POWERS[(letters == 2).sum(axis=1) & 3]
    return xmask, zmask, phase


def pick_letters(picks, n: int) -> np.ndarray:
    """The ``(count, n)`` letters of integer picks: base-4 digit q on qubit q."""
    return np.array(picks, dtype=np.int64)[:, None] >> np.arange(0, 2 * n, 2) & 3


# Values per temporary of string_averages: AVERAGE_CHUNK * 2^n, 128 KiB at
# n = 10.  A chunk holds as many strings as fit, AVERAGE_CHUNK of them on a
# dense state and all 200 samples on a stabilizer state of small support.
AVERAGE_CHUNK = 8


def _overlaps(nonzero: np.ndarray, n: int) -> np.ndarray:
    """2^n * #{j : nonzero[j] and nonzero[j ^ x]} for every mask x: the
    Walsh-Hadamard transform of the 0/1 vector's squared transform, each a
    left and a right multiply of its 2^a x 2^(n-a) matrix form by corners
    of one (-1)^(parity of row & col) matrix.  Every value on the way is an
    integer of magnitude <= 2^n * #nonzeros: exact floats up to 26 qubits.
    The products are complex, as the gate kernel's are: a real one would
    take a second BLAS work buffer, a quarter MiB more peak memory."""
    a = n // 2
    cols, sign = _columns(n - a)
    right = sign[cols[:, None] & cols] + 0j
    left = right[:2 ** a, :2 ** a]
    spectrum = left @ nonzero.reshape(2 ** a, -1) @ right
    return (left @ (spectrum * spectrum) @ right).real.reshape(-1)


def string_averages(state: np.ndarray, strings) -> np.ndarray:
    """<psi| P |psi> for each bare letter sequence P, as one complex array.

    ``strings`` is a ``(count, n)`` int array (digit q on qubit q) or a
    list of letter sequences.  The sum
    i^(#Y) sum_j conj(psi[j ^ x]) (-1)^(j . z) psi[j] runs only over the
    indices j where psi[j] is exactly nonzero (2^r of them on a stabilizer
    state): every other term is an exact 0, so no tolerance drops anything.
    A string whose bra amplitudes psi[j ^ x] on those indices are all exact
    zeros (most samples on a stabilizer state) averages to an exact 0 and
    is never gathered.  The others are taken in chunks whose temporaries
    hold at most AVERAGE_CHUNK * 2^n values, whatever the support.
    """
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if dim != 2 ** n:
        raise OracleError(f"state of length {dim} is not a register of qubits")
    xmask, zmask, phase = _string_masks(strings, n)
    _, sign = _columns(n)
    nonzero = state != 0
    support = np.flatnonzero(nonzero)
    ket = state[support]
    bra = np.conj(state)
    out = np.zeros(len(xmask), dtype=complex)
    # A count is a multiple of 2^n: half of that separates 0 from 1.
    live = np.flatnonzero(_overlaps(nonzero, n)[xmask] > dim / 2)
    rows = max(1, AVERAGE_CHUNK * dim // max(len(support), 1))
    for lo in range(0, len(live), rows):
        k = live[lo:lo + rows]
        amps = bra[support ^ xmask[k, None]]
        amps *= sign[support & zmask[k, None]]   # in place: one chunk array
        out[k] = phase[k] * (amps @ ket)
    return out


def worst_deviation(averages: np.ndarray, values) -> float:
    """max |averages[k] - values[k]| over every row k; the two must have
    one entry per row."""
    want = np.array([complex(v) if v else 0j for v in values], dtype=complex)
    if want.shape != averages.shape:
        raise OracleError(f"{len(want)} values for {len(averages)} averages")
    return float(np.max(np.abs(averages - want), initial=0.0))


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
    probability.  Zero-probability outcomes raise, and so do qubits that
    repeat or lie outside the state, bits other than 0 and 1, and an
    outcome whose length is not the number of qubits.
    """
    n = int(round(np.log2(state.shape[0])))
    if len(qubits) != len(outcome):
        raise OracleError(f"{len(outcome)} outcome bits for {len(qubits)} qubits")
    if len(set(qubits)) != len(qubits) or not all(q in range(n) for q in qubits):
        raise OracleError(f"qubits {qubits} are not distinct qubits of a {n}-qubit state")
    if not all(bit in (0, 1) for bit in outcome):
        raise OracleError(f"outcome {outcome} is not a string of bits")
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
