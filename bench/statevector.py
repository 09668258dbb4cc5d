"""Independent reference for the benchmark's checks.

A small numpy statevector simulator and a phase-free symplectic tracker of
descriptor supports. Neither uses dhsim: the benchmark checks dhsim's
reports against these, never against `dhsim.oracle`.

Conventions match the circuit files: qubit 0 is the leftmost tensor factor
(axis 0 of a `(2,) * n` tensor, the most significant bit of a bitstring),
and `bell a b` is CNOT(a -> b) followed by H on a.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

ATOL = 1e-9

_S2 = 1 / np.sqrt(2)
_SINGLE = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
}
_LETTERS = "IXYZ"


def _primitive_steps(gates):
    """Expand `bell` into CNOT then H; other gates pass through."""
    for kind, ops in gates:
        if kind == "bell":
            yield "cnot", ops
            yield "h", ops[:1]
        else:
            yield kind, ops


def _apply_single(state: np.ndarray, matrix: np.ndarray, q: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(matrix, state, axes=([1], [q])), 0, q)


def _apply_cnot(state: np.ndarray, c: int, t: int) -> np.ndarray:
    out = state.copy()
    index = [slice(None)] * state.ndim
    index[c] = 1
    sub = state[tuple(index)]
    out[tuple(index)] = np.flip(sub, axis=t - 1 if t > c else t)
    return out


def apply_circuit(state: np.ndarray, gates, inverse: bool = False) -> np.ndarray:
    """Apply U (or U^dagger) to a `(2,) * n` tensor, with optional trailing batch axes.

    `gates` is a list of `(kind, operands)` in time order, kinds in lower
    case, operands 0-based.
    """
    steps = list(_primitive_steps(gates))
    if inverse:
        steps.reverse()
    for kind, ops in steps:
        if kind == "cnot":
            state = _apply_cnot(state, ops[0], ops[1])
        else:
            matrix = _SINGLE[kind].conj().T if inverse else _SINGLE[kind]
            state = _apply_single(state, matrix, ops[0])
    return state


def final_state(n: int, gates) -> np.ndarray:
    """U|0...0> as a `(2,) * n` tensor."""
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    return apply_circuit(state, gates)


def apply_letters(state: np.ndarray, letters: str) -> np.ndarray:
    """Apply a bare Pauli string such as "XIZY" (qubit 0 first)."""
    for q, letter in enumerate(letters):
        if letter != "I":
            state = _apply_single(state, _SINGLE[letter.lower()], q)
    return state


_TERM = re.compile(r"^(?P<coef>\S+) \* (?P<body>[IXYZ⊗]+)$")


def parse_coefficient(text: str) -> complex:
    """Coefficient as rendered by dhsim: "1/2", "-1", "1/2i" or "(1/2-1/4i)"."""
    if text.startswith("(") and text.endswith(")"):
        m = re.fullmatch(r"([+-]?[\d/]+)([+-])([\d/]+)i", text[1:-1])
        if not m:
            raise ValueError(f"bad coefficient {text!r}")
        im = float(Fraction(m.group(3)))
        return complex(float(Fraction(m.group(1))), im if m.group(2) == "+" else -im)
    if text.endswith("i"):
        return complex(0, float(Fraction(text[:-1])))
    return complex(float(Fraction(text)))


def parse_operator(text: str, n: int) -> list[tuple[complex, str]]:
    """Rendered Pauli sum ("1 * X⊗I + -1/2 * Z⊗Z") as (coefficient, letters) terms."""
    if text == "0":
        return []
    terms = []
    for chunk in text.split(" + "):
        m = _TERM.match(chunk)
        if not m:
            raise ValueError(f"bad term {chunk!r}")
        letters = m.group("body").replace("⊗", "")
        if len(letters) != n:
            raise ValueError(f"term {chunk!r} is not on {n} qubits")
        terms.append((parse_coefficient(m.group("coef")), letters))
    return terms


def apply_operator(state: np.ndarray, terms) -> np.ndarray:
    out = np.zeros_like(state)
    for coef, letters in terms:
        out = out + coef * apply_letters(state, letters)
    return out


def descriptor_mismatches(n: int, gates, rows) -> list[str]:
    """Compare reported descriptors with U^dagger sigma U, applied to a fixed random state.

    `rows` are the report's descriptor rows: {"qubit", "x", "y", "z"}.
    """
    if len(rows) != n:
        return [f"{len(rows)} descriptor rows for {n} qubits"]
    rng = np.random.default_rng(12345)
    phi = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
    phi /= np.linalg.norm(phi)
    chi = apply_circuit(phi, gates)
    labels, moved, claimed = [], [], []
    for q, row in enumerate(rows):
        if row["qubit"] != q + 1:
            return [f"descriptor row {q} is labelled {row['qubit']}"]
        for which in "xyz":
            letters = "I" * q + which.upper() + "I" * (n - q - 1)
            labels.append(f"q{q + 1}{which}")
            moved.append(apply_letters(chi, letters))
            claimed.append(apply_operator(phi, parse_operator(row[which], n)))
    want = apply_circuit(np.stack(moved, axis=-1), gates, inverse=True)
    got = np.stack(claimed, axis=-1)
    dev = np.abs(want - got).reshape(-1, len(labels)).max(axis=0)
    return [f"descriptor {label} deviates by {d:.2e}"
            for label, d in zip(labels, dev) if d > ATOL]


def single_averages(state: np.ndarray) -> list[tuple[float, float, float]]:
    """(<X>, <Y>, <Z>) of every qubit."""
    n = state.ndim
    out = []
    for q in range(n):
        vals = []
        for letter in "XYZ":
            moved = apply_letters(state, "I" * q + letter + "I" * (n - q - 1))
            vals.append(float(np.vdot(state, moved).real))
        out.append(tuple(vals))
    return out


def probabilities(state: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities, bitstring order with qubit 0 first."""
    return np.abs(state.reshape(-1)) ** 2


def reduced_density(state: np.ndarray, qubits) -> np.ndarray:
    n = state.ndim
    keep = list(qubits)
    rest = [q for q in range(n) if q not in keep]
    psi = np.transpose(state, keep + rest).reshape(2 ** len(keep), -1)
    return psi @ psi.conj().T


def pair_table(state: np.ndarray, pair) -> dict[str, float]:
    """<P_a P_b> for every two-letter index "IX", "ZZ", ... of a qubit pair."""
    n = state.ndim
    a, b = pair
    table = {}
    for la in _LETTERS:
        for lb in _LETTERS:
            letters = ["I"] * n
            letters[a], letters[b] = la, lb
            moved = apply_letters(state, "".join(letters))
            table[la + lb] = float(np.vdot(state, moved).real)
    return table


def vacuum_pair_table(n: int, rows, pair=(0, 1)) -> dict[str, complex]:
    """<0...0| C_a C_b |0...0> for the components of two reported descriptors.

    This is the expectation table a descriptor set implies for a pair:
    the ordered product of qubit a's component and qubit b's component,
    averaged in the fixed universal state.
    """
    vac = np.zeros((2,) * n, dtype=complex)
    vac[(0,) * n] = 1.0
    ops = [{"I": None} | {w.upper(): parse_operator(rows[q][w], n) for w in "xyz"}
           for q in pair]
    table = {}
    for la in _LETTERS:
        for lb in _LETTERS:
            vec = vac
            for terms in (ops[1][lb], ops[0][la]):
                if terms is not None:
                    vec = apply_operator(vec, terms)
            table[la + lb] = complex(vec[(0,) * n])
    return table


def support_steps(n: int, gates) -> list[list[list[int]]]:
    """1-based support of every qubit's descriptor, initially and after each gate.

    Tracks q_x and q_z of each qubit as (x bits, z bits) rows without
    phases: a descriptor acts on a slot exactly when one of those rows
    does, since q_y is proportional to q_x q_z.
    """
    xs = [(1 << q, 0) for q in range(n)]
    zs = [(0, 1 << q) for q in range(n)]

    def mul(p, r):
        return (p[0] ^ r[0], p[1] ^ r[1])

    def supports():
        out = []
        for q in range(n):
            bits = xs[q][0] | xs[q][1] | zs[q][0] | zs[q][1]
            out.append([k + 1 for k in range(n) if bits >> k & 1])
        return out

    steps = [supports()]
    for gate in gates:
        for kind, ops in _primitive_steps([gate]):
            if kind == "h":
                (q,) = ops
                xs[q], zs[q] = zs[q], xs[q]
            elif kind == "s":
                (q,) = ops
                xs[q] = mul(xs[q], zs[q])
            elif kind == "cnot":
                c, t = ops
                xs[c] = mul(xs[c], xs[t])
                zs[t] = mul(zs[c], zs[t])
        steps.append(supports())
    return steps
