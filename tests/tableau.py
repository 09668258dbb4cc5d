"""An independent check of the engine's fold: the Aaronson-Gottesman
stabilizer tableau (quant-ph/0406196), with CHP's own gate and phase rules.

The tableau holds 2n rows, the destabilizers X_i and stabilizers Z_i of
|0...0>, bit-sliced in integers: per qubit one int of the rows' x bits and
one of their z bits, and one int of the rows' phase bits r, a row being
(-1)**r times its Pauli string (x and z both set is Y).  A gate G maps
every row P to G P G^dagger in a few integer operations.  Run on the
inverse circuit U^dagger, the gates reversed and each inverted, row X_i
becomes U^dagger X_i U and row Z_i becomes U^dagger Z_i U: qubit i's q_x
and q_z, which a set's packed row holds as i**k times a bare string, so
k = 2r.  Only H, S and CNOT are applied, every other kind being a word of
them written here, and nothing of the engine's rules or products is read.
"""

from dhsim.engine import gate_steps
from dhsim.pauli import X, Y, Z, slot_key

# The inverse of each gate kind as a word of base gates in time order, each
# (name, operand positions): Z = S S, X = H Z H, Y = X Z up to a phase that
# conjugation does not see, S^dagger = S S S, and BELL^dagger = H on the
# first operand, then CNOT.
_Z = (("s", 0), ("s", 0))
_X = (("h", 0), *_Z, ("h", 0))
_INVERSE_WORDS = {
    "H": (("h", 0),),
    "X": _X,
    "Y": _Z + _X,
    "Z": _Z,
    "S": (("s", 0),) * 3,
    "CNOT": (("cnot", 0, 1),),
    "BELL": (("h", 0), ("cnot", 0, 1)),
}
# A row's (x bit, z bit) on one qubit -> its letter.
_LETTERS = {(1, 0): X, (1, 1): Y, (0, 1): Z}


class Tableau:
    """The 2n-row tableau of |0...0>: row i < n is X_i, row n + i is Z_i."""

    def __init__(self, n: int):
        self.n = n
        self.all_rows = (1 << 2 * n) - 1
        self.x = [1 << q for q in range(n)]
        self.z = [1 << n + q for q in range(n)]
        self.r = 0

    def h(self, a: int) -> None:
        self.r ^= self.x[a] & self.z[a]
        self.x[a], self.z[a] = self.z[a], self.x[a]

    def s(self, a: int) -> None:
        self.r ^= self.x[a] & self.z[a]
        self.z[a] ^= self.x[a]

    def cnot(self, a: int, b: int) -> None:
        x, z = self.x, self.z
        self.r ^= x[a] & z[b] & (x[b] ^ z[a] ^ self.all_rows)
        x[b] ^= x[a]
        z[a] ^= z[b]

    def row(self, j: int) -> tuple[int, int]:
        """Row j as a set's row holds a component: (key, k), the key packed
        by ``slot_key`` and the sign (-1)**r as i**k with k = 2r."""
        key = 0
        for q in range(self.n):
            bits = (self.x[q] >> j & 1, self.z[q] >> j & 1)
            if bits != (0, 0):
                key |= slot_key(q, _LETTERS[bits])
        return key, 2 * (self.r >> j & 1)


def inverse_tableau(n: int, gates) -> Tableau:
    """The tableau of |0...0> on n qubits after the inverse of the gates."""
    t = Tableau(n)
    for kind, operands in reversed(gates):
        for name, *positions in _INVERSE_WORDS[kind]:
            getattr(t, name)(*(operands[p] for p in positions))
    return t


def mismatches(set_) -> list[tuple[int, str]]:
    """Each (qubit, "x" or "z") whose component in the set's packed rows
    differs from the tableau's row, on the set's final width, every gate of
    its history included (a gate before an ancilla leaves the ancilla's
    rows alone, as the fresh tableau does)."""
    n = set_.n
    t = inverse_tableau(n, gate_steps(set_))
    out = []
    for q, (key_x, k_x, key_z, k_z) in enumerate(set_.rows):
        if t.row(q) != (key_x, k_x):
            out.append((q, "x"))
        if t.row(n + q) != (key_z, k_z):
            out.append((q, "z"))
    return out
