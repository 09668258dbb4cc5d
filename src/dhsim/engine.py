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

A gate kind is one ``_RULES`` entry, one row triple per operand
(``GATE_ARITY``).  From |0...0>, q_y = i q_x q_z holds throughout, and a
Clifford circuit keeps every component one signed Pauli string, so a set
stores each qubit's q_x and q_z as one packed (key, i-exponent) row, as
the stabilizer tableau does (``DescriptorSet``).  ``fold`` runs a circuit
on the rows, one ``_step`` per gate under a flat table of the rules' X
and Z rows; ``apply_gate`` and ``add_ancilla`` step one set the same way,
and ``evolve_circuit`` and the dependency trace build their set once
(``descriptor_set``).  A qubit's sums are built only when asked
(``DescriptorSet.descriptor`` and ``component``), and a set given as
descriptors is read into rows (``descriptor_row``).  The averages
(``expectations``), the diagonal's ``z_kernel``, the report's text and
singles (``descriptor_texts``, ``single_averages``) and the two-qubit
analyses read the rows with no product formed.  A row's three components
are read by ``row_strings``, and signed strings are multiplied, commuted
and averaged with ``string_product``, ``strings_commute`` and
``vacuum_sign``.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

from .pauli import (
    I, X, Y, Z,
    ZERO, ComplexDyadic, DimensionError, PauliSum,
    key_phase, key_support, render_term, slot_key, sum_mul, x_mask,
)

# Heisenberg rewrite V^dagger sigma V, one form for every kind: per operand
# position, the rows for X, Y and Z.  A row (sign, ((position, letter), ...))
# gives the new component as the sign times the ordered product of the named
# pre-gate components.  Position 0 is the first operand (CNOT control).
# BELL(a, b) = CNOT(a -> b) followed by H on a: the rotation taking the four
# Bell states of the pair to the four computational labels (the inverse of
# the usual H-then-CNOT Bell preparation).
_RULES = {
    "H": (((1, ((0, Z),)), (-1, ((0, Y),)), (1, ((0, X),))),),
    "X": (((1, ((0, X),)), (-1, ((0, Y),)), (-1, ((0, Z),))),),
    "Y": (((-1, ((0, X),)), (1, ((0, Y),)), (-1, ((0, Z),))),),
    "Z": (((-1, ((0, X),)), (-1, ((0, Y),)), (1, ((0, Z),))),),
    "S": (((-1, ((0, Y),)), (1, ((0, X),)), (1, ((0, Z),))),),
    "CNOT": (((1, ((0, X), (1, X))), (1, ((0, Y), (1, X))), (1, ((0, Z),))),
             ((1, ((1, X),)), (1, ((0, Z), (1, Y))), (1, ((0, Z), (1, Z))))),
    "BELL": (((1, ((0, Z),)), (-1, ((0, Y), (1, X))), (1, ((0, X), (1, X)))),
             ((1, ((1, X),)), (1, ((0, Z), (1, Y))), (1, ((0, Z), (1, Z))))),
}
# Gate kind -> number of operands: one row triple per operand position.
GATE_ARITY = {kind: len(rows) for kind, rows in _RULES.items()}

# A signed string: the (key, k) pair is i**k times the bare string of a
# packed key, k in 0..3.
String = tuple[int, int]

# The fold keeps each qubit's q_x and q_z as a packed row (key_x, k_x,
# key_z, k_z), a component being i**k times the bare string of its key.  Its
# rules are the X and Z rows of ``_RULES`` in flat form (k, first, rest): the
# sign as i**k, Y as i q_x q_z, and each factor as the index of its key in
# the operands' rows joined as one tuple, its i-exponent at the next index.
Row = tuple[int, int, int, int]
_KEYS = {X: (0,), Y: (0, 2), Z: (2,)}


def _packed_row(sign: int, factors: tuple) -> tuple:
    keys = [4 * pos + c for pos, letter in factors for c in _KEYS[letter]]
    return 1 - sign + sum(letter == Y for _, letter in factors), keys[0], tuple(keys[1:])


_PACKED_RULES = {kind: tuple(_packed_row(*x_row) + _packed_row(*z_row)
                             for x_row, _, z_row in rows)
                 for kind, rows in _RULES.items()}


class GateError(ValueError):
    pass


class EmptyRegisterError(ValueError):
    pass


class Gate(NamedTuple("Gate", [("kind", str), ("operands", tuple[int, ...])])):
    """One gate application: a kind plus 0-based operand qubits."""

    __slots__ = ()

    def __new__(cls, kind: str, operands: Iterable[int]) -> Gate:
        kind, operands = kind.upper(), tuple(operands)
        if kind not in GATE_ARITY:
            raise GateError(f"unknown gate kind {kind!r}")
        want = GATE_ARITY[kind]
        if len(operands) != want:
            raise GateError(f"{kind} takes {want} operand(s), got {len(operands)}")
        if len(set(operands)) != len(operands):
            raise GateError(f"{kind} operands must be distinct")
        return super().__new__(cls, kind, operands)

    def validate_for(self, n: int) -> None:
        for q in self.operands:
            if not 0 <= q < n:
                raise GateError(f"operand {q} out of range for {n} qubits")


def check_qubits(n: int, qubits: Iterable[int], error: type = ValueError) -> list[int]:
    """The qubits as a list; ``error`` names any outside an n-qubit register."""
    qubits = list(qubits)
    if outside := [q for q in qubits if not 0 <= q < n]:
        raise error(f"qubits {outside} are outside the {n}-qubit register")
    return qubits


class AddAncilla(NamedTuple):
    """Directive allocating one fresh |0> qubit at the end of the register.
    It has no fields, so it equals ``()``; it is truthy all the same."""

    def __bool__(self) -> bool:
        return True


class Circuit(NamedTuple("Circuit", [("initial_qubits", int), ("steps", tuple)])):
    """Ordered gate applications and ancilla allocations."""

    __slots__ = ()

    def __new__(cls, initial_qubits: int, steps: Iterable = ()) -> Circuit:
        steps = tuple(steps)
        if initial_qubits < 1:
            raise EmptyRegisterError("a circuit needs at least one qubit")
        n = initial_qubits
        for k, step in enumerate(steps):
            if isinstance(step, AddAncilla):
                n += 1
            elif isinstance(step, Gate):
                try:
                    step.validate_for(n)
                except GateError as exc:
                    raise GateError(f"step {k + 1}: {exc}") from exc
            else:
                raise GateError(f"step {k + 1}: not a gate or ancilla directive")
        return super().__new__(cls, initial_qubits, steps)


class Descriptor(NamedTuple):
    """Per-qubit triple of Pauli sums on the full current register, letter
    L at index L - 1."""

    qx: PauliSum
    qy: PauliSum
    qz: PauliSum

    def component(self, which: int) -> PauliSum:
        if which not in (X, Y, Z):
            raise ValueError(f"component index {which} must be X, Y or Z")
        return self[which - 1]

    def support(self) -> set[int]:
        return self.qx.support() | self.qy.support() | self.qz.support()


class DescriptorSet(NamedTuple("DescriptorSet", [
        ("n", int), ("rows", tuple[Row, ...]), ("history", tuple)])):
    """A register as one packed row per qubit, plus history.  Built from
    descriptors of signed strings (``descriptor_row``), or from rows by
    ``descriptor_set``; sets are equal, and hash alike, when their ``n``
    and rows are."""

    __slots__ = ()

    def __new__(cls, n: int, descriptors: Iterable[Descriptor],
                history: Iterable = ()) -> DescriptorSet:
        rows = tuple(descriptor_row(d, n) for d in descriptors)
        if len(rows) != n:
            raise ValueError(f"{len(rows)} descriptors for a {n}-qubit register")
        return super().__new__(cls, n, rows, tuple(history))

    @property
    def descriptors(self) -> tuple[Descriptor, ...]:
        return tuple(map(self.descriptor, range(self.n)))

    def __eq__(self, other: object) -> bool:
        return self[:2] == other[:2] if isinstance(other, DescriptorSet) else NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    def descriptor(self, qubit: int) -> Descriptor:
        """The qubit's descriptor; ``check_qubits`` refuses one outside."""
        return Descriptor._make(self.component(qubit, w) for w in (X, Y, Z))

    def component(self, qubit: int, which: int) -> PauliSum:
        """One component of a qubit as a one-term sum, the only one built."""
        if not 0 <= qubit < self.n:
            check_qubits(self.n, (qubit,))
        if which not in (X, Y, Z):
            raise ValueError(f"component index {which} must be X, Y or Z")
        return PauliSum.from_key(self.n, *row_strings(self.rows[qubit], self.n)[which - 1])


def initial_set(n: int) -> DescriptorSet:
    """Fresh register: descriptor a is sigma on slot a, identity elsewhere."""
    return descriptor_set(_fresh_rows(n))


def _fresh_rows(n: int, first: int = 0) -> list[Row]:
    """The packed rows of fresh |0> qubits first..n-1 of an n-qubit register."""
    if n < 1:
        raise EmptyRegisterError("register must hold at least one qubit")
    return [(slot_key(q, X), 0, slot_key(q, Z), 0) for q in range(first, n)]


def descriptor_set(rows: Sequence[Row], history: tuple = ()) -> DescriptorSet:
    """The set of a register's packed rows, built past the constructor."""
    return tuple.__new__(DescriptorSet, (len(rows), tuple(rows), history))


def descriptor_row(d: Descriptor, n: int) -> Row:
    """The packed row of a descriptor of one-term i**k strings on n qubits
    with q_y = i q_x q_z; any other descriptor is refused."""
    x, y, z = (c.as_key() if c.n == n else None for c in d)
    if x is None or z is None or y != row_strings((*x, *z), n)[1]:
        raise ValueError(f"a descriptor set holds signed Pauli strings on {n} "
                         "qubits with q_y = i q_x q_z")
    return (*x, *z)


def row_strings(row: Row, n: int) -> tuple[String, String, String]:
    """The signed strings q_x, q_y = i q_x q_z and q_z of a packed row, k
    in 0..3: the one reader of a row's three components."""
    kx, ex, kz, ez = row
    return ((kx, ex & 3), (kx ^ kz, ex + ez + 1 + key_phase(kx, kz, x_mask(n)) & 3),
            (kz, ez & 3))


def row_support(row: Row) -> tuple[int, ...]:
    """The slots a packed row acts on: key_x | key_z, as q_y adds none."""
    return tuple(key_support(row[0] | row[2]))


# Signed strings are read off rows by ``row_strings`` and handled with the
# functions below, the symplectic rules of the stabilizer tableau
# (quant-ph/0406196) on an n-qubit register.
def descriptor_texts(set_: DescriptorSet) -> list[tuple[str, str, str]]:
    """Each qubit's q_x, q_y and q_z as text: each signed string of its row
    through ``render_term``."""
    n, i_power = set_.n, ComplexDyadic.i_power
    return [tuple(render_term(key, i_power(k), n) for key, k in row_strings(row, n))
            for row in set_.rows]


def single_averages(set_: DescriptorSet) -> list[ComplexDyadic]:
    """The vacuum average of each qubit's q_x, q_y and q_z, qubit by qubit,
    off its row: ZERO for a string with an x bit and its i-power otherwise."""
    n, m, i_power = set_.n, x_mask(set_.n), ComplexDyadic.i_power
    return [ZERO if key & m else i_power(k)
            for row in set_.rows for key, k in row_strings(row, n)]


def all_strings(n: int) -> list[String]:
    """Every non-identity n-qubit string with sign +1, in letter order:
    ``itertools.product`` over I, X, Y, Z with the first slot outermost."""
    keys = [0]
    for q in range(n):
        codes = [slot_key(q, w) for w in (I, X, Y, Z)]
        keys = [key | code for key in keys for code in codes]
    return [(key, 0) for key in keys[1:]]


def string_product(n: int, first: String, *rest: String) -> String:
    """The signed string of an ordered product of signed strings."""
    m = x_mask(n)
    key, k = first
    for kb, eb in rest:
        k += eb + key_phase(key, kb, m)
        key ^= kb
    return key, k & 3


def strings_commute(n: int, a: String, b: String) -> bool:
    """Whether two strings commute: z_a . x_b + x_a . z_b is even."""
    ka, kb = a[0], b[0]
    return not (((ka >> 1 & kb) ^ (kb >> 1 & ka)) & x_mask(n)).bit_count() & 1


def vacuum_sign(n: int, first: String, *rest: String) -> int:
    """The vacuum average of an ordered product of signed strings as an
    int: 0 when the product has an x bit, else 1 for i**0 and -1 for any
    other power (the product is Hermitian where it is read)."""
    key, k = string_product(n, first, *rest)
    return 0 if key & x_mask(n) else 1 if k == 0 else -1


def apply_gate(set_: DescriptorSet, gate: Gate) -> DescriptorSet:
    """The set after one gate: its rows stepped as ``fold`` steps them."""
    gate.validate_for(set_.n)
    rows = list(set_.rows)
    _step(rows, gate, x_mask(set_.n))
    return descriptor_set(rows, set_.history + (gate,))


def add_ancilla(set_: DescriptorSet) -> DescriptorSet:
    """Grow the register by one fresh |0> qubit at the end; a key does not
    depend on the register width, so the other rows stay."""
    return descriptor_set([*set_.rows, *_fresh_rows(set_.n + 1, set_.n)],
                          set_.history + (AddAncilla(),))


def component_product(set_: DescriptorSet, indices: Sequence[int]) -> PauliSum:
    """Ordered product of chosen components (identity for index 0).

    ``indices`` has one entry per qubit: 0 selects the identity factor,
    X/Y/Z select that component (``DescriptorSet.component``).  Components
    of different qubits commute, so taking the factors in qubit order
    loses nothing.  One chosen component is its own product.
    """
    if len(indices) != set_.n:
        raise DimensionError(f"need {set_.n} component indices, got {len(indices)}")
    chosen = [set_.component(qubit, which)
              for qubit, which in enumerate(indices) if which != I]
    return sum_mul(*chosen) if chosen else PauliSum.identity(set_.n)


def expectation(set_: DescriptorSet, indices: Sequence[int]) -> ComplexDyadic:
    """Vacuum expectation of the ordered product of chosen components:
    ``expectations`` of one index string."""
    return expectations(set_, (indices,))[0]


def expectations(set_: DescriptorSet,
                 strings: Iterable[Sequence[int]]) -> list[ComplexDyadic]:
    """The vacuum expectation of each index string's component product.

    Letters I, X, Y and Z pick no factor, q_x, q_y or q_z of a qubit, and
    any other letter is rejected.  The rows answer with no product formed:
    a string whose picked components' x-parts XOR to a nonzero mask
    averages to zero, and any other product is an x-free string whose
    average is its i-power, from ``string_product``.  Its callers average
    products (expectation tables, ``--verify`` samples); a set's singles
    are ``single_averages``.
    """
    n, m = set_.n, x_mask(set_.n)
    comps = [((0, 0), *row_strings(row, n)) for row in set_.rows]
    parts = [{w: key & m for w, (key, _) in enumerate(c)} for c in comps]
    out = []
    for pick in strings:
        if len(pick) != n:
            raise DimensionError(f"pick of length {len(pick)} for {n} positions")
        try:
            picked = functools.reduce(operator.xor, map(dict.__getitem__, parts, pick), 0)
        except KeyError:
            q = next(q for q, w in enumerate(pick) if w not in parts[q])
            slot_key(q, pick[q])    # raises the bad-letter error
        if picked:
            out.append(ZERO)
        else:
            _, k = string_product(n, (0, 0), *[c[w] for c, w in zip(comps, pick) if w])
            out.append(ComplexDyadic.i_power(k))
    return out


def z_kernel(rows: Sequence[Row], qubits: Sequence[int]) -> list[tuple[int, int]]:
    """Basis of the subsets of the qubits' q_z whose product is x-free, each
    with its sign bit (1 where the product averages to -1), from the rows.

    A subset is a mask, bit j for ``qubits[j]``.  The q_z of the rows
    are +1 or -1 strings that commute pairwise, so the product over a
    subset does not depend on the order and a shared factor squares to 1:
    one pass of GF(2) elimination on the x-parts carries each echelon row's
    product (key, i-exponent) along, and a subset that reduces to no x bit
    is a signed Z-type string, i**k = +1 or -1 (an odd k, +i or -i, is refused).
    """
    m = x_mask(len(rows))
    # Echelon rows (lowest x bit, key, i-exponent, subset): a row carries no
    # lowest bit of an earlier row, so reducing in order clears them all.
    echelon: list[tuple[int, int, int, int]] = []
    kernel = []
    for j, q in enumerate(qubits):
        _, _, key, k = rows[q]
        subset = 1 << j
        for low, kb, kw, sb in echelon:
            if key & low:
                k += kw + key_phase(key, kb, m)
                key ^= kb
                subset ^= sb
        if key & m:
            echelon.append((key & m & -(key & m), key, k, subset))
        elif k & 1:
            raise ValueError("probability came out complex")
        else:
            kernel.append((subset, k >> 1 & 1))
    return kernel


def _step(rows: list[Row], gate: Gate, m: int) -> None:
    """Replace each operand's row, in place, by one tuple under the flat X
    and Z rows of the gate's rule, read off its operands' rows joined, each
    product one ``key_phase`` under the register's x mask m."""
    kind, operands = gate
    old = ()
    for q in operands:
        old += rows[q]
    for q, (kx, ix, rest_x, kz, iz, rest_z) in zip(operands, _PACKED_RULES[kind]):
        key_x, kx, key_z, kz = old[ix], kx + old[ix + 1], old[iz], kz + old[iz + 1]
        for j in rest_x:
            kx += old[j + 1] + key_phase(key_x, old[j], m)
            key_x ^= old[j]
        for j in rest_z:
            kz += old[j + 1] + key_phase(key_z, old[j], m)
            key_z ^= old[j]
        rows[q] = key_x, kx & 3, key_z, kz & 3


def fold(circuit: Circuit) -> Iterator[list[Row]]:
    """The fresh register's packed rows, then the same list after each step
    of the circuit: a gate is one ``_step``; an ancilla appends a fresh
    row, as a key does not depend on the register width.  ``Circuit`` (or
    ``cli.parse_circuit``) has range-checked every step."""
    rows = _fresh_rows(circuit.initial_qubits)
    m = x_mask(len(rows))
    yield rows
    for step in circuit.steps:
        if isinstance(step, AddAncilla):
            rows += _fresh_rows(len(rows) + 1, len(rows))
            m = x_mask(len(rows))
        else:
            _step(rows, step, m)
        yield rows


def evolve_circuit(circuit: Circuit) -> DescriptorSet:
    """Run the fold to its end; the descriptor set is built once, there."""
    *_, rows = fold(circuit)
    return descriptor_set(rows, circuit.steps)


def gate_steps(set_: DescriptorSet) -> list[Gate]:
    """Gate history for the dense oracle, ancillas dropped: each ``Gate`` is
    its (kind, operands) pair."""
    return [entry for entry in set_.history if isinstance(entry, Gate)]


def step_label(step: Gate | AddAncilla) -> str:
    """History text of one step with 1-based labels, e.g. ``cnot 1 2``."""
    if isinstance(step, AddAncilla):
        return "ancilla"
    return f"{step.kind.lower()} " + " ".join(str(q + 1) for q in step.operands)
