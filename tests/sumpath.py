"""The sum path: descriptor analyses by products of Pauli sums.

``dhsim`` keeps a Clifford register as packed rows and reads every number
off them with no product formed.  The functions here take a plain tuple
of ``Descriptor``s instead, multi-term components included (a register
conjugated by a non-Clifford unitary, say), and form each product with
``sum_mul``: a gate rewrites its operands through the three rows of
``engine._RULES`` per operand, and every average is ``vacuum_expectation``
of a formed product.  They are the tests' reference for the row path, and
are themselves checked against ``matrices.conjugate`` and the dense
oracle in ``test_sumpath.py``.
"""

import itertools

from dhsim import engine, pauli
from dhsim.engine import AddAncilla, Descriptor, check_qubits
from dhsim.pauli import (
    I, LETTER_NAMES, ONE, ZERO, DimensionError, PauliSum,
    inner_products, sum_mul, vacuum_expectation,
)
from dhsim.uniqueness import _PAIR_KEYS as PAIR_KEYS, COMPONENTS, BasisReport


def initial(n: int) -> tuple[Descriptor, ...]:
    """The fresh register: sigma of qubit a on slot a."""
    return tuple(Descriptor(*(PauliSum.single(n, q, w) for w in COMPONENTS))
                 for q in range(n))


def apply_gate(descs, gate) -> tuple[Descriptor, ...]:
    """The operands' new descriptors under the kind's rule: per component,
    one ``sum_mul`` of the named pre-gate components, in operand order,
    times the row's sign."""
    gate.validate_for(len(descs))
    operands = [descs[q] for q in gate.operands]
    out = list(descs)
    for qubit, rows in zip(gate.operands, engine._RULES[gate.kind]):
        out[qubit] = Descriptor._make(
            sum_mul(*[operands[pos][letter - 1] for pos, letter in factors]).scale(sign)
            for sign, factors in rows)
    return tuple(out)


def add_ancilla(descs) -> tuple[Descriptor, ...]:
    """One fresh |0> qubit at the end: every component gains an identity
    slot, and the new qubit's sigma sits on its own."""
    n = len(descs) + 1
    grown = [Descriptor._make(c.extended(1) for c in d) for d in descs]
    return (*grown, Descriptor(*(PauliSum.single(n, n - 1, w) for w in COMPONENTS)))


def evolve(circuit) -> tuple[Descriptor, ...]:
    """A circuit's descriptors, one step at a time."""
    descs = initial(circuit.initial_qubits)
    for step in circuit.steps:
        descs = add_ancilla(descs) if isinstance(step, AddAncilla) else apply_gate(descs, step)
    return descs


def component_product(descs, indices) -> PauliSum:
    """Ordered product of the chosen components (identity for index 0)."""
    if len(indices) != len(descs):
        raise DimensionError(f"need {len(descs)} component indices, got {len(indices)}")
    chosen = [d[w - 1] for d, w in zip(descs, indices) if w != I]
    return sum_mul(*chosen) if chosen else PauliSum.identity(len(descs))


def descriptor_texts(descs) -> list[tuple[str, str, str]]:
    return [tuple(c.render() for c in d) for d in descs]


def single_averages(descs) -> list:
    return [vacuum_expectation(c) for d in descs for c in d]


def expectations(descs, strings) -> list:
    """The vacuum average of each index string's formed component product,
    with the row path's errors for a bad length or letter."""
    n, out = len(descs), []
    for pick in strings:
        if len(pick) != n:
            raise DimensionError(f"pick of length {len(pick)} for {n} positions")
        for q, w in enumerate(pick):
            if w not in (I, *COMPONENTS):
                pauli.slot_key(q, w)    # raises the bad-letter error
        out.append(vacuum_expectation(*[d[w - 1] for d, w in zip(descs, pick) if w]))
    return out


def expectation_table(descs, qubits) -> dict:
    """Every component-product average over a qubit subset, keyed by its
    multi-index, as ``density.expectation_table`` keys it."""
    combos = list(itertools.product((I,) + COMPONENTS, repeat=len(qubits)))
    strings = [tuple(dict(zip(qubits, combo)).get(q, I) for q in range(len(descs)))
               for combo in combos]
    return dict(zip(combos, expectations(descs, strings)))


def diagonal_probabilities(descs, qubits) -> list:
    """p(b) = 2^-k sum_S (-1)^(b.S) <prod_{q in S} q_z>: the subset products
    built by doubling, one ``sum_mul`` each, and their averages through an
    in-place Walsh-Hadamard transform.  Every entry is checked to be real
    and nonnegative, and the entries to sum to exactly 1."""
    n = len(descs)
    qubits = check_qubits(n, qubits)
    if not qubits:
        raise ValueError("subset must be nonempty")
    size = 1 << len(qubits)
    products = [PauliSum.identity(n)]
    for q in reversed(qubits):
        products += [sum_mul(p, descs[q].qz) for p in products]
    values = [vacuum_expectation(p) for p in products]
    half = 1
    while half < size:
        for start in range(0, size, 2 * half):
            for i in range(start, start + half):
                a, b = values[i], values[i + half]
                values[i], values[i + half] = a + b, a - b
        half *= 2
    probs = []
    for value in values:
        if not value.is_real:
            raise ValueError("probability came out complex")
        prob = value.re / size
        if prob < 0:
            raise ValueError(f"negative probability {prob}")
        probs.append(prob)
    if sum(probs) != 1:
        raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
    return probs


def validate_basis(descs) -> BasisReport:
    """``uniqueness.validate_basis`` on formed products: ``inner_products``
    of the sixteen give the distinctness, norms and first non-orthogonal
    pair."""
    if len(descs) != 2:
        raise ValueError("basis validation is defined for two-qubit sets")
    products = [component_product(descs, key) for key in PAIR_KEYS]
    inner = inner_products(products)
    norms = [inner.get((k, k), ZERO) for k in range(16)]
    # Equal products share a key or are both zero; pa == pb exactly when
    # <pa,pa> = <pb,pb> = <pa,pb>, as |pa - pb|^2 = <pa,pa> + <pb,pb> - 2 Re <pa,pb>.
    equal = {(a, b) for (a, b), value in inner.items()
             if a < b and norms[a] == norms[b] == value}
    equal.update(itertools.combinations(
        [k for k, norm in enumerate(norms) if not norm], 2))
    clash = next((ab for ab in sorted(inner) if ab[0] < ab[1] and ab not in equal), None)
    traces = [(a, i) for a in (0, 1) for i in COMPONENTS
              if descs[a][i - 1].coefficient((I, I))]
    count = 16 - len({b for _, b in equal})
    hermitian = all(p.is_hermitian for p in products)
    complete = all(norm == ONE for norm in norms)
    violations = []
    if count != 16:
        violations.append(f"only {count} of 16 products are distinct")
    if not hermitian:
        violations.append("some products are not Hermitian")
    if not complete:
        violations.append("some products do not have unit norm")
    if clash is not None:
        violations.append(f"products {PAIR_KEYS[clash[0]]} and "
                          f"{PAIR_KEYS[clash[1]]} are not orthogonal")
    violations += [f"component ({a + 1},{LETTER_NAMES[i]}) has a trace" for a, i in traces]
    return BasisReport(count, clash is None, complete, hermitian, not traces,
                       count == 16, tuple(violations),
                       dict(zip(PAIR_KEYS, map(vacuum_expectation, products))))
