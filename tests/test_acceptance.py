"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here: exact (dyadic) equality
wherever the engine is exact, 1e-9 where the dense oracle is involved.
"""

import random
import time
from fractions import Fraction

import pytest

from dhsim import oracle
from dhsim.pauli import (
    I, X, Y, Z, ComplexDyadic, PauliSum, parse_sum, sum_mul,
)
from dhsim.engine import (
    DescriptorSet, Gate,
    apply_gate, evolve_circuit, expectation, gate_steps, initial_set,
)
from dhsim.density import (
    DensityMatrix, expectation_table, purity_condition, reconstruct_density,
)
from dhsim.relative import (
    RelativeContext, context_factor, measure, povm_sum_check,
    relative_descriptor, ultimate_state_chain,
)
from dhsim.uniqueness import (
    construct_from_density, generate_equivalent_sets, validate_basis,
)
from dhsim.protocols import run_entanglement_swap
from conftest import classify_against_reference, from_xz, random_circuit
import matrices

ONE = ComplexDyadic.of(1)


def _criterion(number, description, body, budget=None):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}", flush=True)
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s")
    print(f"criterion {number:02d} PASS  {description} ({elapsed:.2f}s)",
          flush=True)


def bell() -> DescriptorSet:
    s = initial_set(2)
    s = apply_gate(s, Gate("H", (0,)))
    return apply_gate(s, Gate("CNOT", (0, 1)))


def measured_plus() -> DescriptorSet:
    s = apply_gate(initial_set(1), Gate("H", (0,)))
    return measure(s, 0)


def test_criterion_01_bell_construction():
    def body():
        s = bell()
        assert [s.component(0, w).render() for w in (X, Y, Z)] == \
            ["1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I"]
        assert [s.component(1, w).render() for w in (X, Y, Z)] == \
            ["1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z"]
    _criterion(1, "pair-construction circuit reproduces the descriptor table",
               body, budget=1.0)


# The published equivalence-class listing for the maximally entangled pair.
# Four entries derive y as x*z without the factor of i; under this
# artifact's Hermitian y = i x z convention those appear as documented
# convention morphs, the rest match exactly or up to component signs.
PUBLISHED_BELL_SETS = [
    ["1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I", "1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z"],
    ["1 * I⊗X", "1 * X⊗X", "1 * X⊗I", "1 * Z⊗X", "-1 * Y⊗Y", "1 * X⊗Z"],
    ["1 * I⊗Y", "1 * X⊗Y", "1 * X⊗I", "1 * Z⊗Y", "-1 * Y⊗X", "1 * X⊗Z"],
    ["1 * Z⊗X", "1 * X⊗Y", "-1 * Y⊗Z", "1 * I⊗X", "-1 * Y⊗X", "-1 * Y⊗I"],
    ["1 * Z⊗X", "-1 * Y⊗Y", "1 * X⊗Z", "1 * I⊗X", "1 * X⊗X", "1 * X⊗I"],
    ["1 * X⊗I", "1 * Y⊗X", "1 * Z⊗X", "1 * X⊗Z", "-1 * X⊗Y", "1 * I⊗X"],
    ["-1 * Y⊗X", "1 * Z⊗X", "1 * X⊗I", "1 * X⊗Y", "1 * I⊗X", "1 * X⊗Z"],
    ["1 * Z⊗X", "1 * X⊗I", "-1 * Y⊗X", "1 * I⊗X", "1 * X⊗Z", "1 * X⊗Y"],
    ["1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z", "1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I"],
    ["1 * X⊗Z", "-1 * X⊗Y", "1 * I⊗X", "1 * X⊗I", "1 * Y⊗X", "1 * Z⊗X"],
    ["1 * X⊗Y", "1 * I⊗X", "1 * X⊗Z", "-1 * Y⊗X", "1 * Z⊗X", "1 * X⊗I"],
    ["1 * I⊗X", "1 * X⊗Z", "1 * X⊗Y", "1 * Z⊗X", "1 * X⊗I", "-1 * Y⊗X"],
]


def test_criterion_02_uniqueness_twelve_sets():
    def body():
        seed = bell()
        family = [set_ for set_, _ in generate_equivalent_sets(seed)[1]]
        assert len(family) == 12
        want = expectation_table(seed, [0, 1])
        for member in family:
            assert validate_basis(member).well_formed
            assert expectation_table(member, [0, 1]) == want
        reference = [[parse_sum(c) for c in row] for row in PUBLISHED_BELL_SETS]
        results = classify_against_reference(family, reference)
        kinds = [r["kind"] for r in results]
        assert kinds.count("exact") == 4
        assert kinds.count("sign") == 4
        assert kinds.count("convention") == 4
        assert "mismatch" not in kinds
        for r in results:
            if r["kind"] == "sign":
                assert not r["reference_y_consistent"]
    _criterion(2, "equivalence class has exactly 12 sets, diffs are "
                  "documented convention deltas", body, budget=10.0)


def test_criterion_03_degenerate_basis_detection():
    def body():
        qx = parse_sum("1 * I⊗X")
        qz = parse_sum("1 * X⊗I")
        d = from_xz(qx, qz)
        report = validate_basis(DescriptorSet(2, (d, d)))
        assert report.independent_count == 8
        assert not report.well_formed
    _criterion(3, "identical-descriptor register fails validation with 8 "
                  "distinct products", body)


def test_criterion_04_measurement_relative_states():
    def body():
        s = measured_plus()
        assert [s.component(0, w).render() for w in (X, Y, Z)] == \
            ["1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I"]
        assert [s.component(1, w).render() for w in (X, Y, Z)] == \
            ["1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z"]

        rel_zero = relative_descriptor(
            s, 0, context_factor(s, RelativeContext.computational(1, 0)))
        rel_one = relative_descriptor(
            s, 0, context_factor(s, RelativeContext.computational(1, 1)))
        assert rel_zero.qx == parse_sum("1 * Z⊗X + 1 * Y⊗Y")
        assert rel_zero.qy == parse_sum("-1 * Y⊗X + 1 * Z⊗Y")
        assert rel_zero.qz == parse_sum("1 * X⊗I + 1 * I⊗Z")
        assert rel_one.qx == parse_sum("1 * Z⊗X + -1 * Y⊗Y")
        assert rel_one.qy == parse_sum("-1 * Y⊗X + -1 * Z⊗Y")
        assert rel_one.qz == parse_sum("1 * X⊗I + -1 * I⊗Z")

        chained = measure(s, 1)
        plus, minus, third, _ = ultimate_state_chain(chained, 1)
        assert third == 2
        q2 = chained.descriptor(1)
        q3z = chained.component(2, Z)
        for sign, cond in ((1, plus), (-1, minus)):
            for w in (X, Y, Z):
                want = q2.component(w) + sum_mul(q2.component(w), q3z).scale(sign)
                assert cond.component(w) == want
        assert plus.qx == parse_sum("1 * I⊗X⊗X + -1 * X⊗Y⊗Y")
        assert plus.qy == parse_sum("1 * I⊗X⊗Y + 1 * X⊗Y⊗X")
        assert plus.qz == parse_sum("1 * I⊗I⊗Z + 1 * X⊗Z⊗I")

        # x/y averages vanish after measurement; z is untouched.
        for prep in ((), (Gate("H", (0,)),), (Gate("X", (0,)),)):
            t = initial_set(1)
            for g in prep:
                t = apply_gate(t, g)
            before_z = expectation(t, (Z,))
            m = measure(t, 0)
            assert not expectation(m, (X, I))
            assert not expectation(m, (Y, I))
            assert expectation(m, (Z, I)) == before_z
    _criterion(4, "measurement coupling and relative descriptors reproduce "
                  "the reference forms exactly", body)


def test_criterion_05_povm_sum_theorem():
    def body():
        s = measured_plus()
        rel_zero = relative_descriptor(
            s, 0, context_factor(s, RelativeContext.computational(1, 0)))
        rel_one = relative_descriptor(
            s, 0, context_factor(s, RelativeContext.computational(1, 1)))
        original = s.descriptor(0)
        for a, b, q in zip(rel_zero, rel_one,
                           original):
            assert a + b == q.scale(2)

        rng = random.Random(55)
        values = [Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                  Fraction(1, 4), Fraction(-1, 4), Fraction(1, 8)]
        for _ in range(50):
            n = rng.randint(2, 3)
            s = evolve_circuit(random_circuit(rng, n, 10))
            partner = rng.randrange(1, n)
            blochs = []
            for _ in range(rng.randint(1, 3)):
                vec = tuple(rng.choice(values) for _ in range(3))
                blochs.extend([vec, tuple(-v for v in vec)])
            povm = [RelativeContext.bloch(partner, *vec) for vec in blochs]
            assert povm_sum_check(s, 0, povm)
    _criterion(5, "sum of relative descriptors over a complete family "
                  "recovers the original, exactly", body)


def test_criterion_06_purity_identity():
    def body():
        rng = random.Random(66)
        for _ in range(100):
            n = rng.randint(2, 4)
            s = evolve_circuit(random_circuit(rng, n, 12))
            pair = tuple(rng.sample(range(n), 2))
            rho = reconstruct_density(s, pair)
            total, mixed = purity_condition(rho)
            assert rho.purity_trace() == (1 + total) / 4
            assert mixed == (total < 3)
        total, mixed = purity_condition(reconstruct_density(bell(), (0, 1)))
        assert total == 3 and not mixed
        swap = run_entanglement_swap()
        total, mixed = swap.pair_purity[1, 4]
        assert total == 0 and mixed
    _criterion(6, "purity sum satisfies Tr rho^2 = (1 + sum)/4 exactly",
               body)


SWAP_FINAL = {
    1: ("1 * Z⊗X⊗I⊗I⊗I⊗I", "-1 * Y⊗X⊗I⊗I⊗I⊗I", "1 * X⊗I⊗I⊗I⊗I⊗I"),
    2: ("1 * I⊗X⊗I⊗I⊗I⊗X", "1 * X⊗Y⊗X⊗I⊗I⊗X", "1 * X⊗Z⊗X⊗I⊗I⊗I"),
    3: ("1 * I⊗I⊗X⊗I⊗X⊗I", "1 * I⊗X⊗Y⊗X⊗X⊗I", "1 * I⊗X⊗Z⊗X⊗I⊗I"),
    4: ("1 * I⊗I⊗I⊗X⊗I⊗I", "1 * I⊗I⊗X⊗Y⊗I⊗I", "1 * I⊗I⊗X⊗Z⊗I⊗I"),
    5: ("1 * I⊗I⊗I⊗I⊗X⊗I", "1 * I⊗X⊗Z⊗X⊗Y⊗I", "1 * I⊗X⊗Z⊗X⊗Z⊗I"),
    6: ("1 * I⊗I⊗I⊗I⊗I⊗X", "1 * X⊗Z⊗X⊗I⊗I⊗Y", "1 * X⊗Z⊗X⊗I⊗I⊗Z"),
}


def test_criterion_07_entanglement_swap():
    def body():
        result = run_entanglement_swap()
        s = result.final_set

        # Exact reproduction of the six-descriptor table (oracle-pinned
        # sign convention) and mandatory expectation agreement.
        for qubit, renders in SWAP_FINAL.items():
            got = tuple(s.component(qubit - 1, w).render() for w in (X, Y, Z))
            assert got == renders
        u = matrices.circuit_unitary(6, gate_steps(s))
        for a in range(6):
            for w in (X, Y, Z):
                assert s.component(a, w) == \
                    matrices.conjugate(u, PauliSum.single(6, a, w))

        deps = result.dependency.supports_1based()
        assert deps[2] == [1, 2, 3, 6]
        assert deps[3] == [2, 3, 4, 5]

        outcomes = result.relative_bell
        assert [o.sign_x for o in outcomes] == [1, 1, -1, -1]
        assert [o.sign_z for o in outcomes] == [1, -1, 1, -1]
        for o in outcomes:
            pair = o.reduced
            assert validate_basis(pair).well_formed
            total, mixed = purity_condition(reconstruct_density(pair, (0, 1)))
            assert total == 3 and not mixed
            table = expectation_table(pair, [0, 1])
            for w in (X, Y, Z):
                assert abs(table[w, w].re) == 1  # maximally entangled
    _criterion(7, "swap protocol reproduces the six-descriptor table, "
                  "dependencies and the conditioned pair family",
               body, budget=5.0)


def test_criterion_08_picture_equivalence():
    def body():
        rng = random.Random(88)
        worst = 0.0
        for _ in range(100):
            n = rng.randint(2, 6)
            circuit = random_circuit(rng, n, 40)
            s = evolve_circuit(circuit)
            psi = oracle.apply_circuit(n, gate_steps(s))
            for _ in range(200):
                idx = tuple(rng.randrange(4) for _ in range(n))
                got = complex(expectation(s, idx))
                if any(idx):
                    want = oracle.expectation_dense(
                        psi, PauliSum(n, {idx: ONE}))
                else:
                    want = 1.0
                worst = max(worst, abs(got - want))
        assert worst < 1e-9
    _criterion(8, "descriptor path agrees with the dense oracle over "
                  "20000 sampled averages", body, budget=60.0)


def test_criterion_09_evolution_consistency():
    def body():
        seed = bell()
        family = [set_ for set_, _ in generate_equivalent_sets(seed)[1]]
        assert len(family) == 12
        rng = random.Random(99)
        circuit = random_circuit(rng, 2, 10)
        tables = []
        for member in family:
            evolved = member
            for step in circuit.steps:
                evolved = apply_gate(evolved, step)
            tables.append(expectation_table(evolved, [0, 1]))
        assert all(t == tables[0] for t in tables)
    _criterion(9, "all 12 equivalent sets stay average-identical under a "
                  "common circuit", body)


def test_criterion_10_mixed_state_dimensionality():
    def body():
        rho = DensityMatrix(1, {(I,): Fraction(1)})
        assert construct_from_density(rho, 0) is None
        found = construct_from_density(rho, 1)
        assert found is not None and found.n == 2
        table = expectation_table(found, [0])
        for w in (X, Y, Z):
            assert table[(w,)] == ComplexDyadic.of(rho.single(0, w))
    _criterion(10, "maximally mixed qubit needs a doubled register and "
                   "then matches the density exactly", body)
