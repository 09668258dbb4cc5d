import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from dhsim import density, oracle, pauli
from dhsim.pauli import (
    I, X, Y, Z, ComplexDyadic, PauliSum, parse_sum, sum_mul,
    vacuum_expectation,
)
from dhsim.engine import (
    AddAncilla, Circuit, Descriptor, DescriptorSet, Gate, apply_gate,
    evolve_circuit, gate_steps, initial_set,
)
from dhsim.density import (
    DensityMatrix, diagonal_probabilities,
    expectation_table, is_positive, mixture_representation, purity_condition,
    reconstruct_density, schmidt_coefficients, simply_reduce,
)
from conftest import (
    count_calls, dense_density, dense_operator, from_xz, random_circuit, z_projector,
)
from test_uniqueness_pins import stabilizer_states
import sumpath

HALF = Fraction(1, 2)


def projector_diagonal(set_, qubits):
    """Reference diagonal: the vacuum average of prod (1 +/- q_z)/2 for
    every bitstring, expanded term by term (4^k work), of a set or a tuple
    of descriptors."""
    qubits = list(qubits)
    descs = set_.descriptors if isinstance(set_, DescriptorSet) else set_
    ident = PauliSum.identity(len(descs))
    probs = []
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        product = ident
        for qubit, bit in zip(qubits, bits):
            qz = descs[qubit].qz
            projector = (ident + qz if bit == 0 else ident - qz).scale(HALF)
            product = sum_mul(product, projector)
        value = vacuum_expectation(product)
        assert value.is_real
        probs.append(value.re)
    return probs


def dense_diagonal(set_, qubits):
    """Reference diagonal: the dense |psi|^2 summed over the other qubits,
    its axes in the order of ``qubits``."""
    n = set_.n
    psi = oracle.apply_circuit(n, gate_steps(set_))
    probs = np.abs(psi.reshape((2,) * n)) ** 2
    marginal = probs.sum(axis=tuple(q for q in range(n) if q not in qubits))
    kept = sorted(qubits)
    return marginal.transpose([kept.index(q) for q in qubits]).reshape(-1)


def ccz_conjugated(set_):
    """Every component of a set conjugated by CCZ on qubits 0-2, i.e. CCZ
    applied to the vacuum before the circuit, as a tuple of descriptors
    for the sum path.  CCZ fixes |0...0>, so every average (and the
    diagonal) is unchanged, while q_z components become multi-term sums."""
    n = set_.n
    corner = PauliSum.identity(n)
    for qubit in range(3):
        corner = corner * z_projector(n, qubit, 1)
    ccz = PauliSum.identity(n) - corner.scale(2)
    return tuple(Descriptor(*(ccz * c * ccz for c in d)) for d in set_.descriptors)


def z_only_set(qz):
    """One-qubit descriptors with a hand-built q_z (q_x, q_y left as X, Y),
    for the sum path."""
    return (Descriptor(PauliSum.single(1, 0, X), PauliSum.single(1, 0, Y), qz),)


class TestReconstructDensity:
    def test_bell_coefficients(self, bell_set):
        rho = reconstruct_density(bell_set, [0, 1])
        assert rho.coefficient((X, X)) == 1
        assert rho.coefficient((Y, Y)) == -1
        assert rho.coefficient((Z, Z)) == 1
        assert rho.coefficient((I, I)) == 1
        zero = [idx for idx in itertools.product(range(4), repeat=2)
                if idx not in ((I, I), (X, X), (Y, Y), (Z, Z))]
        assert all(rho.coefficient(idx) == 0 for idx in zero)

    def test_bell_dense_matches_state(self, bell_set):
        rho = reconstruct_density(bell_set, [0, 1])
        psi = oracle.apply_circuit(2, gate_steps(bell_set))
        assert np.allclose(dense_density(rho), np.outer(psi, psi.conj()))

    def test_fresh_register(self):
        rho = reconstruct_density(initial_set(2), [0, 1])
        dense = dense_density(rho)
        want = np.zeros((4, 4))
        want[0, 0] = 1
        assert np.allclose(dense, want)

    def test_bell_marginal_maximally_mixed(self, bell_set):
        rho = reconstruct_density(bell_set, [0])
        assert np.allclose(dense_density(rho), np.eye(2) / 2)

    def test_repeated_qubit_rejected(self, bell_set):
        # Both letters of a pair would land on one slot.
        for qubits in ([0, 0], [1, 0, 1]):
            with pytest.raises(ValueError, match=r"qubits \[\d\] appear more than once"):
                expectation_table(bell_set, qubits)
            with pytest.raises(ValueError, match="appear more than once"):
                reconstruct_density(bell_set, qubits)
        # A qubit outside the register is named, not wrapped onto its end
        # (-1 would read qubit 2) or left to a bare IndexError, by the
        # analyses and by the set's own accessors.
        h1 = evolve_circuit(Circuit(2, (Gate("H", (0,)),)))
        rho = reconstruct_density(h1, [0, 1])
        for q in (-1, -2, 2):
            outside = rf"qubits \[{q}\] are outside the 2-qubit register"
            for call in (expectation_table, reconstruct_density, diagonal_probabilities):
                with pytest.raises(ValueError, match=outside):
                    call(h1, [0, q])
            with pytest.raises(ValueError, match=outside):
                rho.single(q, X)
            with pytest.raises(ValueError, match=outside):
                h1.descriptor(q)
            with pytest.raises(ValueError, match=outside):
                h1.component(q, X)

    def test_unit_trace_and_positivity_random(self):
        rng = random.Random(3)
        for _ in range(10):
            s = evolve_circuit(random_circuit(rng, 3, 10))
            qubits = rng.sample(range(3), rng.randint(1, 2))
            rho = reconstruct_density(s, qubits)
            dense = dense_density(rho)
            assert abs(np.trace(dense) - 1) < 1e-12
            assert np.linalg.eigvalsh(dense).min() > -1e-9


class TestIsPositive:
    def test_agrees_with_eigvalsh(self):
        """Random dyadic tables on 1-3 qubits whose least eigenvalue is
        clearly away from zero, so the float reference is unambiguous."""
        rng = random.Random(11)
        decided = rejected = 0
        while decided < 600:
            k = rng.randint(1, 3)
            indices = list(itertools.product(range(4), repeat=k))
            coeffs = {indices[0]: Fraction(rng.randint(0, 8), 4)}
            for index in rng.sample(indices[1:], rng.randint(0, len(indices) - 1)):
                coeffs[index] = Fraction(rng.randint(-4, 4), 2 ** rng.randint(0, 3))
            least = np.linalg.eigvalsh(dense_operator(coeffs)).min()
            if abs(least) < 1e-7:
                continue
            assert is_positive(k, coeffs) == (least > 0), coeffs
            decided += 1
            rejected += least < 0
        assert 100 < rejected < 550

    def test_every_two_qubit_stabilizer_density_accepted(self):
        """Rank one: the least eigenvalue is exactly 0."""
        states = stabilizer_states(2)
        assert len(states) == 60
        for set_ in states.values():
            rho = reconstruct_density(set_, [0, 1])
            assert is_positive(2, rho.coeffs)
            assert abs(np.linalg.eigvalsh(dense_density(rho)).min()) < 1e-12

    def test_rank_deficient_mixtures_accepted(self):
        """(I + Z)/2 on one qubit, and the identity padded by zero terms."""
        assert is_positive(1, {(I,): Fraction(1), (Z,): Fraction(1)})
        assert is_positive(2, {(I, I): 1, (Z, I): -1, (I, Z): 1, (Z, Z): -1})
        assert is_positive(2, {(I, I): 1, (X, X): 0})
        assert is_positive(1, {})

    def test_i_plus_x_plus_z_rejected(self):
        coeffs = {(I,): Fraction(1), (X,): Fraction(1), (Z,): Fraction(1)}
        assert not is_positive(1, coeffs)
        with pytest.raises(ValueError, match="not positive"):
            DensityMatrix(1, coeffs).validate()

    def test_zero_pivot_with_nonzero_row_rejected(self):
        """X alone: zero diagonal, nonzero off-diagonal."""
        assert not is_positive(1, {(X,): Fraction(1)})

    def test_non_dyadic_coefficients(self):
        third = Fraction(1, 3)
        assert is_positive(1, {(I,): 1, (X,): third, (Y,): third, (Z,): third})
        # Bloch vector (2/3, 1/3, 2/3) has length exactly 1: eigenvalue 0.
        assert is_positive(1, {(I,): 1, (X,): 2 * third, (Y,): third,
                               (Z,): 2 * third})
        assert not is_positive(1, {(I,): 1, (X,): 2 * third, (Y,): 2 * third,
                                   (Z,): 2 * third})

    @pytest.mark.parametrize("letter", [9, 4, -1])
    def test_letter_outside_0_to_3_refused(self, letter):
        """A letter that is not I, X, Y or Z is named, not read as I."""
        message = rf"letter {letter} in index \({letter},\) is not one of 0..3"
        with pytest.raises(ValueError, match=message):
            is_positive(1, {(I,): 1, (letter,): 1})
        with pytest.raises(ValueError, match=message):
            DensityMatrix(1, {(I,): 1, (letter,): 1}).validate()
        with pytest.raises(ValueError, match=rf"letter {letter} in index \(1, {letter}\)"):
            is_positive(2, {(I, I): 1, (X, letter): 0})

    def test_empty_table_has_no_density(self):
        with pytest.raises(ValueError, match="empty table has no density"):
            density.table_density({})

    def test_eleven_qubits_refused_before_building(self):
        class Unread(dict):
            def items(self):
                raise AssertionError("coefficients read before the size check")

            values = __iter__ = items

        with pytest.raises(ValueError, match="up to 10 qubits"):
            is_positive(11, Unread({(I,) * 11: Fraction(1)}))
        with pytest.raises(ValueError, match="up to 10 qubits"):
            DensityMatrix(11, {(I,) * 11: Fraction(1)}).validate()


class TestDiagonalProbabilities:
    def test_bell(self, bell_set):
        assert diagonal_probabilities(bell_set, [0, 1]) == \
            [HALF, 0, 0, HALF]

    def test_fresh_single_qubit(self):
        assert diagonal_probabilities(initial_set(1), [0]) == [1, 0]

    @pytest.mark.parametrize("qubits", [[0, 0], [1, 0, 1]])
    def test_repeated_qubit_refused(self, bell_set, qubits):
        """A repeated qubit would read one outcome bit twice, giving a
        2^k-entry distribution of k - 1 qubits ([1/2, 0, 0, 1/2] for
        [0, 0] on the Bell pair); the diagonal refuses it, in both paths,
        as the expectation table does."""
        for call in (diagonal_probabilities, expectation_table):
            with pytest.raises(ValueError, match=r"qubits \[\d\] appear more than once"):
                call(bell_set, qubits)
        with pytest.raises(ValueError, match="appear more than once"):
            sumpath.diagonal_probabilities(bell_set.descriptors, qubits)

    def test_post_measurement_diagonal_unchanged(self):
        from dhsim.relative import measure
        s = apply_gate(initial_set(1), Gate("H", (0,)))
        before = diagonal_probabilities(s, [0])
        after = diagonal_probabilities(measure(s, 0), [0])
        assert before == after == [HALF, HALF]

    def test_matches_dense_diagonal(self):
        rng = random.Random(9)
        for _ in range(8):
            n = rng.randint(2, 4)
            s = evolve_circuit(random_circuit(rng, n, 12))
            psi = oracle.apply_circuit(n, gate_steps(s))
            probs = diagonal_probabilities(s, range(n))
            dense = np.abs(psi) ** 2
            assert np.allclose([float(p) for p in probs], dense, atol=1e-12)

    def test_matches_dense_diagonal_wide(self):
        rng = random.Random(27)
        for n in (7, 8):
            s = evolve_circuit(random_circuit(rng, n, 40))
            psi = oracle.apply_circuit(n, gate_steps(s))
            probs = diagonal_probabilities(s, range(n))
            assert np.allclose([float(p) for p in probs], np.abs(psi) ** 2,
                               atol=1e-12)

    def test_equals_projector_expansion(self):
        rng = random.Random(41)
        for n in range(1, 7):
            for _ in range(3):
                s = evolve_circuit(random_circuit(rng, n, 6 * n))
                subsets = [list(range(n)),
                           rng.sample(range(n), rng.randint(1, n))]
                for qubits in subsets:
                    assert diagonal_probabilities(s, qubits) == \
                        projector_diagonal(s, qubits)

    def test_qubit_order_sets_bit_significance(self):
        # |100>: the first listed qubit is the most significant bit.
        s = apply_gate(initial_set(3), Gate("X", (0,)))
        assert diagonal_probabilities(s, [2, 0]) == [0, 1, 0, 0]
        assert diagonal_probabilities(s, [0, 2]) == [0, 0, 1, 0]
        assert diagonal_probabilities(s, [2, 0]) == projector_diagonal(s, [2, 0])

    def test_measured_sets_equal_projector_expansion(self):
        from dhsim.relative import measure
        rng = random.Random(43)
        for n in (2, 3):
            s = evolve_circuit(random_circuit(rng, n, 10))
            m = measure(measure(s, 0), n - 1)
            qubits = [m.n - 1, 0, n - 1, m.n - 2]
            assert diagonal_probabilities(m, qubits) == \
                projector_diagonal(m, qubits)

    def test_multi_term_qz(self):
        rng = random.Random(47)
        for n in (3, 4):
            circuit = random_circuit(rng, n, 4 * n)
            base = apply_gate(initial_set(n), Gate("H", (0,)))
            for qubit in range(1, n):
                base = apply_gate(base, Gate("H", (qubit,)))
            s = ccz_conjugated(base)
            for gate in circuit.steps:
                base = apply_gate(base, gate)
                s = sumpath.apply_gate(s, gate)
            assert max(len(s[q].qz) for q in range(n)) > 1
            qubits = rng.sample(range(n), n)
            probs = sumpath.diagonal_probabilities(s, qubits)
            assert probs == projector_diagonal(s, qubits)
            assert probs == diagonal_probabilities(base, qubits)
            psi = oracle.apply_circuit(n, gate_steps(base))
            dense = np.abs(psi.reshape((2,) * n).transpose(qubits)) ** 2
            assert np.allclose([float(p) for p in probs], dense.reshape(-1),
                               atol=1e-12)

    def test_multi_term_expectation(self):
        # The sum path's expectation on multi-term components equals the
        # vacuum average of the component product and of a pairwise fold.
        rng = random.Random(48)
        for n in (3, 4):
            s = ccz_conjugated(evolve_circuit(random_circuit(rng, n, 4 * n)))
            assert max(len(c) for d in s for c in d) > 1
            for indices in itertools.product((I, X, Y, Z), repeat=n):
                chosen = [s[q][w - 1] for q, w in enumerate(indices) if w != I]
                fold = PauliSum.identity(n)
                for c in chosen:
                    fold = sum_mul(fold, c)
                product = sumpath.component_product(s, indices)
                assert product == fold
                assert sumpath.expectations(s, [indices]) == [vacuum_expectation(product)]

    @staticmethod
    def _products(calls):
        """The factor counts of the ``sum_mul`` calls that form a product."""
        return [len(factors) for factors in calls if len(factors) > 1]

    def test_subset_products_not_projector_products(self, monkeypatch):
        # The sum path takes the transform on a multi-term register: at
        # most 2^k subset products, where the projector expansion needs k 2^k.
        rng = random.Random(5)
        s = ccz_conjugated(evolve_circuit(random_circuit(rng, 4, 16)))
        assert max(len(c) for d in s for c in d) > 1
        calls = count_calls(monkeypatch, pauli, "sum_mul")
        sumpath.diagonal_probabilities(s, range(4))
        assert 0 < len(self._products(calls)) <= 2 ** 4

    def test_clifford_set_forms_at_most_k_products(self, monkeypatch):
        # A set reads its kernel and signs off its rows, so it forms no
        # product at all, well within the bound of k.
        calls = count_calls(monkeypatch, pauli, "sum_mul")
        rng = random.Random(5)
        for n in range(1, 9):
            for _ in range(4):
                s = evolve_circuit(random_circuit(rng, n, 5 * n))
                qubits = rng.sample(range(n), rng.randint(1, n))
                del calls[:]
                diagonal_probabilities(s, qubits)
                assert self._products(calls) == []
        s = evolve_circuit(Circuit(3, ()))
        del calls[:]
        assert diagonal_probabilities(s, range(3)) == [1] + [0] * 7
        assert self._products(calls) == []

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kernel_path_matches_references(self, n):
        rng = random.Random(60 + n)
        for _ in range(3):
            s = evolve_circuit(random_circuit(rng, n, 5 * n))
            qubits = rng.sample(range(n), rng.randint(1, n))
            assert s.rows is not None
            probs = diagonal_probabilities(s, qubits)
            assert probs == projector_diagonal(s, qubits)
            assert np.allclose([float(p) for p in probs],
                               dense_diagonal(s, qubits), atol=1e-12)

    def test_kernel_path_on_measured_sets_with_ancillas(self):
        # ``measure`` steps its set's rows by ``add_ancilla`` and
        # ``apply_gate``, which give the rows of the same measurement folded
        # as a circuit, and the references' diagonal.
        from dhsim.relative import measure
        rng = random.Random(61)
        for n in (1, 2, 3, 4):
            circuit = random_circuit(rng, n, 4 * n)
            m = evolve_circuit(circuit)
            steps = list(circuit.steps)
            for qubit in rng.sample(range(n), min(n, 2)):
                m = measure(m, qubit)
                steps += [AddAncilla(), Gate("CNOT", (qubit, m.n - 1))]
            folded = evolve_circuit(Circuit(n, tuple(steps)))
            assert m.rows == folded.rows and folded == m
            qubits = rng.sample(range(m.n), m.n)
            probs = diagonal_probabilities(m, qubits)
            assert diagonal_probabilities(folded, qubits) == probs
            assert probs == projector_diagonal(m, qubits)
            assert np.allclose([float(p) for p in probs],
                               dense_diagonal(m, qubits), atol=1e-12)

    @pytest.mark.parametrize("qz0,qz1,expected", [
        # q_z strings that anticommute take the transform, as before.
        ("1 * X⊗I", "1 * Z⊗I", [HALF, 0, HALF, 0]),
        ("1 * Y⊗Z", "1 * Z⊗I", [HALF, 0, HALF, 0]),
        ("1 * X⊗I", "1 * Y⊗I", "came out complex"),
        ("-1 * Y⊗I", "1 * X⊗I", "came out complex"),
    ])
    def test_anticommuting_qz_take_the_transform(self, qz0, qz1, expected):
        pair = [parse_sum(qz0), parse_sum(qz1)]
        s = tuple(Descriptor(PauliSum.single(2, q, X), PauliSum.single(2, q, Y), qz)
                  for q, qz in enumerate(pair))
        with pytest.raises(ValueError, match="signed Pauli strings"):
            DescriptorSet(2, s)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                sumpath.diagonal_probabilities(s, [0, 1])
        else:
            assert sumpath.diagonal_probabilities(s, [0, 1]) == expected

    def test_other_coefficients_take_the_transform(self):
        for coef in (2, ComplexDyadic(0, 1), HALF, -1):
            qz = PauliSum.single(1, 0, Z, coef)
            with pytest.raises(ValueError, match="signed Pauli strings"):
                DescriptorSet(1, z_only_set(qz))
        assert sumpath.diagonal_probabilities(z_only_set(PauliSum.single(1, 0, Z, HALF)),
                                              [0]) == [Fraction(3, 4), Fraction(1, 4)]
        assert sumpath.diagonal_probabilities(z_only_set(PauliSum.single(1, 0, Z, -1)),
                                              [0]) == [0, 1]

    def test_negative_probability_rejected(self):
        s = z_only_set(PauliSum.single(1, 0, Z, 2))
        with pytest.raises(ValueError, match="negative probability"):
            sumpath.diagonal_probabilities(s, [0])

    def test_complex_probability_rejected(self):
        s = z_only_set(PauliSum.single(1, 0, Z, ComplexDyadic(0, 1)))
        with pytest.raises(ValueError, match="came out complex"):
            sumpath.diagonal_probabilities(s, [0])
        # q_z = i Z with q_y = i q_x q_z is a set of signed strings: its
        # rows are refused as the formed product is.
        signed = (from_xz(PauliSum.single(1, 0, X),
                          PauliSum.single(1, 0, Z, ComplexDyadic(0, 1))),)
        with pytest.raises(ValueError, match="came out complex"):
            sumpath.diagonal_probabilities(signed, [0])
        with pytest.raises(ValueError, match="came out complex"):
            diagonal_probabilities(DescriptorSet(1, signed), [0])

    def test_matches_reconstructed_density_diagonal(self):
        rng = random.Random(19)
        for n in (2, 3, 4, 5, 6):
            s = evolve_circuit(random_circuit(rng, n, 15))
            probs = diagonal_probabilities(s, range(n))
            diag = np.real(np.diag(dense_density(reconstruct_density(s, range(n)))))
            assert np.allclose([float(p) for p in probs], diag, atol=1e-12)


class TestPurityCondition:
    def test_bell_pure(self, bell_set):
        total, mixed = purity_condition(reconstruct_density(bell_set, (0, 1)))
        assert total == 3 and not mixed

    def test_product_state(self):
        total, mixed = purity_condition(reconstruct_density(initial_set(2), (0, 1)))
        assert total == 3 and not mixed

    def test_swap_cross_pair_fully_mixed(self, swap_result):
        total, mixed = swap_result.pair_purity[1, 4]
        assert total == 0 and mixed

    def test_identity_with_trace_random(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 4)
            s = evolve_circuit(random_circuit(rng, n, 10))
            pair = tuple(rng.sample(range(n), 2))
            rho = reconstruct_density(s, pair)
            total, mixed = purity_condition(rho)
            assert rho.purity_trace() == (1 + total) / 4
            assert mixed == (total < 3)

    def test_builds_one_table(self, bell_set, monkeypatch):
        calls = []
        real = density.expectation_table

        def counting(set_, qubits):
            calls.append(tuple(qubits))
            return real(set_, qubits)

        monkeypatch.setattr(density, "expectation_table", counting)
        assert purity_condition(density.reconstruct_density(bell_set, (0, 1))) == (3, False)
        assert calls == [(0, 1)]

    def test_rejects_a_density_that_is_not_a_pair(self):
        with pytest.raises(ValueError, match="qubit pairs"):
            purity_condition(reconstruct_density(initial_set(3), (0, 1, 2)))


def reference_purity_trace(rho):
    """Tr rho^2 = sum_I a_I^2 / 2^n, summed in Fractions."""
    total = Fraction(0)
    for coef in rho.coeffs.values():
        total += Fraction(coef) ** 2
    return total / 2 ** rho.n


class TestPurityAgainstFractionSums:
    def test_purity_trace(self, swap_result):
        densities = [reconstruct_density(s, range(s.n))
                     for s in stabilizer_states(2).values()]
        densities += list(swap_result.pair_densities.values())
        densities += [
            DensityMatrix(2, {(I, I): 1, (Z, I): Fraction(1, 3),
                              (I, X): Fraction(-2, 5), (Z, X): Fraction(1, 7)}),
            DensityMatrix(1, {(I,): Fraction(1), (Y,): Fraction(-5, 6)}),
            DensityMatrix(3, {(I, I, I): Fraction(1), (X, Y, Z): Fraction(1, 2)}),
        ]
        for rho in densities:
            assert rho.purity_trace() == reference_purity_trace(rho)
        assert densities[-3].purity_trace() == Fraction(
            1 + Fraction(1, 9) + Fraction(4, 25) + Fraction(1, 49), 4)

    def test_purity_sum(self, bell_set, swap_result):
        from test_uniqueness import controlled_s_conjugated
        sets = list(stabilizer_states(2).values()) + [
            controlled_s_conjugated(bell_set), swap_result.final_set]
        pairs = [(s, (0, 1)) for s in sets] + [
            (swap_result.final_set, (a - 1, b - 1)) for a, b in swap_result.pair_purity]
        for set_, pair in pairs:
            table = (expectation_table(set_, pair) if isinstance(set_, DescriptorSet)
                     else sumpath.expectation_table(set_, pair))
            rho = density.table_density(table)
            want = sum((value.re ** 2 for index, value in table.items()
                        if index != (I, I)), Fraction(0))
            assert purity_condition(rho) == (want, want < 3)
            assert rho.purity_trace() == (1 + want) / 4

    def test_purity_sum_rejects_a_mismatched_density(self, bell_set, monkeypatch):
        """A Tr rho^2 taken from another density (1 + ZZ/3) trips the identity."""
        rho = density.table_density(expectation_table(bell_set, (0, 1)))
        assert purity_condition(rho) == (3, False)
        mixed = DensityMatrix(2, {(I, I): Fraction(1), (Z, Z): Fraction(1, 3)})
        other_trace = mixed.purity_trace()
        monkeypatch.setattr(DensityMatrix, "purity_trace", lambda self: other_trace)
        with pytest.raises(AssertionError, match="Tr rho"):
            purity_condition(rho)


class TestSchmidtCoefficients:
    def test_bell(self, bell_set):
        sc = schmidt_coefficients(reconstruct_density(bell_set, (0, 1)))
        assert sc.a == sc.d == HALF
        assert sc.b == sc.c == HALF
        assert sc.rule_sum() == 1

    def test_zero_state(self):
        sc = schmidt_coefficients(reconstruct_density(initial_set(2), (0, 1)))
        assert sc.a == 1 and sc.b == sc.c == sc.d == 0
        assert sc.rule_sum() == 1

    def test_mixed_pair_rejected(self, swap_result):
        with pytest.raises(ValueError):
            schmidt_coefficients(reconstruct_density(swap_result.final_set, (0, 3)))

    def test_misaligned_pure_state_rejected(self):
        s = apply_gate(initial_set(2), Gate("H", (0,)))
        with pytest.raises(ValueError):
            schmidt_coefficients(reconstruct_density(s, (0, 1)))


class TestSimplyReduce:
    def test_not_reducible_outside_support(self):
        s = parse_sum("1 * X⊗Z⊗Y")
        assert simply_reduce(s, (0, 1)) is None

    def test_reducible_when_support_fits(self):
        s = parse_sum("1 * X⊗Z⊗Y")
        assert simply_reduce(s, (0, 1, 2)) == s

    def test_fresh_descriptor_reduces(self):
        d = initial_set(3).descriptor(0)
        reduced = simply_reduce(d, (0,))
        assert [c.render() for c in reduced] == \
            ["1 * X", "1 * Y", "1 * Z"]

    def test_averages_preserved(self, bell_set):
        # Reducing the ancilla-extended register back to the original pair
        # leaves every subset average untouched.
        from dhsim.engine import add_ancilla, DescriptorSet
        s = add_ancilla(bell_set)
        reduced = DescriptorSet(2, tuple(
            simply_reduce(s.descriptor(q), (0, 1)) for q in (0, 1)))
        assert expectation_table(reduced, [0, 1]) == \
            expectation_table(bell_set, [0, 1])


def mixed_table(weights, sets):
    """sum_j w_j T_j over every index of the sets' full tables."""
    tables = [expectation_table(s, range(s.n)) for s in sets]
    return {index: sum((w * t[index].re for w, t in zip(weights, tables)),
                       Fraction(0))
            for index in tables[0]}


def reproduces(weights, sets, target):
    return all(value == target.get(index, 0)
               for index, value in mixed_table(weights, sets).items())


class TestMixtureRepresentation:
    def _basis_sets(self):
        sets = []
        for bits in itertools.product((0, 1), repeat=2):
            s = initial_set(2)
            for q, b in enumerate(bits):
                if b:
                    s = apply_gate(s, Gate("X", (q,)))
            sets.append(s)
        return sets

    def test_uniform_mixture(self):
        target = {(I, I): Fraction(1)}
        sets = self._basis_sets()
        weights = mixture_representation(target, sets)
        assert weights == (Fraction(1, 4),) * 4
        assert all(isinstance(w, Fraction) for w in weights)
        assert reproduces(weights, sets, target)

    def test_self_representation(self, bell_set):
        target = {idx: v.re for idx, v
                  in expectation_table(bell_set, [0, 1]).items()}
        weights = mixture_representation(target, [bell_set])
        assert weights == (Fraction(1),)
        assert reproduces(weights, [bell_set], target)

    def test_swap_pair_as_bell_mixture(self, swap_result):
        bell_sets = []
        for extra in ([], [Gate("Z", (0,))], [Gate("X", (1,))],
                      [Gate("Z", (0,)), Gate("X", (1,))]):
            s = initial_set(2)
            for g in (Gate("H", (0,)), Gate("CNOT", (0, 1)), *extra):
                s = apply_gate(s, g)
            bell_sets.append(s)
        target = {idx: v.re for idx, v in
                  expectation_table(swap_result.final_set, [1, 2]).items()}
        weights = mixture_representation(target, bell_sets)
        assert weights == (Fraction(1, 4),) * 4
        assert reproduces(weights, bell_sets, target)

    def test_infeasible_dictionary(self, bell_set):
        target = {idx: v.re for idx, v
                  in expectation_table(bell_set, [0, 1]).items()}
        assert mixture_representation(target, [initial_set(2)]) is None

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError):
            mixture_representation({}, [])

    def test_underdetermined_free_weights_are_zero(self, bell_set):
        # A repeated table makes the system underdetermined: the first
        # copy takes the pivot, every later copy weight 0.
        target = {idx: v.re for idx, v
                  in expectation_table(bell_set, [0, 1]).items()}
        sets = [bell_set, bell_set, initial_set(2), bell_set]
        weights = mixture_representation(target, sets)
        assert weights == (1, 0, 0, 0)
        assert reproduces(weights, sets, target)

    def test_representation_without_operator_identity(self, swap_result):
        # The mixed pair's table is a mixture of pure tables, yet its
        # descriptors live on the full register and equal none of the
        # dictionary descriptors.
        target = {idx: v.re for idx, v in
                  expectation_table(swap_result.final_set, [1, 2]).items()}
        sets = self._basis_sets() + [evolve_circuit(
            Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)))))]
        weights = mixture_representation(target, sets)
        assert weights == (Fraction(1, 4),) * 4 + (0,)
        assert reproduces(weights, sets, target)
        for qubit in (1, 2):
            for comp in swap_result.final_set.descriptor(qubit):
                assert not comp.support() <= {1, 2}
