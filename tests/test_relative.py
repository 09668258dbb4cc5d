import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from dhsim import oracle
from dhsim.pauli import (
    I, X, Y, Z, PauliSum, parse_sum, sum_mul, vacuum_expectation,
)
from dhsim.engine import (
    Gate, apply_gate, evolve_circuit, expectation, gate_steps, initial_set,
)
from dhsim.density import diagonal_probabilities, reconstruct_density
from dhsim.relative import (
    ContextError, RelativeContext, conditional_restriction, context_factor,
    measure, measure_in_basis, outcome_probability, povm_sum_check,
    relative_descriptor, relative_descriptor_pair, ultimate_state_chain,
)
from conftest import decohere, dense_density, maximally_mixed, random_circuit
import matrices


def plus_state_set():
    return apply_gate(initial_set(1), Gate("H", (0,)))


def measured_plus():
    return measure(plus_state_set(), 0)


class TestMeasure:
    def test_coupled_pair_descriptors(self):
        s = measured_plus()
        assert [s.component(0, w).render() for w in (X, Y, Z)] == \
            ["1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I"]
        assert [s.component(1, w).render() for w in (X, Y, Z)] == \
            ["1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z"]

    def test_xy_averages_zero_z_unchanged(self):
        rng = random.Random(2)
        for _ in range(10):
            s = evolve_circuit(random_circuit(rng, 2, 8))
            q = rng.randrange(2)
            idx = [I, I]
            idx[q] = Z
            before = expectation(s, tuple(idx))
            m = measure(s, q)
            for w in (X, Y):
                idx_m = [I] * m.n
                idx_m[q] = w
                assert not expectation(m, tuple(idx_m))
            idx_z = [I] * m.n
            idx_z[q] = Z
            assert expectation(m, tuple(idx_z)) == before

    def test_zero_state_diagonal_unchanged(self):
        s = measure(initial_set(1), 0)
        assert diagonal_probabilities(s, [0]) == [1, 0]

    def test_ancilla_picks_up_z_record(self):
        s = measured_plus()
        # Both non-trivial ancilla components carry the system's q_z.
        qz = parse_sum("1 * X⊗I")
        assert s.component(1, Y) == qz * parse_sum("1 * I⊗Y")
        assert s.component(1, Z) == qz * parse_sum("1 * I⊗Z")


class TestDecohere:
    def test_plus_state(self):
        s = decohere(plus_state_set(), [0])
        rho = reconstruct_density(s, [0])
        assert np.allclose(dense_density(rho), np.eye(2) / 2)

    def test_classical_state_unchanged(self):
        s = decohere(initial_set(1), [0])
        rho = reconstruct_density(s, [0])
        assert rho.coefficient((Z,)) == 1

    def test_bell_pair_both(self, bell_set):
        s = decohere(bell_set, [0, 1])
        rho = reconstruct_density(s, [0, 1])
        assert np.allclose(dense_density(rho), np.diag([0.5, 0, 0, 0.5]))

    def test_idempotent_on_density(self, bell_set):
        once = decohere(bell_set, [0, 1])
        twice = decohere(once, [0, 1])
        assert reconstruct_density(once, [0, 1]).coeffs == \
            reconstruct_density(twice, [0, 1]).coeffs


class TestMeasureInBasis:
    def test_hadamard_basis_on_plus(self):
        s = measure_in_basis(plus_state_set(), 0, [Gate("H", (0,))])
        assert diagonal_probabilities(s, [0]) == [1, 0]

    def test_identity_rotation_is_plain_measure(self):
        a = measure_in_basis(plus_state_set(), 0, [])
        b = measured_plus()
        assert a.descriptors == b.descriptors

    def test_rotated_descriptor_shape(self):
        s = measure_in_basis(plus_state_set(), 0, [Gate("H", (0,))])
        # After the rotation the system's z carries the old x information.
        assert [s.component(0, w).render() for w in (X, Y, Z)] == \
            ["1 * X⊗X", "1 * Y⊗X", "1 * Z⊗I"]

    def test_rotation_must_stay_on_system(self, bell_set):
        with pytest.raises(ValueError):
            measure_in_basis(bell_set, 0, [Gate("H", (1,))])


class TestRelativeDescriptor:
    def test_relative_to_zero(self):
        s = measured_plus()
        d = relative_descriptor(s, 0, context_factor(s, RelativeContext.computational(1, 0)))
        assert d.qx == parse_sum("1 * Z⊗X + 1 * Y⊗Y")
        assert d.qy == parse_sum("-1 * Y⊗X + 1 * Z⊗Y")
        assert d.qz == parse_sum("1 * X⊗I + 1 * I⊗Z")

    def test_relative_to_one(self):
        s = measured_plus()
        d = relative_descriptor(s, 0, context_factor(s, RelativeContext.computational(1, 1)))
        assert d.qx == parse_sum("1 * Z⊗X + -1 * Y⊗Y")
        assert d.qy == parse_sum("-1 * Y⊗X + -1 * Z⊗Y")
        assert d.qz == parse_sum("1 * X⊗I + -1 * I⊗Z")

    def test_discarded_partner_changes_nothing(self):
        s = measured_plus()
        d = relative_descriptor(s, 0, context_factor(s, maximally_mixed((1,))))
        assert d == s.descriptor(0)

    def test_operator_level_oracle_check(self):
        # q_x (1 + q_z_partner) equals the evolved image of X (1 + Z).
        s = measured_plus()
        d = relative_descriptor(s, 0, context_factor(s, RelativeContext.computational(1, 0)))
        u = matrices.circuit_unitary(2, gate_steps(s))
        fixed = parse_sum("1 * X⊗I + 1 * X⊗Z")
        assert d.qx == matrices.conjugate(u, fixed)

    def test_matches_partial_trace(self):
        rng = random.Random(31)
        for _ in range(10):
            s = evolve_circuit(random_circuit(rng, 2, 10))
            bit = rng.randrange(2)
            ctx = RelativeContext.computational(1, bit)
            d = relative_descriptor(s, 0, context_factor(s, ctx))
            psi = oracle.apply_circuit(2, gate_steps(s))
            rho = np.outer(psi, psi.conj())
            proj = np.diag([1.0, 0.0] if bit == 0 else [0.0, 1.0])
            for w, comp in zip((X, Y, Z), d):
                sigma = matrices.string_matrix((w,))
                want = np.trace(rho @ np.kron(sigma, proj)) * 2
                got = complex(vacuum_expectation(comp))
                assert abs(got - want) < 1e-9

    def test_probability_report(self):
        s = measured_plus()
        assert outcome_probability(
            s, RelativeContext.computational(1, 0)) == Fraction(1, 2)

    def test_conditioned_state_is_outcome_eigenstate(self):
        # Renormalized, the conditioned system sits entirely on one
        # computational outcome: its diagonal probability is 0 or 1.
        s = measured_plus()
        for bit in (0, 1):
            ctx = RelativeContext.computational(1, bit)
            d = relative_descriptor(s, 0, context_factor(s, ctx))
            factor_avg = outcome_probability(s, ctx) * 2
            z_avg = vacuum_expectation(d.qz).re / factor_avg
            p0 = (1 + z_avg) / 2
            assert p0 in (Fraction(0), Fraction(1))
            assert p0 == (1 if bit == 0 else 0)


class TestRelativeDescriptorPair:
    def test_maximally_mixed_pair_changes_nothing(self, swap_result):
        s = swap_result.final_set
        ctx = maximally_mixed((4, 5))
        d = relative_descriptor_pair(s, 0, context_factor(s, ctx))
        assert d == s.descriptor(0)

    def test_computational_factorizes(self, swap_result):
        s = swap_result.final_set
        ctx = RelativeContext.pair_computational((4, 5), (0, 1))
        d = relative_descriptor_pair(s, 0, context_factor(s, ctx))
        ident = PauliSum.identity(6)
        f5 = ident + s.component(4, Z)
        f6 = ident - s.component(5, Z)
        want = sum_mul(s.component(0, X), sum_mul(f5, f6))
        assert d.qx == want

    def test_surviving_products(self, swap_result):
        # Conditioned on a record state, only xx (via q_5z), yy (via both)
        # and zz (via q_6z) products of the (1,4) pair survive.
        s = swap_result.final_set
        ctx = RelativeContext.pair_computational((4, 5), (0, 0))
        d1 = relative_descriptor_pair(s, 0, context_factor(s, ctx))
        d4 = {w: s.component(3, w) for w in (X, Y, Z)}
        for i, j in itertools.product((X, Y, Z), repeat=2):
            value = vacuum_expectation(d1.component(i) * d4[j])
            assert bool(value) == (i == j)


class TestPovmSum:
    def test_computational_pair(self):
        s = measured_plus()
        povm = [RelativeContext.computational(1, 0),
                RelativeContext.computational(1, 1)]
        assert povm_sum_check(s, 0, povm)

    def test_incomplete_family_rejected(self):
        s = measured_plus()
        with pytest.raises(ContextError):
            povm_sum_check(s, 0, [RelativeContext.computational(1, 0)])

    def test_randomized_instances(self):
        rng = random.Random(41)
        values = [Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                  Fraction(1, 4), Fraction(-1, 4)]
        for _ in range(25):
            s = evolve_circuit(random_circuit(rng, 2, 10))
            blochs = []
            for _ in range(2):
                b = tuple(rng.choice(values) for _ in range(3))
                blochs.extend([b, tuple(-v for v in b)])
            povm = [RelativeContext.bloch(1, *b) for b in blochs]
            assert povm_sum_check(s, 0, povm)


class TestUltimateChain:
    def test_requires_measured_ancilla(self):
        s = measured_plus()
        with pytest.raises(ValueError):
            ultimate_state_chain(s, 1)

    def test_chain_factors(self):
        s = measure(measured_plus(), 1)
        plus, minus, third, factors = ultimate_state_chain(s, 1)
        assert third == 2
        assert factors == tuple(context_factor(s, RelativeContext.computational(2, bit))
                                for bit in (0, 1))
        assert plus.qx == parse_sum("1 * I⊗X⊗X + -1 * X⊗Y⊗Y")
        assert plus.qz == parse_sum("1 * I⊗I⊗Z + 1 * X⊗Z⊗I")
        for p, m, w in zip(plus, minus, (X, Y, Z)):
            assert p + m == s.component(1, w).scale(2)


class TestConditionalRestriction:
    def test_preserves_conditioned_averages(self, swap_result):
        s = swap_result.final_set
        ctx = RelativeContext.pair_computational((4, 5), (1, 0))
        factor_norm = outcome_probability(s, ctx) * 4
        factor = context_factor(s, ctx)
        restricted = conditional_restriction(
            relative_descriptor(s, 0, factor), (0, 3), factor)
        for w in (X, Y, Z):
            comp = s.component(0, w)
            reduced = restricted.component(w)
            # <reduced> over two qubits equals <comp * factor> / <factor>.
            want = vacuum_expectation(sum_mul(comp, factor))
            norm = vacuum_expectation(factor)
            lhs = vacuum_expectation(reduced) * norm
            assert lhs == want

    def test_zero_weight_context_rejected(self):
        s = initial_set(2)
        ctx = RelativeContext.computational(1, 1)  # impossible outcome on |0>
        factor = context_factor(s, ctx)
        with pytest.raises(ContextError, match="zero weight"):
            conditional_restriction(relative_descriptor(s, 0, factor), (0,), factor)

    def test_weight_without_dyadic_inverse_rejected(self):
        s = initial_set(2)
        factor = context_factor(s, RelativeContext((1,), {}, Fraction(3, 4)))
        with pytest.raises(ContextError, match="no dyadic inverse"):
            conditional_restriction(relative_descriptor(s, 0, factor), (0,), factor)


class TestContextValidation:
    def test_bloch_norm_capped(self):
        with pytest.raises(ContextError):
            RelativeContext.bloch(0, 1, 1, 1)

    def test_bloch_outside_the_ball_rejected_exactly(self):
        # |(1, 1, 0)| = sqrt 2: eigenvalues (1 -/+ sqrt 2) / 2
        with pytest.raises(ContextError):
            RelativeContext.bloch(0, 1, 1, 0)

    def test_pure_and_boundary_contexts_accepted(self):
        RelativeContext.bloch(0, Fraction(3, 5), 0, Fraction(4, 5))
        RelativeContext.pair_computational((0, 1), (1, 0))
        RelativeContext((0, 1), {(X, X): 1, (Y, Y): -1, (Z, Z): 1})

    def test_pair_table_must_be_positive(self):
        with pytest.raises(ContextError):
            RelativeContext((0, 1), {(Z, Z): Fraction(2)})

    def test_repeated_target_qubits_rejected(self):
        # Accepted, the pair context would condition on q_0z q_0z = 1.
        with pytest.raises(ContextError, match=r"\(0, 0\) repeat a qubit"):
            RelativeContext((0, 0), {(Z, Z): 1})
        # A qubit outside the register is named where the context meets a
        # set, not wrapped onto its end (-2 would read qubit 1).
        s = apply_gate(initial_set(2), Gate("H", (0,)))
        factor = context_factor(s, RelativeContext.bloch(0, 1, 0, 0))
        for q in (-1, -2, 2):
            outside = rf"qubits \[{q}\] are outside the 2-qubit register"
            with pytest.raises(ContextError, match=outside):
                context_factor(s, RelativeContext.bloch(q, 1, 0, 0))
            with pytest.raises(ContextError, match=outside):
                relative_descriptor(s, q, factor)

    @pytest.mark.parametrize("target,index", [((0,), (5,)), ((0, 1), (X, 4)),
                                              ((0, 1), (-1, Z))])
    def test_letter_outside_0_to_3_rejected_at_construction(self, target, index):
        """A table letter that is not I, X, Y or Z is refused when the
        context is built, not when its factor is."""
        with pytest.raises(ContextError, match=rf"bad table index {re.escape(str(index))}"):
            RelativeContext(target, {index: Fraction(1, 2)})

    @pytest.mark.parametrize("bit", [2, -1])
    def test_computational_outcome_must_be_a_bit(self, bit):
        with pytest.raises(ContextError, match=f"outcome {bit} is not 0 or 1"):
            RelativeContext.computational(0, bit)
        with pytest.raises(ContextError, match=f"outcome {bit} is not 0 or 1"):
            RelativeContext.pair_computational((0, 1), (0, bit))

    def test_subnormalized_weight(self):
        ctx = RelativeContext((0,), {(Z,): Fraction(1, 2)},
                              weight=Fraction(1, 2))
        assert ctx.weight == Fraction(1, 2)
