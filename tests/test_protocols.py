import random
from fractions import Fraction

import numpy as np
import pytest

from dhsim import oracle, relative
from dhsim.pauli import I, X, Y, Z, ComplexDyadic, PauliSum, parse_sum, vacuum_expectation
from dhsim.engine import (
    Circuit, Gate, add_ancilla, apply_gate, gate_steps, initial_set,
)
from dhsim.density import expectation_table, purity_condition, reconstruct_density
from dhsim.protocols import (
    dependency_trace, run_generalized_measurement_demo,
    run_ultimate_chain_demo, swap_circuit,
)
from conftest import (
    dense_density, random_circuit, random_steps, run_decoherence_demo,
)
import matrices

# The six final descriptors of the swap protocol, verified against dense
# conjugation (component order x, y, z; register order 1..6).
SWAP_FINAL = {
    1: ("1 * Z⊗X⊗I⊗I⊗I⊗I", "-1 * Y⊗X⊗I⊗I⊗I⊗I", "1 * X⊗I⊗I⊗I⊗I⊗I"),
    2: ("1 * I⊗X⊗I⊗I⊗I⊗X", "1 * X⊗Y⊗X⊗I⊗I⊗X", "1 * X⊗Z⊗X⊗I⊗I⊗I"),
    3: ("1 * I⊗I⊗X⊗I⊗X⊗I", "1 * I⊗X⊗Y⊗X⊗X⊗I", "1 * I⊗X⊗Z⊗X⊗I⊗I"),
    4: ("1 * I⊗I⊗I⊗X⊗I⊗I", "1 * I⊗I⊗X⊗Y⊗I⊗I", "1 * I⊗I⊗X⊗Z⊗I⊗I"),
    5: ("1 * I⊗I⊗I⊗I⊗X⊗I", "1 * I⊗X⊗Z⊗X⊗Y⊗I", "1 * I⊗X⊗Z⊗X⊗Z⊗I"),
    6: ("1 * I⊗I⊗I⊗I⊗I⊗X", "1 * X⊗Z⊗X⊗I⊗I⊗Y", "1 * X⊗Z⊗X⊗I⊗I⊗Z"),
}

BELL_PAIR_1 = ("1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I")
BELL_PAIR_4 = ("1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z")


class TestDependencyTrace:
    def test_fresh_register(self):
        report = dependency_trace(Circuit(4))
        assert report.per_qubit == ((0,), (1,), (2,), (3,))

    def test_cnot_merges_supports(self):
        report = dependency_trace(Circuit(2, (Gate("CNOT", (0, 1)),)))
        assert report.per_qubit == ((0, 1), (0, 1))

    def test_locality_on_random_circuits(self):
        rng = random.Random(77)
        for _ in range(15):
            n = rng.randint(2, 5)
            circuit = random_circuit(rng, n, 20)
            dependency_trace(circuit)  # raises on any locality violation

    def test_each_support_computed_once_per_step(self, monkeypatch):
        """A support is read from a packed row at most once per step, and
        only for a row the step changed: the fresh rows, then each gate's
        operands."""
        from dhsim import protocols
        real = protocols.row_support
        calls = []

        def counting(row):
            calls.append(row)
            return real(row)

        monkeypatch.setattr(protocols, "row_support", counting)
        circuit = random_circuit(random.Random(5), 10, 24)
        report = dependency_trace(circuit)
        assert len(report.per_step) == 25
        assert 0 < len(calls) <= 10 + sum(len(step.operands) for step in circuit.steps)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trace_equals_gate_by_gate_stepping(self, n):
        """Per-step supports and the final set of the shared fold equal a
        reference that steps ``apply_gate`` and ``add_ancilla``."""
        from dhsim.engine import AddAncilla, add_ancilla, apply_gate, step_label
        rng = random.Random(900 + n)
        for _ in range(5):
            steps, final = random_steps(rng, n, 3 * n + 4)
            set_ = initial_set(n)
            want = [("initial", tuple(tuple(sorted(d.support()))
                                      for d in set_.descriptors))]
            for step in steps:
                set_ = (add_ancilla(set_) if isinstance(step, AddAncilla)
                        else apply_gate(set_, step))
                want.append((step_label(step), tuple(tuple(sorted(d.support()))
                                                     for d in set_.descriptors)))
            report = dependency_trace(Circuit(n, steps))
            got = report.final_set
            assert list(report.per_step) == want
            assert report.per_qubit == want[-1][1]
            assert got.n == set_.n == final
            assert got.descriptors == set_.descriptors
            assert got.history == set_.history == tuple(steps)

    def test_replaced_bystander_component_is_scanned_afresh(self, monkeypatch):
        """A bystander row swapped for one with a wider support trips the
        locality check, although the trace reads supports only from the
        rows that changed."""
        from dhsim import protocols
        from dhsim.pauli import slot_key
        real = protocols.fold

        def leaky(circuit):
            for step, rows in zip((None,) + circuit.steps, real(circuit)):
                if getattr(step, "operands", None) == (0, 1):
                    kx, ex, kz, ez = rows[2]
                    rows[2] = (kx ^ slot_key(0, Z), ex, kz, ez)
                yield rows

        monkeypatch.setattr(protocols, "fold", leaky)
        circuit = Circuit(3, (Gate("H", (2,)), Gate("H", (0,)), Gate("CNOT", (0, 1))))
        with pytest.raises(AssertionError, match="locality violated for bystander 3"):
            dependency_trace(circuit)
        monkeypatch.setattr(protocols, "fold", real)
        assert dependency_trace(circuit).per_qubit == ((0, 1), (0, 1), (2,))

    def test_per_step_log(self):
        report = dependency_trace(swap_circuit())
        assert report.per_step[0][0] == "initial"
        assert report.per_step[-1][0] == "cnot 2 6"


class TestEntanglementSwap:
    def test_final_descriptors_exact(self, swap_result):
        s = swap_result.final_set
        for qubit, renders in SWAP_FINAL.items():
            got = tuple(s.component(qubit - 1, w).render() for w in (X, Y, Z))
            assert got == renders, qubit

    def test_final_descriptors_against_oracle(self, swap_result):
        s = swap_result.final_set
        u = matrices.circuit_unitary(6, gate_steps(s))
        for a in range(6):
            for w in (X, Y, Z):
                want = matrices.conjugate(u, PauliSum.single(6, a, w))
                assert s.component(a, w) == want

    def test_unentangled_pairs_are_fully_mixed(self, swap_result):
        for pair in ((1, 2), (3, 4), (1, 4), (2, 3)):
            total, mixed = swap_result.pair_purity[pair]
            assert total == 0 and mixed
            rho = swap_result.pair_densities[pair]
            assert np.allclose(dense_density(rho), np.eye(4) / 4)

    def test_record_pairs_carry_correlation(self, swap_result):
        # (3,5) and (2,6) hold the measurement record: classically
        # correlated (a zz cross term), not pure.
        for pair in ((3, 5), (2, 6)):
            total, mixed = swap_result.pair_purity[pair]
            assert total == 1 and mixed
            rho = swap_result.pair_densities[pair]
            assert rho.coefficient((Z, Z)) == 1

    def test_swap_circuit_is_evolved_once(self, monkeypatch):
        """The final set is the one the dependency trace's fold reaches: each
        of the seven gates is applied once, and no second fold runs."""
        import sys
        from dhsim import engine, protocols
        real_fold, real_evolve = engine.fold, engine.evolve_circuit
        applied, evolved = [], []

        def counting(circuit):
            for step, comps in zip((None,) + circuit.steps, real_fold(circuit)):
                if isinstance(step, Gate):
                    applied.append(step)
                yield comps

        for module in [m for name, m in sys.modules.items() if name.startswith("dhsim")]:
            if getattr(module, "fold", None) is real_fold:
                monkeypatch.setattr(module, "fold", counting)
            if getattr(module, "evolve_circuit", None) is real_evolve:
                monkeypatch.setattr(module, "evolve_circuit", evolved.append)
        result = protocols.run_entanglement_swap()
        assert applied == [s for s in swap_circuit().steps if isinstance(s, Gate)]
        assert evolved == []
        assert result.final_set == real_evolve(swap_circuit())

    def test_dependencies(self, swap_result):
        deps = swap_result.dependency.supports_1based()
        assert deps[2] == [1, 2, 3, 6]
        assert deps[3] == [2, 3, 4, 5]
        assert deps[1] == [1, 2]
        assert deps[4] == [3, 4]
        assert deps[5] == [2, 3, 4, 5]
        assert deps[6] == [1, 2, 3, 6]


class TestSwapRelativeBell:
    def test_sign_patterns(self, swap_result):
        outcomes = swap_result.relative_bell
        assert [o.sign_x for o in outcomes] == [1, 1, -1, -1]
        assert [o.sign_z for o in outcomes] == [1, -1, 1, -1]

    def test_reduced_pairs_are_signed_bell_descriptors(self, swap_result):
        for o in swap_result.relative_bell:
            want_1 = tuple(parse_sum(t).scale(o.sign_x if w != "z" else 1)
                           for t, w in zip(BELL_PAIR_1, "xyz"))
            got_1 = tuple(o.reduced.descriptor(0))
            assert got_1 == want_1
            want_4 = tuple(parse_sum(t).scale(o.sign_z if w != "x" else 1)
                           for t, w in zip(BELL_PAIR_4, "xyz"))
            got_4 = tuple(o.reduced.descriptor(1))
            assert got_4 == want_4

    @pytest.mark.parametrize("name,spoil,message", [
        ("validate_basis", lambda report: report._replace(orthogonal=False),
         "is not a proper basis"),
        ("purity_condition", lambda purity: (purity[0], True), "is not pure"),
    ])
    def test_reduced_pair_checks_fire_where_built(self, monkeypatch, name, spoil, message):
        """Each reduced pair is asserted as it is built: a basis report that
        is not orthogonal, or a mixed density, stops the swap there."""
        from dhsim import density, protocols, uniqueness
        module = uniqueness if name == "validate_basis" else density
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda value: spoil(real(value)))
        with pytest.raises(AssertionError,
                           match=rf"^reduced pair for bits \(0, 0\) {message}$"):
            protocols.run_entanglement_swap()

    def test_probabilities_uniform(self, swap_result):
        assert [o.probability for o in swap_result.relative_bell] == \
            [Fraction(1, 4)] * 4

    def test_reduced_pairs_pure_and_entangled(self, swap_result):
        for o in swap_result.relative_bell:
            pair = o.reduced
            total, mixed = purity_condition(reconstruct_density(pair, (0, 1)))
            assert total == 3 and not mixed
            table = expectation_table(pair, [0, 1])
            cross = sum(1 for (i, j), v in table.items()
                        if i != I and j != I and v)
            assert cross == 3

    def test_matches_oracle_conditional_states(self, swap_result):
        psi = oracle.apply_circuit(6, gate_steps(swap_result.final_set))
        for o in swap_result.relative_bell:
            rem, prob = oracle.conditional_state(psi, [4, 5], list(o.bits))
            assert abs(prob - float(o.probability)) < 1e-12
            pair = o.reduced
            for (i, j), value in expectation_table(pair, [0, 1]).items():
                letters = (i, I, I, j)
                want = oracle.expectation_dense(
                    rem, PauliSum(4, {letters: ComplexDyadic.of(1)}))
                assert abs(complex(value) - want) < 1e-9

    def test_record_labels_correlate_with_rotated_pair(self, swap_result):
        # The record bits are copies of the rotated (2,3) pair, so the
        # conditional state of (2,3) is the matching computational state.
        psi = oracle.apply_circuit(6, gate_steps(swap_result.final_set))
        for o in swap_result.relative_bell:
            rem, _ = oracle.conditional_state(psi, [4, 5], list(o.bits))
            rho23 = oracle.reduced_density(rem, [1, 2])
            want = np.zeros(4, dtype=complex)
            want[(o.bits[1] << 1) | o.bits[0]] = 1.0
            assert np.allclose(rho23, np.outer(want, want.conj()))

    def test_pair_level_sum_identity(self, swap_result):
        s = swap_result.final_set
        conditioned = [relative.relative_descriptor(s, 0, relative.context_factor(
                           s, relative.RelativeContext.pair_computational((4, 5), o.bits)))
                       for o in swap_result.relative_bell]
        for w in (X, Y, Z):
            total = PauliSum.zero(6)
            for d in conditioned:
                total = total + d.component(w)
            assert total == s.component(0, w).scale(4)


class TestGeneralizedMeasurementDemo:
    def test_all_xy_averages_vanish(self):
        demo = run_generalized_measurement_demo()
        for qubit, (vx, vy, vz) in demo["singles"].items():
            assert not vx and not vy

    def test_system_reduction_bloch_form(self):
        demo = run_generalized_measurement_demo()
        assert demo["system_bloch"][0] == 0
        assert demo["system_bloch"][1] == 0

    def test_rotated_descriptors_verified(self):
        demo = run_generalized_measurement_demo()
        s = demo["rotated_set"]
        u = matrices.circuit_unitary(2, gate_steps(s))
        for a in range(2):
            for w in (X, Y, Z):
                assert s.component(a, w) == \
                    matrices.conjugate(u, PauliSum.single(2, a, w))


class TestUltimateChainDemo:
    def test_structure(self):
        demo = run_ultimate_chain_demo()
        assert demo["sum_identity"]
        assert demo["third_system"] == 3
        assert demo["chain_matches_relative"] == {0: True, 1: True}

    def test_chain_blochs_certify_outcomes(self):
        demo = run_ultimate_chain_demo()
        plus, minus = ([vacuum_expectation(c).re for c in demo[name]]
                       for name in ("plus", "minus"))
        assert plus == [0, 0, 1]
        assert minus == [0, 0, -1]

    def test_chained_factors_couple_x_and_z_on_third_slot(self):
        demo = run_ultimate_chain_demo()
        plus = demo["plus"]
        # Third-slot letters appearing in q+_x are exactly X and Y (the
        # X +/- Z structure multiplied through the slot-2 couplings).
        letters = {ls[2] for ls, _ in plus.qx.terms()}
        assert letters == {X, Y}
        letters_z = {ls[2] for ls, _ in plus.qz.terms()}
        assert letters_z == {I, Z}


class TestDemoCircuits:
    """Each demo's circuit, folded, gives the sets that stepping a fresh
    register through ``apply_gate``, ``add_ancilla`` and ``relative.measure``
    builds: the intermediate set first, then the final one."""

    @staticmethod
    def _evolved(monkeypatch, demo):
        """The sets ``demo`` evolves, in order, and the demo's result."""
        from dhsim import protocols
        real, sets = protocols.evolve_circuit, []

        def recording(circuit):
            sets.append(real(circuit))
            return sets[-1]

        monkeypatch.setattr(protocols, "evolve_circuit", recording)
        return sets, demo()

    @staticmethod
    def _assert_same(folded, stepped):
        assert len(folded) == len(stepped)
        for got, want in zip(folded, stepped):
            assert got.n == want.n
            for q in range(want.n):
                for w in (X, Y, Z):
                    assert got.component(q, w) == want.component(q, w)
            assert got.history == want.history

    def test_measurement_demo(self, monkeypatch):
        set_ = add_ancilla(apply_gate(initial_set(1), Gate("H", (0,))))
        set_ = apply_gate(set_, Gate("H", (0,)))
        rotated = apply_gate(set_, Gate("CNOT", (0, 1)))
        final = relative.measure(relative.measure(rotated, 0), 1)
        sets, demo = self._evolved(monkeypatch, run_generalized_measurement_demo)
        self._assert_same(sets, [rotated, final])
        self._assert_same([demo["rotated_set"], demo["final_set"]], [rotated, final])

    def test_chain_demo(self, monkeypatch):
        two_qubit = relative.measure(apply_gate(initial_set(1), Gate("H", (0,))), 0)
        final = relative.measure(two_qubit, 1)
        sets, demo = self._evolved(monkeypatch, run_ultimate_chain_demo)
        self._assert_same(sets, [two_qubit, final])
        self._assert_same([demo["set"]], [final])


class TestDecoherenceDemo:
    def test_diagonal_survives(self):
        demo = run_decoherence_demo()
        assert demo["diagonal"] == [Fraction(1, 2), Fraction(1, 2)]
        assert demo["after"].coefficient((X,)) == 0
        assert demo["after"].coefficient((I,)) == 1
        assert demo["before"].coefficient((X,)) == 1
