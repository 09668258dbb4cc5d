import itertools
import random

import pytest

from dhsim import oracle
from dhsim.pauli import (
    I, X, Y, Z, ComplexDyadic, DimensionError, PauliSum, inner_products,
    parse_sum, vacuum_expectation,
)
from dhsim.engine import (
    AddAncilla, Circuit, Descriptor, EmptyRegisterError, Gate, GateError,
    DescriptorSet, add_ancilla, apply_gate, component_product, evolve_circuit,
    expectation, expectations, gate_steps, initial_set,
)
from conftest import (
    SINGLE_QUBIT_KINDS, TWO_QUBIT_KINDS, random_circuit, random_gate, random_steps,
)
import matrices
import sumpath

ONE = ComplexDyadic.of(1)


def S(text):
    return parse_sum(text)


def heisenberg_image(set_: DescriptorSet, operator: PauliSum) -> PauliSum:
    """Map an operator written in initial Pauli letters through the evolution.

    Conjugation by the circuit unitary is an algebra homomorphism, so the
    image of each initial string is the ordered product of the matching
    descriptor components, extended linearly over the terms.
    """
    if operator.n != set_.n:
        raise DimensionError("operator width does not match register")
    out = PauliSum.zero(set_.n)
    for letters, coef in operator.terms():
        out = out + component_product(set_, letters).scale(coef)
    return out


class TestInitialSet:
    def test_two_qubits(self):
        s = initial_set(2)
        assert s.component(0, X) == S("1 * X⊗I")
        assert s.component(1, Z) == S("1 * I⊗Z")

    def test_single_qubit(self):
        s = initial_set(1)
        assert [s.component(0, w).render() for w in (X, Y, Z)] == \
            ["1 * X", "1 * Y", "1 * Z"]

    def test_locality_of_fresh_register(self):
        s = initial_set(6)
        for a in range(6):
            assert s.descriptor(a).support() == {a}

    def test_empty_register_rejected(self):
        with pytest.raises(ValueError):
            initial_set(0)


class TestGateRules:
    """Every rewrite rule must agree with dense conjugation."""

    @pytest.mark.parametrize("kind", SINGLE_QUBIT_KINDS)
    def test_single_qubit_rules(self, kind):
        u = oracle.gate_matrix(kind, 1, (0,))
        s = apply_gate(initial_set(1), Gate(kind, (0,)))
        for w in (X, Y, Z):
            want = matrices.conjugate(u, PauliSum.single(1, 0, w))
            assert s.component(0, w) == want, (kind, w)

    @pytest.mark.parametrize("kind", TWO_QUBIT_KINDS)
    @pytest.mark.parametrize("operands", [(0, 1), (1, 0)])
    def test_two_qubit_rules(self, kind, operands):
        u = oracle.gate_matrix(kind, 2, operands)
        s = apply_gate(initial_set(2), Gate(kind, operands))
        for a in range(2):
            for w in (X, Y, Z):
                want = matrices.conjugate(u, PauliSum.single(2, a, w))
                assert s.component(a, w) == want, (kind, operands, a, w)

    def test_operand_validation(self):
        with pytest.raises(GateError):
            Gate("CNOT", (0, 0))
        with pytest.raises(GateError):
            Gate("H", (0, 1))
        with pytest.raises(GateError):
            apply_gate(initial_set(1), Gate("X", (3,)))


class TestBellConstruction:
    def test_hadamard_step(self):
        s = apply_gate(initial_set(2), Gate("H", (0,)))
        assert [s.component(0, w).render() for w in (X, Y, Z)] == \
            ["1 * Z⊗I", "-1 * Y⊗I", "1 * X⊗I"]

    def test_full_construction(self, bell_set):
        assert [bell_set.component(0, w).render() for w in (X, Y, Z)] == \
            ["1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I"]
        assert [bell_set.component(1, w).render() for w in (X, Y, Z)] == \
            ["1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z"]

    def test_hadamard_squares_to_identity(self):
        s = initial_set(3)
        t = apply_gate(apply_gate(s, Gate("H", (1,))), Gate("H", (1,)))
        assert t.descriptors == s.descriptors

    def test_expectations(self, bell_set):
        assert expectation(bell_set, (X, X)) == ONE
        assert expectation(bell_set, (Y, Y)) == -ONE
        assert expectation(bell_set, (Z, Z)) == ONE
        assert not expectation(bell_set, (X, I))


class TestAncilla:
    def test_growth(self, bell_set):
        s = add_ancilla(bell_set)
        assert s.n == 3
        assert s.component(2, X) == S("1 * I⊗I⊗X")
        for a in range(2):
            assert s.descriptor(a).support() == bell_set.descriptor(a).support()

    def test_extension_preserves_components(self, bell_set):
        s = add_ancilla(bell_set)
        assert s.component(0, X) == bell_set.component(0, X).extended(1)


class TestEvolveCircuit:
    def test_bell_circuit(self, bell_set):
        c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
        assert evolve_circuit(c).descriptors == bell_set.descriptors

    def test_empty_circuit(self):
        assert evolve_circuit(Circuit(3)).descriptors == initial_set(3).descriptors

    def test_step_errors_carry_index(self):
        with pytest.raises(GateError, match="step 2"):
            Circuit(2, (Gate("H", (0,)), Gate("X", (5,))))

    def test_history_recorded(self, bell_set):
        assert gate_steps(bell_set) == [("H", (0,)), ("CNOT", (0, 1))]


def is_canonical(d):
    """q_y = i q_x q_z and all components Hermitian."""
    want_y = (d.qx * d.qz).scale(ComplexDyadic.i_power(1))
    return (want_y == d.qy and d.qx.is_hermitian and d.qy.is_hermitian
            and d.qz.is_hermitian)


class TestStructuralInvariants:
    def test_y_convention_preserved(self):
        rng = random.Random(11)
        for _ in range(20):
            circuit = random_circuit(rng, 3, 12)
            s = evolve_circuit(circuit)
            for a in range(3):
                assert is_canonical(s.descriptor(a))

    def test_homomorphism(self):
        # The image of a product is the product of the images.
        rng = random.Random(5)
        for _ in range(10):
            s = evolve_circuit(random_circuit(rng, 3, 10))
            for _ in range(5):
                la = tuple(rng.randrange(4) for _ in range(3))
                lb = tuple(rng.randrange(4) for _ in range(3))
                a = PauliSum(3, {la: ONE})
                b = PauliSum(3, {lb: ONE})
                assert heisenberg_image(s, a * b) == \
                    heisenberg_image(s, a) * heisenberg_image(s, b)

    def test_unitarity_preserves_orthonormality(self):
        rng = random.Random(7)
        for _ in range(5):
            s = evolve_circuit(random_circuit(rng, 2, 15))
            images = []
            for letters in itertools.product(range(4), repeat=2):
                images.append(heisenberg_image(s, PauliSum(2, {letters: ONE})))
            # Tr(a^dagger b) / 4 is 1 on the diagonal and 0 off it.
            want = {(i, i): ONE for i in range(len(images))}
            assert inner_products(images) == want

    def test_component_product_matches_expectation(self, bell_set):
        from dhsim.pauli import vacuum_expectation
        prod = component_product(bell_set, (X, X))
        assert vacuum_expectation(prod) == expectation(bell_set, (X, X))

    def test_zero_average_builds_at_most_one_sum(self, monkeypatch):
        # Eight single-string factors whose product has an x bit: the average
        # is 0 without a chain of intermediate products.
        from dhsim.pauli import vacuum_expectation
        rng = random.Random(10)
        s = evolve_circuit(random_circuit(rng, 10, 24))
        while True:
            indices = [rng.choice((X, Y, Z)) for _ in range(8)] + [I, I]
            rng.shuffle(indices)
            if not vacuum_expectation(component_product(s, indices)):
                break
        built = []
        canonical = PauliSum._canonical

        def counting(n, terms):
            built.append(n)
            return canonical(n, terms)

        monkeypatch.setattr(PauliSum, "_canonical", staticmethod(counting))
        assert expectation(s, indices) == ComplexDyadic.of(0)
        assert len(built) <= 1


class TestBatchedExpectations:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_single_queries(self, n):
        rng = random.Random(100 + n)
        s = evolve_circuit(random_circuit(rng, n, 3 * n))
        if n <= 5:
            strings = list(itertools.product(range(4), repeat=n))
        else:
            strings = [(I,) * q + (w,) + (I,) * (n - 1 - q)
                       for q in range(n) for w in (X, Y, Z)]
            strings += [tuple(rng.randrange(4) for _ in range(n))
                        for _ in range(200)]
        got = expectations(s, strings)
        assert got == [full_product_average(s, idx) for idx in strings]
        assert [expectation(s, idx) for idx in strings[:50]] == got[:50]
        if n <= 5:
            # A stabilizer state gives a nonzero average to exactly 2^n strings.
            assert sum(1 for v in got if v) == 2 ** n

    def test_multi_term_components(self, swap_result):
        """Relative descriptors are sums of several strings; their products
        go through the full vacuum average, mixed with single strings."""
        from dhsim.relative import RelativeContext, context_factor, relative_descriptor
        s = swap_result.final_set
        ctx = RelativeContext.pair_computational((4, 5), (0, 1))
        mixed = list(s.descriptors)
        for q in (0, 3):
            mixed[q] = relative_descriptor(s, q, context_factor(s, ctx))
        assert len(mixed[0].qx) > 1
        rng = random.Random(5)
        strings = list(itertools.product((I, X, Y, Z), repeat=2))
        strings = [(a, I, I, b, I, I) for a, b in strings]
        strings += [tuple(rng.randrange(4) for _ in range(6)) for _ in range(200)]
        got = sumpath.expectations(mixed, strings)
        assert got == [vacuum_expectation(sumpath.component_product(mixed, idx))
                       for idx in strings]
        assert any(got[:16])
        # A multi-term factor does not end the letter checks.
        with pytest.raises(ValueError, match="letter -1 at slot 5"):
            sumpath.expectations(mixed, [(X, I, I, I, I, -1)])

    def test_rejects_wrong_length(self, bell_set):
        with pytest.raises(DimensionError):
            expectations(bell_set, [(X, X), (X,)])
        with pytest.raises(DimensionError):
            expectation(bell_set, (X,))

    @pytest.mark.parametrize("bad", [-1, 4, -4])
    def test_rejects_letters_outside_0_to_3(self, bell_set, bad):
        """Letter -1 would otherwise index a component from the end."""
        for strings in ([(bad, I)], [(Z, Z), (X, bad)], [(bad, X)]):
            with pytest.raises(ValueError, match=f"letter {bad} at slot"):
                expectations(bell_set, strings)
        with pytest.raises(ValueError):
            expectation(bell_set, (X, bad))


def full_product_average(set_, indices):
    """The vacuum average of the full component product, formed term by
    term with no shortcut for strings that average to zero."""
    return vacuum_expectation(component_product(set_, indices))


class TestPictureEquivalence:
    def test_random_circuits_small(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(1, 4)
            circuit = random_circuit(rng, n, 12)
            s = evolve_circuit(circuit)
            psi = oracle.apply_circuit(n, gate_steps(s))
            for _ in range(25):
                idx = tuple(rng.randrange(4) for _ in range(n))
                got = complex(expectation(s, idx))
                p = PauliSum(n, {idx: ONE})
                want = oracle.expectation_dense(psi, p)
                assert abs(got - want) < 1e-9


# The rule tables as they stood before the single rule form, copied here so
# the reference below never reads the engine's table.
_OLD_SINGLE_RULES = {
    "H": {X: (1, Z), Y: (-1, Y), Z: (1, X)},
    "X": {X: (1, X), Y: (-1, Y), Z: (-1, Z)},
    "Y": {X: (-1, X), Y: (1, Y), Z: (-1, Z)},
    "Z": {X: (-1, X), Y: (-1, Y), Z: (1, Z)},
    "S": {X: (-1, Y), Y: (1, X), Z: (1, Z)},
}
_OLD_TWO_RULES = {
    "CNOT": {
        (0, X): (1, ((0, X), (1, X))),
        (0, Y): (1, ((0, Y), (1, X))),
        (0, Z): (1, ((0, Z),)),
        (1, X): (1, ((1, X),)),
        (1, Y): (1, ((0, Z), (1, Y))),
        (1, Z): (1, ((0, Z), (1, Z))),
    },
    "BELL": {
        (0, X): (1, ((0, Z),)),
        (0, Y): (-1, ((0, Y), (1, X))),
        (0, Z): (1, ((0, X), (1, X))),
        (1, X): (1, ((1, X),)),
        (1, Y): (1, ((0, Z), (1, Y))),
        (1, Z): (1, ((0, Z), (1, Z))),
    },
}


def reference_apply(old, gate):
    """One gate by the old per-kind tables, on the pre-gate components of a
    tuple of descriptors."""
    descs = list(old)
    if gate.kind in _OLD_SINGLE_RULES:
        (q,) = gate.operands
        new = []
        for letter in (X, Y, Z):
            sign, src = _OLD_SINGLE_RULES[gate.kind][letter]
            new.append(old[q][src - 1].scale(sign))
        descs[q] = Descriptor(*new)
    else:
        for pos, qubit in enumerate(gate.operands):
            new = []
            for letter in (X, Y, Z):
                sign, factors = _OLD_TWO_RULES[gate.kind][pos, letter]
                product = PauliSum.identity(len(old))
                for fpos, fletter in factors:
                    product = product * old[gate.operands[fpos]][fletter - 1]
                new.append(product.scale(sign))
            descs[qubit] = Descriptor(*new)
    return tuple(descs)


class TestOneRuleForm:
    @pytest.mark.parametrize("n", [*range(1, 9), 64])
    def test_fold_equals_gate_by_gate(self, n):
        """The packed fold equals the sum path's gate rewrite and ancilla
        stepped on whole descriptors, component for component; n = 64 runs
        one 400-step circuit, ancillas included."""
        rng = random.Random(400 + n)
        circuits, depth = (1, 400) if n == 64 else (6, 4 * n + 6)
        kinds = set()
        for _ in range(circuits):
            steps, final = random_steps(rng, n, depth)
            folded = evolve_circuit(Circuit(n, steps))
            stepped = sumpath.evolve(Circuit(n, steps))
            kinds.update(getattr(step, "kind", None) for step in steps)
            assert folded.n == len(stepped) == final
            for q in range(final):
                for which in (X, Y, Z):
                    assert folded.component(q, which) == stepped[q][which - 1]
            assert folded.history == tuple(steps)
        if n >= 2:
            assert kinds >= set(SINGLE_QUBIT_KINDS + TWO_QUBIT_KINDS)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_gate_rules_equal_the_old_tables(self, n):
        rng = random.Random(500 + n)
        set_ = evolve_circuit(random_circuit(rng, n, 3 * n))
        for _ in range(40):
            gate = random_gate(rng, n)
            want = reference_apply(set_.descriptors, gate)
            set_ = apply_gate(set_, gate)
            assert set_.descriptors == want

    def test_multi_term_ccz_set(self):
        from test_density import ccz_conjugated
        rng = random.Random(61)
        descs = ccz_conjugated(evolve_circuit(random_circuit(rng, 4, 12)))
        assert max(len(c) for d in descs for c in d) > 1
        for kind in SINGLE_QUBIT_KINDS + TWO_QUBIT_KINDS:
            for _ in range(3):
                operands = tuple(rng.sample(range(4), 2 if kind in TWO_QUBIT_KINDS
                                            else 1))
                gate = Gate(kind, operands)
                want = reference_apply(descs, gate)
                descs = sumpath.apply_gate(descs, gate)
                assert descs == want

    def test_multi_term_relative_descriptor(self, swap_result):
        from dhsim.relative import RelativeContext, context_factor, relative_descriptor
        s = swap_result.final_set
        ctx = RelativeContext.pair_computational((4, 5), (1, 0))
        descs = list(s.descriptors)
        descs[0] = relative_descriptor(s, 0, context_factor(s, ctx))
        assert len(descs[0].qx) > 1
        gates = [Gate(kind, (0,)) for kind in SINGLE_QUBIT_KINDS]
        gates += [Gate(kind, ops) for kind in TWO_QUBIT_KINDS
                  for ops in ((0, 3), (3, 0), (2, 0))]
        for gate in gates:
            assert sumpath.apply_gate(descs, gate) == reference_apply(descs, gate)
        # Conditioned on a gate operand, qubit 1's components no longer
        # commute with that operand's, so a two-factor row must take its
        # factors in operand order, not qubit order.
        for target in (3, 2):
            ctx = RelativeContext.computational(target, 1)
            descs = list(s.descriptors)
            descs[0] = relative_descriptor(s, 0, context_factor(s, ctx))
            for kind in TWO_QUBIT_KINDS:
                for ops in ((3, 0), (0, 3), (2, 0), (0, 2)):
                    gate = Gate(kind, ops)
                    assert sumpath.apply_gate(descs, gate) == reference_apply(descs, gate)

    def test_history_is_the_circuit_steps(self):
        c = Circuit(1, (Gate("H", (0,)), AddAncilla(), Gate("CNOT", (0, 1))))
        s = evolve_circuit(c)
        assert s.history == c.steps
        assert gate_steps(s) == [("H", (0,)), ("CNOT", (0, 1))]

    def test_bad_step_after_an_ancilla_is_located(self):
        with pytest.raises(GateError, match="^step 3: operand 2 out of range "
                                            "for 2 qubits$"):
            Circuit(1, (AddAncilla(), Gate("CNOT", (0, 1)), Gate("CNOT", (0, 2))))

    def test_empty_register_refused(self):
        bad = tuple.__new__(Circuit, (0, ()))
        with pytest.raises(EmptyRegisterError):
            evolve_circuit(bad)

    def test_value_types_keep_their_equality(self):
        """A set compares and hashes on n and its rows alone, whatever its
        history; an ancilla directive, a NamedTuple with no fields, is
        truthy all the same."""
        bell = evolve_circuit(Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)))))
        bare = DescriptorSet(bell.n, bell.descriptors)
        assert bare == bell and not bare != bell and hash(bare) == hash(bell)
        assert bare != DescriptorSet(2, initial_set(2).descriptors, bell.history)
        assert AddAncilla() and AddAncilla() == AddAncilla()
