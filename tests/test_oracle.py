import itertools
import random
import tracemalloc

import numpy as np
import pytest

from dhsim import oracle
from dhsim.pauli import PauliSum, parse_sum
from conftest import SINGLE_QUBIT_KINDS, TWO_QUBIT_KINDS
import matrices

ONE_QUBIT = SINGLE_QUBIT_KINDS + ("T",)


@pytest.fixture(autouse=True)
def t_gate(monkeypatch):
    """The kernel takes any 2^k x 2^k matrix: the tests give it T, a
    non-Clifford phase no circuit file can name, as one more kind."""
    monkeypatch.setitem(oracle._GATES, "T", matrices.T)


# Explicit dense definitions, kept as the reference for the tensor kernel:
# a kron chain for one-qubit gates and a basis permutation for CNOT.
def kron_gate(name, n, qubit):
    m = np.eye(1, dtype=complex)
    for q in range(n):
        m = np.kron(m, oracle._GATES[name] if q == qubit else np.eye(2))
    return m


def permutation_cnot(n, control, target):
    m = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for idx in range(2 ** n):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[control]:
            bits[target] ^= 1
        m[int("".join(map(str, bits)), 2), idx] = 1.0
    return m


def reference_gate(kind, n, operands):
    if kind == "CNOT":
        return permutation_cnot(n, *operands)
    if kind == "BELL":
        return kron_gate("H", n, operands[0]) @ permutation_cnot(n, *operands)
    return kron_gate(kind, n, operands[0])


def all_gates(n):
    for kind in ONE_QUBIT:
        for q in range(n):
            yield kind, (q,)
    for kind in TWO_QUBIT_KINDS:
        for pair in itertools.permutations(range(n), 2):
            yield kind, pair


def random_steps(rng, n, depth):
    """Seeded random steps with every gate kind the register allows."""
    kinds = ONE_QUBIT + (TWO_QUBIT_KINDS if n >= 2 else ())
    picks = list(kinds) + [kinds[i] for i in rng.integers(len(kinds), size=depth)]
    rng.shuffle(picks)
    steps = []
    for kind in picks:
        arity = 2 if kind in TWO_QUBIT_KINDS else 1
        steps.append((kind, tuple(int(q) for q in rng.permutation(n)[:arity])))
    return steps


class TestConjugate:
    def test_hadamard_takes_x_to_z(self):
        u = oracle.gate_matrix("H", 1, (0,))
        assert matrices.conjugate(u, parse_sum("1 * X")) == parse_sum("1 * Z")

    def test_identity(self):
        u = np.eye(4)
        p = parse_sum("1/2 * X⊗Z + -1 * Y⊗I")
        assert matrices.conjugate(u, p) == p

    def test_cnot_control_y(self):
        u = oracle.gate_matrix("CNOT", 2, (0, 1))
        assert matrices.conjugate(u, parse_sum("1 * Y⊗I")) == parse_sum("1 * Y⊗X")

    def test_rejects_non_unitary(self):
        bad = np.ones((2, 2), dtype=complex)
        with pytest.raises(oracle.OracleError):
            matrices.conjugate(bad, parse_sum("1 * X"))

    def test_rejects_non_clifford_residual(self):
        t = oracle.gate_matrix("T", 1, (0,))
        with pytest.raises(oracle.OracleError):
            matrices.conjugate(t, parse_sum("1 * X"))

    def test_composition_order(self):
        # Heisenberg folding: later gates conjugate the operator first.
        h = oracle.gate_matrix("H", 1, (0,))
        s = oracle.gate_matrix("S", 1, (0,))
        p = parse_sum("1 * X")
        stepwise = matrices.conjugate(h, matrices.conjugate(s, p))
        combined = matrices.conjugate(s @ h, p)
        assert stepwise == combined


class TestExpectationDense:
    def test_zero_state_z(self):
        assert abs(oracle.expectation_dense(oracle.zero_state(1),
                                            parse_sum("1 * Z")) - 1) < 1e-12

    def test_bell_yy_is_minus_one(self):
        psi = oracle.apply_circuit(2, [("H", (0,)), ("CNOT", (0, 1))])
        val = oracle.expectation_dense(psi, parse_sum("1 * Y⊗Y"))
        assert abs(val + 1) < 1e-12

    def test_bell_xx_is_plus_one(self):
        psi = oracle.apply_circuit(2, [("H", (0,)), ("CNOT", (0, 1))])
        val = oracle.expectation_dense(psi, parse_sum("1 * X⊗X"))
        assert abs(val - 1) < 1e-12


def moveaxis_apply(psi, matrix, operands):
    """The gate kernel as two moveaxis calls: the reference for _apply."""
    k = len(operands)
    front = np.moveaxis(psi, operands, range(k))
    out = (matrix @ front.reshape(2 ** k, -1)).reshape(front.shape)
    return np.moveaxis(out, range(k), operands)


def random_state(rng, n):
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return psi / np.linalg.norm(psi)


class TestStringAverages:
    CHUNK = oracle.AVERAGE_CHUNK

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_string_matrix(self, n):
        rng = np.random.default_rng(n)
        psi = random_state(rng, n)
        lengths = [0, 1, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1,
                   2 * self.CHUNK + 1]
        for count in lengths:
            strings = [tuple(int(v) for v in rng.integers(0, 4, size=n))
                       for _ in range(count)]
            if count:
                strings[0] = (0,) * n      # the identity string
            got = oracle.string_averages(psi, strings)
            assert got.shape == (count,)
            want = [np.vdot(psi, matrices.string_matrix(s) @ psi) for s in strings]
            assert np.allclose(got, want, atol=1e-12, rtol=0)
            if count:
                assert abs(got[0] - 1) < 1e-12

    def test_every_string_on_two_qubits(self):
        psi = random_state(np.random.default_rng(7), 2)
        strings = list(itertools.product(range(4), repeat=2))
        want = [np.vdot(psi, matrices.string_matrix(s) @ psi) for s in strings]
        assert np.allclose(oracle.string_averages(psi, strings), want,
                           atol=1e-12, rtol=0)

    def test_expectation_dense_is_the_weighted_sum(self):
        psi = random_state(np.random.default_rng(3), 3)
        p = parse_sum("(1/2-1/4i) * X⊗Y⊗Z + -3/8 * I⊗I⊗I + 1 * Z⊗Z⊗X")
        want = np.vdot(psi, matrices.sum_matrix(p) @ psi)
        assert abs(oracle.expectation_dense(psi, p) - want) < 1e-12

    @pytest.mark.parametrize("strings", [[(1, 2)], [(1, 2, 3, 0)],
                                         [(1, 2, 4)], [(0, -1, 0)]])
    def test_rejects_malformed_strings(self, strings):
        psi = oracle.zero_state(3)
        with pytest.raises(oracle.OracleError):
            oracle.string_averages(psi, strings)

    @staticmethod
    def _check_against_string_matrix(psi, strings):
        got = oracle.string_averages(psi, strings)
        assert got.shape == (len(strings),)
        want = [np.vdot(psi, matrices.string_matrix(s) @ psi) for s in strings]
        assert np.allclose(got, want, atol=1e-12, rtol=0)

    def _chunk_edge_strings(self, rng, n, psi):
        """Strings for the fixed chunk-edge counts, and for the edges of the
        chunk a state of this support gets on small registers."""
        rows = self.CHUNK * 2 ** n // max(np.count_nonzero(psi), 1)
        lengths = [0, 1, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1,
                   2 * self.CHUNK + 1]
        if n <= 6 and rows <= 128:
            lengths += [rows - 1, rows, rows + 1, 2 * rows + 1]
        for count in lengths:
            yield [tuple(int(v) for v in rng.integers(0, 4, size=n))
                   for _ in range(count)]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_stabilizer_states(self, n):
        """A stabilizer state has 2^r nonzero amplitudes (more are exactly
        nonzero where rounding leaves a residue); the sum over the exactly
        nonzero ones must equal the dense average."""
        rng = np.random.default_rng(40 + n)
        steps = [step for step in random_steps(rng, n, 2 * n) if step[0] != "T"]
        psi = oracle.apply_circuit(n, steps)
        for strings in self._chunk_edge_strings(rng, n, psi):
            self._check_against_string_matrix(psi, strings)

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_single_basis_state(self, n):
        rng = np.random.default_rng(60 + n)
        psi = np.zeros(2 ** n, dtype=complex)
        psi[int(rng.integers(2 ** n))] = 1j
        for strings in self._chunk_edge_strings(rng, n, psi):
            self._check_against_string_matrix(psi, strings)

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_dense_state_with_exact_zeros(self, n):
        rng = np.random.default_rng(80 + n)
        psi = random_state(rng, n)
        psi[rng.random(2 ** n) < 0.4] = 0
        psi /= np.linalg.norm(psi)
        for strings in self._chunk_edge_strings(rng, n, psi):
            self._check_against_string_matrix(psi, strings)

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_int_array_and_tuples_agree(self, n):
        rng = np.random.default_rng(120 + n)
        steps = [step for step in random_steps(rng, n, 2 * n) if step[0] != "T"]
        for psi in (oracle.apply_circuit(n, steps), random_state(rng, n)):
            letters = rng.integers(0, 4, size=(50, n))
            tuples = [tuple(int(v) for v in row) for row in letters]
            assert np.array_equal(oracle.string_averages(psi, letters),
                                  oracle.string_averages(psi, tuples))

    @staticmethod
    def _dead(psi, strings):
        """Whether each string's bra amplitudes psi[j ^ x] are all exactly
        zero on the support of psi."""
        n = len(strings[0])
        support = np.flatnonzero(psi)
        dead = []
        for s in strings:
            x = sum(1 << (n - 1 - q) for q, l in enumerate(s) if l in (1, 2))
            dead.append(not np.any(psi[support ^ x]))
        return dead

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_rows_with_only_zero_bra_amplitudes_are_exact_zeros(self, n):
        """A string whose gathered amplitudes are all exact zeros averages
        to exactly 0, also inside a chunk that holds live strings."""
        rng = np.random.default_rng(140 + n)
        stabilizer = oracle.apply_circuit(n, [("H", (q,)) for q in range(n // 2)])
        sparse = np.zeros(2 ** n, dtype=complex)
        sparse[rng.choice(2 ** n, size=3, replace=False)] = (
            rng.normal(size=3) + 1j * rng.normal(size=3))
        sparse /= np.linalg.norm(sparse)
        for psi in (stabilizer, sparse):
            support = np.flatnonzero(psi)
            strings = []
            for _ in range(40):
                # Half the strings move one support index onto another.
                x = (int(rng.choice(support) ^ rng.choice(support))
                     if rng.random() < 0.5 else int(rng.integers(2 ** n)))
                strings.append(tuple(
                    int(rng.choice((1, 2)) if x >> (n - 1 - q) & 1
                        else rng.choice((0, 3))) for q in range(n)))
            dead = self._dead(psi, strings)
            rows = self.CHUNK * 2 ** n // np.count_nonzero(psi)
            assert any(dead[:rows]) and not all(dead[:rows])
            got = oracle.string_averages(psi, strings)
            assert all(got[k] == 0 for k in range(len(strings)) if dead[k])
            self._check_against_string_matrix(psi, strings)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_overlap_counts_are_exact(self, n):
        rng = np.random.default_rng(160 + n)
        cols = np.arange(2 ** n)
        for nonzero in (rng.random(2 ** n) < 0.3, np.ones(2 ** n, dtype=bool),
                        cols == 2 ** n - 1):
            counts = oracle._overlaps(nonzero.astype(float), n)
            want = [np.count_nonzero(nonzero & nonzero[cols ^ x])
                    for x in range(2 ** n)]
            assert np.array_equal(counts, 2 ** n * np.array(want, dtype=float))

    def test_sparse_temporaries_stay_chunk_sized(self):
        n = 14
        psi = np.zeros(2 ** n, dtype=complex)
        psi[12345] = 1.0
        rng = np.random.default_rng(9)
        strings = [tuple(int(v) for v in rng.integers(0, 4, size=n))
                   for _ in range(200)]
        tracemalloc.start()
        try:
            got = oracle.string_averages(psi, strings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        # Only strings without an x bit keep a basis state's amplitude.
        want = [0 if any(l in (1, 2) for l in s) else
                (-1) ** sum(1 for q, l in enumerate(s)
                            if l == 3 and 12345 >> (n - 1 - q) & 1)
                for s in strings]
        assert np.array_equal(got, np.array(want, dtype=complex))

    def test_temporaries_stay_chunk_sized(self):
        n = 14
        psi = random_state(np.random.default_rng(5), n)
        rng = np.random.default_rng(6)
        strings = [tuple(int(v) for v in rng.integers(0, 4, size=n))
                   for _ in range(200)]
        tracemalloc.start()
        try:
            oracle.string_averages(psi, strings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One 200 x 2^n complex array alone would be 52 MB.
        assert peak < 16 * 2 ** 20


class TestSampleHelpers:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_pick_letters_are_the_base_4_digits(self, n):
        """The same picks _verify_set draws, on both sides of its switch
        from sampling without replacement to independent draws."""
        rng = random.Random(n)
        space = 4 ** n
        count = min(200, space)
        picks = rng.sample(range(space), count) if space <= 10 ** 6 else [
            rng.randrange(space) for _ in range(count)]
        want = [[pick >> s & 3 for s in range(0, 2 * n, 2)] for pick in picks]
        letters = oracle.pick_letters(picks, n)
        assert letters.shape == (count, n)
        assert letters.tolist() == want

    def test_worst_deviation_compares_every_pair(self):
        averages = np.array([1.0, 0.0, -1j, -1j])
        assert oracle.worst_deviation(np.zeros(0, dtype=complex), []) == 0.0
        assert oracle.worst_deviation(averages, [1, 0, -1j, -1j]) == 0.0
        # A repeated string's rows are compared one by one: a wrong value
        # on the first is not hidden by a right one on the second.
        assert oracle.worst_deviation(averages, [1, 0, 1j, -1j]) == 2.0
        assert oracle.worst_deviation(averages, [1, 0.5, -1j, -1j]) == 0.5
        # Row k meets value k: one value too few or too many is refused.
        for values in ([1, 0, -1j], [1, 0, -1j, -1j, 0], [0]):
            with pytest.raises(oracle.OracleError):
                oracle.worst_deviation(averages, values)


class TestConditionalState:
    def test_bell_branch(self):
        psi = oracle.apply_circuit(2, [("H", (0,)), ("CNOT", (0, 1))])
        rem, prob = oracle.conditional_state(psi, [1], [0])
        assert abs(prob - 0.5) < 1e-12
        assert np.allclose(rem, [1, 0])

    def test_product_state_unchanged(self):
        psi = oracle.apply_circuit(2, [("H", (0,))])
        rem, prob = oracle.conditional_state(psi, [1], [0])
        assert abs(prob - 1.0) < 1e-12
        assert np.allclose(np.abs(rem) ** 2, [0.5, 0.5])

    def test_zero_probability_raises(self):
        psi = oracle.zero_state(2)
        with pytest.raises(oracle.OracleError):
            oracle.conditional_state(psi, [0], [1])

    @pytest.mark.parametrize("qubits,outcome,message", [
        ([1, 2], [0], "1 outcome bits for 2 qubits"),
        ([1], [0, 1], "2 outcome bits for 1 qubits"),
        ([-1], [0], r"qubits \[-1\] are not distinct qubits of a 3-qubit state"),
        ([3], [0], r"qubits \[3\] are not distinct"),
        ([0, 0], [0, 1], r"qubits \[0, 0\] are not distinct"),
        ([0], [2], r"outcome \[2\] is not a string of bits"),
        ([0, 1], [1, -1], r"outcome \[1, -1\] is not a string of bits"),
    ])
    def test_bad_qubits_or_outcome_refused(self, qubits, outcome, message):
        """Nothing is zipped short, wrapped onto the last qubit or indexed
        past the state: each mistake is named."""
        psi = oracle.apply_circuit(3, [("H", (0,)), ("H", (1,)), ("H", (2,))])
        with pytest.raises(oracle.OracleError, match=message):
            oracle.conditional_state(psi, qubits, outcome)


class TestBellGate:
    def test_rotates_bell_pair_to_zero(self):
        steps = [("H", (0,)), ("CNOT", (0, 1)), ("BELL", (0, 1))]
        psi = oracle.apply_circuit(2, steps)
        assert abs(abs(psi[0]) - 1) < 1e-9

    def test_matrix_is_inverse_of_preparation(self):
        prep = (oracle.gate_matrix("CNOT", 2, (0, 1))
                @ oracle.gate_matrix("H", 2, (0,)))
        bell = oracle.gate_matrix("BELL", 2, (0, 1))
        assert np.allclose(bell @ prep, np.eye(4))


class TestReducedDensity:
    def test_bell_marginal_is_maximally_mixed(self):
        psi = oracle.apply_circuit(2, [("H", (0,)), ("CNOT", (0, 1))])
        rho = oracle.reduced_density(psi, [0])
        assert np.allclose(rho, np.eye(2) / 2)


class TestTensorKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gate_matrix_matches_explicit_definitions(self, n):
        for kind, operands in all_gates(n):
            want = reference_gate(kind, n, operands)
            assert np.allclose(oracle.gate_matrix(kind, n, operands), want,
                               atol=1e-12), (kind, operands)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_apply_circuit_matches_dense_product(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            steps = random_steps(rng, n, 3 * n)
            dense = np.eye(2 ** n, dtype=complex)
            for kind, operands in steps:
                dense = reference_gate(kind, n, operands) @ dense
            unitary = matrices.circuit_unitary(n, steps)
            assert np.max(np.abs(unitary - dense)) < 1e-12

            psi = oracle.apply_circuit(n, steps)
            assert np.max(np.abs(psi - unitary @ oracle.zero_state(n))) < 1e-12

            state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            state /= np.linalg.norm(state)
            kept = state.copy()
            psi = oracle.apply_circuit(n, steps, state=state)
            assert psi.shape == state.shape
            assert np.max(np.abs(psi - dense @ state)) < 1e-12
            assert np.array_equal(state, kept)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_apply_is_the_moveaxis_kernel_bit_for_bit(self, n):
        """The transpose kernel moves the same data as two moveaxis calls,
        for 2^k x 2^k matrices on operands in every order, with and without
        the batch axis that circuit_unitary adds."""
        rng = np.random.default_rng(100 + n)
        for shape in [(2,) * n, (2,) * n + (3,)]:
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for k in range(1, min(n, 3) + 1):
                m = rng.normal(size=(2 ** k,) * 2) + 1j * rng.normal(size=(2 ** k,) * 2)
                for operands in itertools.permutations(range(n), k):
                    got = oracle._apply(psi, m, operands)
                    assert got.shape == psi.shape
                    assert np.array_equal(got, moveaxis_apply(psi, m, operands))

    def test_unknown_gate_kind(self):
        with pytest.raises(oracle.OracleError):
            oracle.apply_circuit(2, [("SWAP", (0, 1))])

    def test_wide_register_needs_no_dense_matrix(self):
        n = 16
        steps = [("H", (0,))] + [("CNOT", (q, q + 1)) for q in range(n - 1)]
        tracemalloc.start()
        try:
            psi = oracle.apply_circuit(n, steps)
            with pytest.raises(oracle.OracleError):
                oracle.gate_matrix("H", n, (0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert abs(psi[0] - 2 ** -0.5) < 1e-12
        assert abs(psi[-1] - 2 ** -0.5) < 1e-12

    def test_dense_builders_refuse_oversized_registers(self):
        n = oracle.DENSE_MAX_QUBITS + 1
        for build in (lambda: matrices.circuit_unitary(n, []),
                      lambda: matrices.string_matrix("Z" * n),
                      lambda: matrices.sum_matrix(PauliSum.single(n, 0, 3))):
            with pytest.raises(oracle.OracleError):
                build()
        assert matrices.string_matrix("Z" * (n - 1)).shape == (2 ** (n - 1),) * 2


def loop_conditional_state(state, qubits, outcome):
    """Index-by-index projection, the reference for the tensor version."""
    n = int(round(np.log2(state.shape[0])))
    rest = [q for q in range(n) if q not in qubits]
    amps = np.zeros(2 ** len(rest), dtype=complex)
    for idx in range(state.shape[0]):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        if all(bits[q] == b for q, b in zip(qubits, outcome)):
            amps[int("".join(str(bits[q]) for q in rest) or "0", 2)] = state[idx]
    prob = float(np.sum(np.abs(amps) ** 2))
    return amps / np.sqrt(prob), prob


@pytest.mark.parametrize("qubits", [[0], [2], [3, 1], [0, 1, 2, 3]])
def test_conditional_state_matches_loop(qubits):
    rng = np.random.default_rng(len(qubits))
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    for outcome in itertools.product((0, 1), repeat=len(qubits)):
        got, prob = oracle.conditional_state(state, qubits, list(outcome))
        want, want_prob = loop_conditional_state(state, qubits, outcome)
        assert prob == want_prob
        assert np.array_equal(got, want)
