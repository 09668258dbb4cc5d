"""A set is its packed rows, and answers every analysis from them with no
product formed; with every row reader rebound to the tests' sum path
(``product_path``, ``sumpath``), the same set's descriptors form each
product.  Both must agree on every average, table, diagonal, single and
descriptor text, and on every error, and a two-qubit set must get the
same basis report from its rows as from its sixteen formed products.  A
report on a Clifford circuit reads every number off the rows, so it
builds no sum at all.  Every way to build a set gives rows: stepping a
circuit gate by gate gives the fold's, a measurement gives a row set,
and a descriptor that is not a signed string is refused."""

import contextlib
import random

import pytest

from dhsim import cli, density, engine, pauli, uniqueness
from dhsim.pauli import I, X, Y, Z, DimensionError, PauliSum
from dhsim.engine import (
    AddAncilla, Circuit, DescriptorSet, Gate, add_ancilla, apply_gate,
    descriptor_set, evolve_circuit, initial_set, row_strings,
)
from dhsim.relative import measure
from dhsim.uniqueness import generate_equivalent_sets, validate_basis
from conftest import count_calls, from_xz, random_gate, random_steps
from test_uniqueness_pins import stabilizer_states
import matrices
import sumpath


def circuit_with_ancillas(rng: random.Random, n: int) -> Circuit:
    """A random circuit of 3n steps that starts on 1..n qubits and grows
    to n, each gate on the register as wide as it is at that step."""
    width = rng.randint(1, n)
    grow = set(rng.sample(range(3 * n), n - width))
    steps, size = [], width
    for k in range(3 * n):
        if k in grow:
            steps.append(AddAncilla())
            size += 1
        else:
            steps.append(random_gate(rng, size))
    return Circuit(width, tuple(steps))


# The analyses that read a set's rows, each with its sum-path twin.
ROW_READERS = ("expectations", "single_averages", "descriptor_texts",
               "diagonal_probabilities", "validate_basis")


@contextlib.contextmanager
def product_path(monkeypatch):
    """Every row reader, wherever ``engine``, ``density``, ``uniqueness``
    or ``cli`` holds it, rebound to its ``sumpath`` twin on the set's
    descriptors, which forms the products: the reference for the row
    path."""
    with monkeypatch.context() as patch:
        for name in ROW_READERS:
            twin = getattr(sumpath, name)
            for module in (engine, density, uniqueness, cli):
                if hasattr(module, name):
                    patch.setattr(module, name, lambda set_, *args, twin=twin:
                                  twin(set_.descriptors, *args))
        yield


def outcome(call, *args):
    """The value of a call, or the type and text of the ValueError (or
    DimensionError) it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def strings(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Dense random strings, and sparse ones whose averages are often not 0."""
    out = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(40)]
    for _ in range(40):
        letters = [I] * n
        for q in rng.sample(range(n), rng.randint(1, min(n, 4))):
            letters[q] = rng.choice((X, Y, Z))
        out.append(tuple(letters))
    return out


def analyses(set_: DescriptorSet, seed: int) -> dict:
    """Every analysis that reads rows when a set has them, and the errors of
    bad picks, on subsets drawn from ``seed``."""
    rng = random.Random(seed)
    n = set_.n
    picks = strings(rng, n)
    bad = [list(p) for p in picks[:3]]
    bad[0][rng.randrange(n)] = rng.choice((-1, 4, 7))
    subsets = [rng.sample(range(n), rng.randint(1, min(n, 8))) for _ in range(3)]
    small = [rng.sample(range(n), min(n, rng.randint(1, 3))) for _ in range(2)]
    expectations = engine.expectations
    return {
        "expectations": expectations(set_, picks),
        "bad letter": outcome(expectations, set_, [tuple(p) for p in bad]),
        "short pick": outcome(expectations, set_, picks[:2] + [(Z,) * (n + 1)]),
        "tables": [density.expectation_table(set_, qubits) for qubits in small],
        "diagonals": [density.diagonal_probabilities(set_, qubits) for qubits in subsets],
        "singles": engine.single_averages(set_),
        "descriptor rows": cli._descriptor_rows(set_),
    }


@pytest.mark.parametrize("n", [*range(1, 65), 1000])
def test_rows_and_descriptors_agree(n, monkeypatch):
    rng = random.Random(3100 + n)
    set_ = evolve_circuit(circuit_with_ancillas(rng, n))
    assert set_.n == len(set_.rows) == n
    got = analyses(set_, n)
    with product_path(monkeypatch):
        want = analyses(set_, n)
    assert got["bad letter"][0] is ValueError
    assert got["short pick"][0] is DimensionError
    assert got == want


def test_signed_string_sets_form_no_product(swap_result, monkeypatch):
    """Sets built three ways, by ``relative.measure``, by ``evolve_circuit``
    and from the swap's reduced pairs as descriptors, read their averages,
    tables, diagonals, singles and descriptor text off their rows: no
    ``sum_mul`` call multiplies two or more factors, and the values are
    the sum path's, which does form products."""
    rng = random.Random(45)
    measured = evolve_circuit(circuit_with_ancillas(rng, 4))
    for qubit in (0, 2):
        measured = measure(measured, qubit)
    sets = [measured, evolve_circuit(circuit_with_ancillas(rng, 6))]
    sets += [o.reduced for o in swap_result.relative_bell]
    assert len(sets) == 6 and all(len(set_.rows) == set_.n for set_ in sets)
    calls = count_calls(monkeypatch, pauli, "sum_mul")
    got = [analyses(set_, seed) for seed, set_ in enumerate(sets)]
    assert [len(factors) for factors in calls if len(factors) > 1] == []
    with product_path(monkeypatch):
        assert got == [analyses(set_, seed) for seed, set_ in enumerate(sets)]
    # The counter sees the products the sum path forms.
    assert [factors for factors in calls if len(factors) > 1]


def _broken_sets():
    """Bell-pair rows changed by hand, each set still of signed strings: a
    repeated qubit, x = identity (a component with a trace), x times i (a
    non-Hermitian product) and qubit 2's x set to qubit 1's y, which
    anticommutes with qubit 1's x and shares its x part, so the order of
    that cross product decides the sign of its nonzero average."""
    (a, b) = evolve_circuit(Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))).rows
    y = row_strings(a, 2)[1]
    return {
        "repeated": (a, a),
        "trace": ((0, 0, a[2], a[3]), b),
        "non-hermitian": ((a[0], a[1] + 1 & 3, a[2], a[3]), b),
        "anticommuting cross pair": (a, (*y, b[2], b[3])),
    }


def test_validate_basis_rows_agree_with_the_products(swap_result):
    cases = []
    for state in stabilizer_states(2).values():
        cases.append(state)
        cases += [member for member, _ in generate_equivalent_sets(state)[1]]
    cases += [o.reduced for o in swap_result.relative_bell]
    broken = {name: descriptor_set(rows) for name, rows in _broken_sets().items()}
    cases += broken.values()
    assert len(cases) == 308
    for set_ in cases:
        got, want = validate_basis(set_), sumpath.validate_basis(set_.descriptors)
        assert got._asdict() == want._asdict()
        assert got.violations == want.violations and got.table == want.table
    texts = {name: validate_basis(set_).violations for name, set_ in broken.items()}
    assert "only 10 of 16 products are distinct" in texts["repeated"]
    assert "component (1,X) has a trace" in texts["trace"]
    assert "some products are not Hermitian" in texts["non-hermitian"]
    assert any("not orthogonal" in text for text in texts["anticommuting cross pair"])


def _circuit_text(rng: random.Random, n: int) -> str:
    """A random circuit of 3n steps that grows to n qubits, as a file."""
    circuit = circuit_with_ancillas(rng, n)
    lines = [f"qubits {circuit.initial_qubits}", *map(engine.step_label, circuit.steps)]
    return "\n".join(lines) + "\n"


def test_clifford_reports_build_no_sum(tmp_path, monkeypatch, capsys):
    """``run``, ``validate``, ``symmetries``, ``construct``, ``trace`` and
    ``measure-demo`` on Clifford circuits build no ``PauliSum`` through
    either constructor: every set they read holds its rows alone.
    ``swap-demo`` and ``chain-demo`` build only their relative descriptors'
    sums, a context factor one sum per table entry and a product of
    components none of its own: at most 140 and 77 a report."""
    rng = random.Random(50)
    files = {"bell": "qubits 2\nh 1\ncnot 1 2\n", "zero": "qubits 2\n",
             "six": _circuit_text(rng, 6), "ten": _circuit_text(rng, 10)}
    for name, text in files.items():
        (tmp_path / f"{name}.dh").write_text(text, encoding="utf-8")
    runs = ["run six.dh", "run ten.dh --verify", "run bell.dh --verify",
            "validate bell.dh", "validate zero.dh --verify",
            "symmetries bell.dh --verify", "symmetries zero.dh",
            "construct bell.dh --verify", "trace ten.dh", "trace six.dh",
            "measure-demo", "measure-demo --verify"]
    built = []
    init, canonical = PauliSum.__init__, PauliSum._canonical
    monkeypatch.setattr(PauliSum, "__init__", lambda self, *args, **kwargs: (
        built.append(self), init(self, *args, **kwargs))[1])
    monkeypatch.setattr(PauliSum, "_canonical", staticmethod(lambda *args: (
        built.append(args), canonical(*args))[1]))
    counts = {}
    for run in runs:
        built.clear()
        argv = [str(tmp_path / a) if a.endswith(".dh") else a for a in run.split()]
        assert cli.main(argv) == cli.EXIT_OK, run
        counts[run] = len(built)
    assert counts == dict.fromkeys(counts, 0)
    # The counter sees the sums the relative descriptors build.
    for run, bound in {"swap-demo": 140, "chain-demo": 77}.items():
        built.clear()
        assert cli.main([run]) == cli.EXIT_OK, run
        assert 0 < len(built) <= bound, run
    capsys.readouterr()


@pytest.mark.parametrize("n", range(1, 9))
def test_stepping_gives_the_folded_rows(n):
    """``apply_gate`` and ``add_ancilla``, one step at a time from the fresh
    register, give exactly ``evolve_circuit``'s rows and history."""
    rng = random.Random(5100 + n)
    for _ in range(6):
        steps, final = random_steps(rng, n, 4 * n + 6)
        stepped = initial_set(n)
        for step in steps:
            stepped = (add_ancilla(stepped) if isinstance(step, AddAncilla)
                       else apply_gate(stepped, step))
        folded = evolve_circuit(Circuit(n, steps))
        assert stepped.n == folded.n == final
        assert stepped.rows == folded.rows
        assert stepped.history == folded.history == tuple(steps)


def test_measure_returns_a_row_set():
    """``relative.measure`` grows a set by its rows, whose components are
    U^dagger sigma U by dense conjugation, and whose singles are those
    components' vacuum averages."""
    rng = random.Random(52)
    for n in (1, 2, 3):
        steps, _ = random_steps(rng, n, 4 * n)
        set_ = evolve_circuit(Circuit(n, steps))
        for qubit in rng.sample(range(set_.n), 2 if set_.n > 1 else 1):
            set_ = measure(set_, qubit)
        assert len(set_.rows) == set_.n
        u = matrices.circuit_unitary(set_.n, engine.gate_steps(set_))
        want = [matrices.conjugate(u, PauliSum.single(set_.n, q, w))
                for q in range(set_.n) for w in (X, Y, Z)]
        assert [c for d in set_.descriptors for c in d] == want
        assert engine.single_averages(set_) == list(map(pauli.vacuum_expectation, want))


def test_a_multi_term_descriptor_is_refused():
    """A set holds signed strings with q_y = i q_x q_z: a multi-term
    component, a coefficient that is not a power of i, a q_y that does
    not follow, a component of another width or a missing qubit is refused."""
    x, z = PauliSum.single(1, 0, X), PauliSum.single(1, 0, Z)
    good = from_xz(x, z)
    assert DescriptorSet(1, (good,)) == initial_set(1)
    bad = [from_xz(x + z, z), from_xz(x.scale(2), z), good._replace(qy=good.qy.scale(-1)),
           from_xz(PauliSum.single(2, 0, X), PauliSum.single(2, 0, Z))]
    for d in bad:
        with pytest.raises(ValueError, match="signed Pauli strings"):
            DescriptorSet(1, (d,))
    with pytest.raises(ValueError, match="0 descriptors for a 1-qubit register"):
        DescriptorSet(1, ())
