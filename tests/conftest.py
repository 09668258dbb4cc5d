import os
import random
import sys
from fractions import Fraction

import pytest

from dhsim.density import diagonal_probabilities, reconstruct_density
from dhsim.engine import (
    GATE_ARITY, AddAncilla, Circuit, Descriptor, DescriptorSet, Gate, apply_gate,
    initial_set,
)
from dhsim.pauli import X, Y, Z, ComplexDyadic, PauliSum, sum_mul
from dhsim.relative import RelativeContext, measure
import matrices

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """pyproject.toml's pythonpath puts src/ on this process's path only;
    tests that start `python -m dhsim.cli` need it in the environment too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


def count_calls(monkeypatch, module, name):
    """Record the calls of ``module.name``, rebound in every dhsim module,
    and in the tests' ``sumpath``, that holds it (the modules import each
    other's functions by name)."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith(("dhsim", "sumpath"))
                and getattr(mod, name, None) is real):
            monkeypatch.setattr(mod, name, counting)
    return calls


def from_xz(qx: PauliSum, qz: PauliSum) -> Descriptor:
    """The descriptor with these x and z and q_y = i q_x q_z, built on sums."""
    return Descriptor(qx, sum_mul(qx, qz).scale(ComplexDyadic.i_power(1)), qz)


def scale_xz(d: Descriptor, sx: int, sz: int) -> Descriptor:
    """A descriptor with its x and z times sx and sz, q_y rebuilt on sums."""
    return from_xz(d.qx.scale(sx), d.qz.scale(sz))


def dense_operator(coeffs):
    """sum_I coeffs[I] P_I as a numpy matrix (test-side reference)."""
    return sum(float(c) * matrices.string_matrix(index)
               for index, c in coeffs.items())


def dense_density(rho):
    """A DensityMatrix as the numpy matrix (1/2^n) sum_I a_I P_I."""
    return dense_operator(rho.coeffs) / 2 ** rho.n


def z_projector(n: int, qubit: int, outcome: int) -> PauliSum:
    """(1 +/- sigma_z)/2 on one slot: the computational outcome projector."""
    sign = 1 if outcome == 0 else -1
    return (PauliSum.identity(n)
            + PauliSum.single(n, qubit, Z, sign)).scale(Fraction(1, 2))


# Gate kinds by operand count, from the engine's one gate table.
SINGLE_QUBIT_KINDS = tuple(k for k, arity in GATE_ARITY.items() if arity == 1)
TWO_QUBIT_KINDS = tuple(k for k, arity in GATE_ARITY.items() if arity == 2)


def random_gate(rng: random.Random, n: int) -> Gate:
    kind = rng.choice([k for k, arity in GATE_ARITY.items() if arity <= n])
    return Gate(kind, tuple(rng.sample(range(n), GATE_ARITY[kind])))


def random_steps(rng, n, depth):
    """Random gates of every kind with ancillas between them; returns the
    steps and the final register size."""
    steps = []
    for _ in range(depth):
        if rng.random() < 0.15:
            steps.append(AddAncilla())
            n += 1
        else:
            steps.append(random_gate(rng, n))
    return steps, n


def random_circuit(rng: random.Random, n: int, depth: int) -> Circuit:
    return Circuit(n, tuple(random_gate(rng, n) for _ in range(depth)))


def maximally_mixed(qubits) -> RelativeContext:
    """The context of a discarded partner: weight 1 and an empty table."""
    return RelativeContext(tuple(qubits))


@pytest.fixture(scope="session")
def bell_set():
    set_ = initial_set(2)
    set_ = apply_gate(set_, Gate("H", (0,)))
    return apply_gate(set_, Gate("CNOT", (0, 1)))


@pytest.fixture(scope="session")
def swap_result():
    from dhsim.protocols import run_entanglement_swap
    return run_entanglement_swap()


def decohere(set_: DescriptorSet, qubits) -> DescriptorSet:
    """Measure every listed qubit; the subset density becomes diagonal."""
    out = set_
    for qubit in qubits:
        out = measure(out, qubit)
    return out


def run_decoherence_demo() -> dict:
    """Single-qubit decoherence: off-diagonals die, diagonals survive."""
    set_ = initial_set(1)
    set_ = apply_gate(set_, Gate("H", (0,)))
    before = reconstruct_density(set_, [0])
    set_ = decohere(set_, [0])
    after = reconstruct_density(set_, [0])
    return {
        "set": set_,
        "before": before,
        "after": after,
        "diagonal": diagonal_probabilities(set_, [0]),
    }


def classify_against_reference(generated: list[DescriptorSet],
                               reference: list[list[PauliSum]]
                               ) -> list[dict]:
    """Match reference component listings to generated sets.

    Each reference entry is six component sums in (1x,1y,1z,2x,2y,2z)
    order.  A reference is ``exact`` when some generated set equals it
    component-by-component, ``sign`` when components agree up to per-
    component sign flips, and ``convention`` when its own y components are
    not i times its x times z (so no set built under this artifact's
    Hermitian y convention can match its strings).  The best-scoring
    generated set and the per-component diffs are reported either way.
    """
    results = []
    for ref in reference:
        ref = list(ref)
        consistent = all(
            sum_mul(ref[3 * q + 0], ref[3 * q + 2]).scale(ComplexDyadic.i_power(1))
            == ref[3 * q + 1]
            for q in (0, 1))
        best = None
        for gi, gen in enumerate(generated):
            comps = [gen.component(a, r) for a in (0, 1) for r in (X, Y, Z)]
            diffs = []
            for rc, gc in zip(ref, comps):
                if rc == gc:
                    diffs.append("equal")
                elif rc == -gc:
                    diffs.append("sign")
                else:
                    diffs.append("string")
            score = (diffs.count("equal"), diffs.count("sign"))
            if best is None or score > best[0]:
                best = (score, gi, diffs)
        _, gi, diffs = best
        if all(d == "equal" for d in diffs):
            kind = "exact"
        elif all(d in ("equal", "sign") for d in diffs):
            kind = "sign"
        else:
            kind = "convention" if not consistent else "mismatch"
        results.append({
            "kind": kind,
            "match_index": gi,
            "diffs": diffs,
            "reference_y_consistent": consistent,
        })
    return results
