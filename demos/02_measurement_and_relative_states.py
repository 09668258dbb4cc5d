"""Measurement without collapse, and states relative to an outcome.

A measurement is a CNOT onto a fresh ancilla.  Nothing collapses: the
system's x and y averages go to zero, the z average survives, and the
ancilla walks away with exactly the z record.  "What is the state given
the ancilla reads 0?" becomes an operator question: multiply the
descriptor by an unnormalized (1 + q_z) factor.  Summed over a complete
family of outcomes, those factors cancel and the original descriptor
returns -- which is the whole point of keeping them unnormalized.
"""

from fractions import Fraction

from dhsim import Gate, X, Y, Z, apply_gate, expectation, initial_set
from dhsim.density import diagonal_probabilities
from dhsim.relative import (
    RelativeContext, context_factor, measure, measure_in_basis,
    outcome_probability, povm_sum_check, relative_descriptor,
    ultimate_state_chain,
)


def main():
    s = apply_gate(initial_set(1), Gate("H", (0,)))
    print("system prepared in an equal superposition:")
    print(f"  descriptor: {s.descriptor(0).qx} ; {s.descriptor(0).qy} ; "
          f"{s.descriptor(0).qz}")
    print(f"  averages: x={expectation(s, (X,))} y={expectation(s, (Y,))} "
          f"z={expectation(s, (Z,))}")

    prepared = s
    s = measure(s, 0)
    print("\nafter CNOT coupling to a fresh ancilla:")
    print(f"  x={expectation(s, (X, 0))} y={expectation(s, (Y, 0))} "
          f"z={expectation(s, (Z, 0))}   (off-diagonals gone, diagonal kept)")
    print(f"  diagonal probabilities: "
          f"{[str(p) for p in diagonal_probabilities(s, [0])]}")

    # A rotation before the coupling measures another basis: H takes the
    # x basis to the z basis, and the prepared state is an x eigenstate.
    r = measure_in_basis(prepared, 0, [Gate("H", (0,))])
    print("\nmeasured in the x basis instead (H, then the same coupling):")
    print(f"  q_z = {r.descriptor(0).qz}, z={expectation(r, (Z, 0))}")
    print(f"  diagonal probabilities: "
          f"{[str(p) for p in diagonal_probabilities(r, [0])]}   (a certain record)")

    zero = RelativeContext.computational(1, 0)
    one = RelativeContext.computational(1, 1)
    # A context's factor is built once and conditions any qubit.
    rel0 = relative_descriptor(s, 0, context_factor(s, zero))
    rel1 = relative_descriptor(s, 0, context_factor(s, one))
    print("\nsystem relative to ancilla outcomes (unnormalized):")
    print(f"  |0>: x = {rel0.qx}")
    print(f"  |1>: x = {rel1.qx}")
    print(f"  outcome weights: {outcome_probability(s, zero)}, "
          f"{outcome_probability(s, one)}")
    assert rel0.qx + rel1.qx == s.component(0, X).scale(2)
    print("  sum of the two branches = 2 x original (exact)")

    # Works for any complete family, e.g. four tetrahedron-ish directions.
    povm = [RelativeContext.bloch(1, *vec) for vec in (
        (Fraction(1, 2), 0, Fraction(1, 2)),
        (Fraction(-1, 2), 0, Fraction(1, 2)),
        (Fraction(1, 2), 0, Fraction(-1, 2)),
        (Fraction(-1, 2), 0, Fraction(-1, 2)))]
    print(f"\nfour-outcome family sums back to the original: "
          f"{povm_sum_check(s, 0, povm)}")

    # Push the record one system further: measure the ancilla too.
    s = measure(s, 1)
    plus, minus, third, _ = ultimate_state_chain(s, 1)
    print(f"\nancilla conditioned on its own measurer (qubit {third + 1}):")
    print(f"  q+_z = {plus.qz}")
    print(f"  q-_z = {minus.qz}")
    assert plus.qz + minus.qz == s.component(1, Z).scale(2)
    print("  and again the branches sum to twice the unconditioned operator")


if __name__ == "__main__":
    main()
