"""Mixed states need room: descriptors never trace anything out.

A mixed qubit is always part of a larger pure system, and its descriptor
says so: the operators refuse to fit on the small space.  Purity is an
exact arithmetic question here (a sum of squared averages), reduction to
a subspace is allowed exactly when the descriptor's support fits, and a
mixed table can be *represented* by a mixture of pure tables even though
no mixture of pure descriptors equals the descriptor itself.
"""

from fractions import Fraction

from dhsim import Gate, apply_gate, initial_set
from dhsim.density import (
    expectation_table, mixture_representation, purity_condition,
    reconstruct_density, schmidt_coefficients, simply_reduce,
)
from dhsim.uniqueness import construct_from_density
from dhsim.density import DensityMatrix
from dhsim.protocols import run_entanglement_swap


def bell_pair():
    s = apply_gate(initial_set(2), Gate("H", (0,)))
    return apply_gate(s, Gate("CNOT", (0, 1)))


def main():
    pair = bell_pair()
    rho = reconstruct_density(pair, (0, 1))
    total, mixed = purity_condition(rho)
    print(f"entangled pair: purity sum {total} -> mixed = {mixed}")
    sc = schmidt_coefficients(rho)
    print(f"  diagonal-form coefficients ({sc.a}, {sc.b}, {sc.c}, {sc.d}), "
          f"squares sum to {sc.rule_sum()}")

    # One half of the pair: its descriptor cannot shrink to one qubit.
    d1 = pair.descriptor(0)
    print(f"\nqubit 1 of the pair: support {sorted(d1.support())}")
    print(f"  reduce to qubit 1 alone -> {simply_reduce(d1, (0,))}")
    print("  (the second factor is not disposable: the qubit is mixed)")

    # The swap protocol's cross pair is as mixed as it gets.
    swap = run_entanglement_swap()
    total, _ = swap.pair_purity[1, 4]
    print(f"\nswap cross pair (1,4): purity sum {total} (fully mixed)")
    target = {idx: value.re for idx, value
              in expectation_table(swap.final_set, [0, 3]).items()}
    dictionary = []
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        s = initial_set(2)
        for q, b in enumerate(bits):
            if b:
                s = apply_gate(s, Gate("X", (q,)))
        dictionary.append(s)
    weights = mixture_representation(target, dictionary)
    print(f"  its table is exactly the uniform mixture of the four basis "
          f"tables: weights {[str(w) for w in weights]}")
    wide = [sorted(c.support()) for c
            in swap.final_set.descriptor(0)]
    print(f"  yet its descriptors keep support {wide} -- a representation, "
          f"not an operator identity")

    # Direct construction: the maximally mixed qubit needs a second slot.
    rho = DensityMatrix(1, {(0,): Fraction(1)})
    print(f"\nmaximally mixed single qubit, one-slot search: "
          f"{construct_from_density(rho, 0)}")
    found = construct_from_density(rho, 1)
    d = found.descriptor(0)
    print(f"with one extra slot: ({d.qx}; {d.qy}; {d.qz})")
    print("a mixed qubit's description is twice as long as a pure one's.")


if __name__ == "__main__":
    main()
