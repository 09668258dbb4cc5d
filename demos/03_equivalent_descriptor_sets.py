"""How unique is a register description?

A state with no symmetry admits exactly one descriptor set.  A symmetric
state admits a whole family: relabeling component roles (the same x/y/z
permutation on both qubits) and swapping the qubits, with compensating
signs.  For the maximally entangled pair that family has twelve members,
and all of them stay average-identical under any further circuit.
"""

import random

from dhsim import Gate, apply_gate, initial_set
from dhsim.density import expectation_table, reconstruct_density
from dhsim.uniqueness import (
    construct_from_density, generate_equivalent_sets, validate_basis,
)


def main():
    seed = initial_set(2)
    seed = apply_gate(seed, Gate("H", (0,)))
    seed = apply_gate(seed, Gate("CNOT", (0, 1)))
    rho = reconstruct_density(seed, [0, 1])

    report = validate_basis(seed)
    print(f"seed is a proper operator basis: {report.well_formed} "
          f"({report.independent_count} distinct products)")

    # The symmetries of the seed's density, and the class they generate;
    # each set comes with its table, from the products that validated it.
    group, family = generate_equivalent_sets(seed)
    print(f"\nsymmetry group of the density: {len(group)} transforms")
    for t in group:
        print(f"  {t.slot_cycles()}")

    print(f"\nequivalence class: {len(family)} descriptor sets")
    for k, (member, _) in enumerate(family, 1):
        d1, d2 = member.descriptor(0), member.descriptor(1)
        print(f"  [{k:2d}] q1 = ({d1.qx}; {d1.qy}; {d1.qz})   "
              f"q2 = ({d2.qx}; {d2.qy}; {d2.qz})")

    # Any member is as good as any other: a common circuit keeps every
    # pairwise average equal, exactly.
    rng = random.Random(7)
    gates = []
    for _ in range(10):
        kind = rng.choice(["H", "S", "X", "CNOT"])
        ops = (0, 1) if kind == "CNOT" else (rng.randrange(2),)
        gates.append(Gate(kind, ops))
    tables = []
    for member, _ in family:
        evolved = member
        for g in gates:
            evolved = apply_gate(evolved, g)
        tables.append(expectation_table(evolved, [0, 1]))
    print(f"\nafter a common random 10-gate circuit, all tables equal: "
          f"{all(t == tables[0] for t in tables)}")

    # The reverse direction: find descriptors from the density alone.
    found = construct_from_density(rho, 0)
    d1 = found.descriptor(0)
    print(f"\ndirect construction from the density found: "
          f"({d1.qx}; {d1.qy}; {d1.qz}) ...")
    print("which reproduces the full expectation table exactly.")


if __name__ == "__main__":
    main()
