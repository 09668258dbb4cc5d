"""Entanglement swapping, traced operator by operator.

Two pairs are entangled locally, (1,2) and (3,4).  A joint rotation on
(2,3) and two record CNOTs onto fresh qubits 5 and 6 implement the pair
measurement.  The descriptors show exactly which Hilbert-space factors
each qubit ever touched: qubits 1 and 4 never interact after their own
preparation, so nothing about them changes at measurement time.  Only
when the records q_5z and q_6z are consumed -- two classical bits sent to
the (1,4) side -- do the conditioned descriptors of (1,4) become a
maximally entangled pair.  Nothing non-local ever happens.

``run_entanglement_swap`` asserts, as it builds each of the four reduced
(1,4) pairs, that the pair is a proper two-qubit basis and pure; each
outcome holds its pair as a two-qubit set, whose text is read off its
rows.
"""

from dhsim.engine import descriptor_texts
from dhsim.protocols import PAIRS_1BASED, run_entanglement_swap


def main():
    result = run_entanglement_swap()
    s = result.final_set

    print("final six-qubit descriptors:")
    for q in range(6):
        d = s.descriptor(q)
        print(f"  qubit {q + 1}: x = {d.qx}")
        print(f"           y = {d.qy}")
        print(f"           z = {d.qz}")

    print("\nHilbert-space dependencies (which factors each qubit touches):")
    for q, deps in result.dependency.supports_1based().items():
        print(f"  qubit {q}: {deps}")
    print("  qubits 1 and 4 kept their original dependencies; 5 and 6")
    print("  mirror the qubits they recorded.")

    print("\npair diagnostics before any conditioning:")
    for pair in PAIRS_1BASED:
        total, mixed = result.pair_purity[pair]
        tag = "mixed" if mixed else "pure"
        print(f"  pair {pair}: purity sum {total} ({tag})")
    print("  every candidate pair is mixed; (3,5) and (2,6) hold the record")
    print("  correlation, (1,4) is still completely uncorrelated.")

    print("\nconditioning (1,4) on the records held by (5,6):")
    for o in result.relative_bell:
        bits = "".join(map(str, o.bits))
        print(f"  record {bits}  (p = {o.probability}):")
        for label, texts in zip(("q1'", "q4'"), descriptor_texts(o.reduced)):
            print(f"    {label} -> ({'; '.join(texts)})")
    signs_x = [o.sign_x for o in result.relative_bell]
    signs_z = [o.sign_z for o in result.relative_bell]
    print(f"\n  sign patterns across records: q1x {signs_x}, q4z {signs_z}")
    print("  four records, four maximally entangled pair descriptions --")
    print("  the entanglement 'swapped' only once two classical bits moved.")


if __name__ == "__main__":
    main()
