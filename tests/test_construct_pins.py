"""Pinned outputs of the search behind ``construct_from_density`` and
``enumerate_valid_sets``.

``tests/data/construct_pins.json`` holds, for every distinct one- and
two-qubit stabilizer density and a few mixed ones, the rendered
``construct_from_density`` result at ancilla budgets 0, 1 and 2, and for
every two-qubit density the ``set_render_key`` of each set
``enumerate_valid_sets`` returns.  The file was written by an earlier
version of the search, so a change to the order it walks the candidate
strings in, or to the sets it returns, fails here.  Regenerate it only for
an intended change of those outputs:

    PYTHONPATH=src python tests/test_construct_pins.py --write
"""

import json
import os
import sys
from fractions import Fraction

from dhsim.pauli import I, Z
from dhsim.density import DensityMatrix, reconstruct_density
from dhsim.uniqueness import (
    construct_from_density, enumerate_valid_sets, set_render_key,
)
from test_uniqueness_pins import MIXED_1Q, stabilizer_states

PINS = os.path.join(os.path.dirname(__file__), "data", "construct_pins.json")
BUDGETS = (0, 1, 2)

# Two-qubit mixed densities, as their nonzero non-identity coefficients:
# each needs one ancilla.  (The maximally mixed pair needs two, and its
# failed search on three qubits walks every candidate, far too long here.)
MIXED_2Q = {
    "0 and mixed": {(Z, I): Fraction(1)},
    "mixed and 0": {(I, Z): Fraction(1)},
    "classical zz": {(Z, Z): Fraction(1)},
}


def densities() -> dict[str, DensityMatrix]:
    """Label -> density: the stabilizer states by their first circuit, then
    the mixed ones."""
    out = {}
    for n in (1, 2):
        for label, set_ in stabilizer_states(n).items():
            out[f"{n}q {label}"] = reconstruct_density(set_, range(n))
        mixed = MIXED_1Q if n == 1 else MIXED_2Q
        for name, extra in mixed.items():
            out[f"{n}q {name}"] = DensityMatrix(n, {(I,) * n: Fraction(1), **extra})
    return out


def pinned_outputs() -> dict:
    out = {}
    for label, rho in densities().items():
        entry = {}
        for budget in BUDGETS:
            found = construct_from_density(rho, budget)
            entry[f"construct_{budget}"] = (
                None if found is None else [found.n, *set_render_key(found)])
        if rho.n == 2:
            entry["enumerate"] = ["; ".join(set_render_key(s))
                                  for s in enumerate_valid_sets(rho)]
        out[label] = entry
    return out


def test_outputs_match_pins():
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    got = pinned_outputs()
    assert sorted(got) == sorted(pins)
    for label, value in pins.items():
        assert got[label] == value, label


def test_pins_cover_every_density_and_an_ancilla():
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    assert len(pins) == 6 + len(MIXED_1Q) + 60 + len(MIXED_2Q)
    grown = [label for label, entry in pins.items()
             if entry["construct_2"] and entry["construct_2"][0] > int(label[0])]
    assert "1q maximally-mixed" in grown and "2q classical zz" in grown
    assert pins["1q half-polarized"]["construct_2"] is None


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(PINS), exist_ok=True)
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pinned_outputs(), handle, indent=1, ensure_ascii=False,
                  sort_keys=True)
        handle.write("\n")
