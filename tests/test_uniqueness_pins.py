"""Pinned outputs of the uniqueness searches on every small stabilizer state.

``tests/data/uniqueness_pins.json`` holds the outputs of
``construct_from_density``, ``density_symmetries``, ``apply_transform``,
``generate_equivalent_sets`` and ``enumerate_valid_sets`` on the one- and
two-qubit stabilizer states and a few mixed one-qubit densities.  The file
was written by an earlier version of the module, so any change to a search's
order or to the sets it returns fails here.  Regenerate it only for an
intended change of those outputs:

    PYTHONPATH=src python tests/test_uniqueness_pins.py --write
"""

import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from dhsim.pauli import I, X, Y, Z
from dhsim.engine import Gate, apply_gate, initial_set
from dhsim.density import DensityMatrix, reconstruct_density
from dhsim.uniqueness import (
    SymmetryTransform, apply_transform, construct_from_density,
    density_symmetries, enumerate_valid_sets, generate_equivalent_sets,
    set_render_key,
)

PINS = os.path.join(os.path.dirname(__file__), "data", "uniqueness_pins.json")

# States whose brute-force enumeration is pinned, as circuits on |00>.
ENUMERATED = {
    "bell": [Gate("H", (0,)), Gate("CNOT", (0, 1))],
    "00": [],
    "10": [Gate("X", (0,))],
    "+,-i": [Gate("H", (0,)), Gate("H", (1,)), Gate("S", (1,)), Gate("X", (1,))],
}

MIXED_1Q = {
    "maximally-mixed": {},
    "half-polarized": {(Z,): Fraction(1, 2)},
}


def _gates(n):
    singles = [Gate(k, (q,)) for k in ("H", "S", "X") for q in range(n)]
    if n == 1:
        return singles
    return singles + [Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0))]


def _label(gate):
    return gate.kind + "".join(str(q + 1) for q in gate.operands)


@functools.cache
def stabilizer_states(n):
    """Breadth-first search over H, S, X (and both CNOTs): label -> set.

    Each state is keyed by its density, so global phases collapse; the label
    is the first circuit reaching it, gates in time order.
    """
    start = initial_set(n)
    states = {"": start}
    seen = {_rho_key(start)}
    frontier = [("", start)]
    while frontier:
        nxt = []
        for label, set_ in frontier:
            for gate in _gates(n):
                child = apply_gate(set_, gate)
                key = _rho_key(child)
                if key in seen:
                    continue
                seen.add(key)
                child_label = (label + " " + _label(gate)).strip()
                states[child_label] = child
                nxt.append((child_label, child))
        frontier = nxt
    return states


def _rho_key(set_):
    rho = reconstruct_density(set_, range(set_.n))
    return tuple(sorted((k, v) for k, v in rho.coeffs.items() if v))


def _key(set_):
    """A set's components in (1x, 1y, 1z, 2x, ...) order, one string."""
    return "; ".join(set_render_key(set_))


def _construct_key(rho, budget):
    found = construct_from_density(rho, budget)
    return "NotFound" if found is None else _key(found)


def _transform_key(set_, transform):
    try:
        return _key(apply_transform(set_, transform))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _mixed_density(extra):
    return DensityMatrix(1, {(I,): Fraction(1), **extra})


def pinned_outputs():
    out = {"one_qubit": {}, "two_qubit": {}, "enumerate": {}}
    densities = {label: reconstruct_density(set_, [0])
                 for label, set_ in stabilizer_states(1).items()}
    densities.update({name: _mixed_density(extra)
                      for name, extra in MIXED_1Q.items()})
    for label, rho in densities.items():
        out["one_qubit"][label] = {
            f"construct_{budget}": _construct_key(rho, budget)
            for budget in (0, 1)}
    transforms = [SymmetryTransform(perm, swap)
                  for perm in itertools.permutations((X, Y, Z))
                  for swap in (False, True)]
    for label, set_ in stabilizer_states(2).items():
        rho = reconstruct_density(set_, [0, 1])
        out["two_qubit"][label] = {
            "construct_0": _construct_key(rho, 0),
            "symmetries": [t.slot_cycles() for t, _ in density_symmetries(rho)],
            "apply_transform": {t.slot_cycles(): _transform_key(set_, t)
                                for t in transforms},
            "equivalent": [_key(s) for s, _ in generate_equivalent_sets(set_)[1]],
        }
    for name, gates in ENUMERATED.items():
        set_ = initial_set(2)
        for gate in gates:
            set_ = apply_gate(set_, gate)
        rho = reconstruct_density(set_, [0, 1])
        out["enumerate"][name] = [_key(s) for s in enumerate_valid_sets(rho)]
    return out


def _load_pins():
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def test_state_counts():
    assert len(stabilizer_states(1)) == 6
    assert len(stabilizer_states(2)) == 60


def test_outputs_match_pins():
    pins = _load_pins()
    got = pinned_outputs()
    for section in ("one_qubit", "two_qubit", "enumerate"):
        assert sorted(got[section]) == sorted(pins[section]), section
        for label, value in pins[section].items():
            assert got[section][label] == value, (section, label)


def test_pins_cover_the_paper_counts():
    pins = _load_pins()
    bell = pins["two_qubit"]["H1 CNOT12"]
    assert len(bell["equivalent"]) == 12
    assert len(pins["enumerate"]["bell"]) == 48


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(PINS), exist_ok=True)
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pinned_outputs(), handle, indent=1, ensure_ascii=False,
                  sort_keys=True)
        handle.write("\n")
