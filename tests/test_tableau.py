"""The engine's fold against an independent stabilizer tableau
(``tableau.py``): on random circuits of every gate kind, ancillas
included, every qubit's packed q_x and q_z equal the rows U^dagger X_i U
and U^dagger Z_i U of the tableau run on the inverse circuit, letters and
sign, up to n = 200; and a fold whose packed rules carry one flipped sign
is caught, for each of the 18 signs."""

import random

import pytest

from dhsim import engine
from dhsim.engine import Circuit, Gate, evolve_circuit
from conftest import random_steps
import tableau


@pytest.mark.parametrize("n", [*range(1, 13), 64, 200])
def test_fold_matches_the_tableau(n):
    rng = random.Random(5600 + n)
    steps, final = random_steps(rng, n, 4 * n + 12)
    set_ = evolve_circuit(Circuit(n, steps))
    assert set_.n == final
    assert tableau.mismatches(set_) == []


def test_every_flipped_rule_sign_is_caught(monkeypatch):
    rng = random.Random(5700)
    circuits = [Circuit(n, random_steps(rng, n, 40)[0]) for n in (2, 6, 10)]
    kinds = {step.kind for c in circuits for step in c.steps if isinstance(step, Gate)}
    assert kinds == set(engine.GATE_ARITY)
    flipped = []
    for kind, rules in list(engine._PACKED_RULES.items()):
        for pos, rule in enumerate(rules):
            for sign in (0, 3):     # the i-exponent of the X image, then the Z image
                mutant = rule[:sign] + (rule[sign] + 2,) + rule[sign + 1:]
                monkeypatch.setitem(engine._PACKED_RULES, kind,
                                    rules[:pos] + (mutant,) + rules[pos + 1:])
                if all(tableau.mismatches(evolve_circuit(c)) for c in circuits):
                    flipped.append((kind, pos, sign))
                monkeypatch.setitem(engine._PACKED_RULES, kind, rules)
    assert len(flipped) == 18
