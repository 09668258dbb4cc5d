"""Density reconstruction and state diagnostics from descriptor averages.

Coefficient-level quantities (expectation tables, diagonal probabilities,
purity sums, Schmidt combinations) stay exact; only the dense matrix view
and its eigenvalue check use floating point, with tolerance 1e-9.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pauli import (
    I, X, Y, Z,
    ComplexDyadic, PauliSum, sum_mul, vacuum_expectation,
)
from .engine import Descriptor, DescriptorSet, component_product
from . import oracle

EIG_TOL = 1e-9

MultiIndex = tuple[int, ...]


class Sentinel:
    """A named falsy marker returned where a result does not exist."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __bool__(self) -> bool:
        return False


# A descriptor has support outside the requested factor.
NotReducible = Sentinel("NotReducible")
# No mixture weights reproduce the target table.
Infeasible = Sentinel("Infeasible")


def expectation_table(set_: DescriptorSet, qubits: Sequence[int]) -> dict[MultiIndex, ComplexDyadic]:
    """All component-product averages over a qubit subset.

    Keys run over {I, X, Y, Z}**k multi-indices for the subset, identity
    extended on every other qubit.
    """
    qubits = list(qubits)
    table: dict[MultiIndex, ComplexDyadic] = {}
    index = [I] * set_.n
    for combo in itertools.product((I, X, Y, Z), repeat=len(qubits)):
        for qubit, which in zip(qubits, combo):
            index[qubit] = which
        table[combo] = vacuum_expectation(component_product(set_, index))
    return table


@dataclass(frozen=True)
class DensityMatrix:
    """Real coefficient tensor over the Pauli product basis of a subset.

    rho = (1/2**n) * sum_I coeffs[I] P_I with coeffs[0...0] = 1.
    """

    n: int
    coeffs: Mapping[MultiIndex, Fraction]

    def __post_init__(self) -> None:
        ident = (I,) * self.n
        if self.coeffs.get(ident) != 1:
            raise ValueError("density coefficients must have a_0...0 = 1")

    def coefficient(self, index: MultiIndex) -> Fraction:
        return self.coeffs.get(tuple(index), Fraction(0))

    def single(self, qubit: int, which: int) -> Fraction:
        idx = [I] * self.n
        idx[qubit] = which
        return self.coefficient(tuple(idx))

    def dense(self) -> np.ndarray:
        dim = 2 ** self.n
        out = np.zeros((dim, dim), dtype=complex)
        for index, coef in self.coeffs.items():
            if coef:
                out += float(coef) * oracle.string_matrix(index)
        return out / dim

    def validate(self) -> None:
        """Hermiticity and near-positivity of the dense view."""
        m = self.dense()
        if not np.allclose(m, m.conj().T, atol=EIG_TOL):
            raise ValueError("density is not Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -EIG_TOL:
            raise ValueError(f"density has eigenvalue {eigs.min():.3e} < -1e-9")

    def purity_trace(self) -> Fraction:
        """Tr rho^2, exactly, from the coefficient tensor."""
        total = Fraction(0)
        for coef in self.coeffs.values():
            total += coef * coef
        return total / (2 ** self.n)


def reconstruct_density(set_: DescriptorSet, qubits: Sequence[int]) -> DensityMatrix:
    """Density of a subset from the descriptor expectation table."""
    qubits = list(qubits)
    if not qubits:
        raise ValueError("subset must be nonempty")
    table = expectation_table(set_, qubits)
    coeffs: dict[MultiIndex, Fraction] = {}
    for index, value in table.items():
        if not value.is_real:
            raise ValueError(f"non-real coefficient {value} at {index}")
        if value.re:
            coeffs[index] = value.re
    rho = DensityMatrix(len(qubits), coeffs)
    rho.validate()
    return rho


def diagonal_probabilities(set_: DescriptorSet, qubits: Sequence[int]) -> list[Fraction]:
    """Computational-basis outcome probabilities for a subset.

    Entry b is the vacuum average of the product of per-qubit outcome
    projectors (1 +/- q_z)/2 built from the evolved descriptors.
    """
    qubits = list(qubits)
    if not qubits:
        raise ValueError("subset must be nonempty")
    projectors = {}
    for qubit in qubits:
        qz = set_.component(qubit, Z)
        ident = PauliSum.identity(set_.n)
        projectors[qubit, 0] = (ident + qz).scale(Fraction(1, 2))
        projectors[qubit, 1] = (ident - qz).scale(Fraction(1, 2))
    probs: list[Fraction] = []
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        product = PauliSum.identity(set_.n)
        for qubit, bit in zip(qubits, bits):
            product = sum_mul(product, projectors[qubit, bit])
        value = vacuum_expectation(product)
        if not value.is_real:
            raise ValueError("probability came out complex")
        if value.re < 0:
            raise ValueError(f"negative probability {value.re}")
        probs.append(value.re)
    if sum(probs) != 1:
        raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
    return probs


def purity_condition(set_: DescriptorSet, pair: Sequence[int]) -> tuple[Fraction, bool]:
    """Purity sum for a qubit pair and the mixedness flag (sum < 3).

    The sum of squared averages over single and joint components satisfies
    Tr rho^2 = (1 + sum) / 4, which is asserted exactly.
    """
    a, b = pair
    table = expectation_table(set_, [a, b])
    total = Fraction(0)
    for i in (X, Y, Z):
        total += table[i, I].re ** 2
        total += table[I, i].re ** 2
        for j in (X, Y, Z):
            total += table[i, j].re ** 2
    rho = reconstruct_density(set_, [a, b])
    if rho.purity_trace() != (1 + total) / 4:
        raise AssertionError("purity sum does not match Tr rho^2")
    return total, total < 3


@dataclass(frozen=True)
class SchmidtCoefficients:
    """Diagonal-basis pure-state coefficients for a qubit pair."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def rule_sum(self) -> Fraction:
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2


def schmidt_coefficients(set_: DescriptorSet, pair: Sequence[int]) -> SchmidtCoefficients:
    """Coefficients of the (1 +/- sigma_z) x (1 +/- sigma_z) decomposition.

    Requires a pure pair whose diagonal correlation basis is computational;
    the normalization a^2 + b^2 + c^2 + d^2 = 1 is verified exactly.
    """
    total, mixed = purity_condition(set_, pair)
    if mixed:
        raise ValueError(f"pair {tuple(pair)} is mixed (purity sum {total} < 3)")
    t = expectation_table(set_, list(pair))

    def real(i: int, j: int) -> Fraction:
        value = t[i, j]
        if not value.is_real:
            raise ValueError("expectation table is not real")
        return value.re

    a = (real(I, I) + real(Z, I) + real(I, Z) + real(Z, Z)) / 4
    d = (real(I, I) - real(Z, I) - real(I, Z) + real(Z, Z)) / 4
    b_re = (real(X, X) - real(Y, Y)) / 4
    c_re = b_re
    cross = (real(Y, X) + real(X, Y)) / 4
    if cross:
        raise ValueError("pair is not in real diagonal form")
    coeffs = SchmidtCoefficients(a, b_re, c_re, d)
    if coeffs.rule_sum() != 1:
        raise ValueError(
            f"normalization {coeffs.rule_sum()} != 1: pair is not "
            "diagonal in the computational basis")
    return coeffs


def simply_reduce(value: Descriptor | PauliSum, subset: Iterable[int]):
    """Restriction to a factor space, defined only when the support fits.

    Returns the restricted PauliSum (or Descriptor), or NotReducible when
    any component acts non-trivially outside ``subset``.
    """
    keep = sorted(set(subset))
    if isinstance(value, Descriptor):
        parts = [simply_reduce(c, keep) for c in value.components()]
        if any(p is NotReducible for p in parts):
            return NotReducible
        return Descriptor(*parts)
    if not value.support() <= set(keep):
        return NotReducible
    return value.restrict(keep)


def density_report(set_: DescriptorSet, qubits: Sequence[int]) -> dict:
    """JSON-ready analysis of a subset: sparse coefficients, diagonal,
    and for pairs the purity sum plus Schmidt coefficients when defined."""
    qubits = list(qubits)
    rho = reconstruct_density(set_, qubits)
    letters = "IXYZ"
    report: dict = {
        "qubits": [q + 1 for q in qubits],
        "coefficients": {
            "".join(letters[l] for l in index): str(coef)
            for index, coef in sorted(rho.coeffs.items()) if coef},
        "diagonal": [str(p) for p in diagonal_probabilities(set_, qubits)],
    }
    if len(qubits) == 2:
        total, mixed = purity_condition(set_, qubits)
        report["purity_sum"] = str(total)
        report["mixed"] = mixed
        if not mixed:
            try:
                sc = schmidt_coefficients(set_, qubits)
                report["schmidt"] = [str(v) for v
                                     in (sc.a, sc.b, sc.c, sc.d)]
            except ValueError:
                pass
    return report


def mixture_representation(target: Mapping[MultiIndex, Fraction | ComplexDyadic],
                           dictionary: Sequence[DescriptorSet]):
    """Weights writing a target expectation table as a mixture of pure tables.

    Solves the least-squares system over the dictionary's tables; returns
    (weights, residual) or Infeasible when the residual exceeds 1e-9.
    Dictionaries may be over- or under-complete, hence least squares
    rather than exact solving.
    """
    if not dictionary:
        raise ValueError("dictionary must not be empty")
    k = dictionary[0].n
    indices = sorted(itertools.product((I, X, Y, Z), repeat=k))
    rhs = []
    for index in indices:
        value = target.get(index, Fraction(0))
        if isinstance(value, ComplexDyadic):
            if not value.is_real:
                raise ValueError("target table must be real")
            value = value.re
        rhs.append(float(value))
    columns = []
    for entry in dictionary:
        if entry.n != k:
            raise ValueError("dictionary entries must share the subset size")
        table = expectation_table(entry, range(k))
        columns.append([float(table[index].re) for index in indices])
    matrix = np.array(columns, dtype=float).T
    weights, *_ = np.linalg.lstsq(matrix, np.array(rhs), rcond=None)
    residual = float(np.linalg.norm(matrix @ weights - np.array(rhs)))
    if residual > EIG_TOL:
        return Infeasible
    return weights, residual
