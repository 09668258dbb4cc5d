"""Density reconstruction and state diagnostics from descriptor averages.

Everything here is exact, with no floats: expectation tables, diagonal
probabilities (uniform on an affine subspace, one bitset, read off the
GF(2) kernel of the q_z x-parts of a set's rows, ``engine.z_kernel``),
purity sums, Schmidt combinations,
the positivity of a density (``is_positive``, fraction-free elimination
over the Gaussian integers) and mixture weights
(``mixture_representation``, Gaussian elimination over the rationals).
A table becomes a density through ``table_density``, and a pair's purity
sum and Schmidt coefficients take that density, so all three derive from
one expectation table.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .pauli import I, X, Y, Z, ComplexDyadic, PauliSum
from .engine import Descriptor, DescriptorSet, check_qubits, expectations, z_kernel

# Widest operator ``is_positive`` decides: a 2^10 x 2^10 matrix.
POSITIVE_MAX_QUBITS = 10

MultiIndex = tuple[int, ...]


def is_positive(k: int, coeffs: Mapping[MultiIndex, Fraction]) -> bool:
    """Whether sum_I coeffs[I] P_I, over k qubits, is positive semidefinite.

    Decided exactly.  The real coefficients are scaled by their common
    denominator to a Hermitian Gaussian-integer matrix (qubit 0 the most
    significant bit of the row index), which is eliminated fraction-free
    (Bareiss, Math. Comp. 22, 1968) with diagonal pivots taken in order.
    Every entry stays a Gaussian integer, a minor of the matrix, and each
    pivot has the sign of the Schur-complement pivot it stands for.  A
    negative pivot means "not positive"; a zero pivot needs the rest of
    its row to be zero and then drops out.  Raises ValueError above
    POSITIVE_MAX_QUBITS qubits, before any matrix is built.
    """
    if k > POSITIVE_MAX_QUBITS:
        raise ValueError(f"positivity of a {k}-qubit operator is decided up "
                         f"to {POSITIVE_MAX_QUBITS} qubits")
    dim = 1 << k
    scale = math.lcm(*(Fraction(c).denominator for c in coeffs.values()))
    re = [[0] * dim for _ in range(dim)]
    im = [[0] * dim for _ in range(dim)]
    for index, coef in coeffs.items():
        if len(index) != k:
            raise ValueError(f"index {index} does not cover {k} qubits")
        value = Fraction(coef)
        if not value:
            continue
        # P|c> = i**ys (-1)**popcount(c & zbits) |c ^ xbits>
        xbits = zbits = ys = 0
        for letter in index:
            xbits = xbits << 1 | (letter in (X, Y))
            zbits = zbits << 1 | (letter in (Y, Z))
            ys += letter == Y
        num = value.numerator * (scale // value.denominator)
        if ys & 2:
            num = -num
        part = im if ys & 1 else re
        for c in range(dim):
            part[c ^ xbits][c] += -num if (c & zbits).bit_count() & 1 else num
    prev = 1
    for p in range(dim):
        pivot, row_re, row_im = re[p][p], re[p], im[p]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(row_re[p + 1:]) or any(row_im[p + 1:]):
                return False
            continue
        for i in range(p + 1, dim):
            # a_ip = conj(a_pi); only the upper triangle j >= i is kept
            ar, ai = row_re[i], -row_im[i]
            out_re, out_im = re[i], im[i]
            for j in range(i, dim):
                br, bi = row_re[j], row_im[j]
                out_re[j] = (pivot * out_re[j] - (ar * br - ai * bi)) // prev
                out_im[j] = (pivot * out_im[j] - (ar * bi + ai * br)) // prev
        prev = pivot
    return True


def expectation_table(set_: DescriptorSet, qubits: Sequence[int]) -> dict[MultiIndex, ComplexDyadic]:
    """All component-product averages over a qubit subset.

    Keys run over {I, X, Y, Z}**k multi-indices for the subset, identity
    extended on every other qubit; a qubit may appear in the subset once.
    """
    qubits = check_qubits(set_.n, qubits)
    if repeated := sorted({q for q in qubits if qubits.count(q) > 1}):
        raise ValueError(f"qubits {repeated} appear more than once in the subset")
    combos = list(itertools.product((I, X, Y, Z), repeat=len(qubits)))
    index = [I] * set_.n
    strings = []
    for combo in combos:
        for qubit, which in zip(qubits, combo):
            index[qubit] = which
        strings.append(tuple(index))
    return dict(zip(combos, expectations(set_, strings)))


class DensityMatrix(NamedTuple("DensityMatrix", [
        ("n", int), ("coeffs", Mapping[MultiIndex, Fraction])])):
    """Real coefficient tensor over the Pauli product basis of a subset.

    rho = (1/2**n) * sum_I coeffs[I] P_I with coeffs[0...0] = 1.
    """

    __slots__ = ()

    def __new__(cls, n: int, coeffs: Mapping[MultiIndex, Fraction]) -> DensityMatrix:
        if coeffs.get((I,) * n) != 1:
            raise ValueError("density coefficients must have a_0...0 = 1")
        return super().__new__(cls, n, coeffs)

    def coefficient(self, index: MultiIndex) -> Fraction:
        return self.coeffs.get(tuple(index), Fraction(0))

    def single(self, qubit: int, which: int) -> Fraction:
        idx = [I] * self.n
        idx[check_qubits(self.n, (qubit,))[0]] = which
        return self.coefficient(tuple(idx))

    def validate(self) -> None:
        """Exact positivity (``is_positive``); real coefficients make the
        density Hermitian by construction."""
        if not is_positive(self.n, self.coeffs):
            raise ValueError("density is not positive semidefinite")

    def purity_trace(self) -> Fraction:
        """Tr rho^2, exactly, from the coefficient tensor: the squared
        numerators over one common denominator, one Fraction at the end."""
        values = self.coeffs.values()
        den = math.lcm(*(c.denominator for c in values))
        total = sum((c.numerator * (den // c.denominator)) ** 2 for c in values)
        return Fraction(total, den * den << self.n)


def reconstruct_density(set_: DescriptorSet, qubits: Sequence[int]) -> DensityMatrix:
    """Density of a subset from the descriptor expectation table."""
    qubits = list(qubits)
    if not qubits:
        raise ValueError("subset must be nonempty")
    return table_density(expectation_table(set_, qubits))


def table_density(table: Mapping[MultiIndex, ComplexDyadic]) -> DensityMatrix:
    """The checked density whose coefficients are a table's averages; the
    number of qubits is the length of a key."""
    coeffs: dict[MultiIndex, Fraction] = {}
    for index, value in table.items():
        if not value.is_real:
            raise ValueError(f"non-real coefficient {value} at {index}")
        if value:
            coeffs[index] = value.re
    rho = DensityMatrix(len(next(iter(table))), coeffs)
    rho.validate()
    return rho


def diagonal_probabilities(set_: DescriptorSet, qubits: Sequence[int]) -> list[Fraction]:
    """Computational-basis outcome probabilities for a subset.

    Entry b (``qubits[0]`` the most significant bit) is
    p(b) = 2^-k sum_S (-1)^(b.S) <prod_{q in S} q_z>, over the 2^k subsets S
    of the k qubits.

    The q_z of a set's rows are +1 or -1 strings that commute pairwise, so
    only the subsets in the kernel K of their x-parts average to nonzero,
    each to the sign of its product, and those signs multiply over K.  So
    the sum is 2^(dim K - k) where (-1)^(b.S) equals the sign for every
    basis subset S, and 0 elsewhere: an affine subspace, read off the rows
    by ``z_kernel`` with no product formed.  Its indicator is one int of
    2^k bits, the AND of one parity bitset per basis subset, each built by
    doubling.
    """
    qubits = check_qubits(set_.n, qubits)
    if not qubits:
        raise ValueError("subset must be nonempty")
    # Subset mask bit j is qubits[k-1-j]: the last qubit is bit 0.
    size = 1 << len(qubits)
    # (subset, parity of b.S where the product of S averages to -1)
    kernel = z_kernel(set_.rows, qubits[::-1])
    # Bit b of ``inside`` is set where b lies on the affine subspace.
    full = inside = (1 << size) - 1
    for subset, odd in kernel:
        parity = 0      # bit b set where b.S is odd, doubled to each b < 2**k
        for j in range(len(qubits)):
            flip = (1 << (1 << j)) - 1 if subset >> j & 1 else 0
            parity |= (parity ^ flip) << (1 << j)
        inside &= parity if odd else parity ^ full
    weight, zero = Fraction(1 << len(kernel), size), Fraction(0)
    return [weight if bit == "1" else zero      # bit 0 of ``inside`` first
            for bit in reversed(format(inside, f"0{size}b"))]


def purity_condition(rho: DensityMatrix) -> tuple[Fraction, bool]:
    """Purity sum of a pair's density and the mixedness flag (sum < 3).

    The sum of squared averages over single and joint components satisfies
    Tr rho^2 = (1 + sum) / 4, which is asserted exactly.
    """
    if rho.n != 2:
        raise ValueError("the purity condition is defined for qubit pairs")
    total = sum((c * c for index, c in rho.coeffs.items() if any(index)),
                Fraction(0))
    if rho.purity_trace() != (1 + total) / 4:
        raise AssertionError("purity sum does not match Tr rho^2")
    return total, total < 3


class SchmidtCoefficients(NamedTuple):
    """Diagonal-basis pure-state coefficients for a qubit pair."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def rule_sum(self) -> Fraction:
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2


def schmidt_coefficients(rho: DensityMatrix) -> SchmidtCoefficients:
    """Coefficients of the (1 +/- sigma_z) x (1 +/- sigma_z) decomposition.

    Requires a pure pair whose diagonal correlation basis is computational;
    the normalization a^2 + b^2 + c^2 + d^2 = 1 is verified exactly.
    """
    total, mixed = purity_condition(rho)
    if mixed:
        raise ValueError(f"pair is mixed (purity sum {total} < 3)")
    t = rho.coefficient
    a = (1 + t((Z, I)) + t((I, Z)) + t((Z, Z))) / 4
    d = (1 - t((Z, I)) - t((I, Z)) + t((Z, Z))) / 4
    b_re = (t((X, X)) - t((Y, Y))) / 4
    if t((Y, X)) + t((X, Y)):
        raise ValueError("pair is not in real diagonal form")
    coeffs = SchmidtCoefficients(a, b_re, b_re, d)
    if coeffs.rule_sum() != 1:
        raise ValueError(
            f"normalization {coeffs.rule_sum()} != 1: pair is not "
            "diagonal in the computational basis")
    return coeffs


def simply_reduce(value: Descriptor | PauliSum, subset: Iterable[int]):
    """Restriction to a factor space, defined only when the support fits.

    Returns the restricted PauliSum (or Descriptor), or None when any
    component acts non-trivially outside ``subset``.
    """
    keep = sorted(set(subset))
    if isinstance(value, Descriptor):
        parts = [simply_reduce(c, keep) for c in value]
        if any(p is None for p in parts):
            return None
        return Descriptor(*parts)
    if not value.support() <= set(keep):
        return None
    return value.restrict(keep)


def density_report(set_: DescriptorSet, qubits: Sequence[int],
                   diagonal: Sequence[Fraction]) -> dict:
    """JSON-ready analysis of a subset: sparse coefficients, the subset's
    ``diagonal_probabilities`` (computed by the caller), and for pairs the
    purity sum plus Schmidt coefficients when defined, all from one density."""
    qubits = list(qubits)
    rho = reconstruct_density(set_, qubits)
    letters = "IXYZ"
    report: dict = {
        "qubits": [q + 1 for q in qubits],
        "coefficients": {
            "".join(letters[l] for l in index): str(coef)
            for index, coef in sorted(rho.coeffs.items()) if coef},
        "diagonal": [str(p) for p in diagonal],
    }
    if len(qubits) == 2:
        total, mixed = purity_condition(rho)
        report["purity_sum"] = str(total)
        report["mixed"] = mixed
        if not mixed:
            try:
                sc = schmidt_coefficients(rho)
                report["schmidt"] = [str(v) for v
                                     in (sc.a, sc.b, sc.c, sc.d)]
            except ValueError:
                pass
    return report


def mixture_representation(target: Mapping[MultiIndex, Fraction | ComplexDyadic],
                           dictionary: Sequence[DescriptorSet]):
    """Exact weights writing a target expectation table as a mixture of
    the dictionary's tables.

    Solves sum_j w_j T_j[I] = target[I] over all 4^k indices I by
    Gauss-Jordan elimination over the rationals, and returns the weights
    as a tuple of Fractions in dictionary order, or None when no weights
    reproduce the target exactly.  When the dictionary's tables
    are linearly dependent the system is underdetermined: the weight of
    every column without a pivot (a dependent table) is then 0 and the
    pivot columns carry the whole target.
    """
    if not dictionary:
        raise ValueError("dictionary must not be empty")
    k = dictionary[0].n
    tables = []
    for entry in dictionary:
        if entry.n != k:
            raise ValueError("dictionary entries must share the subset size")
        tables.append(expectation_table(entry, range(k)))
    rows = []
    for index in itertools.product((I, X, Y, Z), repeat=k):
        value = target.get(index, Fraction(0))
        if isinstance(value, ComplexDyadic):
            if not value.is_real:
                raise ValueError("target table must be real")
            value = value.re
        rows.append([table[index].re for table in tables] + [Fraction(value)])
    m = len(tables)
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][col]
        rows[r] = [v / pivot for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    weights = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        weights[col] = rows[r][m]
    return tuple(weights)
