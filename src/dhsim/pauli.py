"""Exact Pauli-string algebra with phase tracking.

Operators are finite linear combinations of n-qubit Pauli strings with
complex dyadic-rational coefficients, so every Clifford-reachable quantity
is represented exactly.  No floating point appears in this module; floats
exist only in the dense oracle.

Letters are encoded as integers 0..3 for I, X, Y, Z and a string's phase as
an exponent k of i (i**k, k mod 4).  Coefficient arithmetic lives in
:class:`ComplexDyadic`, whose real and imaginary parts are dyadic rationals
(integer numerator over a power-of-two denominator).
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

I, X, Y, Z = range(4)
LETTER_NAMES = "IXYZ"

Letters = tuple[int, ...]

# sigma_a . sigma_b = i**k . sigma_c, stored as (a, b) -> (k, c)
_LETTER_MUL: dict[tuple[int, int], tuple[int, int]] = {
    (I, I): (0, I), (I, X): (0, X), (I, Y): (0, Y), (I, Z): (0, Z),
    (X, I): (0, X), (X, X): (0, I), (X, Y): (1, Z), (X, Z): (3, Y),
    (Y, I): (0, Y), (Y, X): (3, Z), (Y, Y): (0, I), (Y, Z): (1, X),
    (Z, I): (0, Z), (Z, X): (1, Y), (Z, Y): (3, X), (Z, Z): (0, I),
}

_I_POWERS_RE = (1, 0, -1, 0)
_I_POWERS_IM = (0, 1, 0, -1)


class DimensionError(ValueError):
    """Raised when operands act on registers of different sizes."""


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


_Scalar = Union["ComplexDyadic", Fraction, int]


@dataclass(frozen=True)
class ComplexDyadic:
    """Exact complex number with dyadic-rational real and imaginary parts.

    Dyadic rationals (p / 2**k) are closed under addition, multiplication
    and negation, which is all the engine ever needs: every coefficient on
    a Clifford path is a signed sum of powers of one half.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))
        if not (_is_dyadic(self.re) and _is_dyadic(self.im)):
            raise ValueError(f"non-dyadic value {self.re}+{self.im}i")

    @staticmethod
    def of(value: _Scalar) -> "ComplexDyadic":
        if isinstance(value, ComplexDyadic):
            return value
        return ComplexDyadic(Fraction(value))

    @staticmethod
    def i_power(k: int) -> "ComplexDyadic":
        """Return i**k as an exact value."""
        k %= 4
        return ComplexDyadic(Fraction(_I_POWERS_RE[k]), Fraction(_I_POWERS_IM[k]))

    def __add__(self, other: _Scalar) -> "ComplexDyadic":
        o = ComplexDyadic.of(other)
        return ComplexDyadic(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: _Scalar) -> "ComplexDyadic":
        o = ComplexDyadic.of(other)
        return ComplexDyadic(self.re - o.re, self.im - o.im)

    def __mul__(self, other: _Scalar) -> "ComplexDyadic":
        o = ComplexDyadic.of(other)
        return ComplexDyadic(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self) -> "ComplexDyadic":
        return ComplexDyadic(-self.re, -self.im)

    def conjugate(self) -> "ComplexDyadic":
        return ComplexDyadic(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


ZERO = ComplexDyadic()
ONE = ComplexDyadic(Fraction(1))
HALF = ComplexDyadic(Fraction(1, 2))


@dataclass(frozen=True)
class PauliString:
    """A phase times a tensor product of single-qubit Pauli letters.

    ``phase_k`` is the exponent of i, so the operator is i**phase_k times
    the bare letter product.  Hermitian strings have phase_k in {0, 2}.
    """

    phase_k: int
    letters: Letters

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_k", self.phase_k % 4)

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString(0, (I,) * n)

    @staticmethod
    def single(n: int, qubit: int, letter: int) -> "PauliString":
        """Letter on one slot, identity elsewhere."""
        letters = [I] * n
        letters[qubit] = letter
        return PauliString(0, tuple(letters))

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def is_hermitian(self) -> bool:
        return self.phase_k % 2 == 0

    def phase(self) -> ComplexDyadic:
        return ComplexDyadic.i_power(self.phase_k)

    def __str__(self) -> str:
        body = "⊗".join(LETTER_NAMES[l] for l in self.letters)
        prefix = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase_k]
        return prefix + body


def letters_mul(a: Letters, b: Letters) -> tuple[int, Letters]:
    """Multiply two bare letter sequences; return (i exponent, letters)."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    k = 0
    out = []
    for la, lb in zip(a, b):
        dk, lc = _LETTER_MUL[la, lb]
        k += dk
        out.append(lc)
    return k % 4, tuple(out)


def string_mul(a: PauliString, b: PauliString) -> PauliString:
    """Exact product of two Pauli strings with accumulated phase."""
    k, letters = letters_mul(a.letters, b.letters)
    return PauliString(a.phase_k + b.phase_k + k, letters)


def letters_commute(a: Letters, b: Letters) -> bool:
    """Strings commute iff they anticommute on an even number of slots."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    anti = sum(1 for la, lb in zip(a, b)
               if la != I and lb != I and la != lb)
    return anti % 2 == 0


class PauliSum:
    """Finite linear combination of Pauli strings, in canonical form.

    Canonical form stores one coefficient per bare letter sequence (string
    phases folded into coefficients) and never keeps a zero term.  Values
    are immutable; all operations return new sums.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Letters, ComplexDyadic] | None = None):
        self.n = n
        canon: dict[Letters, ComplexDyadic] = {}
        if terms:
            for letters, coef in terms.items():
                if len(letters) != n:
                    raise DimensionError(f"term of length {len(letters)} in {n}-qubit sum")
                if coef:
                    canon[letters] = ComplexDyadic.of(coef)
        self._terms = canon

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int) -> "PauliSum":
        return PauliSum(n)

    @staticmethod
    def identity(n: int) -> "PauliSum":
        return PauliSum(n, {(I,) * n: ONE})

    @staticmethod
    def from_string(s: PauliString, coef: _Scalar = 1) -> "PauliSum":
        c = ComplexDyadic.of(coef) * s.phase()
        return PauliSum(s.n, {s.letters: c})

    @staticmethod
    def single(n: int, qubit: int, letter: int, coef: _Scalar = 1) -> "PauliSum":
        return PauliSum.from_string(PauliString.single(n, qubit, letter), coef)

    # -- inspection ------------------------------------------------------

    def terms(self) -> Iterator[tuple[Letters, ComplexDyadic]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, letters: Letters) -> ComplexDyadic:
        return self._terms.get(letters, ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._terms.items(),
                                          key=lambda kv: kv[0]))))

    @property
    def is_hermitian(self) -> bool:
        """True when every folded coefficient is real."""
        return all(c.is_real for c in self._terms.values())

    # -- algebra ----------------------------------------------------------

    def _require_same_n(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise DimensionError(f"qubit count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._require_same_n(other)
        terms = dict(self._terms)
        for letters, coef in other._terms.items():
            acc = terms.get(letters, ZERO) + coef
            if acc:
                terms[letters] = acc
            else:
                terms.pop(letters, None)
        return PauliSum(self.n, terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return self.scale(-1)

    def scale(self, factor: _Scalar) -> "PauliSum":
        f = ComplexDyadic.of(factor)
        if not f:
            return PauliSum.zero(self.n)
        return PauliSum(self.n, {ls: c * f for ls, c in self._terms.items()})

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        return sum_mul(self, other)

    def adjoint(self) -> "PauliSum":
        """Hermitian adjoint (letters are self-adjoint, so only conjugate)."""
        return PauliSum(self.n, {ls: c.conjugate() for ls, c in self._terms.items()})

    def support(self) -> set[int]:
        """Qubit slots where some term carries a non-identity letter."""
        out: set[int] = set()
        for letters in self._terms:
            out.update(q for q, l in enumerate(letters) if l != I)
        return out

    def restrict(self, qubits: Iterable[int]) -> "PauliSum":
        """Drop all slots outside ``qubits`` (callers must check support)."""
        keep = sorted(qubits)
        terms: dict[Letters, ComplexDyadic] = {}
        for letters, coef in self._terms.items():
            sub = tuple(letters[q] for q in keep)
            acc = terms.get(sub, ZERO) + coef
            if acc:
                terms[sub] = acc
            else:
                terms.pop(sub, None)
        return PauliSum(len(keep), terms)

    def extended(self, extra: int) -> "PauliSum":
        """Append ``extra`` identity slots."""
        pad = (I,) * extra
        return PauliSum(self.n + extra,
                        {ls + pad: c for ls, c in self._terms.items()})

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: lexicographically sorted terms.

        Each term reads ``coef * L0(x)L1(x)...`` with an exact fraction
        coefficient, e.g. ``-1/2 * Z(x)X`` (with a real tensor sign).
        """
        if not self._terms:
            return "0"
        parts = []
        for letters, coef in sorted(self._terms.items()):
            body = "⊗".join(LETTER_NAMES[l] for l in letters)
            parts.append(f"{coef} * {body}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PauliSum({self.n}, {self.render()})"


_TERM_RE = _re.compile(r"^\s*(?P<coef>.+?)\s*\*\s*(?P<body>[IXYZ⊗]+)\s*$")


def _parse_coef(text: str) -> ComplexDyadic:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1]
        m = _re.match(r"^(?P<re>[+-]?[\d/]+)(?P<sign>[+-])(?P<im>[\d/]+)i$", inner)
        if not m:
            raise ValueError(f"bad complex coefficient {text!r}")
        im = Fraction(m.group("im"))
        if m.group("sign") == "-":
            im = -im
        return ComplexDyadic(Fraction(m.group("re")), im)
    if text.endswith("i"):
        return ComplexDyadic(Fraction(0), Fraction(text[:-1]))
    return ComplexDyadic(Fraction(text))


def parse_sum(text: str, n: int | None = None) -> PauliSum:
    """Parse the canonical rendering back into a sum.

    Round-tripping ``parse_sum(s.render())`` reproduces the exact term map.
    """
    text = text.strip()
    if text == "0":
        if n is None:
            raise ValueError("cannot infer qubit count of the zero sum")
        return PauliSum.zero(n)
    terms: dict[Letters, ComplexDyadic] = {}
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad term {chunk!r}")
        letters = tuple(LETTER_NAMES.index(ch)
                        for ch in m.group("body").split("⊗"))
        coef = _parse_coef(m.group("coef"))
        if n is not None and len(letters) != n:
            raise DimensionError(f"term of length {len(letters)}, expected {n}")
        if letters in terms:
            raise ValueError(f"duplicate term {m.group('body')}")
        terms[letters] = coef
    width = len(next(iter(terms)))
    return PauliSum(width, terms)


def sum_mul(a: PauliSum, b: PauliSum) -> PauliSum:
    """Bilinear product of two sums, phases folded into coefficients."""
    a._require_same_n(b)
    terms: dict[Letters, ComplexDyadic] = {}
    for la, ca in a._terms.items():
        for lb, cb in b._terms.items():
            k, lc = letters_mul(la, lb)
            coef = ca * cb * ComplexDyadic.i_power(k)
            acc = terms.get(lc, ZERO) + coef
            if acc:
                terms[lc] = acc
            else:
                terms.pop(lc, None)
    return PauliSum(a.n, terms)


def hs_inner(a: PauliSum, b: PauliSum) -> ComplexDyadic:
    """Normalized Hilbert-Schmidt inner product Tr(a^dagger b) / 2**n.

    Distinct Pauli strings are orthogonal and every string has norm one
    under this normalization, so the inner product reduces to a term-wise
    coefficient contraction.
    """
    a._require_same_n(b)
    total = ZERO
    small, large = (a._terms, b._terms) if len(a) <= len(b) else (b._terms, a._terms)
    for letters in small:
        ca = a._terms.get(letters)
        cb = b._terms.get(letters)
        if ca and cb:
            total = total + ca.conjugate() * cb
    return total


def vacuum_expectation(s: PauliSum) -> ComplexDyadic:
    """<0...0| s |0...0>: per term, I and Z slots give 1, X and Y give 0."""
    total = ZERO
    for letters, coef in s._terms.items():
        if all(l == I or l == Z for l in letters):
            total = total + coef
    return total


def z_projector(n: int, qubit: int, outcome: int) -> PauliSum:
    """(1 +/- sigma_z)/2 on one slot: the computational outcome projector."""
    sign = 1 if outcome == 0 else -1
    return (PauliSum.identity(n)
            + PauliSum.single(n, qubit, Z, sign)).scale(HALF)

