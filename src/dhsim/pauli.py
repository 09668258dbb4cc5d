"""Exact Pauli-string algebra with phase tracking.

Operators are finite linear combinations of n-qubit Pauli strings with
complex dyadic-rational coefficients, so every Clifford-reachable quantity
is represented exactly.  No floating point appears in this module; floats
exist only in the dense oracle.

At the interface, letters are integers 0..3 for I, X, Y, Z and a string's
phase is an exponent k of i (i**k, k mod 4).  Inside :class:`PauliSum` a
bare letter sequence is one packed int key: bit 2q holds x_q and bit 2q+1
holds z_q, so X = 0b01, Z = 0b10 and Y = 0b11 on slot q.  The letters of a
product are ``ka ^ kb`` and its i-exponent, ``key_phase``, is

    y(a) + y(b) - y(a ^ b) + 2 * popcount(z_a & x_b)   (mod 4),

with y(k) = popcount(k & k >> 1 & M), the number of Y slots, and M the
0b0101... mask of x bits (``x_mask``).  This follows from Y = i XZ and
Z X = -X Z.  The vacuum keeps exactly the keys with no x bit.  There is
no string class: a signed Pauli string is a one-term sum or, in the
engine's packed rows only, a (key, i-exponent) int pair, which ``slot_key``,
``key_phase``, ``key_support``, ``x_mask``, ``render_term``,
``PauliSum.from_key`` and its inverse ``PauliSum.as_key`` serve.
``render_term`` is the one renderer of a term, for sums and rows alike.

``sum_mul`` and ``vacuum_expectation`` take an ordered product of any
number of sums, multiplied pairwise, left to right: a pair of terms gives
``ka ^ kb`` and the coefficients' product turned by i**``key_phase``.

Letter tuples are built only at the boundary (construction,
``coefficient``, ``terms``, rendering, parsing and hashing), so sort
order, text and hashes do not depend on the key layout.

Coefficient arithmetic lives in :class:`ComplexDyadic`, whose real and
imaginary parts are dyadic rationals.  It stores integers (re, im, e) for
(re + i*im) / 2**e with e == 0 or one numerator odd, so sums, products and
the i**k of a string product are integer shifts, products and quarter
turns, all in one method (``_times``); no Fraction is built on the
product path.
"""

from __future__ import annotations

import functools
import operator
import re as _re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

I, X, Y, Z = range(4)
LETTER_NAMES = "IXYZ"

Letters = tuple[int, ...]

class DimensionError(ValueError):
    """Raised when operands act on registers of different sizes."""


_Scalar = Union["ComplexDyadic", Fraction, int]


def _dyadic_parts(x: object) -> tuple[int, int | None]:
    """Return (numerator, e) with x = numerator / 2**e; e is None if x is not dyadic."""
    if type(x) is int:
        return x, 0
    f = Fraction(x)
    d = f.denominator
    return f.numerator, (None if d & (d - 1) else d.bit_length() - 1)


class ComplexDyadic:
    """Exact complex number (re + i*im) / 2**e with integer re, im and e.

    Dyadic rationals (p / 2**k) are closed under addition, multiplication
    and negation, which is all the engine ever needs: every coefficient on
    a Clifford path is a signed sum of powers of one half.  The value is
    kept normalised (e == 0, or re or im odd), so equal values have equal
    fields and arithmetic needs only integer shifts and products.
    Instances are immutable; ``re`` and ``im`` read back as Fractions.
    """

    __slots__ = ("_re", "_im", "_e")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0) -> None:
        (nr, er), (ni, ei) = _dyadic_parts(re), _dyadic_parts(im)
        if er is None or ei is None:
            raise ValueError(f"non-dyadic value {Fraction(re)}+{Fraction(im)}i")
        e = max(er, ei)
        _set_re(self, nr << (e - er))
        _set_im(self, ni << (e - ei))
        _set_e(self, e)

    @staticmethod
    def _make(re: int, im: int, e: int) -> "ComplexDyadic":
        """Build from numerators over 2**e, normalising the exponent."""
        if e:
            low = (re | im) & -(re | im)   # lowest set bit of either; 0 if both are 0
            if low != 1:
                shift = min(low.bit_length() - 1, e) if low else e
                re >>= shift
                im >>= shift
                e -= shift
        out = _new(ComplexDyadic)
        _set_re(out, re)
        _set_im(out, im)
        _set_e(out, e)
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ComplexDyadic, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, 1 << self._e)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, 1 << self._e)

    @staticmethod
    def of(value: _Scalar) -> "ComplexDyadic":
        if isinstance(value, ComplexDyadic):
            return value
        return ComplexDyadic(value)

    @staticmethod
    def i_power(k: int) -> "ComplexDyadic":
        """Return i**k as an exact value."""
        return _I_POWERS[k & 3]

    def _times(self, other: "ComplexDyadic", k: int = 0) -> "ComplexDyadic":
        """Return self * other * i**k: the numerators' product, then a
        quarter turn of it per step of k."""
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        re, im = ar * br - ai * bi, ar * bi + ai * br
        if k & 2:
            re, im = -re, -im
        if k & 1:
            re, im = -im, re
        return ComplexDyadic._make(re, im, self._e + other._e)

    def __add__(self, other: _Scalar) -> "ComplexDyadic":
        o = other if type(other) is ComplexDyadic else ComplexDyadic.of(other)
        e = max(self._e, o._e)
        sa, sb = e - self._e, e - o._e
        return ComplexDyadic._make((self._re << sa) + (o._re << sb),
                                   (self._im << sa) + (o._im << sb), e)

    __radd__ = __add__

    def __sub__(self, other: _Scalar) -> "ComplexDyadic":
        return self + -ComplexDyadic.of(other)

    def __mul__(self, other: _Scalar) -> "ComplexDyadic":
        return self._times(other if type(other) is ComplexDyadic
                           else ComplexDyadic.of(other))

    __rmul__ = __mul__

    def __neg__(self) -> "ComplexDyadic":
        return ComplexDyadic._make(-self._re, -self._im, self._e)

    def conjugate(self) -> "ComplexDyadic":
        return ComplexDyadic._make(self._re, -self._im, self._e)

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    def __eq__(self, other: object) -> bool:
        if type(other) is not ComplexDyadic:
            return NotImplemented
        return (self._re == other._re and self._im == other._im
                and self._e == other._e)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    @property
    def is_real(self) -> bool:
        return self._im == 0

    def __complex__(self) -> complex:
        d = 1 << self._e
        return complex(self._re / d, self._im / d)

    def __str__(self) -> str:
        re, im, e = self._re, self._im, self._e
        if not im:
            return _dyadic_text(re, e)
        if not re:
            return _dyadic_text(im, e) + "i"
        sign = "+" if im > 0 else "-"
        return f"({_dyadic_text(re, e)}{sign}{_dyadic_text(abs(im), e)}i)"

    def __repr__(self) -> str:
        return f"ComplexDyadic(re={self.re!r}, im={self.im!r})"


def _dyadic_text(num: int, e: int) -> str:
    """``str(Fraction(num, 2**e))``, reduced with integer shifts."""
    if not num:
        return "0"
    shift = min((num & -num).bit_length() - 1, e)
    e -= shift
    return f"{num >> shift}/{1 << e}" if e else str(num >> shift)


_new = object.__new__
_set_re = ComplexDyadic._re.__set__
_set_im = ComplexDyadic._im.__set__
_set_e = ComplexDyadic._e.__set__

ZERO = ComplexDyadic()
ONE = ComplexDyadic(1)
_I_POWERS = tuple(ONE._times(ONE, k) for k in range(4))


# Letter <-> 2-bit slot code (x in the low bit, z in the high bit).  The map
# swaps Y and Z and is its own inverse.
_CODE = {I: 0b00, X: 0b01, Y: 0b11, Z: 0b10}
_LETTER_OF_CODE = (I, X, Z, Y)


def slot_key(qubit: int, letter: int) -> int:
    """Packed key of one letter on one slot, identity elsewhere; raises on
    a letter outside 0..3."""
    code = _CODE.get(letter)
    if code is None:
        raise ValueError(f"letter {letter!r} at slot {qubit} is not one of "
                         f"0..3 (I, X, Y, Z)")
    return code << 2 * qubit


def _pack(letters: Letters) -> int:
    """Packed key of a bare letter sequence; raises on a letter outside 0..3."""
    return sum(slot_key(q, letter) for q, letter in enumerate(letters))


# The letters of every byte of a key: four slots, lowest slot first.
_BYTE_LETTERS = [tuple(_LETTER_OF_CODE[b >> s & 3] for s in (0, 2, 4, 6))
                 for b in range(256)]


# The text of every byte of a key: its four letters, lowest slot first,
# each followed by "⊗".
_SLOT_TEXT = [LETTER_NAMES[letter] + "⊗" for letter in _LETTER_OF_CODE]
_BYTE_TEXT = [a + b + c + d for d in _SLOT_TEXT for c in _SLOT_TEXT
              for b in _SLOT_TEXT for a in _SLOT_TEXT]


def render_term(key: int, coef: ComplexDyadic, n: int) -> str:
    """The text ``coef * L0⊗L1⊗...`` of coef times the n-slot string of a
    packed key, read a byte (four slots) at a time."""
    text = "".join([_BYTE_TEXT[byte] for byte in key.to_bytes((n + 3) // 4, "little")])
    return f"{coef} * {text[:2 * n - 1]}"


def _unpack(key: int, n: int) -> Letters:
    """The n letters of a key, read a byte (four slots) at a time."""
    letters: list[int] = []
    for byte in key.to_bytes((n + 3) // 4, "little"):
        letters += _BYTE_LETTERS[byte]
    del letters[n:]
    return tuple(letters)


@functools.lru_cache(maxsize=128)
def x_mask(n: int) -> int:
    """M = 0b0101...01 with n ones: the x bit of every slot."""
    return (4 ** n - 1) // 3


def key_phase(ka: int, kb: int, m: int) -> int:
    """The i-exponent k (not reduced mod 4) of (string ka)(string kb) =
    i**k (string ka ^ kb), ``m`` an x mask at least as wide as both keys."""
    kc = ka ^ kb
    return ((ka & ka >> 1 & m).bit_count() + (kb & kb >> 1 & m).bit_count()
            - (kc & kc >> 1 & m).bit_count() + 2 * (ka >> 1 & m & kb).bit_count())


def key_support(key: int) -> list[int]:
    """The slots, in increasing order, where a key (or an OR of keys) is not I."""
    return [q for q in range((key.bit_length() + 1) >> 1) if key >> 2 * q & 3]


def _accumulate(terms: dict[int, ComplexDyadic], key: int,
                coef: ComplexDyadic) -> None:
    """Add a nonzero coef to terms[key], dropping the term if it cancels."""
    acc = terms.get(key)
    if acc is None:
        terms[key] = coef
    elif acc := acc + coef:
        terms[key] = acc
    else:
        del terms[key]


class PauliSum:
    """Finite linear combination of Pauli strings, in canonical form.

    Canonical form stores one coefficient per bare letter sequence (string
    phases folded into coefficients), keyed by its packed int, and never
    keeps a zero term.  Values are immutable; all operations return new
    sums."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Letters, ComplexDyadic] | None = None):
        self.n = n
        canon: dict[int, ComplexDyadic] = {}
        if terms:
            for letters, coef in terms.items():
                key = self._key(letters)
                if coef:
                    canon[key] = ComplexDyadic.of(coef)
        self._terms = canon

    def _key(self, letters: Letters) -> int:
        if len(letters) != self.n:
            raise DimensionError(f"term of length {len(letters)} in {self.n}-qubit sum")
        return _pack(letters)

    @staticmethod
    def _canonical(n: int, terms: dict[int, ComplexDyadic]) -> "PauliSum":
        """Wrap a term map that is already canonical, without re-checking it."""
        out = _new(PauliSum)
        out.n = n
        out._terms = terms
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int) -> "PauliSum":
        return PauliSum._canonical(n, {})

    @staticmethod
    def identity(n: int) -> "PauliSum":
        return PauliSum._canonical(n, {0: ONE})

    @staticmethod
    def single(n: int, qubit: int, letter: int, coef: _Scalar = 1) -> "PauliSum":
        """``coef`` times a letter on one slot, identity elsewhere."""
        if not 0 <= qubit < n:
            raise IndexError(f"slot {qubit} is not in a {n}-qubit sum")
        key = slot_key(qubit, letter)
        c = ComplexDyadic.of(coef)
        return PauliSum._canonical(n, {key: c} if c else {})

    @staticmethod
    def from_key(n: int, key: int, k: int) -> "PauliSum":
        """The one-term sum i**k times the bare string of a packed key."""
        return PauliSum._canonical(n, {key: _I_POWERS[k & 3]})

    def as_key(self) -> tuple[int, int] | None:
        """(key, k) when the sum is i**k (k in 0..3) times the bare string of
        one packed key, the inverse of ``from_key``; None for any other sum."""
        if len(self._terms) != 1:
            return None
        ((key, coef),) = self._terms.items()
        return (key, _I_POWERS.index(coef)) if coef in _I_POWERS else None

    # -- inspection ------------------------------------------------------

    def terms(self) -> Iterator[tuple[Letters, ComplexDyadic]]:
        """(letters, coefficient) pairs in lexicographic letter order."""
        n = self.n
        return iter(sorted((_unpack(key, n), coef) for key, coef in self._terms.items()))

    def coefficient(self, letters: Letters) -> ComplexDyadic:
        return self._terms.get(self._key(letters), ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.terms())))

    # -- algebra ----------------------------------------------------------

    def _require_same_n(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise DimensionError(f"qubit count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._require_same_n(other)
        terms = dict(self._terms)
        for letters, coef in other._terms.items():
            _accumulate(terms, letters, coef)
        return PauliSum._canonical(self.n, terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum._canonical(self.n, {ls: -c for ls, c in self._terms.items()})

    def scale(self, factor: _Scalar) -> "PauliSum":
        f = ComplexDyadic.of(factor)
        if not f:
            return PauliSum.zero(self.n)
        return PauliSum._canonical(self.n,
                                   {ls: c * f for ls, c in self._terms.items()})

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        return sum_mul(self, other)

    def support(self) -> frozenset[int]:
        """Qubit slots where some term carries a non-identity letter."""
        return frozenset(key_support(functools.reduce(operator.or_, self._terms, 0)))

    def restrict(self, qubits: Iterable[int]) -> "PauliSum":
        """The sum on the ``qubits`` slots, each named once, every other slot
        evaluated in |0>: a term with X or Y on a dropped slot vanishes, I
        and Z give 1."""
        keep = sorted(qubits)
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise IndexError(f"slots {keep} are not all in a {self.n}-qubit sum")
        if len(set(keep)) != len(keep):
            raise ValueError(f"slots {keep} repeat a slot")
        moves = list(enumerate(keep))
        dropped_x = x_mask(self.n) & ~sum(1 << 2 * q for q in keep)
        terms: dict[int, ComplexDyadic] = {}
        for key, coef in self._terms.items():
            if key & dropped_x:
                continue
            kept = 0
            for j, q in moves:
                kept |= (key >> 2 * q & 3) << 2 * j
            _accumulate(terms, kept, coef)
        return PauliSum._canonical(len(moves), terms)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: lexicographically sorted terms.

        Each term reads ``coef * L0(x)L1(x)...`` with an exact fraction
        coefficient, e.g. ``-1/2 * Z(x)X`` (with a real tensor sign), as
        ``render_term`` writes it.
        """
        n = self.n
        return " + ".join(
            render_term(key, coef, n) for key, coef
            in sorted(self._terms.items(), key=lambda term: _unpack(term[0], n))) or "0"

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


def sum_mul(first: PauliSum, *rest: PauliSum) -> PauliSum:
    """Ordered product of one or more sums, phases folded into coefficients.

    One factor is its own product and is returned as it is.  Otherwise the
    factors are multiplied left to right: each pair of terms adds the key
    ``ka ^ kb`` with the coefficient product turned by i**``key_phase``.
    """
    if not rest:
        return first
    n = first.n
    m = x_mask(n)
    product = first
    for b in rest:
        first._require_same_n(b)
        terms: dict[int, ComplexDyadic] = {}
        for ka, ca in product._terms.items():
            for kb, cb in b._terms.items():
                _accumulate(terms, ka ^ kb, ca._times(cb, key_phase(ka, kb, m)))
        product = PauliSum._canonical(n, terms)
    return product


def vacuum_expectation(*factors: PauliSum) -> ComplexDyadic:
    """<0...0| f1 f2 ... |0...0> of the ordered product (ONE for no factors).

    Per term, I and Z slots give 1 and X and Y give 0, so the average is
    the sum of the coefficients of the product's x-free terms.
    """
    if not factors:
        return ONE
    s = sum_mul(*factors)
    m = x_mask(s.n)
    return sum((coef for key, coef in s._terms.items() if not key & m), ZERO)

