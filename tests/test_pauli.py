import copy
import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dhsim import pauli
from dhsim.pauli import (
    I, X, Y, Z,
    ComplexDyadic, DimensionError, PauliSum,
    inner_products, parse_sum, sum_mul, vacuum_expectation,
)
from dhsim.engine import strings_commute
from conftest import z_projector
import matrices

ONE = ComplexDyadic.of(1)


def S(text):
    return parse_sum(text)


def hs(a, b):
    """Tr(a^dagger b) / 2^n: the (0, 1) entry of ``inner_products``."""
    return inner_products([a, b]).get((0, 1), ComplexDyadic.of(0))


def string(letters, k=0):
    """i**k times a bare letter sequence, as a one-term sum."""
    return PauliSum(len(letters), {tuple(letters): ComplexDyadic.i_power(k)})


def assert_matches_dense(prod, la, lb):
    """A one-term product equals the matrix product of its factors' strings."""
    ((lc, coef),) = prod.terms()
    dense = matrices.string_matrix(la) @ matrices.string_matrix(lb)
    assert np.allclose(dense, complex(coef) * matrices.string_matrix(lc))


class TestComplexDyadic:
    def test_exact_arithmetic(self):
        half = ComplexDyadic(Fraction(1, 2))
        assert half + half == ONE
        assert half * half == ComplexDyadic(Fraction(1, 4))
        assert -half + half == ComplexDyadic()

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            ComplexDyadic(Fraction(1, 3))

    def test_i_powers(self):
        i = ComplexDyadic.i_power(1)
        assert i * i == ComplexDyadic.of(-1)
        assert ComplexDyadic.i_power(4) == ONE
        assert i.conjugate() == ComplexDyadic.i_power(3)


class TestStringMul:
    """Products of one-term sums, the engine's only string type."""

    def test_x_times_z_is_minus_i_y(self):
        assert sum_mul(string((X,)), string((Z,))) == string((Y,), 3)

    def test_y_from_i_x_z(self):
        # i * (X Z) recovers Y, the multiplicative-group relation.
        assert sum_mul(string((X,), 1), string((Z,))) == string((Y,))

    def test_identity_neutral(self):
        ident = PauliSum.identity(3)
        for letters in itertools.product(range(4), repeat=3):
            p = string(letters)
            assert sum_mul(ident, p) == p
            assert sum_mul(p, ident) == p

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            sum_mul(PauliSum.identity(2), PauliSum.identity(3))

    def test_against_dense_two_qubits(self):
        # Every product of two-qubit strings must equal the matrix product.
        for la in itertools.product(range(4), repeat=2):
            for lb in itertools.product(range(4), repeat=2):
                assert_matches_dense(sum_mul(string(la), string(lb)), la, lb)

    def test_associative(self):
        strings = [string(letters, k)
                   for k, letters in enumerate(itertools.product(range(4), repeat=2))]
        for a, b, c in itertools.islice(itertools.product(strings, repeat=3), 0, 512, 7):
            assert sum_mul(sum_mul(a, b), c) == sum_mul(a, sum_mul(b, c))
            assert sum_mul(a, b, c) == sum_mul(a, sum_mul(b, c))

    def test_against_dense_sampled_wide(self):
        rng = random.Random(13)
        for n in range(3, 7):
            for _ in range(10):
                la = tuple(rng.randrange(4) for _ in range(n))
                lb = tuple(rng.randrange(4) for _ in range(n))
                assert_matches_dense(sum_mul(string(la), string(lb)), la, lb)


class TestSingle:
    @pytest.mark.parametrize("n", (1, 2, 5, 16))
    def test_matches_the_constructor(self, n):
        for qubit, letter in itertools.product(range(n), range(4)):
            letters = tuple(letter if q == qubit else I for q in range(n))
            for coef in (1, -1, Fraction(1, 2), ComplexDyadic(0, 1)):
                assert (PauliSum.single(n, qubit, letter, coef)
                        == PauliSum(n, {letters: coef}))

    def test_zero_coefficient_gives_the_zero_sum(self):
        assert PauliSum.single(3, 1, Z, 0) == PauliSum.zero(3)

    @pytest.mark.parametrize("qubit", (-1, 2, 7))
    def test_rejects_a_slot_outside_the_register(self, qubit):
        with pytest.raises(IndexError):
            PauliSum.single(2, qubit, X)


class TestSumMul:
    def test_two_qubit_product(self):
        assert S("1 * Z⊗X") * S("1 * I⊗X") == S("1 * Z⊗I")

    def test_signed_product(self):
        assert S("-1 * Y⊗X") * S("1 * X⊗Y") == S("-1 * Z⊗Z")

    def test_distributive(self):
        a = S("1 * X⊗I + 1 * Z⊗Z")
        b = S("-1 * Y⊗X")
        c = S("1 * I⊗Y + 1 * X⊗X")
        assert (a + b) * c == a * c + b * c

    def test_against_dense(self):
        a = S("1/2 * X⊗Z + -1/2 * Y⊗Y")
        b = S("1 * Z⊗I + 1/4 * X⊗X")
        got = matrices.sum_matrix(a * b)
        want = matrices.sum_matrix(a) @ matrices.sum_matrix(b)
        assert np.allclose(got, want)

    @pytest.mark.parametrize("text", ["-1 * Y⊗X", "1/2 * X⊗Z + -1/2 * Y⊗Y"])
    def test_one_factor_is_its_own_product(self, text):
        x = S(text)
        assert sum_mul(x) is x


class TestHsInner:
    def test_self_inner_is_one(self):
        assert hs(S("1 * X⊗Z"), S("1 * X⊗Z")) == ONE

    def test_distinct_strings_orthogonal(self):
        assert not hs(S("1 * X⊗I"), S("1 * I⊗X"))

    def test_linearity(self):
        a = S("1 * Z⊗X + -1 * Y⊗Y")
        assert hs(a, S("1 * Z⊗X")) == ONE

    def test_conjugate_symmetric(self):
        a = S("1/2 * X⊗I + 1/2 * Y⊗Z")
        b = S("1 * X⊗I + -1/4 * Z⊗Z")
        assert hs(a, b) == hs(b, a).conjugate()

    def test_positive_definite(self):
        a = S("1/2 * X⊗I + -3/4 * Y⊗Z + 1 * Z⊗Z")
        value = hs(a, a)
        assert value.is_real and value.re > 0

    def test_matches_trace_formula(self):
        a = S("1 * X⊗Z + 1/2 * Y⊗I")
        b = S("-1 * X⊗Z + 1 * Z⊗Z")
        dense = np.trace(matrices.sum_matrix(a).conj().T @ matrices.sum_matrix(b)) / 4
        assert abs(complex(hs(a, b)) - dense) < 1e-12


class TestVacuumExpectation:
    def test_z_on_zero(self):
        assert vacuum_expectation(S("1 * Z⊗I")) == ONE

    def test_x_y_vanish(self):
        for text in ("1 * X⊗I", "1 * Y⊗Z", "1 * Z⊗X"):
            assert not vacuum_expectation(S(text))

    def test_outcome_projector(self):
        # (1 + Z)/2 averages to 1 on |0>.
        assert vacuum_expectation(z_projector(1, 0, 0)) == ONE
        assert not vacuum_expectation(z_projector(1, 0, 1))

    def test_consistency_with_projector_inner(self):
        # <0|s|0> equals 2**n times the inner product with the projector
        # expanded over I/Z strings.
        n = 3
        proj = PauliSum.identity(n)
        for q in range(n):
            proj = proj * z_projector(n, q, 0)
        s = S("1 * X⊗Z⊗I + -1/2 * Z⊗Z⊗Z + 1/4 * I⊗I⊗Z")
        assert vacuum_expectation(s) == hs(proj, s) * (2 ** n)


class TestSupport:
    def test_read_off(self):
        assert S("1 * Z⊗X⊗I⊗I").support() == {0, 1}

    def test_single_slot(self):
        assert S("1 * X⊗I⊗I⊗I").support() == {0}

    def test_union_over_terms(self):
        assert S("1 * X⊗I⊗I + 1 * I⊗I⊗Z").support() == {0, 2}


class TestCanonicalForm:
    def test_zero_terms_dropped(self):
        s = S("1 * X⊗I") - S("1 * X⊗I")
        assert len(s) == 0 and not s

    def test_render_parse_roundtrip(self):
        texts = [
            "1 * Z⊗X + 1 * Y⊗Y",
            "-1/2 * X⊗I⊗Z + 1/4 * Z⊗Z⊗Z",
            "1 * I⊗I",
            "(1/2+1/2i) * X⊗Y + -1/2i * Z⊗I",
        ]
        for text in texts:
            s = parse_sum(text)
            assert parse_sum(s.render()) == s

    def test_terms_sorted(self):
        s = S("1 * Z⊗Z + 1 * I⊗X + 1 * X⊗I")
        assert s.render() == "1 * I⊗X + 1 * X⊗I + 1 * Z⊗Z"


class TestXKernel:
    """``engine.z_kernel``: the diagonal's GF(2) elimination on the q_z row
    keys, each basis subset with the sign bit of its product."""

    @staticmethod
    def _x_free(product):
        ((letters, _),) = product.terms()
        return all(l in (I, Z) for l in letters)

    def test_basis_spans_every_x_free_subset(self):
        # The kernel's size, by brute force over all 2^k subsets, is
        # 2^(basis length), and every basis subset is x-free with the sign
        # of its formed product.
        from dhsim.engine import evolve_circuit, z_kernel
        from conftest import random_circuit
        rng = random.Random(71)
        for n in range(1, 7):
            for _ in range(4):
                s = evolve_circuit(random_circuit(rng, n, 4 * n))
                qubits = rng.sample(range(n), rng.randint(1, n))
                factors = [s.component(q, Z) for q in qubits]
                kernel = z_kernel(s.rows, qubits)

                def product(subset):
                    return sum_mul(PauliSum.identity(n), *(
                        f for j, f in enumerate(factors) if subset >> j & 1))

                free = [t for t in range(1, 1 << len(factors))
                        if self._x_free(product(t))]
                assert len(free) + 1 == 2 ** len(kernel)
                span = {0}
                for subset, odd in kernel:
                    assert subset in free
                    assert vacuum_expectation(product(subset)) == ComplexDyadic.of((-1) ** odd)
                    span |= {t ^ subset for t in span}
                assert len(span) == 2 ** len(kernel)

    def test_fresh_register_is_all_kernel(self):
        from dhsim.engine import Circuit, Gate, evolve_circuit, z_kernel
        flipped = evolve_circuit(Circuit(3, (Gate("X", (1,)), Gate("X", (2,)))))
        assert z_kernel(flipped.rows, range(3)) == [(1, 0), (2, 1), (4, 1)]
        # q_z = X on qubits 0-2, and X0 X1 Z3 on qubit 3.
        xs = evolve_circuit(Circuit(4, (
            Gate("H", (0,)), Gate("H", (1,)), Gate("CNOT", (0, 3)),
            Gate("CNOT", (1, 3)), Gate("H", (2,)))))
        assert xs.component(3, Z) == S("1 * X⊗X⊗I⊗Z")
        assert z_kernel(xs.rows, range(3)) == []
        assert z_kernel(xs.rows, range(4)) == [(0b1011, 0)]


def commute(a, b):
    """``engine.strings_commute`` of two one-term sums, each read as its
    signed string (key, k)."""
    return strings_commute(a.n, a.as_key(), b.as_key())


class TestCommutation:
    def test_parity_rule(self):
        assert commute(S("1 * X⊗X"), S("1 * Z⊗Z"))
        assert not commute(S("1 * X⊗I"), S("1 * Z⊗I"))

    def test_matches_dense(self):
        # Coefficients play no part: each string carries its own i**k.
        strings = list(itertools.product(range(4), repeat=2))
        for (ka, la), (kb, lb) in itertools.product(enumerate(strings), repeat=2):
            a = matrices.string_matrix(la)
            b = matrices.string_matrix(lb)
            assert commute(string(la, ka), string(lb, kb)) == np.allclose(a @ b, b @ a)

    @pytest.mark.parametrize("n", (3, 16, 40))
    def test_matches_slot_parity_wide(self, n):
        # Strings commute iff they anticommute on an even number of slots.
        rng = random.Random(n)
        for _ in range(50):
            la = tuple(rng.randrange(4) for _ in range(n))
            lb = tuple(rng.randrange(4) for _ in range(n))
            anti = sum(1 for a, b in zip(la, lb) if a != I and b != I and a != b)
            assert commute(string(la), string(lb)) == (anti % 2 == 0)

    @pytest.mark.parametrize("text", ["0", "1 * X⊗I + 1 * Z⊗Z"])
    def test_rejects_sums_that_are_not_one_string(self, text):
        # Only a one-term sum with coefficient i**k reads as a signed
        # string; every other sum has no key to commute.
        assert parse_sum(text, 2).as_key() is None
        assert S("1/2 * X⊗I").as_key() is None
        assert [string((X, Z), k).as_key() for k in range(4)] == [(0b1001, k) for k in range(4)]


coeff_st = st.builds(
    Fraction,
    st.integers(min_value=-8, max_value=8),
    st.sampled_from([1, 2, 4, 8]),
)
letters_st = st.tuples(*([st.integers(0, 3)] * 2))


def sums(draw):
    terms = draw(st.dictionaries(letters_st, coeff_st, max_size=4))
    return PauliSum(2, {k: ComplexDyadic(v) for k, v in terms.items()})


sum_st = st.composite(sums)()


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=sum_st, b=sum_st, c=sum_st)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(a=sum_st, b=sum_st, c=sum_st)
    def test_mul_distributes(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @settings(max_examples=40, deadline=None)
    @given(a=sum_st)
    def test_roundtrip(self, a):
        if a:
            assert parse_sum(a.render()) == a


# -- ComplexDyadic against a reference made of two Fractions ---------------

dyadic_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda n, e: Fraction(n, 2 ** e),
              st.integers(-2 ** 70, 2 ** 70), st.integers(0, 200)),
)
pair_st = st.tuples(dyadic_st, dyadic_st)


def ref_str(re, im):
    """Reference str of a value held as two Fractions; reports carry these bytes."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}i)"


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


I_POWERS = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))]


def assert_matches(got, want):
    re, im = want
    assert (got.re, got.im) == (re, im)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    # normalised: equal values have equal integer fields
    assert got._e == 0 or got._re % 2 or got._im % 2
    assert bool(got) == bool(re or im)
    assert got.is_real == (im == 0)
    assert str(got) == ref_str(re, im)
    assert repr(got) == f"ComplexDyadic(re={re!r}, im={im!r})"
    assert hash(got) == hash((re, im))
    assert got == ComplexDyadic(re, im)


class TestComplexDyadicDifferential:
    @settings(max_examples=200, deadline=None)
    @given(a=pair_st, b=pair_st, k=st.integers(-5, 9))
    def test_matches_fraction_pair(self, a, b, k):
        ca, cb = ComplexDyadic(*a), ComplexDyadic(*b)
        assert_matches(ca, a)
        assert_matches(ca + cb, (a[0] + b[0], a[1] + b[1]))
        assert_matches(ca - cb, (a[0] - b[0], a[1] - b[1]))
        assert_matches(ca * cb, ref_mul(a, b))
        assert_matches(-ca, (-a[0], -a[1]))
        assert_matches(ca.conjugate(), (a[0], -a[1]))
        assert_matches(ComplexDyadic.i_power(k), I_POWERS[k % 4])
        assert_matches(ca * ComplexDyadic.i_power(k), ref_mul(a, I_POWERS[k % 4]))
        assert_matches(ca._times(cb, k), ref_mul(ref_mul(a, b), I_POWERS[k % 4]))
        assert (ca == cb) == (a == b)
        assert complex(ca) == complex(float(a[0]), float(a[1]))

    @settings(max_examples=100, deadline=None)
    @given(a=pair_st, n=st.integers(-2 ** 40, 2 ** 40))
    def test_mixed_scalars(self, a, n):
        ca = ComplexDyadic(*a)
        assert_matches(ca + n, (a[0] + n, a[1]))
        assert_matches(n + ca, (a[0] + n, a[1]))
        assert_matches(ca * a[0], (a[0] * a[0], a[1] * a[0]))
        assert_matches(ComplexDyadic.of(a[1]), (a[1], Fraction(0)))

    def test_immutable(self):
        c = ComplexDyadic(Fraction(1, 2), 3)
        for name in ("re", "im", "_re", "_im", "_e", "other"):
            with pytest.raises(AttributeError):
                setattr(c, name, 1)
            with pytest.raises(AttributeError):
                delattr(c, name)
        assert c == ComplexDyadic(Fraction(1, 2), 3)
        assert pickle.loads(pickle.dumps(c)) == c
        assert copy.deepcopy(c) == c

    @pytest.mark.parametrize("re, im", [
        (Fraction(1, 3), 0), (0, Fraction(5, 6)), (Fraction(1, 2), Fraction(1, 12)),
        ("1/3", 0),
    ])
    def test_non_dyadic_rejected(self, re, im):
        with pytest.raises(ValueError, match="non-dyadic"):
            ComplexDyadic(re, im)

    def test_other_types_never_equal(self):
        assert ComplexDyadic.of(1) != 1
        assert ComplexDyadic.of(1) != Fraction(1)


def test_sum_mul_builds_no_fraction(monkeypatch):
    # Coefficient arithmetic in the product loop is integer-only.
    rng = random.Random(8)
    coefs = [ComplexDyadic(1), ComplexDyadic(0, -1), ComplexDyadic(Fraction(-1, 2)),
             ComplexDyadic(Fraction(1, 2), Fraction(1, 2)),
             ComplexDyadic(3, Fraction(1, 8))]
    sums = [PauliSum(10, {tuple(rng.randrange(4) for _ in range(10)): rng.choice(coefs)})
            for _ in range(40)]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return Fraction(*args, **kwargs)

    monkeypatch.setattr(pauli, "Fraction", counting)
    products = [sum_mul(a, b) for a, b in zip(sums, sums[1:])]
    assert not calls
    assert all(len(p) == 1 for p in products)


# -- letters outside 0..3 ----------------------------------------------------

class TestBadLetters:
    @pytest.mark.parametrize("letters", [(-1,), (5,), (0, 4), (X, -2, Z)])
    def test_sum_constructor_rejects(self, letters):
        bad = next(l for l in letters if not 0 <= l <= 3)
        with pytest.raises(ValueError, match=f"letter {bad} "):
            PauliSum(len(letters), {letters: 1})

    @pytest.mark.parametrize("letters", [(-1,), (4,)])
    def test_coefficient_rejects(self, letters):
        with pytest.raises(ValueError, match=f"letter {letters[0]} "):
            PauliSum.identity(1).coefficient(letters)

    @pytest.mark.parametrize("letters", [(-1,), (7, I)])
    def test_string_rejects(self, letters):
        # A one-letter string: the first letter on slot 0 of the register.
        with pytest.raises(ValueError, match=f"letter {letters[0]} at slot 0 "):
            PauliSum.single(len(letters), 0, letters[0])

    def test_coefficient_checks_the_width(self):
        with pytest.raises(DimensionError):
            PauliSum.identity(2).coefficient((I,))

    @pytest.mark.parametrize("keep", [[2], [-1, 0], [0, 5]])
    def test_restrict_rejects_slots_outside_the_sum(self, keep):
        with pytest.raises(IndexError):
            S("1 * X⊗Z").restrict(keep)

    def test_restrict_rejects_a_repeated_slot(self):
        with pytest.raises(ValueError, match=r"slots \[0, 0\] repeat a slot"):
            S("1 * X").restrict([0, 0])


# -- packed keys against a reference on letter tuples ------------------------
#
# The reference keeps a dict from letter tuples to (re, im) Fraction pairs
# and multiplies strings slot by slot through its own table of single-letter
# products; it never sees a packed key.

# sigma_a . sigma_b = i**k . sigma_c, stored as (a, b) -> (k, c)
REF_LETTER_MUL = {
    (I, I): (0, I), (I, X): (0, X), (I, Y): (0, Y), (I, Z): (0, Z),
    (X, I): (0, X), (X, X): (0, I), (X, Y): (1, Z), (X, Z): (3, Y),
    (Y, I): (0, Y), (Y, X): (3, Z), (Y, Y): (0, I), (Y, Z): (1, X),
    (Z, I): (0, Z), (Z, X): (1, Y), (Z, Y): (3, X), (Z, Z): (0, I),
}


def ref_letters_mul(a, b):
    """(i exponent, letters) of the product of two bare letter sequences."""
    k, out = 0, []
    for la, lb in zip(a, b, strict=True):
        dk, lc = REF_LETTER_MUL[la, lb]
        k += dk
        out.append(lc)
    return k % 4, tuple(out)

WIDTHS = (1, 2, 5, 15, 16, 40)


def ref_add(terms, letters, value):
    re, im = terms.get(letters, (Fraction(0), Fraction(0)))
    re, im = re + value[0], im + value[1]
    if re or im:
        terms[letters] = (re, im)
    else:
        terms.pop(letters, None)


def ref_sum(terms):
    out = {}
    for letters, value in terms.items():
        ref_add(out, letters, value)
    return out


def ref_sum_mul(a, b):
    out = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            k, lc = ref_letters_mul(la, lb)
            ref_add(out, lc, ref_mul(ref_mul(ca, cb), I_POWERS[k]))
    return out


def ref_render(terms):
    if not terms:
        return "0"
    return " + ".join(f"{ref_str(*c)} * " + "⊗".join("IXYZ"[l] for l in ls)
                      for ls, c in sorted(terms.items()))


def packed(n, terms):
    return PauliSum(n, {ls: ComplexDyadic(*c) for ls, c in terms.items()})


def assert_same(got, n, terms):
    want = sorted((ls, ComplexDyadic(*c)) for ls, c in terms.items())
    assert got.n == n and len(got) == len(want)
    assert list(got.terms()) == want
    assert got.render() == ref_render(terms)
    assert hash(got) == hash((n, tuple(want)))
    assert got == packed(n, terms)
    for ls, c in want:
        assert got.coefficient(ls) == c


@st.composite
def ref_terms(draw, n):
    # Letters drawn mostly from a small pool, so products collide and cancel.
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=3))
    letters = st.one_of(st.sampled_from(pool), st.tuples(*[st.integers(0, 3)] * n))
    return draw(st.dictionaries(letters, pair_st, min_size=1, max_size=4))


def ref_restrict(terms, n, keep):
    """The terms on the ``keep`` slots, every other slot evaluated in |0>:
    I and Z give 1, X and Y drop the term."""
    out = {}
    for ls, c in terms.items():
        if all(ls[q] in (I, Z) for q in range(n) if q not in keep):
            ref_add(out, tuple(ls[q] for q in sorted(keep)), c)
    return out


class TestPackedKeysDifferential:
    def test_restrict_drops_an_x_or_y_on_a_dropped_slot(self):
        one, half = (Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(0))
        terms = {(X, Z, I): one, (Z, X, Y): half, (I, Y, Z): one, (Z, I, X): half}
        a = packed(3, terms)
        for keep in ({1}, {0, 2}, {2}, set(), {0, 1, 2}):
            assert_same(a.restrict(keep), len(keep), ref_restrict(terms, 3, keep))
        assert a.restrict({1}).render() == "1 * Y"
        assert a.restrict({0, 2}).render() == "1 * X⊗I + 1/2 * Z⊗X"

    @pytest.mark.parametrize("n", WIDTHS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_letter_reference(self, n, data):
        raw_a, raw_b = data.draw(ref_terms(n)), data.draw(ref_terms(n))
        a, b = packed(n, raw_a), packed(n, raw_b)   # zero coefficients drop here
        ra, rb = ref_sum(raw_a), ref_sum(raw_b)
        assert_same(a, n, ra)
        assert_same(sum_mul(a, b), n, ref_sum_mul(ra, rb))
        assert_same(sum_mul(a, a), n, ref_sum_mul(ra, ra))
        both = dict(ra)
        for ls, c in rb.items():
            ref_add(both, ls, c)
        assert_same(a + b, n, both)
        assert_same(sum_mul(a + b, a), n, ref_sum_mul(both, ra))
        assert a.support() == {q for ls in ra for q, l in enumerate(ls) if l != I}
        keep = data.draw(st.sets(st.integers(0, n - 1)))
        assert_same(a.restrict(keep), len(keep), ref_restrict(ra, n, keep))
        extra = data.draw(st.integers(0, 3))
        assert_same(a.extended(extra), n + extra,
                    {ls + (I,) * extra: c for ls, c in ra.items()})
        vac = (sum((c[0] for ls, c in ra.items() if set(ls) <= {I, Z}), Fraction(0)),
               sum((c[1] for ls, c in ra.items() if set(ls) <= {I, Z}), Fraction(0)))
        assert vacuum_expectation(a) == ComplexDyadic(*vac)
        inner = (Fraction(0), Fraction(0))
        for ls, ca in ra.items():
            if ls in rb:
                term = ref_mul((ca[0], -ca[1]), rb[ls])
                inner = (inner[0] + term[0], inner[1] + term[1])
        assert hs(a, b) == ComplexDyadic(*inner)


# -- n-ary products ------------------------------------------------------------
# sum_mul(*factors) and vacuum_expectation(*factors) against a left-to-right
# fold of the two-sum letter reference above.

NARY_COEFS = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
              (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1)),
              (Fraction(0), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2))]


@st.composite
def nary_factors(draw, n):
    """1-6 reference term maps: all single strings, or a mix that also holds
    multi-term and zero sums.  Letters come mostly from a small pool and from
    I/Z-only strings, so products often cancel to a nonzero vacuum average."""
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=3))
    letters = st.one_of(st.sampled_from(pool),
                        st.tuples(*[st.sampled_from([I, Z])] * n),
                        st.tuples(*[st.integers(0, 3)] * n))
    coef = st.sampled_from(NARY_COEFS)
    single = st.builds(lambda ls, c: {ls: c}, letters, coef)
    kinds = [single]
    if not draw(st.booleans()):
        kinds += [st.dictionaries(letters, coef, min_size=2, max_size=4), st.just({})]
    return draw(st.lists(st.one_of(*kinds), min_size=1, max_size=6))


class TestNaryProducts:
    @pytest.mark.parametrize("n", (1, 5, 40))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_fold(self, n, data):
        raws = [ref_sum(t) for t in data.draw(nary_factors(n))]
        factors = [packed(n, t) for t in raws]
        want = raws[0]
        for raw in raws[1:]:
            want = ref_sum_mul(want, raw)
        assert_same(sum_mul(*factors), n, want)
        vac = [Fraction(0), Fraction(0)]
        for ls, (re, im) in want.items():
            if set(ls) <= {I, Z}:
                vac[0] += re
                vac[1] += im
        assert vacuum_expectation(*factors) == ComplexDyadic(*vac)
        wide = PauliSum.identity(n + 1)
        for at in (0, len(factors)):
            mismatched = factors[:at] + [wide] + factors[at:]
            with pytest.raises(DimensionError):
                sum_mul(*mismatched)
            with pytest.raises(DimensionError):
                vacuum_expectation(*mismatched)

    def test_empty_product_averages_to_one(self):
        assert vacuum_expectation() == ONE
        with pytest.raises(TypeError):
            sum_mul()

    def test_single_factor_is_its_own_product(self):
        a = S("1/2 * X⊗Z + 1i * Y⊗I")
        assert sum_mul(a) == a
        assert sum_mul(S("-1 * Y⊗Z")) == S("-1 * Y⊗Z")
        assert vacuum_expectation(S("1/2 * Z⊗I + 1i * X⊗I")) == ComplexDyadic(Fraction(1, 2))


class TestRememberedTextAndSupport:
    """A sum finds its text and support once; an equal sum built
    independently, from its letters and coefficients, must agree."""

    @staticmethod
    def _random_sum(rng, n):
        strings = [string([rng.randrange(4) for _ in range(n)], rng.randrange(4))
                   for _ in range(rng.randint(1, 3))]
        total = strings[0]
        for s in strings[1:]:
            total = total + s.scale(ComplexDyadic(Fraction(rng.randint(-3, 3), 4),
                                                  Fraction(rng.randint(-2, 2), 2)))
        return sum_mul(total, strings[-1]) if rng.random() < 0.5 else total

    def test_matches_a_fresh_equal_sum(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 6)
            a = self._random_sum(rng, n)
            text, support = a.render(), a.support()
            fresh = PauliSum(n, dict(a.terms()))
            assert fresh is not a and fresh == a
            assert fresh.render() == text == str(a) == a.render()
            assert fresh.support() == support == a.support()
            assert isinstance(support, frozenset)
            assert support == {q for ls, _ in a.terms()
                               for q, l in enumerate(ls) if l != I}

    def test_operations_return_new_sums_with_their_own_text(self):
        a = S("1 * X⊗Z + 1/2 * Y⊗I")
        assert a.render() == "1 * X⊗Z + 1/2 * Y⊗I"
        assert a.scale(-1).render() == "-1 * X⊗Z + -1/2 * Y⊗I"
        assert (-a).support() == a.support() == {0, 1}
        assert a.restrict([0]).render() == "1 * X + 1/2 * Y"
        assert a.extended(1).support() == {0, 1}
        assert PauliSum.zero(2).render() == "0" and not PauliSum.zero(2).support()

    def test_text_of_reduced_coefficients(self):
        # Each part of a coefficient is reduced on its own, as Fraction does.
        assert str(ComplexDyadic(Fraction(1, 2), Fraction(3, 4))) == "(1/2+3/4i)"
        assert str(ComplexDyadic(Fraction(-2, 4), Fraction(-1, 8))) == "(-1/2-1/8i)"
        assert str(ComplexDyadic(Fraction(6, 8), 0)) == "3/4"
        assert str(ComplexDyadic(0, Fraction(-12, 8))) == "-3/2i"
        assert str(ComplexDyadic(Fraction(2), Fraction(1, 2))) == "(2+1/2i)"
        assert str(ComplexDyadic()) == "0"


@pytest.mark.parametrize("n", [*range(1, 10), 64, 1000])
def test_unpack_reads_each_slot_letter(n):
    """A key's letters, read a byte at a time, are the letters whose
    one-slot keys make up the key, slot by slot."""
    rng = random.Random(n)
    keys = [0, 4 ** n - 1] + [rng.getrandbits(2 * n) for _ in range(20)]
    for key in keys:
        want = tuple(next(w for w in (I, X, Y, Z)
                          if pauli.slot_key(q, w) == key & 3 << 2 * q)
                     for q in range(n))
        assert pauli._unpack(key, n) == want
