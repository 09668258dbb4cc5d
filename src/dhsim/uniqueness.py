"""Descriptor-set validity, density symmetries, and equivalence classes.

A two-qubit state rarely admits more than one descriptor set; extra sets
exist exactly when the density matrix has symmetries.  Here a symmetry is
a relabeling of component roles (the same permutation of x/y/z on both
qubits) optionally composed with a qubit swap, applied with whatever
component sign flips keep the full expectation table fixed.  Flipping x
on both qubits (or z on both) negates every average with an odd number of
flipped factors, so it yields a sign variant of the same set only where
those averages vanish; such variants are collapsed to one canonical
representative, and a flip that would change the table is not applied.

Two independent routes produce the equivalence class of a state: applying
the discovered symmetry group to a seed, and brute-force enumeration over
signed Pauli-string components.  The tests check that the first route's
sets are among the second's for the Bell pair (12 of 48), but the routes
do not agree on product states: there a flip of one qubit's x (or z) alone
keeps the table and ``canonical_signs`` does not collapse it, so for |10>
two of the four symmetry-route sets are enumerated only with other signs
(ROADMAP item 8 replaces both routes by the vacuum-gauge orbit).

Every string here is a signed Pauli string, so the analyses read the
engine's packed rows and (key, k) signed strings with its symplectic
readers (``row_strings``, ``string_product``, ``strings_commute``,
``vacuum_sign``) and build every set with ``descriptor_set``; no sum is
multiplied, and no set is flipped on its sums.  ``apply_transform``,
``canonical_signs`` and the class take a set's rows through one refusal
of any set that is not a pair, ``_signed_pair_rows``.  A sign flip of a
row adds 2 to an i-exponent
(``_flip``), and ``canonical_signs``, the class generation and
enumeration share one flip rule, ``_canonical``: ``_canonical_flip``
decided on qubit 1's leading signs and a given table.  Enumeration and
direct construction share one search, ``_system_descriptors``, over the
packed keys of ``all_strings``; it places every qubit of a register,
ancillas too.  The symmetry search and ``apply_transform`` share one
sign search, ``_transform_signs``; ``density_symmetries`` returns each
symmetry with the signs it found, the class takes them as they are, and
a role permutation picks a component's (key, k).  ``validate_basis``
reads the sixteen products off a set's rows, and its report carries
their averages as the set's table.  ``generate_equivalent_sets`` takes a set alone: its
report's table decides the canonical seed and gives the density whose
symmetries it searches.  It builds each set of the class once and
returns the transforms with the sets, each with the table of its
report, which ``symmetries --verify`` compares with the oracle.
Closure of the symmetries is checked on their ``(role_perm, swap)``
pairs.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Sequence

from .pauli import (
    I, X, Y, Z, LETTER_NAMES, ZERO, ComplexDyadic,
)
from .engine import (
    DescriptorSet, Row, all_strings, descriptor_set, descriptor_texts,
    row_strings, string_product, strings_commute, vacuum_sign,
)
from .density import DensityMatrix, expectation_table, table_density

COMPONENTS = (X, Y, Z)
# The index pairs (i, j) of a two-qubit table, in ``expectation_table`` order.
_PAIR_KEYS = tuple(itertools.product((I,) + COMPONENTS, repeat=2))


class BasisReport(NamedTuple):
    """Outcome of the proper-basis checks for a two-qubit descriptor set,
    with ``table``, the averages of the same sixteen products (index pairs
    (i, j) to averages, in ``expectation_table`` order)."""

    independent_count: int
    orthogonal: bool
    complete: bool
    hermitian: bool
    traceless_ok: bool
    distinct_ok: bool
    violations: tuple[str, ...]
    table: Mapping[tuple[int, int], ComplexDyadic]

    @property
    def well_formed(self) -> bool:
        return (self.independent_count == 16 and self.orthogonal
                and self.complete and self.hermitian and self.traceless_ok
                and self.distinct_ok)


def validate_basis(set_: DescriptorSet) -> BasisReport:
    """Check that the sixteen products q_1i q_2j form a proper operator basis.

    ``independent_count`` is the number of pairwise-distinct operators among
    the sixteen products (phase differences count as distinct operators);
    a proper basis has all sixteen distinct, mutually orthogonal, of unit
    norm, Hermitian, with traceless non-identity components.  Each product
    is a signed string (key, k) off the rows: two are equal when both
    agree, and not orthogonal when only the keys do; every norm is 1, a
    product is Hermitian when k is even and a component is traceless when
    its key is not 0, and the table holds each product's average, i**k or
    0 when it has an x bit, as ``expectations`` reads it off the rows.
    """
    if set_.n != 2:
        raise ValueError("basis validation is defined for two-qubit sets")
    comps = [((0, 0),) + row_strings(row, 2) for row in set_.rows]
    products = [string_product(2, comps[0][i], comps[1][j]) for i, j in _PAIR_KEYS]
    holders: dict[int, list[int]] = {}
    for b, (key, _) in enumerate(products):
        holders.setdefault(key, []).append(b)
    shared = sorted(pair for held in holders.values()
                    for pair in itertools.combinations(held, 2))
    count = 16 - len({b for a, b in shared if products[a] == products[b]})
    hermitian = all(not k & 1 for _, k in products)
    clash = next(((a, b) for a, b in shared if products[a] != products[b]), None)
    traces = [(a, i) for a in (0, 1) for i in COMPONENTS if not comps[a][i][0]]
    # A product's average is i**k, or 0 when it has an x bit.
    table = {pair: ComplexDyadic.i_power(k) if vacuum_sign(2, (key, 0)) else ZERO
             for pair, (key, k) in zip(_PAIR_KEYS, products)}
    violations = []
    if count != 16:
        violations.append(f"only {count} of 16 products are distinct")
    if not hermitian:
        violations.append("some products are not Hermitian")
    if clash is not None:
        violations.append(f"products {_PAIR_KEYS[clash[0]]} and "
                          f"{_PAIR_KEYS[clash[1]]} are not orthogonal")
    violations += [f"component ({a + 1},{LETTER_NAMES[i]}) has a trace" for a, i in traces]
    return BasisReport(count, clash is None, True, hermitian, not traces,
                       count == 16, tuple(violations), table)


# -- symmetry transforms -------------------------------------------------

_ROLE_NAMES = {X: "x", Y: "y", Z: "z"}

class SymmetryTransform(NamedTuple("SymmetryTransform", [
        ("role_perm", tuple[int, int, int]), ("swap", bool)])):
    """Role permutation applied to both qubits, with an optional qubit swap.

    ``role_perm`` maps each component role to its source role: the new
    q_{a,i} is (a sign times) the old q_{a', role_perm[i]}, with a' the
    other qubit when ``swap`` is set.  Signs are chosen per application to
    preserve the expectation table.  A transform is its (role_perm, swap)
    pair.
    """

    __slots__ = ()

    def __new__(cls, role_perm: tuple[int, int, int], swap: bool) -> SymmetryTransform:
        if sorted(role_perm) != [X, Y, Z]:
            raise ValueError("role_perm must permute X, Y, Z")
        return super().__new__(cls, role_perm, swap)

    @staticmethod
    def identity() -> "SymmetryTransform":
        return SymmetryTransform((X, Y, Z), False)

    def source(self, role: int) -> int:
        return self.role_perm[role - X]

    def orientation(self) -> int:
        """Sign relating the rebuilt y component to the permuted one: minus
        the Levi-Civita sign of (source(x), source(z), source(y))."""
        x, y, z = self.role_perm
        return -1 if (z - x) * (y - x) * (y - z) > 0 else 1

    def slot_cycles(self) -> str:
        """Render as disjoint cycles on the six labeled slots, e.g. (1x 2x)."""
        mapping = {}
        for a in (0, 1):
            src_q = 1 - a if self.swap else a
            for r in COMPONENTS:
                mapping[a, r] = (src_q, self.source(r))
        seen = set()
        cycles = []
        for start in sorted(mapping):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            cur = mapping[start]
            while cur != start:
                cycle.append(cur)
                seen.add(cur)
                cur = mapping[cur]
            if len(cycle) > 1:
                cycles.append("(" + " ".join(
                    f"{q + 1}{_ROLE_NAMES[r]}" for q, r in cycle) + ")")
        return "".join(cycles) if cycles else "()"


# The fifteen non-identity index pairs (i, j), and the bits of a sign
# assignment that a component's sign multiplies.  An assignment is four bits,
# set for a -1: s1x, s1z, s2x, s2z from the top, so counting 0..15 walks
# +1 before -1 with s1x outermost.  Per qubit, x takes sx, z takes sz and
# y = i x z takes both.
_ENTRIES = _PAIR_KEYS[1:]
_SIGN_BITS = {I: 0, X: 0b10, Y: 0b11, Z: 0b01}
_ASSIGNMENTS = tuple(itertools.product((1, -1), repeat=4))


def _transform_signs(transforms: Sequence[SymmetryTransform], table) -> list:
    """For each transform, the first (s1x, s1z, s2x, s2z) making the permuted
    table equal ``table`` (index pairs (i, j) to averages), or None.

    Each entry is coded once as an int, 0 for zero and +k or -k for the k-th
    value up to sign, so a permuted entry is compared with its target once,
    as ints: it fits with sign +1, -1, either (both zero) or neither.  Its
    sign is the product of the signs its components take, and of the
    orientation for each y: a fit is a parity of the assignment bits under
    a mask.  Signs run +1 before -1 with s1x outermost.
    """
    code, classes = {}, []   # classes[k - 1] = (value, -value)
    for index in _ENTRIES:
        value, code[index] = table[index], 0
        for k, pair in enumerate(classes, 1):
            if value in pair:
                code[index] = k if value == pair[0] else -k
                break
        else:
            if value:
                classes.append((value, -value))
                code[index] = len(classes)
    return [_signs_for(transform, code) for transform in transforms]


def _signs_for(transform: SymmetryTransform, code) -> tuple | None:
    """``_transform_signs`` of one transform on a coded table."""
    odd_y = transform.orientation() == -1
    source = (I,) + transform.role_perm
    rules = []
    for i, j in _ENTRIES:
        want = code[i, j]
        got = (code[source[j], source[i]] if transform.swap
               else code[source[i], source[j]])
        if got != want and got != -want:
            return None
        if want:
            rules.append((_SIGN_BITS[i] << 2 | _SIGN_BITS[j],
                          (got != want) ^ (odd_y & ((i == Y) ^ (j == Y)))))
    for bits, signs in enumerate(_ASSIGNMENTS):
        if all((mask & bits).bit_count() & 1 == parity for mask, parity in rules):
            return signs
    return None


def density_symmetries(rho: DensityMatrix) -> list[tuple[SymmetryTransform, tuple]]:
    """All admissible transforms preserving the full expectation table,
    each with the (s1x, s1z, s2x, s2z) signs that preserve it: the one sign
    search of a symmetry class.

    The candidate family is every role permutation times an optional qubit
    swap; moves of the identity slot, and relabelings that would force two
    components to coincide, are structurally excluded from it.  The result
    always contains the identity and is closed under composition.
    """
    if rho.n != 2:
        raise ValueError("symmetry search is defined for two-qubit densities")
    candidates = [SymmetryTransform(perm, swap)
                  for perm in itertools.permutations(COMPONENTS)
                  for swap in (False, True)]
    table = {index: rho.coefficient(index) for index in _ENTRIES}
    found = [(transform, signs) for transform, signs
             in zip(candidates, _transform_signs(candidates, table))
             if signs is not None]
    # t1 after t2 takes role r from t2's source of t1's source of r.
    members = {transform for transform, _ in found}
    if ((X, Y, Z), False) not in members:
        raise AssertionError("symmetry search lost the identity")
    for (t1, _), (t2, _) in itertools.product(found, repeat=2):
        perm = tuple(t2.role_perm[r - X] for r in t1.role_perm)
        if (perm, t1.swap ^ t2.swap) not in members:
            raise AssertionError(
                f"symmetries not closed: {t1.slot_cycles()} after {t2.slot_cycles()}")
    return found


def apply_transform(set_: DescriptorSet, transform: SymmetryTransform
                    ) -> DescriptorSet:
    """Permute a two-qubit set of signed strings and repair signs to
    preserve its table.

    The y components are rebuilt from the convention q_y = i q_x q_z; the
    sign assignment is the first one (in a fixed order preferring +) that
    reproduces the original table exactly.
    """
    rows = _signed_pair_rows(set_, "transforms act on")
    table = expectation_table(set_, (0, 1))
    (signs,) = _transform_signs([transform], table)
    if signs is not None:
        candidate = descriptor_set(_transformed(
            [row_strings(row, 2) for row in rows], transform, signs))
        if expectation_table(candidate, (0, 1)) == table:
            return candidate
    raise ValueError(
        f"transform {transform.slot_cycles()} does not preserve this set's table")


def _signed_pair_rows(set_: DescriptorSet, refusal: str) -> tuple[Row, ...]:
    """The rows of a two-qubit set; a set of any other width is refused
    with ``refusal`` naming the analysis."""
    if set_.n != 2:
        raise ValueError(f"{refusal} two-qubit sets of signed Pauli strings")
    return set_.rows


def _transformed(comps: Sequence, transform: SymmetryTransform,
                 signs) -> list[Row]:
    """The packed rows of the permuted set with (s1x, s1z, s2x, s2z)
    applied, given each qubit's (x, y, z) signed strings: a qubit's new x
    and z are its source components'."""
    rows = []
    for a, sx, sz in ((0, *signs[:2]), (1, *signs[2:])):
        source = comps[1 - a if transform.swap else a]
        rows.append(_flip((*source[transform.source(X) - 1],
                           *source[transform.source(Z) - 1]), sx, sz))
    return rows


def _flip(row: Row, sx: int, sz: int) -> Row:
    """A packed row with its x and z times sx and sz: a sign -1 adds 2 to
    the i-exponent."""
    kx, ex, kz, ez = row
    return kx, ex + 1 - sx & 3, kz, ez + 1 - sz & 3


def _lead(k: int) -> int:
    """The leading sign of a signed string i**k P: +1 for 1 and i."""
    return 1 if k < 2 else -1


def _canonical(rows: Sequence[Row], table) -> list[Row]:
    """A two-qubit set's rows with ``_canonical_flip`` applied, decided on
    qubit 1's leading signs and the set's table."""
    fx, fz = _canonical_flip(_lead(rows[0][1]), _lead(rows[0][3]), table)
    return [_flip(row, fx, fz) for row in rows]


def canonical_signs(set_: DescriptorSet) -> DescriptorSet:
    """Collapse the sign-variant freedom to one representative.

    The representative aims for positive leading signs on qubit 1's x and
    z components by flipping x (or z) on both qubits at once.  Such a flip
    negates the averages with an odd number of flipped factors, so the
    whole flip, else its x half, else its z half, is applied only when it
    leaves the expectation table unchanged; otherwise the set's signs stay
    as they are.  The set must be of signed strings.
    """
    rows = _signed_pair_rows(set_, "sign canonicalization acts on")
    return descriptor_set(_canonical(rows, expectation_table(set_, (0, 1))))


def _canonical_flip(sx: int, sz: int, table) -> tuple[int, int]:
    """The flip (fx, fz) of x and z on both qubits that ``canonical_signs``
    applies to a set with leading signs sx, sz and this table; (1, 1) for
    none.  It multiplies entry (i, j) by e_i e_j, e = (1, fx, fx fz, fz), so
    it keeps the table exactly when every entry it would negate is zero.
    """
    halves = [(sx, 1), (1, sz)] if sx == sz == -1 else []
    for fx, fz in [(sx, sz)] + halves:
        e = (1, fx, fx * fz, fz)
        if all(not value for (i, j), value in table.items() if e[i] != e[j]):
            return fx, fz
    return 1, 1


def set_render_key(set_: DescriptorSet) -> tuple[str, ...]:
    return tuple(text for texts in descriptor_texts(set_) for text in texts)


def generate_equivalent_sets(set_: DescriptorSet
                             ) -> tuple[list[SymmetryTransform], list[tuple]]:
    """The symmetries of a two-qubit set's density and the set's full
    equivalence class, as (set, its table) pairs.

    The set, of signed strings, is validated once.  Its basis report's
    table decides the seed's canonical flip (``_canonical``) and gives the
    density, positive by ``table_density``, whose symmetries are searched
    with their signs once and applied to the seed.  Each set is built
    once, from packed rows: the seed's components times the transform's
    signs, then canonically flipped on the seed's table, the one the set
    must have.  Its basis report gives its table, which must be the
    seed's.  A candidate equal to an earlier output is that output, already
    checked.  Callers can cross-check the class by brute-force enumeration.
    """
    rows = _signed_pair_rows(set_, "equivalence classes are generated for")
    report = validate_basis(set_)
    if not report.well_formed:
        raise ValueError(f"set is not a proper basis: {report.violations}")
    seed_table = report.table
    comps = [row_strings(row, 2) for row in _canonical(rows, seed_table)]
    found = density_symmetries(table_density(seed_table))
    outputs: dict[tuple[str, ...], tuple] = {}
    for transform, signs in found:
        candidate = descriptor_set(_canonical(
            _transformed(comps, transform, signs), seed_table))
        key = set_render_key(candidate)
        if key in outputs:
            continue
        report = validate_basis(candidate)
        if not report.well_formed:
            raise AssertionError(
                f"transform {transform.slot_cycles()} produced an invalid set")
        if report.table != seed_table:
            raise AssertionError(
                f"transform {transform.slot_cycles()} changed the table")
        outputs[key] = candidate, report.table
    return ([transform for transform, _ in found],
            [outputs[key] for key in sorted(outputs)])


# -- brute-force enumeration and direct construction ---------------------

def _qubit_candidates(rho: DensityMatrix, a: int, strings: list, n: int):
    """Unsigned qubits for qubit a, each as its (x, y, z) signed strings
    with the (sx, sz) signs that give the qubit's single averages, in
    string order then sign order, as they are found.

    A qubit is anticommuting x and z strings with y = i x z, and its vacuum
    averages are read once, as ints.
    """
    want = [rho.single(a, w) for w in COMPONENTS]
    vacuum = [vacuum_sign(n, p) for p in strings]
    # An unsigned string averages to 0 or 1, so +/- it can give w only when
    # its average is |w|: with either sign when w is 0, else with w's sign.
    xs = [p for p, v in zip(strings, vacuum) if v == abs(want[0])]
    zs = [p for p, v in zip(strings, vacuum) if v == abs(want[2])]
    sxs, szs = ((1, -1) if not w else (1,) if w > 0 else (-1,)
                for w in (want[0], want[2]))
    for px, pz in itertools.product(xs, zs):
        if strings_commute(n, px, pz):
            continue
        d = row_strings((*px, *pz), n)
        vy = vacuum_sign(n, d[1])
        signs = [(sx, sz) for sx in sxs for sz in szs if sx * sz * vy == want[1]]
        if signs:
            yield d, signs


def _system_descriptors(rho: DensityMatrix, total: int, strings: list):
    """The packed rows of every total-qubit register whose first rho.n
    qubits reproduce rho's single and pair averages, ``strings`` being
    ``all_strings(total)``, in a fixed order: by qubit, strings before
    signs, +1 before -1.

    Qubits are placed one at a time.  Each takes anticommuting x and z
    strings (y = i x z) that commute with every component already placed,
    the stabilizer conditions of quant-ph/0406196.  An ancilla matches no
    average and takes signs +1; the system placements commute across
    qubits, so one always fits and the search never backtracks into it.
    The first qubit's and the ancillas' candidates are made as needed.
    """
    candidates = [_qubit_candidates(rho, 0, strings, total)] + [
        list(_qubit_candidates(rho, a, strings, total)) for a in range(1, rho.n)]
    # rho's pair averages: pair_want[b, a][k][l] for component k of qubit b
    # and component l of qubit a.
    pair_want = {(b, a): [[rho.coefficient(tuple(i if q == b else j if q == a else I
                                                 for q in range(rho.n)))
                           for j in COMPONENTS] for i in COMPONENTS]
                 for b, a in itertools.combinations(range(rho.n), 2)}

    def place(placed: tuple):
        a = len(placed)
        if a == total:
            yield [_flip((*d[0], *d[2]), sx, sz) for d, sx, sz in placed]
            return
        used = [q for prev, _, _ in placed for q in prev]
        if a >= rho.n:
            free = [p for p in strings if all(strings_commute(total, p, q) for q in used)]
            for px, pz in itertools.permutations(free, 2):
                if not strings_commute(total, px, pz):
                    yield from place(placed + ((row_strings((*px, *pz), total), 1, 1),))
            return
        for d, signs in candidates[a]:
            if not all(strings_commute(total, p, q) for p in (d[0], d[2]) for q in used):
                continue
            # The unsigned products with every placed qubit, read once for
            # all sign choices.
            values = [[[vacuum_sign(total, p, q) for q in d] for p in prev]
                      for prev, _, _ in placed]
            for sx, sz in signs:
                s = sx, sx * sz, sz
                if all(sb[k] * s[l] * values[b][k][l] == pair_want[b, a][k][l]
                       for b, (_, sxb, szb) in enumerate(placed)
                       for sb in [(sxb, sxb * szb, szb)]
                       for k, l in itertools.product(range(3), repeat=2)):
                    yield from place(placed + ((d, sx, sz),))

    return place(())


def enumerate_valid_sets(rho: DensityMatrix) -> list[DescriptorSet]:
    """Brute-force search for every two-qubit set reproducing a density.

    Components are signed single Pauli strings with y derived from x and z;
    each string choice keeps its first sign assignment, and sign variants
    collapse to canonical representatives.  This is the independent route
    against which the symmetry-generated class is tested.
    """
    if rho.n != 2:
        raise ValueError("enumeration is defined for two-qubit densities")
    first: dict[tuple, list] = {}
    for rows in _system_descriptors(rho, 2, all_strings(2)):
        first.setdefault(tuple((kx, kz) for kx, _, kz, _ in rows), rows)
    outputs: dict[tuple[str, ...], DescriptorSet] = {}
    for rows in first.values():
        set_ = canonical_signs(descriptor_set(rows))
        outputs.setdefault(set_render_key(set_), set_)
    return [outputs[key] for key in sorted(outputs)]


def construct_from_density(rho: DensityMatrix, ancilla_budget: int = 0):
    """Search for descriptors reproducing a density, growing the register.

    Tries registers of size n, n+1, ..., n + ancilla_budget and returns the
    first register of ``_system_descriptors``, the search that
    ``enumerate_valid_sets`` walks, at the smallest size, or None.  System
    qubits occupy the leading slots and ancillas take the first compatible
    pairs (their choice cannot affect the system table).
    """
    if rho.n not in (1, 2):
        raise ValueError("direct construction covers 1- or 2-qubit systems")
    if ancilla_budget < 0:
        raise ValueError("ancilla budget must be nonnegative")
    for total in range(rho.n, rho.n + ancilla_budget + 1):
        if rows := next(_system_descriptors(rho, total, all_strings(total)), None):
            return descriptor_set(rows)
    return None
