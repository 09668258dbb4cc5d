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
signed Pauli-string components.  The test suite insists the routes agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .pauli import (
    I, X, Y, Z, LETTER_NAMES, Letters,
    ComplexDyadic, PauliSum, hs_inner, letters_commute, letters_mul,
    sum_mul,
)
from .engine import Descriptor, DescriptorSet, component_product
from .density import DensityMatrix, MultiIndex, Sentinel, expectation_table

COMPONENTS = (X, Y, Z)

_ONE = ComplexDyadic.of(1)


# No descriptor set exists within the search budget.
NotFound = Sentinel("NotFound")


@dataclass(frozen=True)
class BasisReport:
    """Outcome of the proper-basis checks for a two-qubit descriptor set."""

    independent_count: int
    orthogonal: bool
    complete: bool
    hermitian: bool
    traceless_ok: bool
    distinct_ok: bool
    violations: tuple[str, ...]

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
    norm, Hermitian, with traceless non-identity components.
    """
    if set_.n != 2:
        raise ValueError("basis validation is defined for two-qubit sets")
    violations: list[str] = []
    comps = {(a, i): set_.component(a, i) for a in (0, 1) for i in COMPONENTS}
    products = [(key, component_product(set_, key))
                for key in itertools.product((I,) + COMPONENTS, repeat=2)]

    distinct: list[PauliSum] = []
    for _, p in products:
        if p not in distinct:
            distinct.append(p)
    independent_count = len(distinct)
    distinct_ok = independent_count == 16
    if not distinct_ok:
        violations.append(
            f"only {independent_count} of 16 products are distinct")

    hermitian = all(p.is_hermitian for _, p in products)
    if not hermitian:
        violations.append("some products are not Hermitian")

    complete = all(hs_inner(p, p) == _ONE for _, p in products)
    if not complete:
        violations.append("some products do not have unit norm")

    orthogonal = True
    for (ka, pa), (kb, pb) in itertools.combinations(products, 2):
        if pa == pb:
            continue
        if hs_inner(pa, pb):
            orthogonal = False
            violations.append(f"products {ka} and {kb} are not orthogonal")
            break

    traceless_ok = True
    for (a, i), comp in comps.items():
        if comp.coefficient((I, I)):
            traceless_ok = False
            violations.append(f"component ({a + 1},{LETTER_NAMES[i]}) has a trace")
    return BasisReport(independent_count, orthogonal, complete, hermitian,
                       traceless_ok, distinct_ok, tuple(violations))


# -- symmetry transforms -------------------------------------------------

_ROLE_NAMES = {X: "x", Y: "y", Z: "z"}

# Levi-Civita on component indices X, Y, Z.
_EPS = {}
for _perm, _sign in ((("xyz"), 1), (("yzx"), 1), (("zxy"), 1),
                     (("xzy"), -1), (("zyx"), -1), (("yxz"), -1)):
    _EPS[tuple("0xyz".index(ch) for ch in _perm)] = _sign


@dataclass(frozen=True)
class SymmetryTransform:
    """Role permutation applied to both qubits, with an optional qubit swap.

    ``role_perm`` maps each component role to its source role: the new
    q_{a,i} is (a sign times) the old q_{a', role_perm[i]}, with a' the
    other qubit when ``swap`` is set.  Signs are chosen per application to
    preserve the expectation table.
    """

    role_perm: tuple[int, int, int]
    swap: bool

    def __post_init__(self) -> None:
        if sorted(self.role_perm) != [X, Y, Z]:
            raise ValueError("role_perm must permute X, Y, Z")

    @staticmethod
    def identity() -> "SymmetryTransform":
        return SymmetryTransform((X, Y, Z), False)

    def source(self, role: int) -> int:
        return self.role_perm[role - X]

    def compose(self, first: "SymmetryTransform") -> "SymmetryTransform":
        """self after first."""
        perm = tuple(first.source(self.source(r)) for r in COMPONENTS)
        return SymmetryTransform(perm, self.swap ^ first.swap)

    def orientation(self) -> int:
        """Sign relating the rebuilt y component to the permuted one."""
        return -_EPS[self.source(X), self.source(Z), self.source(Y)]

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


def _table_data(rho: DensityMatrix):
    a = {i: rho.single(0, i) for i in COMPONENTS}
    b = {j: rho.single(1, j) for j in COMPONENTS}
    t = {(i, j): rho.coefficient((i, j)) for i in COMPONENTS for j in COMPONENTS}
    return a, b, t


def _transform_feasible(transform: SymmetryTransform, rho: DensityMatrix) -> bool:
    """Does some sign assignment make the permuted set reproduce rho?"""
    a, b, t = _table_data(rho)
    eps = transform.orientation()
    src_a, src_b = (b, a) if transform.swap else (a, b)

    def src_pair(i: int, j: int) -> Fraction:
        pi, pj = transform.source(i), transform.source(j)
        if transform.swap:
            return t[pj, pi]
        return t[pi, pj]

    for s1x, s1z, s2x, s2z in itertools.product((1, -1), repeat=4):
        eff1 = {X: s1x, Y: s1x * s1z * eps, Z: s1z}
        eff2 = {X: s2x, Y: s2x * s2z * eps, Z: s2z}
        ok = True
        for i in COMPONENTS:
            if eff1[i] * src_a[transform.source(i)] != a[i]:
                ok = False
                break
            if eff2[i] * src_b[transform.source(i)] != b[i]:
                ok = False
                break
        if ok:
            for i, j in itertools.product(COMPONENTS, repeat=2):
                if eff1[i] * eff2[j] * src_pair(i, j) != t[i, j]:
                    ok = False
                    break
        if ok:
            return True
    return False


def density_symmetries(rho: DensityMatrix) -> list[SymmetryTransform]:
    """All admissible transforms preserving the full expectation table.

    The candidate family is every role permutation times an optional qubit
    swap; moves of the identity slot, and relabelings that would force two
    components to coincide, are structurally excluded from it.  The result
    always contains the identity and is closed under composition.
    """
    if rho.n != 2:
        raise ValueError("symmetry search is defined for two-qubit densities")
    found = []
    for perm in itertools.permutations(COMPONENTS):
        for swap in (False, True):
            transform = SymmetryTransform(tuple(perm), swap)
            if _transform_feasible(transform, rho):
                found.append(transform)
    members = set(found)
    if SymmetryTransform.identity() not in members:
        raise AssertionError("symmetry search lost the identity")
    for t1, t2 in itertools.product(found, repeat=2):
        if t1.compose(t2) not in members:
            raise AssertionError(
                f"symmetries not closed: {t1.slot_cycles()} after {t2.slot_cycles()}")
    return found


def _set_table(set_: DescriptorSet) -> dict[MultiIndex, ComplexDyadic]:
    return expectation_table(set_, range(set_.n))


def _rho_table(rho: DensityMatrix) -> dict[MultiIndex, ComplexDyadic]:
    out = {}
    for index in itertools.product((I,) + COMPONENTS, repeat=rho.n):
        out[index] = ComplexDyadic.of(rho.coefficient(index))
    return out


def apply_transform(set_: DescriptorSet, transform: SymmetryTransform
                    ) -> DescriptorSet:
    """Permute a two-qubit set and repair signs to preserve its table.

    The y components are rebuilt from the convention q_y = i q_x q_z; the
    sign assignment is the first one (in a fixed order preferring +) that
    reproduces the original table exactly.
    """
    if set_.n != 2:
        raise ValueError("transforms act on two-qubit sets")
    target = _set_table(set_)
    sources = {}
    for a in (0, 1):
        src_q = 1 - a if transform.swap else a
        for r in (X, Z):
            sources[a, r] = set_.component(src_q, transform.source(r))
    for s1x, s1z, s2x, s2z in itertools.product((1, -1), repeat=4):
        d1 = Descriptor.from_xz(sources[0, X].scale(s1x), sources[0, Z].scale(s1z))
        d2 = Descriptor.from_xz(sources[1, X].scale(s2x), sources[1, Z].scale(s2z))
        candidate = DescriptorSet(2, (d1, d2))
        if _set_table(candidate) == target:
            return candidate
    raise ValueError(
        f"transform {transform.slot_cycles()} does not preserve this set's table")


def _leading_sign(s: PauliSum) -> int:
    for _, coef in s.terms():
        if coef.re > 0 or (coef.re == 0 and coef.im > 0):
            return 1
        return -1
    return 1


def canonical_signs(set_: DescriptorSet) -> DescriptorSet:
    """Collapse the sign-variant freedom to one representative.

    The representative aims for positive leading coefficients on qubit 1's
    x and z components by flipping x (or z) on both qubits at once.  Such a
    flip negates the averages with an odd number of flipped factors, so the
    whole flip, else its x half, else its z half, is applied only when it
    leaves the expectation table unchanged; otherwise the set is returned
    as it is.
    """
    if set_.n != 2:
        raise ValueError("sign canonicalization is defined for two-qubit sets")
    d1, d2 = set_.descriptors
    sx = _leading_sign(d1.qx)
    sz = _leading_sign(d1.qz)
    if sx == sz == 1:
        return set_
    table = _set_table(set_)
    halves = [(sx, 1), (1, sz)] if sx == sz == -1 else []
    for fx, fz in [(sx, sz)] + halves:
        candidate = DescriptorSet(2, (d1.scale_xz(fx, fz), d2.scale_xz(fx, fz)))
        if _set_table(candidate) == table:
            return candidate
    return set_


def set_render_key(set_: DescriptorSet) -> tuple[str, ...]:
    return tuple(set_.component(a, r).render()
                 for a in range(set_.n) for r in COMPONENTS)


def generate_equivalent_sets(seed: DescriptorSet, rho: DensityMatrix
                             ) -> list[DescriptorSet]:
    """The full equivalence class of descriptor sets for a state.

    Applies every density symmetry to the seed, canonicalizes signs, and
    deduplicates.  Every output passes basis validation and reproduces the
    seed's complete expectation table; callers can cross-check the result
    against brute-force enumeration.
    """
    if seed.n != 2:
        raise ValueError("equivalence classes are generated for two-qubit sets")
    seed_table = _set_table(seed)
    if seed_table != _rho_table(rho):
        raise ValueError("seed does not reproduce the density")
    report = validate_basis(seed)
    if not report.well_formed:
        raise ValueError(f"seed is not a proper basis: {report.violations}")
    outputs: dict[tuple[str, ...], DescriptorSet] = {}
    for transform in density_symmetries(rho):
        candidate = canonical_signs(apply_transform(seed, transform))
        if not validate_basis(candidate).well_formed:
            raise AssertionError(
                f"transform {transform.slot_cycles()} produced an invalid set")
        if _set_table(candidate) != seed_table:
            raise AssertionError(
                f"transform {transform.slot_cycles()} changed the table")
        outputs.setdefault(set_render_key(candidate), candidate)
    return [outputs[key] for key in sorted(outputs)]


# -- brute-force enumeration and direct construction ---------------------

def _all_strings(n: int) -> list[Letters]:
    return [letters for letters in itertools.product(range(4), repeat=n)
            if any(l != I for l in letters)]


def _vac(letters: Letters) -> int:
    return 1 if all(l in (I, Z) for l in letters) else 0


def _signed_vac(sign: int, phase_k: int, letters: Letters) -> ComplexDyadic:
    if not _vac(letters):
        return ComplexDyadic.of(0)
    return ComplexDyadic.i_power(phase_k) * sign


def _singles_ok(sign: int, letters: Letters, want: Fraction) -> bool:
    return _signed_vac(sign, 0, letters) == ComplexDyadic.of(want)


def _component_triple(sx: int, px: Letters, sz: int, pz: Letters):
    """(sign, letters) triples for x, y = i x z, z; None if y is not Hermitian."""
    if letters_commute(px, pz):
        return None
    k, py = letters_mul(px, pz)
    phase = ComplexDyadic.i_power(k + 1)
    sy = sx * sz * (1 if phase == _ONE else -1)
    return ((sx, px), (sy, py), (sz, pz))


def _pair_value(c1, c2) -> ComplexDyadic:
    (s1, p1), (s2, p2) = c1, c2
    k, prod = letters_mul(p1, p2)
    return _signed_vac(s1 * s2, k, prod)


def enumerate_valid_sets(rho: DensityMatrix) -> list[DescriptorSet]:
    """Brute-force search for every two-qubit set reproducing a density.

    Components are signed single Pauli strings with y derived from x and z;
    sign variants collapse to canonical representatives.  This is the
    independent route against which the symmetry-generated class is tested.
    """
    if rho.n != 2:
        raise ValueError("enumeration is defined for two-qubit densities")
    a, b, t = _table_data(rho)

    def feasible(p: Letters, want: Fraction) -> bool:
        if want == 0:
            return _vac(p) == 0
        return _vac(p) == 1 and abs(want) == 1

    strings = _all_strings(2)
    outputs: dict[tuple[str, ...], DescriptorSet] = {}
    x1s = [p for p in strings if feasible(p, a[X])]
    z1s = [p for p in strings if feasible(p, a[Z])]
    x2s = [p for p in strings if feasible(p, b[X])]
    z2s = [p for p in strings if feasible(p, b[Z])]
    for p1x, p1z in itertools.product(x1s, z1s):
        if p1x == p1z or letters_commute(p1x, p1z):
            continue
        for p2x, p2z in itertools.product(x2s, z2s):
            if p2x == p2z or letters_commute(p2x, p2z):
                continue
            if len({p1x, p1z, p2x, p2z}) != 4:
                continue
            found = None
            for s1x, s1z, s2x, s2z in itertools.product((1, -1), repeat=4):
                one = _component_triple(s1x, p1x, s1z, p1z)
                two = _component_triple(s2x, p2x, s2z, p2z)
                if one is None or two is None:
                    break
                if not all(_singles_ok(*c, a[w]) for c, w in zip(one, COMPONENTS)):
                    continue
                if not all(_singles_ok(*c, b[w]) for c, w in zip(two, COMPONENTS)):
                    continue
                if any(_pair_value(one[ci], two[cj])
                       != ComplexDyadic.of(t[COMPONENTS[ci], COMPONENTS[cj]])
                       for ci in range(3) for cj in range(3)):
                    continue
                found = (one, two)
                break
            if found is None:
                continue
            set_ = DescriptorSet(2, tuple(
                Descriptor(*(PauliSum(2, {p: ComplexDyadic.of(s)})
                             for s, p in triple))
                for triple in found))
            if not validate_basis(set_).well_formed:
                continue
            set_ = canonical_signs(set_)
            outputs.setdefault(set_render_key(set_), set_)
    return [outputs[key] for key in sorted(outputs)]


def _completion_pairs(n: int, chosen: list[tuple[int, Letters]]):
    """Anticommuting string pairs commuting with everything chosen so far."""
    strings = [p for p in _all_strings(n)
               if all(letters_commute(p, q) for _, q in chosen)]
    for px, pz in itertools.permutations(strings, 2):
        if not letters_commute(px, pz):
            yield px, pz


def construct_from_density(rho: DensityMatrix, ancilla_budget: int = 0):
    """Search for descriptors reproducing a density, growing the register.

    Tries registers of size n, n+1, ..., n + ancilla_budget and returns the
    first set found in canonical search order, or NotFound.  Candidate
    components are signed single Pauli strings; system qubits occupy the
    leading slots and any ancillas are completed with compatible
    descriptors of their own (their choice cannot affect the system table).
    """
    if rho.n not in (1, 2):
        raise ValueError("direct construction covers 1- or 2-qubit systems")
    if ancilla_budget < 0:
        raise ValueError("ancilla budget must be nonnegative")
    for total in range(rho.n, rho.n + ancilla_budget + 1):
        found = _construct_at_size(rho, total)
        if found is not None:
            return found
    return NotFound


def _construct_at_size(rho: DensityMatrix, total: int):
    strings = _all_strings(total)
    if rho.n == 1:
        want = {w: rho.single(0, w) for w in COMPONENTS}
        for p1x, p1z in itertools.permutations(strings, 2):
            if letters_commute(p1x, p1z):
                continue
            for s1x, s1z in itertools.product((1, -1), repeat=2):
                triple = _component_triple(s1x, p1x, s1z, p1z)
                if not all(_singles_ok(*c, want[w])
                           for c, w in zip(triple, COMPONENTS)):
                    continue
                chosen = [(s, p) for s, p in triple]
                completed = _complete_register(total, [triple], chosen)
                if completed is not None:
                    return completed
        return None

    a, b, t = _table_data(rho)
    for p1x, p1z in itertools.permutations(strings, 2):
        if letters_commute(p1x, p1z):
            continue
        for s1x, s1z in itertools.product((1, -1), repeat=2):
            one = _component_triple(s1x, p1x, s1z, p1z)
            if not all(_singles_ok(*c, a[w]) for c, w in zip(one, COMPONENTS)):
                continue
            for p2x, p2z in itertools.permutations(strings, 2):
                if letters_commute(p2x, p2z):
                    continue
                if len({p1x, p1z, p2x, p2z}) != 4:
                    continue
                for s2x, s2z in itertools.product((1, -1), repeat=2):
                    two = _component_triple(s2x, p2x, s2z, p2z)
                    if not all(_singles_ok(*c, b[w])
                               for c, w in zip(two, COMPONENTS)):
                        continue
                    if any(not letters_commute(pc, qc)
                           for _, pc in one for _, qc in two):
                        continue
                    if any(_pair_value(one[ci], two[cj])
                           != ComplexDyadic.of(t[COMPONENTS[ci], COMPONENTS[cj]])
                           for ci in range(3) for cj in range(3)):
                        continue
                    chosen = [(s, p) for s, p in one] + [(s, p) for s, p in two]
                    completed = _complete_register(total, [one, two], chosen)
                    if completed is not None:
                        return completed
    return None


def _complete_register(total: int, system_triples: list,
                       chosen: list[tuple[int, Letters]]):
    """Extend system descriptors with compatible ancilla descriptors."""
    triples = list(system_triples)
    picked = list(chosen)
    for _ in range(total - len(system_triples)):
        extended = None
        for px, pz in _completion_pairs(total, picked):
            triple = _component_triple(1, px, 1, pz)
            if triple is None:
                continue
            extended = triple
            break
        if extended is None:
            return None
        triples.append(extended)
        picked.extend((s, p) for s, p in extended)
    descriptors = tuple(
        Descriptor(*(PauliSum(total, {p: ComplexDyadic.of(s)})
                     for s, p in triple))
        for triple in triples)
    return DescriptorSet(total, descriptors)


# -- reference comparison -------------------------------------------------

def classify_against_reference(generated: Sequence[DescriptorSet],
                               reference: Sequence[Sequence[PauliSum]]
                               ) -> list[dict]:
    """Match reference component listings to generated sets.

    Each reference entry is six component sums in (1x,1y,1z,2x,2y,2z)
    order.  A reference is ``exact`` when some generated set equals it
    component-by-component, ``sign`` when components agree up to per-
    component sign flips, and ``convention`` when its own y components are
    not i times its x times z (so no set built under this artifact's
    Hermitian y convention can match its strings).  The best-scoring
    generated set and the per-component diffs are reported either way.
    """
    results = []
    for ref in reference:
        ref = list(ref)
        consistent = all(
            sum_mul(ref[3 * q + 0], ref[3 * q + 2]).scale(ComplexDyadic.i_power(1))
            == ref[3 * q + 1]
            for q in (0, 1))
        best = None
        for gi, gen in enumerate(generated):
            comps = [gen.component(a, r) for a in (0, 1) for r in COMPONENTS]
            diffs = []
            for rc, gc in zip(ref, comps):
                if rc == gc:
                    diffs.append("equal")
                elif rc == -gc:
                    diffs.append("sign")
                else:
                    diffs.append("string")
            score = (diffs.count("equal"), diffs.count("sign"))
            if best is None or score > best[0]:
                best = (score, gi, diffs)
        _, gi, diffs = best
        if all(d == "equal" for d in diffs):
            kind = "exact"
        elif all(d in ("equal", "sign") for d in diffs):
            kind = "sign"
        else:
            kind = "convention" if not consistent else "mismatch"
        results.append({
            "kind": kind,
            "match_index": gi,
            "diffs": diffs,
            "reference_y_consistent": consistent,
        })
    return results
