import itertools
import random
from fractions import Fraction

import pytest

from dhsim.pauli import (
    I, X, Y, Z, LETTER_NAMES, ComplexDyadic, PauliSum, parse_sum,
)
from dhsim.engine import Descriptor, DescriptorSet, Gate, apply_gate, initial_set
from dhsim import uniqueness
from dhsim.density import DensityMatrix, expectation_table, reconstruct_density
from dhsim.uniqueness import (
    SymmetryTransform, apply_transform, canonical_signs,
    construct_from_density, density_symmetries, enumerate_valid_sets,
    generate_equivalent_sets, set_render_key, BasisReport, validate_basis,
)
from conftest import classify_against_reference, from_xz, random_circuit, scale_xz
from test_uniqueness_pins import stabilizer_states
import sumpath


def degenerate_set():
    """Identical descriptors on both qubits, y built by the convention."""
    qx = parse_sum("1 * I⊗X")
    qz = parse_sum("1 * X⊗I")
    d = from_xz(qx, qz)
    return DescriptorSet(2, (d, d))


@pytest.fixture(scope="module")
def bell_rho(bell_set):
    return reconstruct_density(bell_set, [0, 1])


@pytest.fixture(scope="module")
def bell_family(bell_set):
    return [set_ for set_, _ in generate_equivalent_sets(bell_set)[1]]


class TestValidateBasis:
    def test_fresh_register_passes(self):
        report = validate_basis(initial_set(2))
        assert report.well_formed and report.independent_count == 16

    def test_bell_construction_passes(self, bell_set):
        report = validate_basis(bell_set)
        assert report.well_formed
        assert not report.violations

    def test_degenerate_set_fails_with_eight(self):
        report = validate_basis(degenerate_set())
        assert report.independent_count == 8
        assert not report.well_formed
        assert not report.distinct_ok
        assert not report.hermitian  # derived y is anti-Hermitian here

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            validate_basis(initial_set(3))


def _hs_inner(a, b):
    """Tr(a^dagger b) / 2^n from the two term lists: distinct strings are
    orthogonal, and a string times itself traces to 2^n."""
    right = dict(b.terms())
    return sum((ca.conjugate() * right[ls] for ls, ca in a.terms() if ls in right),
               ComplexDyadic.of(0))


def _adjoint(s):
    """Hermitian adjoint of a sum: its letters are self-adjoint."""
    return PauliSum(s.n, {ls: c.conjugate() for ls, c in s.terms()})


def reference_validate_basis(descs):
    """The basis checks by pairwise comparison and Hilbert-Schmidt inner
    products of all sixteen products of a pair's descriptors, computed from
    their terms, as a test-side reference."""
    components = (X, Y, Z)
    violations = []
    products = [(key, sumpath.component_product(descs, key))
                for key in itertools.product((I,) + components, repeat=2)]
    distinct = []
    for _, p in products:
        if p not in distinct:
            distinct.append(p)
    count = len(distinct)
    if count != 16:
        violations.append(f"only {count} of 16 products are distinct")
    hermitian = all(sumpath.is_hermitian(p) for _, p in products)
    if not hermitian:
        violations.append("some products are not Hermitian")
    complete = all(_hs_inner(p, p) == ComplexDyadic.of(1) for _, p in products)
    if not complete:
        violations.append("some products do not have unit norm")
    orthogonal = True
    for (ka, pa), (kb, pb) in itertools.combinations(products, 2):
        if pa != pb and _hs_inner(pa, pb):
            orthogonal = False
            violations.append(f"products {ka} and {kb} are not orthogonal")
            break
    traceless = True
    for a in (0, 1):
        for i in components:
            if descs[a][i - 1].coefficient((I, I)):
                traceless = False
                violations.append(
                    f"component ({a + 1},{LETTER_NAMES[i]}) has a trace")
    return BasisReport(count, orthogonal, complete, hermitian, traceless,
                       count == 16, tuple(violations),
                       sumpath.expectation_table(descs, (0, 1)))


def _with_component(descs, qubit, which, value):
    """A pair's descriptors with one component replaced."""
    descs = list(descs)
    descs[qubit] = descs[qubit]._replace(**{"qx qy qz".split()[which - X]: value})
    return tuple(descs)


def controlled_s_conjugated(set_):
    """Every component conjugated by controlled-S on (0, 1): a dyadic,
    non-Clifford unitary, so the components become multi-term sums while
    every algebraic relation between them is kept.  The pair's descriptors
    are returned as a tuple, for the sum path."""
    ident = PauliSum.identity(2)
    z0, z1 = PauliSum.single(2, 0, Z), PauliSum.single(2, 1, Z)
    half = Fraction(1, 2)
    s_gate = (ident.scale(ComplexDyadic(half, half))
              + z1.scale(ComplexDyadic(half, -half)))
    cs = (ident + z0).scale(half) + (ident - z0).scale(half) * s_gate
    return tuple(Descriptor(*(_adjoint(cs) * c * cs for c in d)) for d in set_.descriptors)


def _basis_cases(bell_set, swap_result):
    """Pairs of descriptors: every stabilizer state, the degenerate set,
    the Bell pair with one or two components broken, the swap's reduced
    pairs and two conjugated by controlled-S."""
    cases = [set_.descriptors for set_ in stabilizer_states(2).values()]
    cases.append(degenerate_set().descriptors)
    bell = bell_set.descriptors
    qx = bell[0].qx
    cases.append(_with_component(bell, 0, X, qx.scale(2)))
    cases.append(_with_component(bell, 0, X, qx.scale(ComplexDyadic(0, 1))))
    cases.append(_with_component(bell, 1, Z, PauliSum.zero(2)))
    both = _with_component(bell, 0, X, PauliSum.zero(2))
    cases.append(_with_component(both, 0, Z, PauliSum.zero(2)))
    cases.append(_with_component(bell, 0, X, qx + bell[1].qx))
    for outcome in swap_result.relative_bell:
        cases.append(outcome.reduced.descriptors)
    cases.append(controlled_s_conjugated(bell_set))
    cases.append(controlled_s_conjugated(degenerate_set()))
    return cases


class TestValidateBasisAgainstReference:
    def test_reports_identical(self, bell_set, swap_result):
        """The row path on every pair a set can hold, and the sum path on
        every pair, give the reference's report."""
        cases = _basis_cases(bell_set, swap_result)
        assert all(len(c) > 1 for c in cases[-2][1])
        held = 0
        for descs in cases:
            want = reference_validate_basis(descs)
            assert sumpath.validate_basis(descs) == want
            try:
                set_ = DescriptorSet(2, descs)
            except ValueError:
                continue
            assert validate_basis(set_) == want
            held += 1
        assert held == len(cases) - 7
        reports = [sumpath.validate_basis(descs) for descs in cases]
        assert sum(r.well_formed for r in reports) == 65
        assert {r.independent_count for r in reports} >= {8, 16}
        assert any(not r.orthogonal for r in reports)
        assert any(not r.complete for r in reports)


def compose(second: SymmetryTransform, first: SymmetryTransform) -> SymmetryTransform:
    """``second`` after ``first``, built as a transform."""
    perm = tuple(first.source(second.source(r)) for r in (X, Y, Z))
    return SymmetryTransform(perm, second.swap ^ first.swap)


class TestSymmetryTransform:
    def test_identity_cycles(self):
        assert SymmetryTransform.identity().slot_cycles() == "()"

    def test_swap_cycles(self):
        t = SymmetryTransform((X, Y, Z), True)
        assert t.slot_cycles() == "(1x 2x)(1y 2y)(1z 2z)"

    def test_composition(self):
        swap = SymmetryTransform((X, Y, Z), True)
        xz = SymmetryTransform((Z, Y, X), False)
        both = compose(xz, swap)
        assert both.swap and both.role_perm == (Z, Y, X)


class TestDensitySymmetries:
    def test_bell_group_order_and_closure(self, bell_rho):
        group = [t for t, _ in density_symmetries(bell_rho)]
        assert len(group) == 12
        members = set(group)
        assert SymmetryTransform.identity() in members
        for t1, t2 in itertools.product(group, repeat=2):
            assert compose(t1, t2) in members

    @staticmethod
    def _found_only(monkeypatch, kept):
        """Make the sign search admit only the (role_perm, swap) pairs kept."""
        monkeypatch.setattr(uniqueness, "_transform_signs", lambda transforms, table: [
            (1, 1, 1, 1) if (t.role_perm, t.swap) in kept else None
            for t in transforms])

    def test_found_list_not_closed_raises(self, bell_rho, monkeypatch):
        # A three-cycle of the roles without its square.
        self._found_only(monkeypatch, {((X, Y, Z), False), ((Y, Z, X), False)})
        with pytest.raises(AssertionError, match="symmetries not closed: "
                                                 r"\(1x 1y 1z\)\(2x 2y 2z\) after"):
            density_symmetries(bell_rho)

    def test_found_list_without_identity_raises(self, bell_rho, monkeypatch):
        self._found_only(monkeypatch, {((X, Y, Z), True)})
        with pytest.raises(AssertionError, match="symmetry search lost the identity"):
            density_symmetries(bell_rho)

    def test_closure_check_agrees_with_composed_transforms(self, bell_rho,
                                                            monkeypatch):
        """For the identity and any two candidates, the search raises exactly
        when a composite of two of them is missing."""
        candidates = [SymmetryTransform(perm, swap)
                      for perm in itertools.permutations((X, Y, Z))
                      for swap in (False, True)]
        for a, b in itertools.combinations(candidates, 2):
            found = {SymmetryTransform.identity(), a, b}
            self._found_only(monkeypatch, {(t.role_perm, t.swap) for t in found})
            closed = all(compose(t1, t2) in found
                         for t1, t2 in itertools.product(found, repeat=2))
            if closed:
                assert {t for t, _ in density_symmetries(bell_rho)} == found
            else:
                with pytest.raises(AssertionError, match="symmetries not closed"):
                    density_symmetries(bell_rho)

    def test_generic_state_identity_only(self):
        # A product of two differently polarized qubits, with distinct
        # magnitudes along distinct axes, admits no relabeling at all.
        half, quarter, eighth = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
        rho = DensityMatrix(2, {
            (I, I): Fraction(1),
            (X, I): half, (Z, I): quarter,
            (I, Z): half,
            (X, Z): quarter, (Z, Z): eighth,
        })
        group = density_symmetries(rho)
        assert [t.slot_cycles() for t, _ in group] == ["()"]

    def test_product_zero_state_includes_swap(self):
        rho = reconstruct_density(initial_set(2), [0, 1])
        cycles = {t.slot_cycles() for t, _ in density_symmetries(rho)}
        assert "(1x 2x)(1y 2y)(1z 2z)" in cycles
        assert "(1x 1y)(2x 2y)" in cycles
        assert "()" in cycles


class TestGenerateEquivalentSets:
    def test_bell_yields_twelve(self, bell_family):
        assert len(bell_family) == 12
        assert len({set_render_key(s) for s in bell_family}) == 12

    def test_all_validate_and_share_table(self, bell_set, bell_family):
        want = expectation_table(bell_set, [0, 1])
        for member in bell_family:
            assert validate_basis(member).well_formed
            assert expectation_table(member, [0, 1]) == want

    def test_orbit_property(self, bell_rho, bell_family):
        # Any member maps to any other under some group element.
        group = [t for t, _ in density_symmetries(bell_rho)]
        keys = {set_render_key(s) for s in bell_family}
        start = bell_family[0]
        reached = {set_render_key(canonical_signs(apply_transform(start, t)))
                   for t in group}
        assert reached == keys

    def test_improper_set_refused(self):
        with pytest.raises(ValueError, match="not a proper basis"):
            generate_equivalent_sets(degenerate_set())

    def test_set_of_multi_term_sums_refused(self, bell_set):
        """A proper basis whose components are not signed strings has no
        packed rows to permute or flip, so no set holds it; the class, a
        transform and the canonical signs refuse a set that is not a
        pair."""
        conjugated = controlled_s_conjugated(bell_set)
        assert sumpath.validate_basis(conjugated).well_formed
        with pytest.raises(ValueError, match="signed Pauli strings"):
            DescriptorSet(2, conjugated)
        wide = initial_set(3)
        with pytest.raises(ValueError, match="signed Pauli strings"):
            generate_equivalent_sets(wide)
        with pytest.raises(ValueError, match="signed Pauli strings"):
            apply_transform(wide, SymmetryTransform.identity())
        with pytest.raises(ValueError, match="signed Pauli strings"):
            canonical_signs(wide)

    @pytest.mark.parametrize("base", ["h 1, cnot 1 2, h 1", "h 1, h 2, s 1, s 2"])
    def test_framed_sets_give_the_canonical_seed_orbit(self, base):
        """Under each of the sixteen Pauli frames the class is the orbit of
        the canonical seed under its density's symmetries.  Both states
        have frames whose class changes when the set is not canonicalized
        first, and the generator is handed the set as the circuit left it."""
        steps = [Gate(kind, tuple(int(q) - 1 for q in ops))
                 for kind, *ops in (text.split() for text in base.split(", "))]
        uncanonical = 0
        for frame in itertools.product(range(4), repeat=2):
            set_ = initial_set(2)
            for gate in steps + [Gate(LETTER_NAMES[w], (q,))
                                 for q, w in enumerate(frame) if w != I]:
                set_ = apply_gate(set_, gate)
            group = [t for t, _ in density_symmetries(reconstruct_density(set_, [0, 1]))]
            seed = canonical_signs(set_)
            want = {set_render_key(canonical_signs(apply_transform(seed, t)))
                    for t in group}
            transforms, sets = generate_equivalent_sets(set_)
            assert transforms == group
            assert [set_render_key(s) for s, _ in sets] == sorted(want)
            uncanonical += set_render_key(seed) != set_render_key(set_)
        assert uncanonical

    def test_evolution_consistency(self, bell_family):
        # A common circuit applied to every member keeps all tables equal.
        rng = random.Random(2024)
        circuit = random_circuit(rng, 2, 10)
        evolved_tables = []
        for member in bell_family:
            s = member
            for step in circuit.steps:
                s = apply_gate(s, step)
            evolved_tables.append(expectation_table(s, [0, 1]))
        assert all(t == evolved_tables[0] for t in evolved_tables)


@pytest.fixture(scope="module")
def bell_enumeration(bell_rho):
    return enumerate_valid_sets(bell_rho)


class TestEnumeration:
    def test_symmetry_orbit_is_subfamily(self, bell_family, bell_enumeration):
        # Brute force finds the full signed-string family; the symmetry
        # orbit of the circuit seed is contained in it.  The full family
        # is larger: sets reachable only through entangling stabilizers
        # of the state exist as well.
        keys = {set_render_key(s) for s in bell_enumeration}
        assert {set_render_key(s) for s in bell_family} <= keys
        assert len(bell_enumeration) == 48

    def test_enumerated_sets_are_valid(self, bell_rho, bell_enumeration):
        want = {idx: ComplexDyadic.of(bell_rho.coefficient(idx))
                for idx in itertools.product(range(4), repeat=2)}
        for member in bell_enumeration[:6]:
            assert validate_basis(member).well_formed
            assert expectation_table(member, [0, 1]) == want


class TestClassification:
    def test_bell_reference_kinds(self, bell_family):
        reference = [
            [parse_sum(c) for c in row] for row in PUBLISHED_BELL_SETS]
        results = classify_against_reference(bell_family, reference)
        kinds = [r["kind"] for r in results]
        assert kinds.count("exact") == 4
        assert kinds.count("sign") == 4
        assert kinds.count("convention") == 4
        assert "mismatch" not in kinds


# Reference listing for the Bell equivalence class, as published; four of
# the entries build y as x*z without the factor of i, which this artifact's
# Hermitian convention cannot reproduce string-for-string.
PUBLISHED_BELL_SETS = [
    ["1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I", "1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z"],
    ["1 * I⊗X", "1 * X⊗X", "1 * X⊗I", "1 * Z⊗X", "-1 * Y⊗Y", "1 * X⊗Z"],
    ["1 * I⊗Y", "1 * X⊗Y", "1 * X⊗I", "1 * Z⊗Y", "-1 * Y⊗X", "1 * X⊗Z"],
    ["1 * Z⊗X", "1 * X⊗Y", "-1 * Y⊗Z", "1 * I⊗X", "-1 * Y⊗X", "-1 * Y⊗I"],
    ["1 * Z⊗X", "-1 * Y⊗Y", "1 * X⊗Z", "1 * I⊗X", "1 * X⊗X", "1 * X⊗I"],
    ["1 * X⊗I", "1 * Y⊗X", "1 * Z⊗X", "1 * X⊗Z", "-1 * X⊗Y", "1 * I⊗X"],
    ["-1 * Y⊗X", "1 * Z⊗X", "1 * X⊗I", "1 * X⊗Y", "1 * I⊗X", "1 * X⊗Z"],
    ["1 * Z⊗X", "1 * X⊗I", "-1 * Y⊗X", "1 * I⊗X", "1 * X⊗Z", "1 * X⊗Y"],
    ["1 * I⊗X", "1 * X⊗Y", "1 * X⊗Z", "1 * Z⊗X", "-1 * Y⊗X", "1 * X⊗I"],
    ["1 * X⊗Z", "-1 * X⊗Y", "1 * I⊗X", "1 * X⊗I", "1 * Y⊗X", "1 * Z⊗X"],
    ["1 * X⊗Y", "1 * I⊗X", "1 * X⊗Z", "-1 * Y⊗X", "1 * Z⊗X", "1 * X⊗I"],
    ["1 * I⊗X", "1 * X⊗Z", "1 * X⊗Y", "1 * Z⊗X", "1 * X⊗I", "-1 * Y⊗X"],
]


class TestConstructFromDensity:
    def test_pure_zero_state(self):
        rho = DensityMatrix(1, {(I,): Fraction(1), (Z,): Fraction(1)})
        found = construct_from_density(rho, 0)
        assert [found.component(0, w).render() for w in (X, Y, Z)] == \
            ["1 * X", "1 * Y", "1 * Z"]

    def test_maximally_mixed_needs_doubling(self):
        rho = DensityMatrix(1, {(I,): Fraction(1)})
        assert construct_from_density(rho, 0) is None
        found = construct_from_density(rho, 1)
        assert found.n == 2
        table = expectation_table(found, [0])
        assert all(not table[(w,)] for w in (X, Y, Z))

    def test_bell_without_ancillas(self, bell_rho):
        found = construct_from_density(bell_rho, 0)
        assert found is not None
        table = expectation_table(found, [0, 1])
        for idx, value in table.items():
            assert value == ComplexDyadic.of(bell_rho.coefficient(idx))

    def test_found_register_is_well_formed(self, bell_rho):
        found = construct_from_density(bell_rho, 0)
        assert validate_basis(found).well_formed

    def test_deterministic(self, bell_rho):
        a = construct_from_density(bell_rho, 0)
        b = construct_from_density(bell_rho, 0)
        assert set_render_key(a) == set_render_key(b)

    def test_partially_polarized_not_string_representable(self):
        rho = DensityMatrix(1, {(I,): Fraction(1), (Z,): Fraction(1, 2)})
        assert construct_from_density(rho, 1) is None


# -- the sign solver and the flip rule against their first forms ---------

# Levi-Civita on component indices X, Y, Z, as the first sign search read it.
_REFERENCE_EPS = {(X, Y, Z): 1, (Y, Z, X): 1, (Z, X, Y): 1,
                  (X, Z, Y): -1, (Z, Y, X): -1, (Y, X, Z): -1}


def reference_transform_signs(transform, coefficient):
    """Every one of the sixteen assignments tried in order, with the
    products of the averages and the signs formed and compared entry by
    entry, as a test-side reference."""
    comps = (X, Y, Z)
    a = {i: coefficient((i, I)) for i in comps}
    b = {j: coefficient((I, j)) for j in comps}
    t = {(i, j): coefficient((i, j)) for i in comps for j in comps}
    eps = -_REFERENCE_EPS[transform.source(X), transform.source(Z),
                          transform.source(Y)]
    src_a, src_b = (b, a) if transform.swap else (a, b)

    def src_pair(i, j):
        pi, pj = transform.source(i), transform.source(j)
        return t[pj, pi] if transform.swap else t[pi, pj]

    for signs in itertools.product((1, -1), repeat=4):
        s1x, s1z, s2x, s2z = signs
        eff1 = {X: s1x, Y: s1x * s1z * eps, Z: s1z}
        eff2 = {X: s2x, Y: s2x * s2z * eps, Z: s2z}
        if (all(src_a[transform.source(i)] * eff1[i] == a[i]
                and src_b[transform.source(i)] * eff2[i] == b[i] for i in comps)
                and all(src_pair(i, j) * (eff1[i] * eff2[j]) == t[i, j]
                        for i, j in itertools.product(comps, repeat=2))):
            return signs
    return None


def _leading(s):
    for _, coef in s.terms():
        return 1 if coef.re > 0 or (coef.re == 0 and coef.im > 0) else -1
    return 1


def reference_canonical_signs(set_):
    """The flip rule as first written: each candidate flip is applied and
    its whole table rebuilt and compared, as a test-side reference."""
    d1, d2 = set_.descriptors
    sx, sz = _leading(d1.qx), _leading(d1.qz)
    if sx == sz == 1:
        return set_
    table = expectation_table(set_, [0, 1])
    halves = [(sx, 1), (1, sz)] if sx == sz == -1 else []
    for fx, fz in [(sx, sz)] + halves:
        candidate = DescriptorSet(2, (scale_xz(d1, fx, fz), scale_xz(d2, fx, fz)))
        if expectation_table(candidate, [0, 1]) == table:
            return candidate
    return set_


ALL_TRANSFORMS = [SymmetryTransform(perm, swap)
                  for perm in itertools.permutations((X, Y, Z))
                  for swap in (False, True)]


def _one_qubit_densities():
    """The pinned one-qubit densities: the six stabilizer states and the
    two mixed ones."""
    from test_uniqueness_pins import MIXED_1Q
    out = [reconstruct_density(s, [0]) for s in stabilizer_states(1).values()]
    out += [DensityMatrix(1, {(I,): Fraction(1), **extra})
            for extra in MIXED_1Q.values()]
    return out


def _two_qubit_densities(swap_result):
    """Every two-qubit stabilizer density, every product of two pinned
    one-qubit densities, the swap's pair densities and one with a
    non-dyadic coefficient."""
    out = [reconstruct_density(s, [0, 1]) for s in stabilizer_states(2).values()]
    ones = _one_qubit_densities()
    for r1, r2 in itertools.product(ones, repeat=2):
        out.append(DensityMatrix(2, {
            (i, j): r1.coefficient((i,)) * r2.coefficient((j,))
            for i, j in itertools.product(range(4), repeat=2)}))
    out += list(swap_result.pair_densities.values())
    out.append(DensityMatrix(2, {(I, I): Fraction(1), (X, X): Fraction(1, 3),
                                 (Z, Z): Fraction(1, 3), (Y, Y): Fraction(-1, 3)}))
    return out


class TestSignSolverMatchesTheSixteenAssignmentSearch:
    def test_on_densities(self, swap_result):
        found = 0
        densities = _two_qubit_densities(swap_result)
        for rho in densities:
            table = {index: rho.coefficient(index) for index in
                     itertools.product(range(4), repeat=2)}
            got = uniqueness._transform_signs(ALL_TRANSFORMS, table)
            want = [reference_transform_signs(t, rho.coefficient)
                    for t in ALL_TRANSFORMS]
            assert got == want
            found += sum(signs is not None for signs in want)
        assert 0 < found < 12 * len(densities)

    def test_on_stabilizer_set_tables(self):
        nones = 0
        for set_ in stabilizer_states(2).values():
            table = expectation_table(set_, [0, 1])
            got = uniqueness._transform_signs(ALL_TRANSFORMS, table)
            want = [reference_transform_signs(t, table.__getitem__)
                    for t in ALL_TRANSFORMS]
            assert got == want
            nones += want.count(None)
        assert nones


def _sign_variants(set_):
    """The set with x and z of qubit 1, or of both qubits, flipped every way."""
    d1, d2 = set_.descriptors
    out = []
    for fx, fz in itertools.product((1, -1), repeat=2):
        out.append(DescriptorSet(2, (scale_xz(d1, fx, fz), d2)))
        out.append(DescriptorSet(2, (scale_xz(d1, fx, fz), scale_xz(d2, fx, fz))))
    return out


class TestCanonicalSignsMatchesTheRebuiltTableRule:
    def test_on_stabilizer_states_and_their_sign_variants(self, swap_result):
        cases = [v for s in stabilizer_states(2).values() for v in _sign_variants(s)]
        cases += [v for o in swap_result.relative_bell
                  for v in _sign_variants(o.reduced)]
        changed = 0
        for set_ in cases:
            got, want = canonical_signs(set_), reference_canonical_signs(set_)
            assert set_render_key(got) == set_render_key(want)
            changed += set_render_key(got) != set_render_key(set_)
        assert changed
