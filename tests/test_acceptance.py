"""End-to-end acceptance suite.

Each test exercises one exact acceptance criterion and prints a
PASS line (run with -s to see them).  All checks are exact: the
underlying statements are combinatorial identities at desk scale.
"""

import contextlib
import io
import itertools
import json
import time

import pytest

from hopfgal import cli
from hopfgal.abelian import GroupSpec, add, walk_subgroups
from hopfgal.correspondence import (
    Context,
    gaussian_subspace_count,
    holomorph_conjugation_report,
    ideals,
    klein_four_ring,
    lattice_report,
)
from hopfgal.holomorph import (
    compose,
    enumerate_regular_subgroups,
    inverse,
    is_abelian,
    regular_subgroup_from_ring,
    ring_from_regular_subgroup,
    tau,
)
from hopfgal.nilring import (
    circle,
    cyclic_structure,
    enumerate_structures,
    nilpotency_index,
    primitive_structure,
    trivial_structure,
    validate,
)
from oracles import identity_map

C2C2 = GroupSpec(2, (1, 1))
Z4 = GroupSpec(2, (2,))
Z8 = GroupSpec(2, (3,))
Z9 = GroupSpec(3, (2,))
C3C3 = GroupSpec(3, (1, 1))

CRITERION_2_SPECS = [C2C2, Z4, C3C3, Z8, Z9]


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_structure_subgroup_bijection():
    start = time.time()
    counts = {}
    for spec in (C2C2, Z4, Z9):
        structures = enumerate_structures(spec)
        regs = enumerate_regular_subgroups(spec)
        abelian_regs = [T for T in regs if is_abelian(T)]
        assert len(structures) == len(abelian_regs) == len(regs)
        for A in structures:
            T = regular_subgroup_from_ring(A)
            assert ring_from_regular_subgroup(T) == A
        for T in regs:
            A = ring_from_regular_subgroup(T)
            assert regular_subgroup_from_ring(A).elements == T.elements
        counts[str(spec)] = len(structures)
    assert counts[str(C2C2)] == 4
    trivials = sum(A.is_trivial() for A in enumerate_structures(C2C2))
    assert trivials == 1
    elapsed = time.time() - start
    assert elapsed < 10
    report(1, f"counts {counts}, round trips exact, {elapsed:.2f}s")


def test_criterion_2_lattice_isomorphism_everywhere():
    start = time.time()
    checked = 0
    for spec in CRITERION_2_SPECS:
        for A in enumerate_structures(spec):
            lattice_report(Context(A))  # raises on any mismatch
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 300
    report(2, f"{checked} structures, zero mismatches, {elapsed:.2f}s")


def test_criterion_3_conjugation_closed_form_agreement():
    pairs = 0
    for spec in CRITERION_2_SPECS:
        for A in enumerate_structures(spec):
            rep = holomorph_conjugation_report(Context(A))
            assert rep["failures"] == []
            pairs += rep["pairs_checked"]
    report(3, f"{pairs} (gamma, g) pairs, both paths agree")


def test_criterion_4_primitive_ideal_chains():
    start = time.time()
    for p, n in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 4)]:
        chain = ideals(Context(primitive_structure(p, n)))
        assert len(chain) == n + 1
        assert [s.size for s in chain] == [p**i for i in range(n + 1)]
        for small, big in zip(chain, chain[1:]):
            assert set(small.elements) < set(big.elements)
    elapsed = time.time() - start
    assert elapsed < 120
    report(4, f"n+1 ideal chains for six (p, n), {elapsed:.2f}s")


def test_criterion_5_elementary_strong_iff_trivial():
    scanned = 0
    for spec in (C2C2, C3C3):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify", "elementary", "--p", str(spec.p), "--n", str(spec.rank)]) == cli.EXIT_OK
        scan = json.loads(out.getvalue())
        scanned += scan["structures_scanned"]
        for row in scan["rows"]:
            assert row["strong_ftgt"] == row["trivial"]
    report(5, f"{scanned} elementary-circle structures, strong iff trivial")


def test_criterion_6_cyclic_family():
    for n in (2, 3):
        count = 0
        spec = GroupSpec(3, (n,))
        subgroup_sets = [s.elements for s in walk_subgroups(spec)]
        for d in range(3 ** (n - 1)):
            A = cyclic_structure(3, n, d)
            assert validate(A) == []
            ideal_list = ideals(Context(A))
            assert len(ideal_list) == n + 1
            assert [s.elements for s in ideal_list] == subgroup_sets
            expected = [
                tuple((x,) for x in range(0, 3**n, 3**r)) for r in range(n + 1)
            ]
            got = {frozenset(s.elements) for s in ideal_list}
            assert got == {
                frozenset(sorted(e)) for e in expected[:-1]
            } | {frozenset({(0,)})}
            assert lattice_report(Context(A)).strong_ftgt
            count += 1
        assert count == 3 ** (n - 1)
    report(6, "all A_d valid, ideals = subgroups = principal chains, strong")


def test_criterion_7_gaussian_formula():
    for p in (2, 3):
        for n in range(1, 5):
            spec = GroupSpec(p, (1,) * n)
            brute = len(walk_subgroups(spec))
            assert gaussian_subspace_count(p, n) + 1 == brute
    report(7, "formula + 1 = brute-force subgroup count (sum starts at r=1)")


def test_criterion_8_klein_four_fixture():
    ctx = Context(klein_four_ring())
    rep = lattice_report(ctx)
    assert len(rep.ideals) == 3
    assert rep.gamma_subgroup_count == 5
    assert rep.strong_ftgt is False
    proper = [s for s in rep.invariant_subgroups if 1 < s.size < 4]
    assert len(proper) == 1
    report(8, "3 ideals vs 5 circle subgroups, one proper invariant subgroup")


def test_criterion_9_property_suites():
    fixtures = [
        trivial_structure(C2C2),
        trivial_structure(GroupSpec(2, (2, 1))),
        klein_four_ring(),
        primitive_structure(2, 2),
        primitive_structure(2, 3),
        primitive_structure(3, 2),
        primitive_structure(3, 3),
        primitive_structure(2, 4),
        primitive_structure(3, 4),
        cyclic_structure(3, 2, 1),
        cyclic_structure(3, 3, 5),
        trivial_structure(GroupSpec(3, (2, 1))),
    ]
    assert all(A.spec.order <= 81 for A in fixtures)
    for A in fixtures:
        spec = A.spec
        elems = list(spec.elements())
        zero = spec.zero()
        # ring axioms
        assert validate(A) == []
        assert nilpotency_index(A) <= spec.n + 1
        # circle group law: identity, inverses, associativity (triples
        # exhaustive up to order 27, generator-anchored above)
        for a in elems:
            assert circle(A, zero, a) == a
            assert any(circle(A, a, x) == zero for x in elems)
        triple_elems = elems if spec.order <= 27 else spec.basis() + [elems[-1]]
        for a in triple_elems:
            for b, c in itertools.product(elems, repeat=2):
                assert circle(A, circle(A, a, b), c) == circle(
                    A, a, circle(A, b, c)
                )
        # circle translations embed homomorphically in Hol(G)
        ident = identity_map(spec)
        for g in elems:
            f = tau(A, g)
            assert compose(f, inverse(f)) == ident
            for h in elems:
                assert compose(f, tau(A, h)) == tau(A, circle(A, g, h))
        # ideal lattice closed under sum and intersection
        ideal_sets = [frozenset(s.elements) for s in ideals(Context(A))]
        lattice = set(ideal_sets)
        for x, y in itertools.combinations(ideal_sets, 2):
            assert x & y in lattice
            assert frozenset(add(spec, a, b) for a in x for b in y) in lattice
    report(9, f"{len(fixtures)} fixtures with |G| <= 81, zero failures")
