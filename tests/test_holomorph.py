import itertools
import random

import pytest

import oracles

from hopfgal import abelian
from hopfgal.abelian import GroupSpec
from hopfgal.correspondence import perm_compose
from hopfgal.errors import CapExceeded, InputError, TheoremViolation
from hopfgal import holomorph, nilring
from hopfgal.holomorph import (
    AffineMap,
    affine_map,
    automorphism_count,
    compose,
    enumerate_automorphisms,
    enumerate_regular_subgroups,
    inverse,
    is_abelian,
    is_invertible,
    regular_subgroup_counts,
    regular_subgroup_from_ring,
    ring_from_regular_subgroup,
    tau,
    translation,
)
from hopfgal.nilring import (
    circle,
    cyclic_structure,
    enumerate_structures,
    make_structure,
    primitive_structure,
    trivial_structure,
)
from oracles import holomorph_elements, identity_map, is_closed, is_fixed_point_free, is_regular

C2C2 = GroupSpec(2, (1, 1))
Z4 = GroupSpec(2, (2,))
Z9 = GroupSpec(3, (2,))


def test_compose_translations():
    for a in Z9.elements():
        for b in Z9.elements():
            f = translation(Z9, a)
            g = translation(Z9, b)
            assert compose(f, g) == translation(Z9, ((a[0] + b[0]) % 9,))


def test_cyclic_matrix_action():
    # affine pair (m = 1+pd, a = -1) acting on s gives (1+pd)s - 1
    d = 1
    f = affine_map(Z9, (8,), ((1 + 3 * d,),))
    for s in range(9):
        assert f.apply((s,)) == (((1 + 3 * d) * s - 1) % 9,)
    # the same action is circle translation by -1 for the structure with
    # r*s = -rspd, i.e. the member of the stored family at -d
    A = cyclic_structure(3, 2, (-d) % 3)
    for s in range(9):
        assert circle(A, (8,), (s,)) == f.apply((s,))
    # for the stored convention r*s = rspd the matrix is 1 - pd
    B = cyclic_structure(3, 2, d)
    assert tau(B, (8,)).m == (((1 - 3 * d) % 9,),)


def test_inverse_round_trip():
    for f in holomorph_elements(Z4):
        assert compose(f, inverse(f)) == identity_map(Z4)
        assert compose(inverse(f), f) == identity_map(Z4)


def test_compose_matches_the_point_oracle_on_hol_c4_c2():
    # every pair of Hol(C4 x C2), mixed exponents and non-translations among
    # them: the product of the matrices is the map f(g(x)) at every point,
    # and it comes back reduced, so equal maps are equal pairs
    spec = GroupSpec(2, (2, 1))
    hol = holomorph_elements(spec)
    points = spec.elements()
    assert len(hol) == 64 and sum(not f.is_translation() for f in hol) == 56
    for f, g in itertools.product(hol, repeat=2):
        h = compose(f, g)
        assert h == affine_map(spec, h.a, h.m)
        assert [_image(h, x) for x in points] == [_image(f, _image(g, x)) for x in points]


def test_affine_map_validation():
    with pytest.raises(InputError):
        affine_map(C2C2, (0,), ((1, 0), (0, 1)))  # bad translation length
    spec = GroupSpec(2, (2, 1))
    with pytest.raises(InputError):
        # image of the order-2 generator must have order dividing 2
        affine_map(spec, spec.zero(), ((1, 1), (0, 1)))
    with pytest.raises(InputError):
        affine_map(C2C2, (0, 0), [[1.5, 0], [0, 1]])  # was stored as 1


def test_affine_map_rejects_booleans():
    # True was stored as 1, in the matrix and in the translation part
    with pytest.raises(InputError, match="non-integer entry"):
        affine_map(C2C2, (0, 0), [[True, 0], [0, 1]])
    with pytest.raises(InputError, match="not reduced"):
        affine_map(C2C2, (True, 0), [[1, 0], [0, 1]])


def test_affine_map_checks_the_shape_before_reducing():
    # an extra row is a wrong shape, not dropped to leave the identity
    with pytest.raises(InputError):
        affine_map(C2C2, (0, 0), [[1, 0], [0, 1], [5, 5]])
    with pytest.raises(InputError):
        affine_map(C2C2, (0, 0), [[1, 0, 0], [0, 1, 0]])
    # a matrix or row with no length raised TypeError from tuple()
    C4 = GroupSpec(2, (2,))
    for m in (5, (1,)):
        with pytest.raises(InputError, match="wrong shape"):
            affine_map(C4, (0,), m)


def test_tau_trivial_is_translation():
    A = trivial_structure(C2C2)
    for g in C2C2.elements():
        assert tau(A, g) == translation(C2C2, g)


def test_tau_primitive_matrix():
    A = primitive_structure(2, 2)
    f = tau(A, (1, 0))
    assert f.a == (1, 0)
    assert f.m == ((1, 0), (1, 1))
    assert tau(A, A.spec.zero()) == identity_map(A.spec)


def test_tau_checks_its_element_and_the_structure():
    # tau checks g and that the map is invertible: z*z = z on C2 is no
    # nilpotent structure, and 1 o x = 1 for every x.  regular_subgroup_from_ring
    # validates the ring before it builds any tau, so it names the axiom;
    # _tau, which takes g from spec.elements() of a validated ring, checks nothing
    A = primitive_structure(2, 2)
    for g in [(2, 0), (0, -1), (1,), (1, 0, 0)]:
        with pytest.raises(InputError, match="element"):
            tau(A, g)
    B = make_structure(GroupSpec(2, (1,)), (((1,),),))
    with pytest.raises(InputError, match="not invertible: invalid structure"):
        tau(B, (1,))
    with pytest.raises(InputError, match="^invalid structure: nilpotency$"):
        regular_subgroup_from_ring(B)


# b0*b1 = (1, 0) on C4 x C2: an image of the order-2 generator b1 of order 4,
# so validate reports two well-defined violations, and circle translation by
# b0 has the linear part ((1, 1), (0, 1)), a bijection of the coordinate
# tuples that is no endomorphism of G: it fails additivity on 16 of 64 pairs
NOT_WELL_DEFINED = make_structure(GroupSpec(2, (2, 1)), (((0, 0), (1, 0)), ((1, 0), (0, 0))))
NOT_AN_ENDOMORPHISM = AffineMap(NOT_WELL_DEFINED.spec, (1, 0), ((1, 1), (0, 1)))


def test_tau_refuses_a_linear_part_that_is_not_well_defined():
    assert [v.axiom for v in nilring.validate(NOT_WELL_DEFINED)] == ["well-defined"] * 2
    with pytest.raises(InputError, match="not invertible: invalid structure"):
        tau(NOT_WELL_DEFINED, (1, 0))


def test_inverse_refuses_a_linear_part_that_is_not_well_defined():
    f, spec = NOT_AN_ENDOMORPHISM, NOT_AN_ENDOMORPHISM.spec
    assert holomorph._tau(NOT_WELL_DEFINED, (1, 0)) == f
    m = AffineMap(spec, spec.zero(), f.m)
    assert sum(_image(m, abelian.add(spec, x, y)) != abelian.add(spec, _image(m, x), _image(m, y))
               for x, y in itertools.product(spec.elements(), repeat=2)) == 16
    assert is_invertible(f) is False
    with pytest.raises(InputError, match="not invertible"):
        inverse(f)


def test_inverse_checks_the_translation_part():
    # an unreduced a, or one of the wrong length, raised KeyError in the
    # preimage lookup
    for a in ((5,), (1, 0), (-1,)):
        with pytest.raises(InputError, match="element"):
            inverse(AffineMap(GroupSpec(2, (1,)), a, ((1,),)))


@pytest.mark.parametrize("entry", ["a", 1.0, True], ids=["str", "float", "bool"])
def test_is_invertible_is_false_on_an_entry_that_is_no_int(entry):
    # a str or float entry raised TypeError, and a bool counted as 1, where
    # affine_map refuses all three
    f = AffineMap(GroupSpec(2, (1,)), (0,), ((entry,),))
    assert is_invertible(f) is False
    with pytest.raises(InputError, match="not invertible"):
        inverse(f)
    with pytest.raises(InputError, match="non-integer entry"):
        holomorph.affine_map(f.spec, f.a, f.m)


@pytest.mark.parametrize("constants", [
    (((1, 0),) * 3,) * 3,  # 3 x 3 on a rank-2 group
    (((0, 0), (0, 0)),),  # one row
    (((0, 0), 1), ((0, 0), (0, 0))),  # an int constant
    (((0, 0), (0, 2)), ((0, 2), (0, 0))),  # a constant not reduced
], ids=["3x3", "one-row", "int-constant", "unreduced"])
def test_tau_refuses_a_misshapen_constants_table(constants):
    # A is not validated, so tau checks the constants' shape as
    # nilpotency_index does, before _tau reads them
    with pytest.raises(InputError):
        tau(nilring.RingStructure(C2C2, constants), (1, 0))


@pytest.mark.parametrize("m", [
    ((1, 0), (0, 1), (1, 1)),  # 3 rows of rank 2
    ((1, 0, 0), (0, 1, 0)),  # rows of 3 entries
], ids=["3-rows", "long-rows"])
def test_a_linear_part_that_is_not_square_is_no_automorphism(m):
    f = AffineMap(C2C2, (0, 0), m)
    assert is_invertible(f) is False
    with pytest.raises(InputError, match="not invertible"):
        inverse(f)


@pytest.mark.parametrize(
    "A",
    [
        trivial_structure(C2C2),
        primitive_structure(2, 2),
        primitive_structure(3, 2),
        cyclic_structure(3, 2, 1),
        make_structure(Z4, (((2,),),)),
    ],
)
def test_tau_is_a_homomorphism(A):
    spec = A.spec
    for g in spec.elements():
        for h in spec.elements():
            assert compose(tau(A, g), tau(A, h)) == tau(A, circle(A, g, h))


def test_holomorph_group_axioms():
    for spec in (C2C2, Z4):
        hol = holomorph_elements(spec)
        ident = identity_map(spec)
        assert ident in hol
        for f in hol:
            assert compose(f, inverse(f)) == ident
        for f, g, h in itertools.product(hol, repeat=3):
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_holomorph_sizes():
    assert len(holomorph_elements(C2C2)) == 24
    assert len(holomorph_elements(Z4)) == 8
    assert len(holomorph_elements(Z9)) == 54
    assert len(holomorph_elements(GroupSpec(2, (3,)))) == 32
    assert len(enumerate_automorphisms(GroupSpec(3, (1, 1)))) == 48


AUT_SPECS = [
    GroupSpec(p, e)
    for p, e in [
        (2, (2,)), (2, (3,)), (3, (2,)), (5, (2,)), (2, (1, 1)), (3, (1, 1)),
        (2, (2, 1)), (2, (3, 1)), (2, (1, 1, 1)), (2, (2, 2)), (5, (1, 1)),
        (3, (2, 1)), (2, (3, 2)),
    ]
]


@pytest.mark.parametrize("spec", AUT_SPECS, ids=str)
def test_automorphism_count_matches_enumeration(spec):
    assert automorphism_count(spec) == len(enumerate_automorphisms(spec))


def test_holomorph_cap_checked_before_enumeration(monkeypatch):
    def refuse(spec):
        raise AssertionError("Aut(G) enumerated before the cap was compared")

    monkeypatch.setattr(holomorph, "enumerate_automorphisms", refuse)
    for build in (enumerate_regular_subgroups, regular_subgroup_counts):
        with pytest.raises(CapExceeded):  # |Hol(C5 x C5)| = 25 * 480
            build(GroupSpec(5, (1, 1)), cap=1000)


@pytest.mark.parametrize("build", [enumerate_regular_subgroups, regular_subgroup_counts])
def test_enumerated_automorphisms_must_match_the_closed_form(monkeypatch, build):
    count = holomorph.automorphism_count
    monkeypatch.setattr(holomorph, "automorphism_count", lambda spec: count(spec) + 1)
    with pytest.raises(TheoremViolation, match="closed form"):
        build(GroupSpec(2, (2, 1)))


FPF_SPECS = [GroupSpec(p, e) for p, e in [(2, (1, 1, 1)), (2, (2, 1)), (3, (1, 1)), (3, (3,)), (5, (2,))]]
# (automorphisms, automorphisms of p-power order, candidates)
FPF_WORK = {"C2 x C2 x C2": (168, 64, 301), "C4 x C2": (8, 8, 45), "C3 x C3": (48, 9, 56),
            "C27": (18, 9, 182), "C25": (20, 5, 104)}


@pytest.mark.parametrize("spec", FPF_SPECS, ids=str)
def test_candidates_match_brute_force(monkeypatch, spec):
    # the pairs built are exactly the fixed-point-free members of Hol(G) of
    # order dividing |G|.  x -> a + m(x) has p-power order iff m does, so the
    # order is decided mod p once per automorphism, and only an m that passes
    # gets its linear table and its 1 - m table
    hol = holomorph_elements(spec)
    perms = {f: oracles.index_perm(f) for f in hol}

    def divides_order(f):
        order = oracles.perm_order(perms[f], spec.order)
        return order is not None and spec.order % order == 0

    auts = holomorph._automorphisms(spec, holomorph.DEFAULT_HOL_CAP)
    verdicts, tables = [], []
    unipotent, linear_table = holomorph._unipotent, abelian._linear_table
    monkeypatch.setattr(holomorph, "_unipotent",
                        lambda spec, m: verdicts.append(unipotent(spec, m)) or verdicts[-1])
    monkeypatch.setattr(abelian, "_linear_table",
                        lambda spec, m: tables.append(m) or linear_table(spec, m))
    compose_pairs, ident, candidates = holomorph._fixed_point_free(spec, auts)
    assert (len(auts), sum(verdicts), len(candidates)) == FPF_WORK[str(spec)]
    assert len(verdicts) == len(auts) and len(tables) == 2 * sum(verdicts)
    elements = spec.elements()

    def affine(f):
        return AffineMap(spec, elements[f[0]], auts[f[1]])

    assert affine(ident) == identity_map(spec)
    maps = list(map(affine, candidates))
    assert len(set(candidates)) == len(candidates) == len(set(maps))
    assert set(maps) == {f for f in hol if is_fixed_point_free(f) and divides_order(f)}
    # a candidate's product with any member of Hol(G) is their composite map
    rng = random.Random(7)
    pairs = [(a, n) for a in range(spec.order) for n in range(len(auts))]
    for f in [ident] + candidates:
        for g in rng.sample(pairs, 12):
            assert affine(compose_pairs(f, g)) == compose(affine(f), affine(g))


@pytest.mark.parametrize("spec", AUT_SPECS, ids=str)
def test_rank_mod_p_decides_invertibility(spec):
    # Burnside's basis theorem: m is an automorphism iff m mod p has rank k,
    # as the oracle's image count finds, on every well-defined m
    matrices = oracles.well_defined_matrices(spec)
    verdicts = [is_invertible(AffineMap(spec, spec.zero(), m)) for m in matrices]
    assert verdicts == [len(set(oracles.index_perm(AffineMap(spec, spec.zero(), m)))) == spec.order
                        for m in matrices]
    assert sum(verdicts) == automorphism_count(spec) < len(matrices)


@pytest.mark.parametrize("spec", FPF_SPECS, ids=str)
def test_unipotent_mod_p_decides_p_power_order(spec):
    # m - I is nilpotent mod p iff every x -> a + m(x) has an order dividing |G|
    verdicts = []
    for m in enumerate_automorphisms(spec):
        verdicts.append(holomorph._unipotent(spec, m))
        for a in spec.elements():
            order = oracles.perm_order(oracles.index_perm(AffineMap(spec, a, m)), spec.order)
            assert verdicts[-1] is (order is not None and spec.order % order == 0)
    prime_to_p = len(verdicts)
    while prime_to_p % spec.p == 0:
        prime_to_p //= spec.p
    assert any(verdicts) and all(verdicts) is (prime_to_p == 1)  # Aut(G) a p-group


@pytest.mark.parametrize("spec", [GroupSpec(2, (2, 1)), GroupSpec(3, (1, 1))], ids=str)
def test_closure_by_cosets_matches_breadth_first_products(spec):
    # the coset extension from {id} lists the group of products from {id},
    # each member once, and gives None exactly when that group passes limit
    perms = list(map(oracles.index_perm, holomorph_elements(spec)))
    ident = [tuple(range(spec.order))]
    rng = random.Random(23)
    refused = 0
    for size in (1, 2, 3):
        for _ in range(30):
            gens = tuple(rng.sample(perms, size))
            expected = oracles.closure_by_products(gens)
            got = holomorph._extend(ident, gens, len(perms), lambda y: True, perm_compose)
            assert len(got) == len(expected) and set(got) == expected
            for limit in (len(expected) - 1, len(expected), spec.order):
                got = holomorph._extend(ident, gens, limit, lambda y: True, perm_compose)
                assert (got if got is None else set(got)) == oracles.closure_by_products(gens, limit)
                refused += got is None
    assert refused


def test_is_regular_cases():
    translations = [translation(C2C2, g) for g in C2C2.elements()]
    assert is_regular(translations)
    stabilizer = [
        AffineMap(C2C2, C2C2.zero(), m)
        for m in enumerate_automorphisms(C2C2)
    ]
    assert not is_regular(stabilizer)
    with pytest.raises(InputError):
        is_regular(translations[1:])  # not closed


def test_regular_subgroup_from_ring():
    T = regular_subgroup_from_ring(trivial_structure(C2C2))
    assert set(T.elements) == {translation(C2C2, g) for g in C2C2.elements()}
    P = regular_subgroup_from_ring(primitive_structure(2, 2))
    assert is_regular(P.elements)
    F = regular_subgroup_from_ring(make_structure(Z4, (((2,),),)))
    assert is_regular(F.elements)
    # every non-identity element of a regular subgroup is fixed-point-free
    for t in F.elements:
        assert t == identity_map(Z4) or is_fixed_point_free(t)


@pytest.mark.parametrize(
    "spec", [C2C2, Z4, Z9, GroupSpec(2, (3,)), GroupSpec(3, (1, 1)), GroupSpec(2, (2, 1))]
)
def test_round_trip_ring_to_subgroup_to_ring(spec):
    for A in enumerate_structures(spec):
        T = regular_subgroup_from_ring(A)
        assert is_regular(T.elements)
        assert ring_from_regular_subgroup(T) == A


@pytest.mark.parametrize("spec", [C2C2, Z4, Z9])
def test_round_trip_subgroup_to_ring_to_subgroup(spec):
    for T in enumerate_regular_subgroups(spec):
        A = ring_from_regular_subgroup(T)
        assert regular_subgroup_from_ring(A).elements == T.elements


def test_round_trip_subgroup_to_ring_to_subgroup_on_mixed_exponents():
    # on C4 x C2 each constant is reduced by its own coordinate's modulus; Hol(G)
    # also has non-abelian regular subgroups, which carry no structure
    spec = GroupSpec(2, (2, 1))
    abelian_regs = [T for T in enumerate_regular_subgroups(spec) if is_abelian(T)]
    assert len(abelian_regs) == len(enumerate_structures(spec)) == 12
    for T in abelian_regs:
        A = ring_from_regular_subgroup(T)
        assert regular_subgroup_from_ring(A).elements == T.elements


Z8 = GroupSpec(2, (3,))


@pytest.mark.parametrize("maps", [
    [AffineMap(Z8, (1,), ((2,),))],  # x -> 1 + 2x: once a theorem violation
    [translation(Z8, (1,))],  # x -> x + 1: once the trivial ring on Z/8
    [translation(Z8, (g,)) for g in range(7)] + [AffineMap(Z8, (1,), ((5,),))],  # 1 twice, 7 never
    [5],  # no map: its .a raised AttributeError
    [5] + [translation(Z8, (g,)) for g in range(7)],
    [translation(GroupSpec(2, (4,)), (g,)) for g in range(8)],  # on Z/16, sending 0 to 0, ..., 7
    5,  # no length: iterating it raised TypeError
    None,
], ids=["one-map", "one-translation", "repeated-image-of-0", "no-map", "a-member-no-map", "maps-on-another-group",
        "members-int", "members-None"])
def test_ring_from_regular_subgroup_refuses_a_set_that_is_not_regular(maps):
    members = tuple(maps) if isinstance(maps, list) else maps
    with pytest.raises(InputError, match="not a regular subgroup"):
        ring_from_regular_subgroup(holomorph.RegularSubgroup(Z8, members))


@pytest.mark.parametrize("m", [
    5,  # raised TypeError in zip
    (("1", 0), (0, 1)),  # raised TypeError on concatenating str
    ((1, 0, 0), (0, 1, 0)),  # 2 x 3: reported as non-abelian
    ((True, 0), (1, 1)),
], ids=["int", "str-entry", "two-by-three", "bool-entry"])
def test_ring_from_regular_subgroup_checks_the_generators_matrices(m):
    # the member sending 0 to b_0 carries a linear part that is no k x k
    # table of ints; the constants are read off it, so it is refused first
    T = regular_subgroup_from_ring(primitive_structure(2, 2))
    members = tuple(AffineMap(C2C2, t.a, m) if t.a == (1, 0) else t for t in T.elements)
    with pytest.raises(InputError, match="not a regular subgroup"):
        ring_from_regular_subgroup(holomorph.RegularSubgroup(C2C2, members))


@pytest.mark.parametrize("spec,regular,abelian", [
    (GroupSpec(2, (3,)), 6, 4), (GroupSpec(2, (4,)), 16, 8), (GroupSpec(2, (1, 1, 1)), 232, 92),
    (GroupSpec(2, (2, 1)), 28, 12), (GroupSpec(3, (1, 1)), 9, 9), (GroupSpec(3, (3,)), 9, 9),
], ids=str)
def test_ring_from_regular_subgroup_refuses_exactly_the_nonabelian_subgroups(spec, regular, abelian):
    # T is abelian iff its generators' members commute and T = tau(A): the
    # verdict matches the pointwise oracle, and each ring found maps back to T
    regs = enumerate_regular_subgroups(spec)
    rings = 0
    for T in regs:
        if not _commute_pairwise(T.elements):
            with pytest.raises(InputError, match="non-abelian"):
                ring_from_regular_subgroup(T)
            continue
        assert regular_subgroup_from_ring(ring_from_regular_subgroup(T)).elements == T.elements
        rings += 1
    assert (len(regs), rings) == (regular, abelian)


def test_regular_subgroup_from_ring_rejects_a_non_associative_ring():
    # b2*b2 = b3, b3*b3 = b1 on C2^3: (b2*b2)*b3 = b1 but b2*(b2*b3) = 0, yet
    # every circle translation is bijective, so only validation catches it
    spec = GroupSpec(2, (1, 1, 1))
    z = spec.zero()
    A = make_structure(spec, ((z, z, z), (z, (0, 0, 1), z), (z, z, (1, 0, 0))))
    assert all(is_invertible(tau(A, g)) for g in spec.elements())
    with pytest.raises(InputError, match="invalid structure: associativity"):
        regular_subgroup_from_ring(A)


def test_regular_subgroup_counts():
    assert len(enumerate_regular_subgroups(C2C2)) == 4
    assert len(enumerate_regular_subgroups(Z4)) == len(enumerate_structures(Z4))
    regs9 = enumerate_regular_subgroups(Z9)
    assert len(regs9) >= 3
    assert len(regs9) == len(enumerate_structures(Z9))
    # the d-family images all appear
    for d in range(3):
        T = regular_subgroup_from_ring(cyclic_structure(3, 2, d))
        assert T in regs9


def test_cyclic_two_group_has_nonabelian_regular_subgroups():
    # Hol(Z/8) contains dihedral and quaternion regular subgroups; only
    # the abelian ones correspond to commutative nilpotent structures.
    spec = GroupSpec(2, (3,))
    regs = enumerate_regular_subgroups(spec)
    abelian_regs = [T for T in regs if is_abelian(T)]
    assert len(regs) == 6
    assert len(abelian_regs) == len(enumerate_structures(spec)) == 4
    nonabelian = next(T for T in regs if not is_abelian(T))
    with pytest.raises(InputError):
        ring_from_regular_subgroup(nonabelian)


def test_nontrivial_regular_subgroups_of_klein_four():
    # the three cyclic-4 regular subgroups each recover a distinct
    # structure with a nonzero product
    regs = enumerate_regular_subgroups(C2C2)
    translations = regular_subgroup_from_ring(trivial_structure(C2C2))
    nontrivial = [T for T in regs if T != translations]
    assert len(nontrivial) == 3
    recovered = {ring_from_regular_subgroup(T) for T in nontrivial}
    assert len(recovered) == 3
    assert all(not A.is_trivial() for A in recovered)


@pytest.mark.parametrize(
    "spec", [GroupSpec(2, (3,)), GroupSpec(2, (2, 1)), GroupSpec(3, (1, 1))]
)
def test_enumerated_subgroups_are_regular(spec):
    # is_regular works on affine maps, apart from the permutation search
    regs = enumerate_regular_subgroups(spec)
    assert regs
    assert all(is_regular(T.elements) for T in regs)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_kohl_count_for_odd_cyclic_groups(p, n):
    # Kohl (J. Algebra 207, 1998): for odd p, Hol(C_{p^n}) has exactly
    # p^(n-1) regular subgroups, all abelian; |Hol(C49)| = 2058
    regs = enumerate_regular_subgroups(GroupSpec(p, (n,)), cap=4000)
    assert len(regs) == p ** (n - 1)
    assert all(is_abelian(T) for T in regs)


def test_regular_subgroup_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_regular_subgroups(C2C2, cap=10)


def _image(f, x):
    """x -> a + m(x), written out with no package code."""
    return tuple((a + sum(r * c for r, c in zip(row, x))) % mod
                 for a, row, mod in zip(f.a, f.m, f.spec.moduli))


def _commute_pairwise(maps):
    """Oracle: every two maps commute at every point of G."""
    if not maps:
        return True
    moduli = maps[0].spec.moduli
    points = list(itertools.product(*(range(m) for m in moduli)))
    return all(
        _image(f, _image(g, x)) == _image(g, _image(f, x))
        for f, g in itertools.combinations(maps, 2) for x in points
    )


@pytest.mark.parametrize("spec,regular,abelian", [
    (GroupSpec(2, (3,)), 6, 4), (GroupSpec(2, (1, 1, 1)), 232, 92),
    (GroupSpec(2, (2, 1)), 28, 12), (GroupSpec(3, (1, 1)), 9, 9), (GroupSpec(3, (3,)), 9, 9),
])
def test_is_abelian_matches_pairwise_oracle(spec, regular, abelian):
    regs = enumerate_regular_subgroups(spec)
    verdicts = [is_abelian(T) for T in regs]
    assert verdicts == [_commute_pairwise(T.elements) for T in regs]
    assert (len(regs), sum(verdicts)) == (regular, abelian)


# the specs within the default cap that `enumerate` cross-checks in the search
# workload (perfbench/workloads.py), and C2^3
COUNT_SPECS = [GroupSpec(p, e) for p, e in [
    (3, (1,)), (2, (1, 1)), (2, (2,)), (2, (3,)), (3, (2,)), (2, (4,)), (5, (2,)), (3, (3,)),
    (2, (2, 1)), (3, (1, 1)), (2, (1, 1, 1)),
]]


@pytest.mark.parametrize("spec", COUNT_SPECS, ids=str)
def test_generator_commutation_counts_the_abelian_subgroups(spec):
    regs = enumerate_regular_subgroups(spec)
    assert regular_subgroup_counts(spec) == (len(regs), sum(map(is_abelian, regs)))


# parity checks against the permutation search (oracles), which composes index
# permutations, counts images for Aut(G) and takes p-th powers for the order.
# C8 x C4 (|Hol(G)| = 4096, 12 192 regular, 288 abelian) agrees too, but takes
# seconds on each side, so it is left out; the cap is raised above
# |Hol(C5 x C5)| = 12 000 for the rest, and for C4 x C2 x C2
PARITY_CAP = 12_000


@pytest.mark.parametrize("spec", [s for s in AUT_SPECS if str(s) != "C8 x C4"] + [GroupSpec(2, (2, 1, 1))],
                         ids=str)
def test_regular_subgroup_counts_match_the_permutation_search(spec):
    assert regular_subgroup_counts(spec, PARITY_CAP) == oracles.regular_subgroup_counts(spec)


@pytest.mark.parametrize("spec", [C2C2, GroupSpec(2, (3,)), GroupSpec(2, (2, 1)), GroupSpec(3, (1, 1))],
                         ids=str)
def test_enumerated_subgroups_match_the_permutation_search(spec):
    found = [frozenset(T.elements) for T in enumerate_regular_subgroups(spec)]
    expected = [members for _, members in oracles.regular_subgroups_by_permutations(spec)]
    assert len(found) == len(expected) and set(found) == set(expected)


def test_is_abelian_on_sets_that_are_not_closed():
    # on Z/8: x + 2, 5x and 5x + 4 commute, but (x + 2)^2 = x + 4 is missing;
    # x + 4 lies in <x + 2>, and 3x does not commute with x + 2
    spec = GroupSpec(2, (3,))
    commuting = [AffineMap(spec, (2,), ((1,),)), AffineMap(spec, (0,), ((5,),)),
                 AffineMap(spec, (4,), ((5,),))]
    clash = commuting + [AffineMap(spec, (4,), ((1,),)), AffineMap(spec, (0,), ((3,),))]
    for maps, expected in ((commuting, True), (clash, False)):
        assert not is_closed(maps)
        assert _commute_pairwise(maps) is expected
        assert is_abelian(holomorph.RegularSubgroup(spec, tuple(maps))) is expected


@pytest.mark.parametrize("spec,abelian", [(GroupSpec(2, (3,)), 4), (GroupSpec(2, (2, 1)), 12)])
def test_is_abelian_grows_its_span_by_cosets(monkeypatch, spec, abelian):
    # a joining member commutes with the span, which grows by its cosets
    # under it; no closure over all the members so far is rerun
    regs = enumerate_regular_subgroups(spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("is_abelian called the coset closure _extend")

    monkeypatch.setattr(holomorph, "_extend", forbidden)
    assert sum(map(is_abelian, regs)) == len(enumerate_structures(spec)) == abelian


def test_linear_image_scan_does_not_change_identity():
    # the linear table is kept on the map after first use; equality, hashing
    # and set membership ignore it, and both maps act the same
    A = primitive_structure(3, 2)
    scanned = tau(A, (1, 2))
    fresh = AffineMap(scanned.spec, scanned.a, scanned.m)
    assert is_invertible(scanned) and scanned.linear_table
    assert "linear_table" in vars(scanned) and "linear_table" not in vars(fresh)
    assert scanned == fresh and hash(scanned) == hash(fresh)
    assert fresh in {scanned} and scanned in {fresh} and len({scanned, fresh}) == 1
    assert scanned.to_json() == fresh.to_json()
    for x in itertools.product(range(3), range(3)):
        assert scanned.apply(x) == fresh.apply(x) == _image(fresh, x)
    assert inverse(scanned) == inverse(fresh)
    assert "linear_table" in vars(fresh)


def test_ring_from_regular_subgroup_reports_the_violations_it_would_contradict(monkeypatch):
    # a validation failure on an abelian regular subgroup is a theorem
    # violation whose witness lists each violation's axiom and witness
    T = regular_subgroup_from_ring(primitive_structure(2, 2))
    violation = nilring.Violation("associativity", (0, 1, 2))
    monkeypatch.setattr(nilring, "validate", lambda A: [violation])
    with pytest.raises(TheoremViolation, match="does not induce") as info:
        ring_from_regular_subgroup(T)
    assert info.value.witness["subgroup"] == T.to_json()
    assert info.value.witness["violations"] == [{"axiom": "associativity", "witness": "(0, 1, 2)"}]
