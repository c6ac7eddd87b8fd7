"""The lattice walk, the subgroup-count formula and the circle type against
oracles that share no code with them: brute force over all element subsets,
the walk and the formula against each other, and counts of the solutions of
x^(p^k) = e.  The ideals, walked on the products of the ring generators
alone, are checked against the walk on all k generator products.  The
circle type is also checked against `oracles.isomorphism_type`, which
checks the full circle table and then counts those solutions on it, and the
count of circle-group subgroups on the benchmark catalogue against
`oracles.circle_subgroups`, which grows them one element at a time under
`circle`.
The invariant side's walk over the circle generators is checked against the
filter of every additive subgroup through the full table of
`oracles.conjugation_row`, which tests every conjugate point by point, and
`Context.conjugation_row`, which tests the standard generators only when they
pass, is checked against that row on the benchmark catalogue and on planted
circle translations that fail.  On the catalogue, every circle translation a
scan of the conjugation report completes is checked against
`oracles.circle_translation`, and every closed-form table g + gamma*g against
`add` and `mul`, pair by pair.  The conjugation report, which builds its rows
for the circle generators only, is checked against `oracles.conjugation_report`,
made pair by pair, on the catalogue and on every planted failure of
test_correspondence."""

import ast
import itertools
import json
from functools import partial
from pathlib import Path

import pytest

from hopfgal import abelian, holomorph, nilring
from hopfgal.abelian import GroupSpec, add, scalar_mul, subgroup_count, walk_subgroups
from hopfgal.correspondence import (
    Context,
    _closed_form_table,
    _generator_products,
    _ring_generators,
    circle_subgroup_count,
    gaussian_subspace_count,
    holomorph_conjugation_report,
    ideals,
    invariant_subgroups,
    klein_four_fixture,
)
from hopfgal.errors import InputError
from hopfgal.nilring import (
    RingStructure,
    circle,
    cyclic_structure,
    enumerate_structures,
    make_structure,
    mul,
    primitive_structure,
    trivial_structure,
)
from oracles import (
    addition_table,
    circle_subgroups,
    circle_translation,
    conjugation_report,
    conjugation_row,
    isomorphism_type,
    omega_type,
)

CATALOGUE = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "catalogue.json"

ORACLE_SPECS = [
    GroupSpec(2, (1, 1)),
    GroupSpec(2, (2,)),
    GroupSpec(2, (3,)),
    GroupSpec(3, (1, 1)),
    GroupSpec(3, (2,)),
]


def subsets_with_zero(spec):
    elems = list(spec.elements())  # elems[0] is the zero
    for r in range(len(elems)):
        for rest in itertools.combinations(elems[1:], r):
            yield frozenset((elems[0],) + rest)


def brute_force_ideals(A):
    """Subsets containing 0 closed under add and under mul by every element."""
    spec = A.spec
    elems = list(spec.elements())
    plus = {(a, b): add(spec, a, b) for a in elems for b in elems}
    times = {(x, a): mul(A, x, a) for x in elems for a in elems}
    return {
        s
        for s in subsets_with_zero(spec)
        if all(plus[a, b] in s for a in s for b in s)
        and all(times[x, a] in s for x in elems for a in s)
    }


def brute_force_circle_subgroup_count(A):
    """Number of subsets containing 0 closed under the circle operation."""
    elems = list(A.spec.elements())
    table = {(a, b): circle(A, a, b) for a in elems for b in elems}
    return sum(
        1
        for s in subsets_with_zero(A.spec)
        if all(table[a, b] in s for a in s for b in s)
    )


def brute_force_invariant_subgroups(A):
    """Subsets containing 0 closed under add whose translations are stable
    under conjugation by lam(gamma), the circle translation, for every gamma:
    lam(gamma) alpha(g) lam(gamma)^{-1} must be alpha(h) with h in the subset."""
    spec = A.spec
    elems = list(spec.elements())
    plus = {(a, b): add(spec, a, b) for a in elems for b in elems}
    conjugates = {}  # (gamma, g) -> h, or None if the conjugate is no translation
    for gamma in elems:
        lam = {x: circle(A, gamma, x) for x in elems}
        lam_inv = {y: x for x, y in lam.items()}
        for g in elems:
            image = {x: lam[plus[g, lam_inv[x]]] for x in elems}
            h = image[elems[0]]
            translation = all(image[x] == plus[h, x] for x in elems)
            conjugates[gamma, g] = h if translation else None
    return {
        s
        for s in subsets_with_zero(spec)
        if all(plus[a, b] in s for a in s for b in s)
        and all(conjugates[gamma, g] in s for gamma in elems for g in s)
    }


def full_table_invariant_subgroups(A):
    """Every additive subgroup, kept when each member's conjugate by every
    circle translation, read off the full table of oracle rows, is a
    translation by a member."""
    spec, plus = A.spec, addition_table(A.spec)
    rows = [conjugation_row(spec, plus, circle_translation(A, gamma)) for gamma in spec.elements()]
    out = []
    for sub in walk_subgroups(spec):
        members = set(sub.elements)
        if all(oks[spec.element_index[g]] and hs[spec.element_index[g]] in members
               for hs, oks in rows for g in sub.elements):
            out.append(sub)
    return out


def assert_rows_match_the_oracle(ctx, planted=None):
    """Every gamma's `Context.conjugation_row`, against the oracle row of
    lam(gamma) from `circle`, or of the table `planted` = (gamma, index
    table) stands in with."""
    plus, elems = addition_table(ctx.spec), ctx.elements
    for n, gamma in enumerate(elems):
        if planted and planted[0] == gamma:
            lam = {x: elems[i] for x, i in zip(elems, planted[1])}
        else:
            lam = circle_translation(ctx.ring, gamma)
        hs, oks = ctx.conjugation_row(n)
        assert (tuple(map(elems.__getitem__, hs)), oks) == conjugation_row(ctx.spec, plus, lam), gamma


def catalogue_structures():
    """The 217 structures of the benchmark catalogue, read only."""
    for group in json.loads(CATALOGUE.read_text())["groups"]:
        spec = {"p": group["p"], "exponents": group["exponents"]}
        for item in group["structures"]:
            yield RingStructure.from_json({"spec": spec, "constants": item["constants"]})


def test_conjugation_rows_match_the_oracle_on_the_catalogue():
    count = 0
    for A in catalogue_structures():
        assert_rows_match_the_oracle(Context(A))
        count += 1
    assert count == 217


def test_scan_gives_every_circle_translation_on_the_catalogue():
    # a true lam held for a gamma that is no circle generator makes the
    # report scan every gamma, which completes each lam table from circle
    # products
    count = 0
    for A in catalogue_structures():
        ctx = Context(A)
        elems = ctx.elements
        ctx.circle_translation_perm(elems[max(set(range(len(elems))) - set(ctx.circle_generators))])
        assert holomorph_conjugation_report(ctx)["failures"] == []
        assert len(ctx._lambda_cache) == len(elems)
        for gamma in elems:
            lam = ctx._lambda_cache[gamma]
            assert {x: elems[i] for x, i in zip(elems, lam)} == circle_translation(A, gamma)
        count += 1
    assert count == 217


def test_closed_form_tables_match_the_products_on_the_catalogue():
    count = 0
    for A in catalogue_structures():
        ctx = Context(A)
        spec, elems = ctx.spec, ctx.elements
        for gamma in elems:
            closed = tuple(map(elems.__getitem__, _closed_form_table(ctx, gamma)))
            assert closed == tuple(add(spec, g, mul(A, gamma, g)) for g in elems), gamma
        count += 1
    assert count == 217


# stand-ins for lam(gamma) on Z/8, those of
# test_conjugation_report_permutation_failures
PLANTED = [((0,), (0, 1, 4, 3, 2, 5, 6, 7)), ((1,), (1, 2, 5, 4, 3, 6, 7, 0))]


@pytest.mark.parametrize("gamma, planted", PLANTED)
def test_conjugation_rows_match_the_oracle_on_planted_translations(gamma, planted):
    # the conjugate of the standard generator's translation is no
    # translation, so the row tests every g by itself
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    ctx._lambda_cache[gamma] = planted
    _, oks = ctx.conjugation_row(ctx.index[gamma])
    assert not oks[ctx.index[(1,)]]
    assert_rows_match_the_oracle(ctx, (gamma, planted))


def test_conjugation_report_matches_the_per_pair_oracle_on_the_catalogue():
    # the report builds its rows for the circle generators only, the oracle
    # tests every pair point by point
    count = 0
    for A in catalogue_structures():
        report = holomorph_conjugation_report(Context(A))
        assert report == conjugation_report(A), A.to_json()
        assert report == {"pairs_checked": A.spec.order ** 2, "failures": []}
        count += 1
    assert count == 217


def _stray_lam_on_z8(monkeypatch):
    # the stand-in for lam((0,)) of test_conjugation_report_permutation_failures
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    ctx._lambda_cache[(0,)] = (0, 1, 4, 3, 2, 5, 6, 7)
    return ctx, {}


def _stray_generator_on_z9(monkeypatch):
    # the stand-in x -> 2 + 4x for the one circle generator's lam((1,)), of
    # test_conjugation_report_scans_every_gamma_for_a_stray_table
    ctx = Context(cyclic_structure(3, 2, 1))
    ctx._lambda_cache[(1,)] = tuple((2 + 4 * x) % 9 for x in range(9))
    return ctx, {}


def _non_regular_generator_on_z8(monkeypatch):
    # of test_conjugation_report_checks_a_non_regular_generator_table
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    ctx._lambda_cache[(1,)] = (1, 2, 5, 4, 3, 6, 7, 0)
    return ctx, {}


def _identity_everywhere_on_z8(monkeypatch):
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    for gamma in ctx.elements:
        ctx._lambda_cache[gamma] = tuple(range(8))
    return ctx, {}


def _transposition_everywhere_on_z4(monkeypatch):
    # of test_conjugation_report_counts_the_images_of_0_for_regularity
    ctx = Context(trivial_structure(GroupSpec(2, (2,))))
    for gamma in ctx.elements[1:]:
        ctx._lambda_cache[gamma] = (0, 2, 1, 3)
    return ctx, {}


def _generators_that_do_not_commute_on_c2c2(monkeypatch):
    # of test_conjugation_report_checks_the_circle_generators_commute
    ctx = Context(trivial_structure(GroupSpec(2, (1, 1))))
    ctx._lambda_cache[(0, 1)] = (1, 0, 2, 3)
    ctx._lambda_cache[(1, 0)] = (2, 1, 3, 0)
    return ctx, {}


def _plant_inverse(monkeypatch, change, stand_in):
    """On primitive(3, 2), holomorph.inverse with `change` applied to the
    inverse of tau((1, 0)), as in test_correspondence; the oracle gets
    `stand_in` applied to the true inverse, as a dict."""
    inverse = holomorph.inverse
    monkeypatch.setattr(holomorph, "inverse",
                        lambda f: change(inverse(f)) if f.a == (1, 0) else inverse(f))
    A = primitive_structure(3, 2)
    beta = circle_translation(A, (1, 0))
    return Context(A), {"inverses": {(1, 0): stand_in(A.spec, {y: x for x, y in beta.items()})}}


def _inverse_without_its_matrix(monkeypatch):
    return _plant_inverse(
        monkeypatch,
        lambda inv: holomorph.AffineMap(inv.spec, inv.a, tuple(inv.spec.basis())),
        lambda spec, inv: {x: add(spec, inv[spec.zero()], x) for x in inv})


def _inverse_shifted(monkeypatch):
    return _plant_inverse(
        monkeypatch,
        lambda inv: holomorph.AffineMap(inv.spec, add(inv.spec, inv.a, (0, 1)), inv.m),
        lambda spec, inv: {x: add(spec, y, (0, 1)) for x, y in inv.items()})


def _planted_row(n):
    def plant(monkeypatch):
        # one ok flag of a circle generator's row set false, as in
        # test_conjugation_report_reads_the_row_checks
        ctx = Context(primitive_structure(3, 2))
        hs, oks = ctx.conjugation_row(n)
        ctx._rows[n] = (hs, oks[:5] + (False,) + oks[6:])
        return ctx, {"marked": {(ctx.elements[n], ctx.elements[5])}}
    return plant


@pytest.mark.parametrize("plant", [
    _stray_lam_on_z8, _stray_generator_on_z9, _inverse_without_its_matrix, _inverse_shifted,
    _planted_row(1), _planted_row(3), _non_regular_generator_on_z8, _identity_everywhere_on_z8,
    _transposition_everywhere_on_z4, _generators_that_do_not_commute_on_c2c2])
def test_conjugation_report_matches_the_per_pair_oracle_on_planted_failures(monkeypatch, plant):
    # the oracle conjugates by the lam tables the report ended with, planted
    # or completed from circle products, and is given the other stand-ins as they were
    # planted; the failure lists must be equal, in order
    ctx, stand_ins = plant(monkeypatch)
    report = holomorph_conjugation_report(ctx)
    elems = ctx.elements
    lams = {gamma: {x: elems[i] for x, i in zip(elems, lam)}
            for gamma, lam in ctx._lambda_cache.items()}
    assert report["failures"]
    assert report == conjugation_report(ctx.ring, lams=lams, **stand_ins)


def per_g_invariant_maps(ctx):
    """Each circle generator's map g -> h - g off its conjugation row, built
    g by g through the element API, None where the conjugate is no
    translation."""
    spec, elems, index = ctx.spec, ctx.elements, ctx.index
    maps = []
    for hs, oks in map(ctx.conjugation_row, ctx.circle_generators):
        maps.append(tuple(index[add(spec, elems[h], scalar_mul(spec, -1, g))] if ok else None
                          for g, h, ok in zip(elems, hs, oks)))
    return maps


@pytest.fixture
def walked(monkeypatch):
    """The maps each `abelian._walk_subgroups` call is given, in call order."""
    calls = []
    walk = abelian._walk_subgroups

    def recorded(spec, maps=()):
        calls.append(list(maps))
        return walk(spec, maps)

    monkeypatch.setattr(abelian, "_walk_subgroups", recorded)
    return calls


def test_invariant_maps_match_the_per_g_maps_on_the_catalogue(walked):
    # every row of a valid structure passes, so each map is one linear table
    count = 0
    for A in catalogue_structures():
        ctx = Context(A)
        walked.clear()
        invariant_subgroups(ctx)
        assert walked == [per_g_invariant_maps(ctx)]
        assert None not in itertools.chain(*walked[0])
        count += 1
    assert count == 217


@pytest.mark.parametrize("gamma, planted", PLANTED)
def test_invariant_maps_match_the_per_g_maps_on_planted_translations(walked, gamma, planted):
    # the planted lam((1,)) is a circle generator's, and its row falls back to
    # the test of every g: the map is built g by g, None where it fails
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    ctx._lambda_cache[gamma] = planted
    invariant_subgroups(ctx)
    assert walked == [per_g_invariant_maps(ctx)]
    fails = gamma in map(ctx.elements.__getitem__, ctx.circle_generators)
    assert (None in walked[0][0]) is fails
    if fails:
        assert walked[0][0][ctx.index[(4,)]] is None


def test_tau_unchecked_matches_tau_on_the_catalogue():
    # the unchecked _tau that the package's loops call builds tau's map, and
    # the map sends each x to g o x
    count = 0
    for A in catalogue_structures():
        elems = A.spec.elements()
        for g in elems:
            f = holomorph._tau(A, g)
            assert f == holomorph.tau(A, g)
            assert tuple(map(f.apply, elems)) == tuple(circle(A, g, x) for x in elems)
        count += 1
    assert count == 217


def test_round_trip_tabulates_no_map(monkeypatch):
    # ring -> regular subgroup -> ring runs on the (a, m) pairs: no additive
    # translation and no linear table, where tabulating each member took |G|
    # of each, and no member of T keeps a table
    calls = []
    for name in ("_translation_perm", "_linear_table"):
        original = getattr(abelian, name)
        monkeypatch.setattr(abelian, name,
                            lambda *args, name=name, f=original: calls.append(name) or f(*args))
    rings = {}
    for A in catalogue_structures():
        if A.spec.exponents in ((2, 2), (3,)) and not A.is_trivial():
            rings.setdefault(A.spec.exponents, A)
    assert len(rings) == 2
    for A in rings.values():
        T = holomorph.regular_subgroup_from_ring(A)
        assert holomorph.ring_from_regular_subgroup(T) == A
        assert calls == []
        assert not any("linear_table" in vars(f) for f in T.elements)


def test_way_back_tests_abelian_by_tau_alone(monkeypatch):
    # on a C4 x C4 ring (k = 2): the k members t_{b_i} commute, 2 compositions,
    # and each of the |G| = 16 members is tau(g), built with no ring product;
    # the greedy closure of is_abelian made about 2 |G| compositions
    A = next(A for A in catalogue_structures() if A.spec.exponents == (2, 2) and not A.is_trivial())
    T = holomorph.regular_subgroup_from_ring(A)
    calls = {}
    for owner, name in ((holomorph, "is_abelian"), (holomorph, "compose"), (holomorph, "_tau"),
                        (nilring, "_mul")):
        calls[name] = 0
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    assert holomorph.ring_from_regular_subgroup(T) == A
    assert calls == {"is_abelian": 0, "compose": 2, "_tau": 16, "_mul": 0}


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_invariant_subgroups_match_brute_force(spec):
    for A in enumerate_structures(spec):
        subs = invariant_subgroups(Context(A))
        assert len(subs) == len(brute_force_invariant_subgroups(A))
        assert {frozenset(s.elements) for s in subs} == brute_force_invariant_subgroups(A)


def test_fixture_invariant_subgroups_match_brute_force():
    ctx = klein_four_fixture()
    subs = invariant_subgroups(ctx)
    assert {frozenset(s.elements) for s in subs} == brute_force_invariant_subgroups(ctx.ring)
    assert len(subs) == 3


@pytest.mark.parametrize(
    "spec",
    ORACLE_SPECS + [GroupSpec(2, (2, 1)), GroupSpec(2, (1, 1, 1)), GroupSpec(2, (2, 2))],
    ids=str,
)
def test_invariant_subgroups_match_full_table(spec):
    for A in enumerate_structures(spec):
        assert invariant_subgroups(Context(A)) == full_table_invariant_subgroups(A)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_ideals_match_brute_force(spec):
    for A in enumerate_structures(spec):
        assert {frozenset(s.elements) for s in ideals(Context(A))} == brute_force_ideals(A)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_walk_tables_match_the_element_api(spec, monkeypatch):
    # the ideal side's product maps, one per ring generator, and the walk's
    # p-th multiples, index tables decoded to elements, against one checked
    # kernel call per element.  Only a non-elementary group tabulates x -> px
    elems = spec.elements()
    for A in enumerate_structures(spec):
        ctx = Context(A)
        tables = _generator_products(ctx)
        gens = _ring_generators(A)
        assert len(tables) == len(gens) <= spec.rank
        for i, table in zip(gens, tables):
            b = spec.basis()[i]
            assert tuple(map(elems.__getitem__, table)) == tuple(mul(A, b, g) for g in elems)
    built = []
    linear_table = abelian._linear_table

    def recorded(*args):
        built.append(linear_table(*args))
        return built[-1]

    monkeypatch.setattr(abelian, "_linear_table", recorded)
    abelian.walk_subgroups(spec)
    assert len(built) == (max(spec.exponents) > 1)
    for table in built:
        assert tuple(map(elems.__getitem__, table)) == tuple(scalar_mul(spec, spec.p, g) for g in elems)


def ideals_from_every_product(A):
    """The ideals as the subgroups stable under x -> b_i x for all k
    generators b_i, each tabulated by `abelian._linear_table`."""
    return walk_subgroups(A.spec, [abelian._linear_table(A.spec, tuple(zip(*row)))
                                   for row in A.constants])


CATALOGUE_SPECS = [GroupSpec(group["p"], tuple(group["exponents"]))
                   for group in json.loads(CATALOGUE.read_text())["groups"]]
RING_FAMILIES = {
    **{f"primitive({p}, {n})": partial(primitive_structure, p, n)
       for p, top in ((2, 8), (3, 5), (5, 4)) for n in range(1, top + 1)},
    **{f"cyclic(3, 3, {d})": partial(cyclic_structure, 3, 3, d) for d in range(9)},
}


def test_ring_generator_ideals_match_every_product_on_the_catalogue_groups():
    count = 0
    for spec in CATALOGUE_SPECS:
        for A in enumerate_structures(spec):
            assert ideals(Context(A)) == ideals_from_every_product(A), A
            count += 1
    assert (len(CATALOGUE_SPECS), count) == (12, 217)


@pytest.mark.parametrize("make", RING_FAMILIES.values(), ids=RING_FAMILIES)
def test_ring_generator_ideals_match_every_product_on_the_families(make):
    A = make()
    assert ideals(Context(A)) == ideals_from_every_product(A)


def test_ring_generators_skip_a_zero_row_and_are_all_needed():
    # primitive(2, 2) + C2 on C2^3: b0^2 = b1, and b2 A = 0 with b2 outside
    # A^2 + 2A, so b2 is in the generating set S = {b0, b2}, but its zero
    # row is not tabulated: every subgroup is stable under x -> b2 x = 0
    zero_row = ((0, 0, 0),) * 3
    A = make_structure(GroupSpec(2, (1, 1, 1)), (((0, 1, 0), (0, 0, 0), (0, 0, 0)), zero_row, zero_row))
    assert _ring_generators(A) == [0]
    assert ideals(Context(A)) == ideals_from_every_product(A)
    # negative control on C4 x C4, b0^2 = b1^2 = 2 b0: S = {b0, b1}, and the
    # walk on b0's products alone keeps <b1>, which b1 * b1 = 2 b0 leaves
    A = make_structure(GroupSpec(2, (2, 2)), (((2, 0), (0, 0)), ((0, 0), (2, 0))))
    assert _ring_generators(A) == [0, 1]
    fewer = walk_subgroups(A.spec, _generator_products(Context(A))[:-1])
    assert fewer != ideals(Context(A)) == ideals_from_every_product(A)
    assert ((0, 0), (0, 1), (0, 2), (0, 3)) in [s.elements for s in fewer]


C4C2 = GroupSpec(2, (2, 1))


@pytest.mark.parametrize("matrix, image, stable_count", [
    # x -> 2x: every subgroup is stable
    ([[2, 0], [0, 2]], lambda g: scalar_mul(C4C2, 2, g), 8),
    # (a, b) -> (2b, a): nilpotent, and not every subgroup is stable
    ([[0, 2], [1, 0]], lambda g: add(C4C2, scalar_mul(C4C2, g[0], (0, 1)),
                                     scalar_mul(C4C2, g[1], (2, 0))), 4),
], ids=["double", "shift"])
def test_walk_takes_the_index_table_of_a_nilpotent_endomorphism(matrix, image, stable_count):
    # nilpotent endomorphisms of C4 x C2 that are no products of a ring: the
    # walk on the index table keeps exactly the subgroups that the element
    # API shows the map sends into themselves
    table = abelian._linear_table(C4C2, matrix)
    assert table == tuple(C4C2.element_index[image(g)] for g in C4C2.elements())
    stable = [sub for sub in walk_subgroups(C4C2)
              if all(image(g) in sub.elements for g in sub.elements)]
    assert abelian.walk_subgroups(C4C2, [table]) == stable
    assert len(stable) == stable_count


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_circle_subgroup_count_matches_brute_force(spec):
    for A in enumerate_structures(spec):
        assert circle_subgroup_count(Context(A)) == brute_force_circle_subgroup_count(A)


def test_circle_subgroup_count_matches_the_oracle_on_the_catalogue():
    # the closed form on the circle type, against the subgroups of (G, o)
    # grown coset by coset; most catalogue circle groups are not elementary
    counts = [(circle_subgroup_count(Context(A)), len(circle_subgroups(A)))
              for A in catalogue_structures()]
    assert len(counts) == 217
    assert all(formula == oracle for formula, oracle in counts)


def test_ideals_reject_invalid_structure():
    # z*z = z on C2 is not nilpotent; the lattice walk would be incomplete,
    # and (G, o) is no group: 1 o 1 = 1
    A = make_structure(GroupSpec(2, (1,)), (((1,),),))
    with pytest.raises(InputError):
        ideals(Context(A))
    with pytest.raises(InputError):
        Context(A).circle_type


@pytest.mark.parametrize("spec", ORACLE_SPECS + [GroupSpec(2, (2, 1))], ids=str)
def test_circle_type_matches_full_table(spec):
    elems = list(spec.elements())
    for A in enumerate_structures(spec):
        expected = isomorphism_type(elems, partial(circle, A))
        assert Context(A).circle_type == tuple(expected)


def circle_type_from_omega(A):
    """Invariants of (G, o) from the number of solutions of x^(p^k) = e,
    without the table checks of `isomorphism_type`."""
    elems = list(A.spec.elements())
    return tuple(omega_type(elems, partial(circle, A), A.spec.zero(), A.spec.p))


@pytest.mark.parametrize("spec", ORACLE_SPECS + [GroupSpec(2, (2, 1))], ids=str)
def test_circle_type_matches_omega_counts(spec):
    for A in enumerate_structures(spec):
        assert Context(A).circle_type == circle_type_from_omega(A)


def test_circle_type_matches_omega_counts_on_the_catalogue():
    # the circle generators are often more than the rank of (G, o), and most
    # catalogue circle groups are not elementary
    types = [(Context(A).circle_type, circle_type_from_omega(A)) for A in catalogue_structures()]
    assert len(types) == 217
    assert all(read == oracle for read, oracle in types)


def test_circle_type_needs_at_most_p_times_order_products(monkeypatch):
    # the circle type runs on the unchecked circle product, nilring._circle
    calls = []
    circle_product = nilring._circle

    def counted(A, a, b):
        calls.append(None)
        return circle_product(A, a, b)

    monkeypatch.setattr(nilring, "_circle", counted)
    assert Context(primitive_structure(5, 4)).circle_type == (1, 1, 1, 1)
    assert 0 < len(calls) <= 5 * 625


@pytest.mark.parametrize(
    "spec,count",
    [
        (GroupSpec(2, (2, 2)), 15),
        (GroupSpec(2, (1, 1, 1, 1)), 67),
        (GroupSpec(3, (2, 1)), 10),
        (GroupSpec(3, (1, 1, 1)), 28),
        (GroupSpec(2, (3, 2, 1)), 81),
    ],
    ids=str,
)
def test_subgroup_count_matches_birkhoff(spec, count):
    assert subgroup_count(spec.p, spec.exponents) == count
    assert len(walk_subgroups(spec)) == count


def types_of(n, largest=None):
    """Every type (partition) of n, parts nonincreasing and at most `largest`."""
    if n == 0:
        yield ()
    for first in range(min(n, largest or n), 0, -1):
        for rest in types_of(n - first, first):
            yield (first,) + rest


def test_subgroup_count_matches_the_walk_on_every_small_type():
    # every type of order at most 2^6, 3^4 and 5^3
    types = [(p, lam) for p, top in ((2, 6), (3, 4), (5, 3))
             for n in range(1, top + 1) for lam in types_of(n)]
    assert len(types) == 46
    for p, lam in types:
        assert subgroup_count(p, lam) == len(walk_subgroups(GroupSpec(p, lam))), (p, lam)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subgroup_count_of_an_elementary_type_is_gaussian(p):
    for n in range(1, 5):
        assert subgroup_count(p, (1,) * n) == gaussian_subspace_count(p, n) + 1


ORACLE_IMPORTS = {"GroupSpec", "AffineMap", "compose", "add", "mul", "circle", "InputError"}


def test_oracles_import_only_the_element_api():
    # an oracle that called the walk, a subgroup-count formula or Context (and
    # its circle type) would agree with the code it checks even where that
    # code is wrong
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "hopfgal" for a in node.names)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hopfgal":
            names = {a.name for a in node.names}
            assert not names & {"walk_subgroups", "subgroup_count",
                                "circle_subgroup_count", "Context"}, names
            assert not any(n.startswith("_") for n in names), names
            assert names <= ORACLE_IMPORTS, names
