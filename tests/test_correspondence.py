import contextlib
import io
import itertools
import json
import tracemalloc
from functools import partial

import pytest

from hopfgal import abelian, cli, correspondence, holomorph, nilring
from hopfgal.abelian import GroupSpec, add, walk_subgroups
from hopfgal.correspondence import (
    Context,
    circle_subgroup_count,
    gaussian_subspace_count,
    holomorph_conjugation_report,
    ideals,
    invariant_subgroups,
    klein_four_fixture,
    lattice_report,
    perm_compose,
)
from hopfgal.errors import CapExceeded
from hopfgal.nilring import (
    cyclic_structure,
    enumerate_structures,
    make_structure,
    primitive_structure,
    trivial_structure,
)

C2C2 = GroupSpec(2, (1, 1))
Z4 = GroupSpec(2, (2,))
Z9 = GroupSpec(3, (2,))

SCAN_SPECS = [C2C2, Z4, GroupSpec(3, (1, 1)), GroupSpec(2, (3,)), Z9]


def test_fixture_circle_translation_perm():
    ctx = klein_four_fixture()
    lam = ctx.circle_translation_perm((1,))
    # delta -> 1 + delta + 2*delta on Z/4: 0->1, 1->0, 2->3, 3->2
    images = [ctx.elements[lam[ctx.index[(d,)]]] for d in range(4)]
    assert images == [(1,), (0,), (3,), (2,)]


def test_identity_permutations():
    ctx = klein_four_fixture()
    ident = tuple(range(4))
    assert ctx.circle_translation_perm((0,)) == ident
    assert ctx.additive_translation_perm((0,)) == ident


def test_trivial_structure_representations_coincide():
    ctx = Context(trivial_structure(C2C2))
    for g in ctx.elements:
        assert ctx.circle_translation_perm(g) == ctx.additive_translation_perm(g)


def test_additive_translations_form_a_homomorphism():
    ctx = Context(primitive_structure(3, 2))
    for g in ctx.elements:
        for h in ctx.elements:
            assert ctx.additive_translation_perm(
                add(ctx.spec, g, h)
            ) == perm_compose(
                ctx.additive_translation_perm(g), ctx.additive_translation_perm(h)
            )


def test_perm_helpers():
    f, f_inv = (1, 2, 0), (2, 0, 1)
    assert perm_compose(f, f_inv) == perm_compose(f_inv, f) == (0, 1, 2)
    assert perm_compose(f, f) == (2, 0, 1)


def test_conjugated_translation_examples():
    # gamma's conjugation row holds, at g, the h with lam(gamma) alpha(g)
    # lam(gamma)^{-1} = alpha(h): g itself when all products are zero
    ctx = Context(trivial_structure(C2C2))
    assert all(ctx.conjugation_row(n) == (tuple(range(4)), (True,) * 4) for n in range(4))
    ctx = Context(primitive_structure(2, 2))
    hs, oks = ctx.conjugation_row(ctx.index[(1, 0)])
    assert all(oks) and ctx.elements[hs[ctx.index[(1, 0)]]] == (1, 1)
    ctx = Context(cyclic_structure(3, 2, 1))
    hs, oks = ctx.conjugation_row(ctx.index[(1,)])
    assert all(oks) and ctx.elements[hs[ctx.index[(1,)]]] == (4,)


def test_conjugated_translation_rejects_non_translation():
    # a stand-in for lam((0,)) on Z/8 that fixes 0 and 1 and swaps 2 and 4:
    # conjugating translation by 1 sends 0 to 1, the closed form's h, but
    # sends 1 to 4, so the conjugate is no translation
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    ctx._lambda_cache[(0,)] = (0, 1, 4, 3, 2, 5, 6, 7)
    hs, oks = ctx.conjugation_row(0)
    assert hs[1] == correspondence._closed_form_table(ctx, (0,))[1] == 1
    assert not oks[1]


@pytest.mark.parametrize("spec", SCAN_SPECS)
def test_conjugated_translation_exhaustive(spec):
    # per gamma, the permutation path's h row is the closed form's, and
    # every conjugate is a translation
    for A in enumerate_structures(spec):
        ctx = Context(A)
        for n, gamma in enumerate(ctx.elements):
            hs, oks = ctx.conjugation_row(n)
            assert all(oks)
            assert hs == correspondence._closed_form_table(ctx, gamma)


def test_conjugation_report_fixture():
    report = holomorph_conjugation_report(klein_four_fixture())
    assert report["pairs_checked"] == 16
    assert report["failures"] == []


def test_conjugation_report_primitive():
    report = holomorph_conjugation_report(Context(primitive_structure(3, 2)))
    assert report["pairs_checked"] == 81
    assert report["failures"] == []


PERM_REASON = "conjugation of an additive translation is not the predicted translation"


def test_conjugation_report_permutation_failures():
    # the stand-in lam((0,)) of the test above: every conjugate of alpha(g),
    # g != 0, by it fails on the permutation side
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    ctx._lambda_cache[(0,)] = (0, 1, 4, 3, 2, 5, 6, 7)
    report = holomorph_conjugation_report(ctx)
    assert report["pairs_checked"] == 64
    assert report["failures"] == [
        {"gamma": [0], "g": [g], "reason": PERM_REASON} for g in range(1, 8)
    ]
    # the invariant side conjugates by the circle generators only, here (1,);
    # with the images of 2 and 4 under lam((1,)) swapped, the conjugate of
    # alpha(4) sends 0 to 4 but is no translation, so only the zero subgroup
    # is invariant (taken as alpha(4), it would leave {0, 4} invariant)
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    assert ctx.circle_generators == (1,)
    ctx._lambda_cache[(1,)] = (1, 2, 5, 4, 3, 6, 7, 0)
    assert [s.elements for s in invariant_subgroups(ctx)] == [((0,),)]


NOT_AT_0 = "lam(gamma) does not send 0 to gamma"


def test_conjugation_report_checks_a_non_regular_generator_table():
    # the non-regular stand-in for lam((1,)) above makes (1,) and (3,) the
    # circle generators; it sends 0 to its gamma, and its row fails at 7 g.
    # Every other lam is built from circle products and passes
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    ctx._lambda_cache[(1,)] = (1, 2, 5, 4, 3, 6, 7, 0)
    failures = holomorph_conjugation_report(ctx)["failures"]
    assert ctx.circle_generators == (1, 3)
    assert failures == [{"gamma": [1], "g": [g], "reason": PERM_REASON} for g in range(1, 8)]
    # with the identity planted for every gamma, lam(gamma) sends 0 to 0, not
    # to gamma, for each gamma != 0: one record per g at each
    ctx = Context(trivial_structure(GroupSpec(2, (3,))))
    for gamma in ctx.elements:
        ctx._lambda_cache[gamma] = tuple(range(8))
    assert holomorph_conjugation_report(ctx)["failures"] == [
        {"gamma": [gamma], "g": [g], "reason": NOT_AT_0} for gamma in range(1, 8) for g in range(8)]


def test_conjugation_report_counts_the_images_of_0_for_regularity():
    # on Z/4, the transposition of 1 and 2 planted as lam for every gamma != 0:
    # it fixes 0, so each of the three gamma has one record per g
    ctx = Context(trivial_structure(Z4))
    for gamma in ctx.elements[1:]:
        ctx._lambda_cache[gamma] = (0, 2, 1, 3)
    assert holomorph_conjugation_report(ctx)["failures"] == [
        {"gamma": [gamma], "g": [g], "reason": NOT_AT_0} for gamma in (1, 2, 3) for g in range(4)]


def test_conjugation_report_scans_every_gamma_for_a_stray_table():
    # on Z/9 with r * s = 3rs, lam(gamma) is x -> gamma + (1 + 3 gamma) x;
    # a stand-in x -> 2 + 4x for lam((1,)), the one circle generator's, has
    # the right linear part but 2 at 0.  Its own three rows agree (each
    # conjugates alpha(g) to alpha(4g)), but it sends 0 to 2, not to its own
    # gamma, so the report scans every gamma: the stand-in fails at every g,
    # and every other lam, built from circle products, passes
    ctx = Context(cyclic_structure(3, 2, 1))
    ctx._lambda_cache[(1,)] = tuple((2 + 4 * x) % 9 for x in range(9))
    assert ctx.circle_generators == (1,)
    report = holomorph_conjugation_report(ctx)
    assert ctx._lambda_cache[(1,)] == tuple((2 + 4 * x) % 9 for x in range(9))
    assert len(ctx._lambda_cache) == 9
    assert report["failures"] == [{"gamma": [1], "g": [g], "reason": NOT_AT_0}
                                  for g in range(9)]


def test_passing_conjugation_report_holds_the_circle_generators_tables_only():
    # a passing report reads the r = 2 generators' own tables and builds no
    # lam for the other 14 gamma
    ctx = _c4c4_context()
    assert holomorph_conjugation_report(ctx)["failures"] == []
    assert list(ctx._lambda_cache) == [ctx.elements[n] for n in ctx.circle_generators]
    assert len(ctx._lambda_cache) == 2


def test_conjugation_report_scans_every_gamma_when_another_table_is_held():
    # a true lam cached for a gamma that is no circle generator takes the
    # full path: the scan completes every lam table, and nothing fails
    ctx = _c4c4_context()
    gamma = (1, 1)
    assert ctx.index[gamma] not in ctx.circle_generators
    ctx.conjugation_row(ctx.index[gamma])
    assert holomorph_conjugation_report(ctx)["failures"] == []
    assert len(ctx._lambda_cache) == ctx.spec.order


def test_conjugation_report_scans_every_gamma_for_a_table_held_before_the_generators():
    # on a fresh Context, a true lam held for (1, 1), no circle generator,
    # before any generator's table is complete: the report completes the
    # generators' tables first and then sees the third table
    ctx = _c4c4_context()
    gamma = (1, 1)
    ctx.circle_translation_perm(gamma)
    assert list(ctx._lambda_cache) == [gamma]
    assert ctx.index[gamma] not in ctx.circle_generators
    assert holomorph_conjugation_report(ctx)["failures"] == []
    assert len(ctx._lambda_cache) == ctx.spec.order


def test_conjugation_report_checks_the_circle_generators_commute():
    # on C2 x C2, the transposition (0 1) and the 3-cycle (0 2 3) as lam of
    # the circle generators (0, 1) and (1, 0); their two products send 0 to
    # 2 and to 1, so they do not commute.  Each sends 0 to its gamma, and
    # each fails at the g whose conjugate it does not make the predicted
    # translation
    ctx = Context(trivial_structure(GroupSpec(2, (1, 1))))
    ctx._lambda_cache[(0, 1)] = (1, 0, 2, 3)
    ctx._lambda_cache[(1, 0)] = (2, 1, 3, 0)
    assert perm_compose(ctx._lambda_cache[(0, 1)], ctx._lambda_cache[(1, 0)])[0] == 2
    assert perm_compose(ctx._lambda_cache[(1, 0)], ctx._lambda_cache[(0, 1)])[0] == 1
    failures = holomorph_conjugation_report(ctx)["failures"]
    assert ctx.circle_generators == (1, 2)
    assert failures == [{"gamma": list(gamma), "g": list(g), "reason": PERM_REASON}
                        for gamma, g in [((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (0, 1)),
                                         ((1, 0), (1, 0)), ((1, 0), (1, 1))]]


def _patch_inverse(monkeypatch, change):
    """holomorph.inverse, with `change` applied to the inverse of tau((1, 0))."""
    inverse = holomorph.inverse

    def patched(f):
        inv = inverse(f)
        return change(inv) if f.a == (1, 0) else inv

    monkeypatch.setattr(holomorph, "inverse", patched)


def test_conjugation_report_holomorph_not_a_translation(monkeypatch):
    # tau((1, 0)) on primitive(3, 2) is not linear-trivial, so an inverse
    # with the identity matrix leaves every conjugate a non-translation
    _patch_inverse(monkeypatch, lambda inv: holomorph.AffineMap(
        inv.spec, inv.a, tuple(inv.spec.basis())))
    report = holomorph_conjugation_report(Context(primitive_structure(3, 2)))
    assert report["pairs_checked"] == 81
    assert report["failures"] == [
        {"gamma": [1, 0], "g": [a, b], "reason": "holomorph conjugate is not a translation"}
        for a in range(3) for b in range(3)
    ]


def test_conjugation_report_holomorph_and_permutation_differ(monkeypatch):
    # the right matrix but the translation part shifted by (0, 1)
    _patch_inverse(monkeypatch, lambda inv: holomorph.AffineMap(
        inv.spec, add(inv.spec, inv.a, (0, 1)), inv.m))
    report = holomorph_conjugation_report(Context(primitive_structure(3, 2)))
    assert report["pairs_checked"] == 81
    h = [((0, 1), (0, 0)), ((0, 2), (0, 1)), ((0, 0), (0, 2)),
         ((1, 2), (1, 1)), ((1, 0), (1, 2)), ((1, 1), (1, 0)),
         ((2, 0), (2, 2)), ((2, 1), (2, 0)), ((2, 2), (2, 1))]
    assert report["failures"] == [
        {"gamma": [1, 0], "g": [a, b],
         "reason": "holomorph-level and permutation-level h differ",
         "h_holomorph": list(h_hol), "h_permutation": list(h_perm)}
        for (a, b), (h_hol, h_perm) in zip(
            [(a, b) for a in range(3) for b in range(3)], h)
    ]


def test_invariant_subgroups_examples():
    trivial_ctx = Context(trivial_structure(C2C2))
    assert len(invariant_subgroups(trivial_ctx)) == len(walk_subgroups(C2C2))
    prim_ctx = Context(primitive_structure(2, 2))
    chain = invariant_subgroups(prim_ctx)
    assert [s.size for s in chain] == [1, 2, 4]
    fixture_ctx = klein_four_fixture()
    subs = invariant_subgroups(fixture_ctx)
    assert [s.elements for s in subs] == [((0,),), ((0,), (2,)), tuple((r,) for r in range(4))]


@pytest.mark.parametrize("spec", SCAN_SPECS)
def test_lattice_report_all_structures(spec):
    for A in enumerate_structures(spec):
        report = lattice_report(Context(A))  # raises on any mismatch
        assert len(report.ideals) <= report.gamma_subgroup_count
        assert report.strong_ftgt == (
            len(report.ideals) == report.gamma_subgroup_count
        )


def test_lattice_report_primitive_chains():
    report = lattice_report(Context(primitive_structure(2, 3)))
    assert [s.size for s in report.ideals] == [1, 2, 4, 8]
    # a chain: each ideal strictly inside the next
    assert all(set(a.elements) < set(b.elements) for a, b in zip(report.ideals, report.ideals[1:]))


def test_cyclic_family_strong_everywhere():
    for n in (2, 3):
        for d in range(3 ** (n - 1)):
            A = cyclic_structure(3, n, d)
            report = lattice_report(Context(A))
            assert len(report.ideals) == n + 1
            assert report.strong_ftgt
            subs = walk_subgroups(A.spec)
            assert [s.elements for s in report.ideals] == [s.elements for s in subs]


def test_all_z9_structures_strong():
    for A in enumerate_structures(Z9):
        assert lattice_report(Context(A)).strong_ftgt


def _verify_elementary(*argv):
    """(exit code, payload or stderr) of `hopfgal verify elementary`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "elementary", *argv])
    return code, json.loads(out.getvalue()) if code == cli.EXIT_OK else err.getvalue()


def test_elementary_scan_c2c2():
    code, scan = _verify_elementary("--p", "2", "--n", "2")
    assert code == cli.EXIT_OK
    # only the trivial structure has an elementary abelian circle group
    assert scan["structures_scanned"] == 1
    assert scan["rows"][0]["trivial"] is True
    assert scan["rows"][0]["strong_ftgt"] is True


def test_elementary_scan_c3c3():
    code, scan = _verify_elementary("--p", "3", "--n", "2")
    assert code == cli.EXIT_OK
    assert scan["structures_scanned"] == 9
    nontrivial = [r for r in scan["rows"] if not r["trivial"]]
    assert len(nontrivial) == 8
    assert all(not r["strong_ftgt"] for r in nontrivial)


def test_elementary_scan_rejects_non_elementary():
    assert _verify_elementary("--p", "2", "--exp", "2") == (
        cli.EXIT_INPUT, "input error: scan requires an elementary abelian spec\n")


def test_gaussian_examples():
    assert gaussian_subspace_count(2, 1) == 1
    assert gaussian_subspace_count(2, 2) == 4
    assert gaussian_subspace_count(3, 2) == 5
    assert gaussian_subspace_count(2, 0) == 0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gaussian_matches_brute_force(p, n):
    spec = GroupSpec(p, (1,) * n)
    # brute-force count includes the zero subspace; the sum starts at r=1
    assert gaussian_subspace_count(p, n) + 1 == len(walk_subgroups(spec))


def test_fixture_report():
    ctx = klein_four_fixture()
    report = lattice_report(ctx)
    assert len(report.ideals) == 3
    assert report.gamma_subgroup_count == 5
    assert report.strong_ftgt is False
    assert report.circle_type == (1, 1)
    proper = [s for s in report.invariant_subgroups if 1 < s.size < 4]
    assert len(proper) == 1


def test_circle_subgroup_count_matches_isomorphic_additive_group():
    # circle group of the fixture is C2 x C2: 5 subgroups
    assert circle_subgroup_count(klein_four_fixture()) == 5
    assert circle_subgroup_count(Context(trivial_structure(Z9))) == 3


def test_context_cap_checked_before_validation():
    # 1*1 = 2 on C_{2^14}: |G| = 16384 is over the default cap, which must
    # fire before the structure is validated
    A = make_structure(GroupSpec(2, (14,)), (((2,),),))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            Context(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_certification_checks_elements_only_at_the_boundary(monkeypatch):
    # b0 * b0 = b1 on C4 x C4: the element kernel under Context, the lattice
    # report and the conjugation report runs unchecked, so only the public
    # entry points call check_elem, at most 3 |G|^2 = 768 times in all
    spec = GroupSpec(2, (2, 2))
    A = make_structure(spec, (((0, 1), (0, 0)), ((0, 0), (0, 0))))
    calls = []
    check_elem = GroupSpec.check_elem

    def counted(self, a):
        calls.append(None)
        return check_elem(self, a)

    monkeypatch.setattr(GroupSpec, "check_elem", counted)
    ctx = Context(A)
    report = lattice_report(ctx)
    assert not holomorph_conjugation_report(ctx)["failures"]
    assert len(report.ideals) == len(report.invariant_subgroups)
    assert 0 < len(calls) <= 3 * spec.order**2


def _c4c4_context():
    # b0 * b0 = b1 on C4 x C4
    spec = GroupSpec(2, (2, 2))
    return Context(make_structure(spec, (((0, 1), (0, 0)), ((0, 0), (0, 0)))))


def _counted(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_certification_validates_once(monkeypatch):
    # Context validates the structure; neither report validates it again
    ctx = _c4c4_context()
    calls = _counted(monkeypatch, nilring, "validate")
    lattice_report(ctx)
    assert not holomorph_conjugation_report(ctx)["failures"]
    assert calls == []


def test_ideals_tabulate_the_generator_products(monkeypatch):
    # on a built Context of primitive(5, 4): k = 4 products per generator map
    # build its matrix, at most k^2 = 16 (one per map and element: 2500)
    ctx = Context(primitive_structure(5, 4))
    muls = _counted(monkeypatch, nilring, "_mul")
    assert len(ideals(ctx)) == 5
    assert len(muls) <= 16


def _recorded_tables(monkeypatch):
    """(matrix, table) for each `abelian._linear_table` call, in call order."""
    built, linear_table = [], abelian._linear_table

    def recorded(spec, m):
        built.append((tuple(map(tuple, m)), linear_table(spec, m)))
        return built[-1][1]

    monkeypatch.setattr(abelian, "_linear_table", recorded)
    return built


def test_ideals_read_the_p_multiples_off_a_table(monkeypatch):
    # primitive(5, 4) is generated as a ring by z = b_0, and its group is
    # elementary, where px = 0 lies in every subgroup: the ideal side
    # tabulates the one product x -> z x and no p-th multiples (k + 1 = 5
    # tables when every generator's product and x -> px were tabulated), and
    # the invariant side one map g -> h - g per circle generator, r = 4 here
    ctx = Context(primitive_structure(5, 4))
    built = _recorded_tables(monkeypatch)
    assert len(ideals(ctx)) == 5
    [(_, table)] = built
    assert table == tuple(ctx.index[nilring.mul(ctx.ring, (1, 0, 0, 0), g)] for g in ctx.elements)
    assert len(invariant_subgroups(ctx)) == 5
    assert len(ctx.circle_generators) == 4
    assert len(built) == 1 + 4
    # on C4 x C4 (b0 * b0 = b1) each walk reads x -> 2x off one index table
    ctx = _c4c4_context()
    p_identity = ((2, 0), (0, 2))
    built.clear()
    assert len(ideals(ctx)) == 7
    assert [m for m, _ in built].count(p_identity) == 1 and len(built) == 1 + 1
    for m, table in built:
        image = (partial(abelian.scalar_mul, ctx.spec, 2) if m == p_identity
                 else partial(nilring.mul, ctx.ring, (1, 0)))
        assert table == tuple(ctx.index[image(g)] for g in ctx.elements)
    invariant_subgroups(ctx)
    assert [m for m, _ in built].count(p_identity) == 2


def test_the_ideal_side_tabulates_the_ring_generators_products_only(monkeypatch):
    # verify primitive reads the 14 ideals of primitive(2, 13) off one
    # table, x -> z x (14 tables when every generator's product and x -> 2x
    # were tabulated); on a trivial structure no generator is kept, as b A = 0
    # lies in every subgroup, so its ideal side tabulates nothing
    built = _recorded_tables(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "primitive", "--p", "2", "--n", "13"]) == cli.EXIT_OK
    assert len(built) == 1
    built.clear()
    assert len(ideals(Context(trivial_structure(GroupSpec(3, (1, 1)))))) == 6
    assert built == []


def test_circle_type_reads_the_lattice_walks_circle_tables(monkeypatch):
    # the invariant side tabulates lam for the r = 5 circle generators, r |G|
    # circle products, and the circle type reads those tables point by point
    # with no circle product of its own
    ctx = Context(primitive_structure(3, 5))
    circles = _counted(monkeypatch, nilring, "_circle")
    ideals(ctx)
    invariant_subgroups(ctx)
    assert len(ctx.circle_generators) == 5
    assert len(circles) == 5 * ctx.spec.order
    circles.clear()
    assert ctx.circle_type == (2, 1, 1, 1)
    assert circles == []
    assert lattice_report(ctx).circle_type == (2, 1, 1, 1)
    assert circles == []


def test_report_evaluates_the_circle_translations_point_by_point(monkeypatch):
    # report reads only the type of (G, o) = C5^4: the greedy span of the
    # r = 4 circle generators evaluates each one's lam on the span it grows,
    # 5 + 25 + 125 + 625 = 780 circle products, and the p-th powers are read
    # off those points (r full lam tables took r |G| = 2 500)
    circles = _counted(monkeypatch, nilring, "_circle")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--family", "primitive", "--p", "5", "--n", "4"]) == cli.EXIT_OK
    assert len(circles) == 5 + 25 + 125 + 625 == 780


def test_circle_type_completes_no_table(monkeypatch):
    # the circle type holds points of the generators' lam, no whole table,
    # and composes none
    for A in (primitive_structure(3, 5), cyclic_structure(3, 5, 1), _c4c4_context().ring):
        ctx = Context(A)
        perm_composes = _counted(monkeypatch, correspondence, "perm_compose")
        ctx.circle_type
        assert ctx._lambda_cache == {}
        assert perm_composes == []
        assert set(ctx._points) == {ctx.elements[n] for n in ctx.circle_generators}


def test_circle_points_are_computed_once(monkeypatch):
    # the circle type evaluates each of the r = 5 generators' lam on the span
    # it grows, 3 + 9 + 27 + 81 + 243 = 363 points; they are kept and read
    # again when the lattice and conjugation reports complete the tables:
    # r |G| circle products in all, each point once
    ctx = Context(primitive_structure(3, 5))
    circles = _counted(monkeypatch, nilring, "_circle")
    assert ctx.circle_type == (2, 1, 1, 1)
    assert len(circles) == 3 + 9 + 27 + 81 + 243 == 363
    lattice_report(ctx)
    assert not holomorph_conjugation_report(ctx)["failures"]
    assert len(ctx.circle_generators) == 5
    assert len(circles) == 5 * 243 == 1215
    assert ctx._points == {}


def test_verify_primitive_computes_no_generators(monkeypatch):
    # no command prints a subgroup's generators, so none are computed
    # (eagerly, one minimal generating list per ideal: 5)
    calls = _counted(monkeypatch, abelian, "minimal_generators")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "primitive", "--p", "5", "--n", "4"]) == cli.EXIT_OK
    assert calls == []


def test_each_pair_is_conjugated_once(monkeypatch):
    # both reports read the rows of the r = 2 circle generators only, each
    # built once and shared by the lattice and conjugation sides: one Hol(G)
    # compose per generator, and per generator one permutation compose for
    # the whole h row plus two for each of the k = 2 standard generators'
    # basis test, (2k + 1) r = 5 * 2 = 10 (a row per gamma took (2k + 1) |G|
    # = 80, and testing every pair by itself 2 |G|^2 = 512).  A passing
    # report holds no other lam(gamma), so it scans no other gamma.  The circle
    # type, C8 x C2, applies each lam point by point and composes no table
    # (by p-th powers of tables it took 5 more, 15 in all)
    ctx = _c4c4_context()
    r = len(ctx.circle_generators)
    composes = _counted(monkeypatch, holomorph, "compose")
    perm_composes = _counted(monkeypatch, correspondence, "perm_compose")
    lattice_report(ctx)
    assert not holomorph_conjugation_report(ctx)["failures"]
    assert r == 2
    assert len(composes) == r
    assert len(perm_composes) == (2 * ctx.spec.rank + 1) * r == 10


def test_conjugation_report_makes_no_product_per_pair(monkeypatch):
    # circle products only for lam of the r = 2 circle generators, |G| each;
    # one tau per circle generator, summed from the structure constants with
    # no ring product, as is the closed form (one of each per pair would be
    # |G|^2 = 256)
    ctx = _c4c4_context()
    order = ctx.spec.order
    circles = _counted(monkeypatch, nilring, "_circle")
    muls = _counted(monkeypatch, nilring, "_mul")
    taus = _counted(monkeypatch, holomorph, "_tau")
    assert not holomorph_conjugation_report(ctx)["failures"]
    assert len(ctx.circle_generators) == 2
    assert len(circles) <= order * 2
    assert len(muls) == 0
    assert len(taus) == 2


def test_closed_form_reads_neither_tau_nor_the_product(monkeypatch):
    ctx = _c4c4_context()
    expected = [tuple(ctx.index[add(ctx.spec, g, nilring.mul(ctx.ring, gamma, g))]
                      for g in ctx.elements) for gamma in ctx.elements]

    def forbidden(*args):
        raise AssertionError("the closed form called tau or _mul")

    monkeypatch.setattr(holomorph, "tau", forbidden)
    monkeypatch.setattr(nilring, "_mul", forbidden)
    assert [correspondence._closed_form_table(ctx, gamma) for gamma in ctx.elements] == expected


def test_lattice_side_conjugates_by_the_circle_generators_only(monkeypatch):
    # the invariant side reads the rows of the circle generators only, at
    # most log_3 |G| = 5 of them; each row is one permutation compose for its
    # h and two for each of the 5 standard generators of C3^5 in the basis
    # test, 11 per circle generator (the full table of 243 rows takes 2673).
    # The circle type, (2, 1, 1, 1), applies lam point by point and composes
    # no table (by p-th powers of tables it took 12 more, 67 in all)
    ctx = Context(primitive_structure(3, 5))
    perm_composes = _counted(monkeypatch, correspondence, "perm_compose")
    lattice_report(ctx)
    assert len(ctx.circle_generators) == 5
    assert len(perm_composes) == 11 * 5 == 55


def test_each_row_tabulates_at_most_2k_plus_1_translations(monkeypatch):
    # a row reads alpha(z) for its h, and alpha(b) and alpha(h_b) for each
    # standard generator b: at most 2k + 1 additive translations tabulated
    # per row, where testing every g by itself tabulated all |G|
    translations = _counted(monkeypatch, abelian, "_translation_perm")
    for A in (primitive_structure(3, 5), cyclic_structure(3, 5, 1), _c4c4_context().ring):
        ctx = Context(A)
        for n in range(0, ctx.spec.order, 7):
            translations.clear()
            ctx.conjugation_row(n)
            assert len(translations) <= 2 * ctx.spec.rank + 1
    # 81 structures on Z/243, each with one circle generator: at most 3 each
    # tabulated by the Context, counted as misses of its cache (each Context
    # tabulated all 243 translations: 19 683).  The lattice walks tabulate
    # their own tables, at most one per cover: 2 walks of 5 covers each
    misses = []
    original = Context.additive_translation_perm

    def counted(self, g):
        if g not in self._alpha_cache:
            misses.append(g)
        return original(self, g)

    monkeypatch.setattr(Context, "additive_translation_perm", counted)
    translations.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "cyclic", "--p", "3", "--n", "5", "--all-d"]) == cli.EXIT_OK
    assert 0 < len(misses) <= 3 * 81
    assert len(translations) - len(misses) <= 2 * 5 * 81


def test_the_holomorph_row_reads_the_context_translations(monkeypatch):
    # after lattice_report, the report tabulates no additive translation: it
    # builds the Hol(G) rows of the r = 2 circle generators only, and each
    # reads its translations by beta(0) = gamma and beta^{-1}(0) = z off the
    # Context, where the lattice side's rows cached them (z is the row's
    # lam^{-1}(0), and both generators here are standard generators, which
    # the basis test reads).  So the cache keeps the 5 translations those
    # two rows tabulated; a Hol(G) row per gamma made the |G| - 5 = 11 others
    ctx = _c4c4_context()
    lattice_report(ctx)
    cached = dict(ctx._alpha_cache)
    translations = _counted(monkeypatch, abelian, "_translation_perm")
    assert not holomorph_conjugation_report(ctx)["failures"]
    assert translations == []
    assert [ctx.elements[n] for n in ctx.circle_generators] == ctx.spec.basis()[::-1]
    assert ctx._alpha_cache == cached and len(cached) == 5


def test_the_invariant_side_tabulates_each_passing_row(monkeypatch):
    # both rows of the r = 2 circle generators pass their basis test, so each
    # map g -> h - g is one linear table from its k = 2 columns: 2 * 2 = 4
    # negations (one per element: 2 |G| = 32), and 5 tables in all, the
    # ideal side's product by its one ring generator b0 and p-th multiples
    # (6 when both generators' products were tabulated), and the invariant
    # side's p-th multiples and 2 maps (4 when the maps were built g by g)
    ctx = _c4c4_context()
    negations = _counted(monkeypatch, abelian, "_scalar_mul")
    tables = _counted(monkeypatch, abelian, "_linear_table")
    lattice_report(ctx)
    assert len(ctx.circle_generators) == 2
    assert (len(negations), len(tables)) == (4, 5)


def test_each_tau_counts_its_images_once(monkeypatch):
    # the image count of tau(gamma), made for its invertibility check, is
    # kept on the map and read again by the inverse: one set per circle
    # generator, r = 2 (one per gamma when the report built tau for every
    # gamma: |G| = 16; two per gamma when the inverse counted again: 32)
    ctx = _c4c4_context()
    counts = []

    def counted_set(*args):
        counts.append(None)
        return set(*args)

    monkeypatch.setattr(holomorph, "set", counted_set, raising=False)
    assert not holomorph_conjugation_report(ctx)["failures"]
    assert len(counts) == len(ctx.circle_generators) == 2


def test_each_map_is_scanned_once(monkeypatch):
    # one |G|-element linear image scan per gamma, for tau's invertibility
    # check, shared by its inverse and by every pair's beta(g + beta^{-1}(0)),
    # plus at most one more linear image per gamma
    ctx = _c4c4_context()
    order = ctx.spec.order
    scans = _counted(monkeypatch, holomorph.AffineMap, "linear_apply")
    assert not holomorph_conjugation_report(ctx)["failures"]
    assert len(scans) <= order**2 + order


def test_certification_tabulates_no_map_element_by_element(monkeypatch):
    # the conjugation report evaluates affine maps through their index tables
    # only, and the round trip runs on their matrices and evaluates none: no
    # linear_apply call, where one scan per map makes at least 2 |G|^2 = 512
    ctx = _c4c4_context()
    scans = _counted(monkeypatch, holomorph.AffineMap, "linear_apply")
    assert not holomorph_conjugation_report(ctx)["failures"]
    T = holomorph.regular_subgroup_from_ring(ctx.ring)
    assert holomorph.ring_from_regular_subgroup(T) == ctx.ring
    assert scans == []


def test_additive_translations_are_tabulated_without_the_kernel(monkeypatch):
    # |G| additive translations with no abelian._add call (|G|^2 = 256 by scan)
    ctx = _c4c4_context()
    adds = _counted(monkeypatch, abelian, "_add")
    perms = [ctx.additive_translation_perm(g) for g in ctx.elements]
    assert adds == []
    assert sorted(p[0] for p in perms) == list(range(ctx.spec.order))


def test_conjugation_report_reads_the_row_checks():
    # a circle generator's conjugation row whose h all match the closed form,
    # with one conjugate marked as no translation: the report must not pass
    # gamma as a whole.  Only the generators' rows are read when they pass,
    # so the row is planted on each generator of primitive(3, 2) in turn
    for n in (1, 3):
        ctx = Context(primitive_structure(3, 2))
        assert ctx.circle_generators == (1, 3)
        i = 5
        hs, oks = ctx.conjugation_row(n)
        ctx._rows[n] = (hs, oks[:i] + (False,) + oks[i + 1:])
        report = holomorph_conjugation_report(ctx)
        assert report["failures"] == [
            {"gamma": list(ctx.elements[n]), "g": list(ctx.elements[i]), "reason": PERM_REASON}]


def test_lattice_report_counts_elementary_circle_groups_in_closed_form(monkeypatch):
    # (G, o) is counted from its type alone: elementary abelian (1 +
    # gaussian_subspace_count), and the non-elementary (2, 1, 1, 1) and (5,).
    # The two walks are the ideal side and the invariant side; a walk under
    # the circle operation would be a third, with |G| circle products or more
    assert 1 + gaussian_subspace_count(3, 3) == 28
    walks = _counted(monkeypatch, abelian, "_walk_subgroups")
    circles = _counted(monkeypatch, nilring, "_circle")
    cases = [
        (trivial_structure(GroupSpec(3, (1, 1, 1))), (1, 1, 1), 28),
        (primitive_structure(3, 5), (2, 1, 1, 1), 396),
        (cyclic_structure(3, 5, 1), (5,), 6),
    ]
    for A, circle_type, count in cases:
        ctx = Context(A)
        walks.clear()
        report = lattice_report(ctx)
        assert report.circle_type == circle_type
        assert report.gamma_subgroup_count == count
        assert len(walks) == 2
        circles.clear()  # the circle type is cached by now
        assert circle_subgroup_count(ctx) == count
        assert circles == []
