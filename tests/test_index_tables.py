"""The coordinate-wise index tables of `abelian` against element-wise scans
written here: additive translations, and matrices through `AffineMap`."""

import itertools
import random

import pytest

from hopfgal import abelian, holomorph
from hopfgal.abelian import GroupSpec, add
from hopfgal.errors import InputError
from hopfgal.holomorph import AffineMap, inverse, is_invertible

CATALOGUE_GROUPS = (
    (2, (1, 1)), (2, (2,)), (2, (3,)), (3, (2,)), (3, (1, 1)), (2, (2, 1)),
    (2, (4,)), (5, (2,)), (3, (3,)), (2, (3, 1)), (5, (1, 1)), (2, (2, 2)),
)
# the groups of the certify catalogue (C5 x C5 among them), and C3^3
TABLE_SPECS = [GroupSpec(p, e) for p, e in CATALOGUE_GROUPS] + [GroupSpec(3, (1, 1, 1))]


def points(spec):
    """The elements in lexicographic coordinate order, with their indices."""
    elems = list(itertools.product(*(range(spec.p**e) for e in spec.exponents)))
    return elems, {x: n for n, x in enumerate(elems)}


def well_defined_entries(spec):
    """Per entry (i, j), every c with p^{e_j} c = 0 mod p^{e_i}."""
    mods = [spec.p**e for e in spec.exponents]
    return [[c for c in range(mi) if mj * c % mi == 0] for mi in mods for mj in mods]


def matrices(spec, count=None, seed=0):
    """All well-defined matrices, or `count` of them drawn with a fixed seed."""
    k, entries = len(spec.exponents), well_defined_entries(spec)
    if count is None:
        flats = itertools.product(*entries)
    else:
        rng = random.Random(seed)
        flats = ([rng.choice(e) for e in entries] for _ in range(count))
    for flat in flats:
        yield tuple(tuple(flat[i * k:(i + 1) * k]) for i in range(k))


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_translation_perm_matches_element_scan(spec):
    elems, index = points(spec)
    for g in elems:
        assert abelian._translation_perm(spec, g) == tuple(index[add(spec, g, x)] for x in elems)


def _check_linear_table(spec, m):
    elems, index = points(spec)
    f = AffineMap(spec, spec.zero(), m)
    scan = tuple(index[f.apply(x)] for x in elems)
    assert abelian._linear_table(spec, m) == f.linear_table == scan
    assert is_invertible(f) is (len({f.apply(x) for x in elems}) == len(elems))
    return f


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_linear_table_matches_element_scan(spec):
    for m in matrices(spec, count=40):
        _check_linear_table(spec, m)


@pytest.mark.parametrize("spec", [GroupSpec(2, (2, 1)), GroupSpec(2, (1, 1, 1))], ids=str)
def test_every_matrix_matches_element_scan(spec):
    elems, _ = points(spec)
    invertible = 0
    for m in matrices(spec):
        f = _check_linear_table(spec, m)
        if is_invertible(f):
            invertible += 1
            g = AffineMap(spec, elems[-1], m)
            assert all(inverse(g).apply(g.apply(x)) == x for x in elems)
        else:
            with pytest.raises(InputError):
                inverse(f)
    assert invertible == holomorph.automorphism_count(spec)
