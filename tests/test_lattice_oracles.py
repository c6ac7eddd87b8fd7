"""The lattice walk and the circle type against oracles that share no code
with them: brute force over all element subsets, Birkhoff's closed form for
subgroup counts, and the full-table type check of `isomorphism_type`."""

import itertools
from functools import partial

import pytest

from hopfgal import nilring
from hopfgal.abelian import GroupSpec, add, enumerate_subgroups, isomorphism_type
from hopfgal.correspondence import Context, circle_subgroup_count
from hopfgal.errors import InputError
from hopfgal.nilring import (
    circle,
    circle_group,
    enumerate_structures,
    ideals,
    make_structure,
    mul,
    primitive_structure,
)

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


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_ideals_match_brute_force(spec):
    for A in enumerate_structures(spec):
        assert {frozenset(s.elements) for s in ideals(A)} == brute_force_ideals(A)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_circle_subgroup_count_matches_brute_force(spec):
    for A in enumerate_structures(spec):
        assert circle_subgroup_count(Context(A)) == brute_force_circle_subgroup_count(A)


def test_ideals_reject_invalid_structure():
    # z*z = z on C2 is not nilpotent; the lattice walk would be incomplete,
    # and (G, o) is no group: 1 o 1 = 1
    A = make_structure(GroupSpec(2, (1,)), (((1,),),))
    with pytest.raises(InputError):
        ideals(A)
    with pytest.raises(InputError):
        circle_group(A)


@pytest.mark.parametrize("spec", ORACLE_SPECS + [GroupSpec(2, (2, 1))], ids=str)
def test_circle_type_matches_full_table(spec):
    elems = list(spec.elements())
    for A in enumerate_structures(spec):
        expected = isomorphism_type(elems, partial(circle, A))
        assert circle_group(A).invariants == tuple(expected)


def test_circle_type_needs_at_most_p_times_order_products(monkeypatch):
    # circle_group runs on the unchecked circle product, nilring._circle
    calls = []
    circle_product = nilring._circle

    def counted(A, a, b):
        calls.append(None)
        return circle_product(A, a, b)

    monkeypatch.setattr(nilring, "_circle", counted)
    assert circle_group(primitive_structure(5, 4)).invariants == (1, 1, 1, 1)
    assert 0 < len(calls) <= 5 * 625


def gaussian_binomial(n, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def conjugate(partition, length):
    return [sum(1 for part in partition if part > i) for i in range(length)]


def birkhoff_subgroup_count(p, lam):
    """Subgroups of the abelian p-group of type lam, summed over types mu <= lam:
    prod_i p^(mu'_{i+1} (lam'_i - mu'_i)) [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p
    (Butler, Subgroup lattices and symmetric functions, Mem. AMS 539, 1994)."""
    lc = conjugate(lam, lam[0])
    total = 0
    for mu in itertools.product(*(range(e + 1) for e in lam)):
        if list(mu) != sorted(mu, reverse=True):
            continue
        mc = conjugate(mu, lam[0] + 1)
        term = 1
        for i, l in enumerate(lc):
            term *= p ** (mc[i + 1] * (l - mc[i]))
            term *= gaussian_binomial(l - mc[i + 1], mc[i] - mc[i + 1], p)
        total += term
    return total


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
    assert birkhoff_subgroup_count(spec.p, spec.exponents) == count
    assert len(enumerate_subgroups(spec)) == count
