import hashlib
import itertools
import json

import pytest

from hopfgal import abelian, nilring
from hopfgal.abelian import (
    GroupSpec,
    Subgroup,
    add,
    additive_closure,
    is_prime,
    scalar_mul,
    walk_subgroups,
)
from hopfgal.correspondence import Context, lattice_report
from hopfgal.errors import InputError
from hopfgal.holomorph import tau, translation
from hopfgal.nilring import circle, mul, primitive_structure
from oracles import is_prime as trial_division_is_prime
from oracles import isomorphism_type

C2C2 = GroupSpec(2, (1, 1))
Z4 = GroupSpec(2, (2,))
Z9 = GroupSpec(3, (2,))

SMALL_SPECS = [
    C2C2,
    Z4,
    Z9,
    GroupSpec(2, (3,)),
    GroupSpec(2, (2, 1)),
    GroupSpec(3, (1, 1)),
    GroupSpec(2, (1, 1, 1)),
    GroupSpec(3, (3,)),
    GroupSpec(2, (2, 2)),
    GroupSpec(3, (2, 1)),
]


def brute_force_subgroups(spec):
    """Oracle: all element subsets containing 0 and closed under add."""
    elems = list(spec.elements())
    found = set()
    for r in range(1, len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            s = set(subset)
            if spec.zero() not in s:
                continue
            if all(add(spec, a, b) in s for a in s for b in s):
                found.add(frozenset(s))
    return found


def test_spec_validation():
    with pytest.raises(InputError):
        GroupSpec(4, (1,))
    with pytest.raises(InputError):
        GroupSpec(2, (1, 2))  # must be nonincreasing
    with pytest.raises(InputError):
        GroupSpec(2, ())
    with pytest.raises(InputError):
        GroupSpec(2, (1, 0))
    # orders above 2^63 - 1; a huge exponent is rejected without p**n
    with pytest.raises(InputError):
        GroupSpec(2, (63,))
    with pytest.raises(InputError):
        GroupSpec(3, (10**6,))
    assert GroupSpec(2, (62,)).order == 2**62
    # not integers: (1.5,) was cut down to C2, ("2",) read as C4, and
    # p = 2.0 raised TypeError
    for p, exponents in ((2, (1.5,)), (2, ("2",)), (2.0, (1,))):
        with pytest.raises(InputError):
            GroupSpec(p, exponents)


def test_add_examples():
    assert add(C2C2, (1, 0), (0, 1)) == (1, 1)
    assert add(Z9, (7,), (5,)) == (3,)
    for spec in (C2C2, Z4, Z9):
        for a in spec.elements():
            assert add(spec, a, spec.zero()) == a


def test_add_rejects_mismatched_elements():
    with pytest.raises(InputError):
        add(C2C2, (1,), (0, 1))
    with pytest.raises(InputError):
        add(Z4, (5,), (0,))
    # a coordinate that is no integer: add returned (2.5,) here
    with pytest.raises(InputError):
        add(Z4, (1.5,), (1,))
    # the other public element ops check their arguments the same way; on
    # (0.5, 0), the circle translation raised KeyError
    A = primitive_structure(2, 2)  # on C2 x C2
    ctx = Context(A)
    f = translation(C2C2, (1, 0))
    for bad in [(1,), (2, 0), (0, -1), (1, 0, 0), (0.5, 0)]:
        calls = [
            lambda: add(C2C2, (1, 0), bad),
            lambda: scalar_mul(C2C2, 3, bad),
            lambda: mul(A, bad, (1, 0)),
            lambda: mul(A, (1, 0), bad),
            lambda: circle(A, bad, (0, 1)),
            lambda: circle(A, (0, 1), bad),
            lambda: f.apply(bad),
            lambda: tau(A, bad),
            lambda: ctx.circle_translation_perm(bad),
            lambda: ctx.additive_translation_perm(bad),
        ]
        for call in calls:
            with pytest.raises(InputError):
                call()


@pytest.mark.parametrize("m", [1.5, 2.0, "2", None])
def test_scalar_mul_rejects_a_non_integer_multiplier(m):
    # 1.5 gave the float element (1.5, 0.0), as add did for a float coordinate
    with pytest.raises(InputError, match="not an integer"):
        scalar_mul(GroupSpec(3, (1, 1)), m, (1, 0))


def test_elements_reject_a_boolean_coordinate():
    # True passed as the coordinate 1: add gave (1, 1), the closure grew
    # {(0, 0), (True, 0)}, and 3 * True was the multiple 3
    with pytest.raises(InputError, match="not reduced"):
        add(C2C2, (True, 0), (0, 1))
    with pytest.raises(InputError, match="non-integer coordinate"):
        GroupSpec(3, (1, 1)).reduce_coords((True, 0))
    with pytest.raises(InputError, match="non-integer coordinate"):
        additive_closure(GroupSpec(3, (1, 1)), [(True, 0)])
    with pytest.raises(InputError, match="not an integer"):
        scalar_mul(GroupSpec(3, (1, 1)), True, (1, 0))
    with pytest.raises(InputError, match="must be integers"):
        GroupSpec(2, (True,))


def test_scalar_mul_examples():
    assert scalar_mul(Z4, 2, (1,)) == (2,)
    assert scalar_mul(C2C2, 2, (1, 1)) == (0, 0)
    assert scalar_mul(Z9, 3, (4,)) == (3,)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_order_of_is_a_p_power(spec):
    # the order of a, |<a>| by the closure, is the least m >= 1 with m*a = 0
    for a in spec.elements():
        o = len(additive_closure(spec, [a]))
        assert scalar_mul(spec, o, a) == spec.zero()
        assert o == 1 or scalar_mul(spec, o // spec.p, a) != spec.zero()
        while o % spec.p == 0:
            o //= spec.p
        assert o == 1


def test_subgroup_generated_examples():
    assert additive_closure(Z4, [(2,)]) == {(0,), (2,)}
    assert len(additive_closure(C2C2, [(1, 0), (0, 1)])) == 4
    assert additive_closure(Z9, [(3,)]) == {(0,), (3,), (6,)}


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_subgroup_generated_idempotent(spec):
    for g in spec.elements():
        sub = additive_closure(spec, [g])
        assert additive_closure(spec, sub) == sub


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_minimal_generators_regenerate(spec):
    for sub in walk_subgroups(spec):
        assert additive_closure(spec, sub.generators) == set(sub.elements)
        # minimality: the generator count is the rank of J/pJ
        p_mult = {scalar_mul(spec, spec.p, x) for x in sub.elements}
        quotient = len(sub.elements) // len(p_mult)
        rank = 0
        while spec.p**rank < quotient:
            rank += 1
        assert len(sub.generators) == rank


def test_minimal_generators_reruns_no_closure(monkeypatch):
    # the span starts at pJ and grows by each joining generator's cosets
    subgroups = walk_subgroups(GroupSpec(2, (2, 1, 1)))

    def closure(spec, gens):
        raise AssertionError("additive_closure called")

    monkeypatch.setattr(abelian, "additive_closure", closure)
    assert max(len(s.generators) for s in subgroups) == 3  # the rank


@pytest.mark.parametrize(
    "p,exponents,count,digest",
    [
        (2, (1,) * 6, 2825, "30d71d698b1d29ed59703993793495883e70d5f0984ccb26a5bd1e2a11dedba2"),
        (3, (1,) * 4, 212, "48425f00ad23d1f7d672fe763c638f981362ce76f0f6665acb70263bd710d31e"),
        (2, (3, 2, 1, 1), 380, "3403c4194bdd359670ffae1617954408054014d1d3b5f56087f420f559e44a07"),
    ],
)
def test_generators_of_every_subgroup_are_pinned(p, exponents, count, digest):
    # sha256 of the JSON of every subgroup, generators included: which
    # generators are chosen must not depend on how their span is grown
    subgroups = walk_subgroups(GroupSpec(p, exponents))
    text = json.dumps([s.to_json() for s in subgroups], sort_keys=True)
    assert len(subgroups) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _calls_per_walk(monkeypatch, name):
    """The argument tuples of the abelian.<name> calls made inside each
    `abelian._walk_subgroups` call (the walk that `walk_subgroups` runs after
    its map check), one list per walk."""
    walks, walk, original = [], abelian._walk_subgroups, getattr(abelian, name)

    def counted(*args):
        walks[-1].append(args)
        return original(*args)

    def counted_walk(*args):
        walks.append([])
        monkeypatch.setattr(abelian, name, counted)
        try:
            return walk(*args)
        finally:
            monkeypatch.setattr(abelian, name, original)

    monkeypatch.setattr(abelian, "_walk_subgroups", counted_walk)
    return walks


# per walk, the translation tables it builds: on C2^4 every g != 0 spans
# a cover of {0}, so all |G| - 1 = 15 are tabulated, each once
_WALKS = [
    ("C2^4", lambda: abelian.walk_subgroups(GroupSpec(2, (1,) * 4)), [15]),
    ("C5^2", lambda: abelian.walk_subgroups(GroupSpec(5, (1, 1))), [6]),
    ("primitive(3, 3)", lambda: lattice_report(Context(primitive_structure(3, 3))), [3, 3]),
]


@pytest.mark.parametrize("run,tables", [w[1:] for w in _WALKS], ids=[w[0] for w in _WALKS])
def test_the_walk_makes_no_element_addition(monkeypatch, run, tables):
    # each cover grows by cosets on a translation table; the coset step
    # that added element by element made 765 additions on C2^4
    walks = _calls_per_walk(monkeypatch, "_add")
    run()
    assert walks == [[]] * len(tables)


@pytest.mark.parametrize("run,tables", [w[1:] for w in _WALKS], ids=[w[0] for w in _WALKS])
def test_the_walk_tabulates_each_translation_once(monkeypatch, run, tables):
    walks = _calls_per_walk(monkeypatch, "_translation_perm")
    run()
    assert [len(calls) for calls in walks] == [len({g for _, g in calls}) for calls in walks] == tables


@pytest.mark.parametrize(
    "spec,count", [(C2C2, 5), (Z4, 3), (Z9, 3)]
)
def test_enumerate_subgroups_counts(spec, count):
    subs = walk_subgroups(spec)
    assert len(subs) == count
    assert {frozenset(s.elements) for s in subs} == brute_force_subgroups(spec)


C4C2 = GroupSpec(2, (2, 1))
# x -> (x_2, 0) on C4 x C2, nilpotent: six of the eight subgroups are stable
SHIFT = abelian._linear_table(C4C2, [[0, 0], [1, 0]])


@pytest.mark.parametrize("maps", [
    [SHIFT[:4]], [SHIFT + (0,)], [5], [SHIFT, None], [SHIFT[:7] + (8,)], [SHIFT[:7] + (-1,)],
    [SHIFT[:7] + ((0,),)], [SHIFT, "abcdefgh"],
], ids=["cut", "long", "no-length", "a-map-None", "index-8", "index-negative", "an-element", "a-string"])
def test_walk_subgroups_refuses_a_malformed_map(maps):
    # zip stopped at the shortest table (the cut table gave 2 stable
    # subgroups, with no error), a map with no length raised TypeError, and
    # an entry that is no index was never matched
    assert len(walk_subgroups(C4C2, [SHIFT])) == 6
    with pytest.raises(InputError, match="each map must be a table of 8 element indices or None"):
        walk_subgroups(C4C2, maps)


def test_walk_subgroups_takes_none_for_an_image_in_no_subgroup():
    # None, which the per-g maps of invariant_subgroups give for a conjugate
    # that is no translation, lies in no subgroup: with None at every g != 0,
    # only the zero subgroup is stable
    assert [s.elements for s in walk_subgroups(C4C2, [SHIFT[:1] + (None,) * 7])] == [((0, 0),)]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_enumerate_subgroups_properties(spec):
    subs = walk_subgroups(spec)
    seen = set()
    for sub in subs:
        s = set(sub.elements)
        assert spec.zero() in s
        assert all(add(spec, a, b) in s for a in s for b in s)
        assert all(scalar_mul(spec, -1, a) in s for a in s)
        assert spec.order % sub.size == 0
        seen.add(frozenset(s))
    assert len(seen) == len(subs)
    assert subs == sorted(subs, key=lambda s: s.sort_key())


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_add_group_axioms_exhaustive(spec):
    elems = list(spec.elements())
    zero = spec.zero()
    for a in elems:
        assert add(spec, a, zero) == a
        assert add(spec, a, scalar_mul(spec, -1, a)) == zero
        for b in elems:
            assert add(spec, a, b) == add(spec, b, a)
    # associativity on every triple for the smaller specs
    if spec.order <= 32:
        for a, b, c in itertools.product(elems, repeat=3):
            assert add(spec, add(spec, a, b), c) == add(spec, a, add(spec, b, c))


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_isomorphism_type_recovers_spec(spec):
    elems = list(spec.elements())
    assert isomorphism_type(elems, lambda a, b: add(spec, a, b)) == list(
        spec.exponents
    )


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n) != trial_division_is_prime(n)] == []
    # strong pseudoprimes to the bases 2..7 and to the bases 2..23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(9223372036854775783)


def test_group_spec_checks_the_order_before_primality():
    with pytest.raises(InputError, match="exponents must be nonincreasing"):
        GroupSpec(4, (1, 2))
    with pytest.raises(InputError, match="64-bit"):
        GroupSpec(4, (70,))
    with pytest.raises(InputError, match="not prime"):
        GroupSpec(4, (1,))


def test_isomorphism_type_examples():
    assert isomorphism_type(list(Z4.elements()), lambda a, b: add(Z4, a, b)) == [2]
    assert isomorphism_type(
        list(C2C2.elements()), lambda a, b: add(C2C2, a, b)
    ) == [1, 1]


def test_isomorphism_type_rejects_non_group():
    elems = [0, 1]
    with pytest.raises(InputError):
        isomorphism_type(elems, lambda a, b: 1)  # no identity for 0... constant op
    with pytest.raises(InputError):
        isomorphism_type([0, 1, 2], lambda a, b: max(a, b))  # no inverses


def test_subgroup_json_shape():
    sub = Subgroup(Z4, ((0,), (2,)))
    assert sub.to_json() == {"generators": [[2]], "size": 2}
    assert Z4.to_json() == {"p": 2, "exponents": [2]}
    assert GroupSpec.from_json(Z4.to_json()) == Z4


def test_subgroup_from_elements_trivial():
    sub = Subgroup(Z4, ((0,),))
    assert sub.generators == ()
    assert sub.size == 1


@pytest.mark.parametrize("gen", [(1.0, 0), ("a", 0)])
def test_additive_closure_rejects_a_non_integer_coordinate(gen):
    # (1.0, 0) was grown into the float elements (1.0, 0) and (2.0, 0), and
    # ("a", 0) raised TypeError
    with pytest.raises(InputError, match="non-integer coordinate"):
        additive_closure(GroupSpec(3, (1, 1)), [gen])


def test_additive_closure_rejects_wrong_length():
    # a short gen's multiples never equal the zero of the full rank
    with pytest.raises(InputError):
        additive_closure(C2C2, [(1,)])
    with pytest.raises(InputError):
        additive_closure(C2C2, [(1, 0, 1)])
    assert additive_closure(Z4, [(5,)]) == frozenset(Z4.elements())


class _Int(int):
    """An int subclass: an integer coordinate that is not exactly int."""


def _reduced_by_the_per_coordinate_test(spec, a):
    """The check_elem rule one coordinate at a time, as it was written before
    its range test ran at C level: the right length, then each coordinate an
    int that is no bool, in [0, m)."""
    return len(a) == spec.rank and all(
        isinstance(c, int) and not isinstance(c, bool) and 0 <= c < m for c, m in zip(a, spec.moduli))


@pytest.mark.parametrize("spec", [GroupSpec(2, (2, 1)), GroupSpec(3, (1,))], ids=str)
def test_check_elem_accepts_exactly_what_the_per_coordinate_test_accepts(spec):
    # ints in and out of range, negatives, bools, floats and an int subclass,
    # alone and mixed, as tuples and lists and at every length up to rank + 1
    values = [0, 1, 2, 3, 4, -1, -4, True, False, 1.0, 0.0, _Int(1), _Int(3), _Int(-1), 2**70]
    verdicts = set()
    for length in range(spec.rank + 2):
        for a in itertools.product(values, repeat=length):
            for elem in (a, list(a)):
                expected = _reduced_by_the_per_coordinate_test(spec, elem)
                try:
                    spec.check_elem(elem)
                    got = True
                except InputError:
                    got = False
                assert got is expected, elem
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("call", [
    lambda: add(C2C2, 5, (0, 1)),
    lambda: add(C2C2, (0, 1), None),
    lambda: mul(primitive_structure(2, 2), (1, 0), 7),
    lambda: nilring.nilpotency_index(nilring.RingStructure(GroupSpec(2, (1,)), ((5,),))),
    lambda: nilring.make_structure(GroupSpec(2, (1,)), [[5]]),
    lambda: additive_closure(C2C2, [None]),
    lambda: add(C2C2, tuple, (0, 1)),
    lambda: C2C2.reduce_coords(tuple),
    lambda: nilring.make_structure(GroupSpec(2, (1,)), 5),
    lambda: nilring.make_structure(GroupSpec(2, (1,)), [5]),
    lambda: nilring.make_structure(GroupSpec(2, (1,)), None),
    lambda: additive_closure(C2C2, 5),
    lambda: GroupSpec(2, 5),
    lambda: abelian.subgroup_count(2, 5),
], ids=["add-int", "add-None", "mul", "nilpotency_index", "make_structure", "additive_closure", "add-class",
        "reduce_coords-class", "make_structure-table", "make_structure-row", "make_structure-None",
        "additive_closure-gens", "GroupSpec-exponents", "subgroup_count-exponents"])
def test_an_element_with_no_length_is_an_input_error(call):
    # len(5) raised TypeError, a traceback where the CLI's contract is exit 2;
    # check_elem and reduce_coords both read the length, as does len(tuple);
    # make_structure and additive_closure iterated a table, a row or a list of
    # generators with no length before any length was read
    with pytest.raises(InputError, match="wrong length"):
        call()


@pytest.mark.parametrize("data, message", [
    ({"exponents": [1]}, "no key 'p'"),
    ({"p": 2}, "no key 'exponents'"),
    ({"p": 2, "exponents": 1}, "exponents"),
    ([2, [1]], "spec JSON"),
], ids=["no-p", "no-exponents", "exponents-int", "not-a-dict"])
def test_spec_from_json_rejects_malformed_json(data, message):
    # KeyError and TypeError came out raw
    with pytest.raises(InputError, match=message):
        GroupSpec.from_json(data)
