import ast
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import oracles
from hopfgal import abelian, nilring
from hopfgal.abelian import GroupSpec, add, scalar_mul, walk_subgroups
from hopfgal.correspondence import Context, gaussian_subspace_count, ideals
from hopfgal.errors import CapExceeded, InputError, TheoremViolation
from hopfgal.nilring import (
    RingStructure,
    circle,
    cyclic_structure,
    enumerate_structures,
    make_structure,
    mul,
    nilpotency_index,
    primitive_structure,
    trivial_structure,
    validate,
)

C2C2 = GroupSpec(2, (1, 1))
Z4 = GroupSpec(2, (2,))
Z9 = GroupSpec(3, (2,))


def fixture_structure():
    """Structure on Z/4 with 1*1 = 2 (circle group C2 x C2)."""
    return make_structure(Z4, (((2,),),))


SMALL_VALID = [
    trivial_structure(C2C2),
    trivial_structure(Z4),
    trivial_structure(GroupSpec(3, (1, 1))),
    fixture_structure(),
    primitive_structure(2, 2),
    primitive_structure(2, 3),
    primitive_structure(3, 2),
    primitive_structure(3, 3),
    cyclic_structure(3, 2, 1),
    cyclic_structure(3, 2, 2),
    cyclic_structure(3, 3, 4),
]


def test_mul_trivial():
    A = trivial_structure(C2C2)
    for a in C2C2.elements():
        for b in C2C2.elements():
            assert mul(A, a, b) == (0, 0)


def test_mul_primitive():
    A = primitive_structure(2, 2)
    z, z2 = (1, 0), (0, 1)
    assert mul(A, z, z) == z2
    assert mul(A, z, z2) == (0, 0)
    assert mul(A, z2, z2) == (0, 0)


def test_mul_cyclic():
    A = cyclic_structure(3, 2, 1)
    assert mul(A, (1,), (1,)) == (3,)
    assert mul(A, (2,), (4,)) == ((2 * 4 * 3) % 9,)


def test_validate_accepts_families():
    for A in SMALL_VALID:
        assert validate(A) == []


def test_validate_idempotent_witness():
    line = GroupSpec(2, (1,))
    A = make_structure(line, (((1,),),))  # z*z = z, not nilpotent
    violations = validate(A)
    assert [v.axiom for v in violations] == ["nilpotency"]


def test_validate_symmetry_and_order_condition():
    spec = GroupSpec(2, (2, 1))
    asym = RingStructure(
        spec, (((0, 0), (1, 0)), ((0, 1), (0, 0)))
    )
    assert any(v.axiom == "symmetry" for v in validate(asym))
    # product of the order-2 generator with itself cannot have order 4
    bad_order = RingStructure(
        spec, (((0, 0), (0, 0)), ((0, 0), (1, 0)))
    )
    assert any(v.axiom == "well-defined" for v in validate(bad_order))


def test_make_structure_rejects_a_constant_of_the_wrong_length():
    # a third coordinate is an input error, not cut off to a valid (0, 1)
    with pytest.raises(InputError):
        make_structure(C2C2, [[(0, 1, 7), (0, 0)], [(0, 0), (0, 0)]])
    with pytest.raises(InputError):
        make_structure(C2C2, [[(0,), (0, 0)], [(0, 0), (0, 0)]])


def test_make_structure_rejects_a_non_integer_constant():
    # 2.9 was stored as 2
    with pytest.raises(InputError):
        make_structure(Z4, [[(2.9,)]])


def test_nilpotency_index_examples():
    with pytest.raises(InputError):
        nilpotency_index(RingStructure(Z4, (((5,),),)))
    assert nilpotency_index(trivial_structure(C2C2)) == 2
    assert nilpotency_index(primitive_structure(2, 3)) == 4
    assert nilpotency_index(cyclic_structure(3, 2, 1)) == 3
    assert nilpotency_index(cyclic_structure(3, 2, 2)) == 3


@pytest.mark.parametrize("constants", [
    (((1, 0),),),  # 1 x 1 on C2 x C2: (1, 1) * (1, 1) was (1, 0)
    (((0, 0, 1), (0, 0)), ((0, 0), (0, 0))),  # an entry of length 3 raised IndexError
    5,  # no table: TypeError
], ids=["one-by-one", "entry-of-length-3", "int"])
@pytest.mark.parametrize("op", [nilring.mul, nilring.circle], ids=["mul", "circle"])
def test_mul_and_circle_check_the_constants(op, constants):
    # neither read the constants' shape, as nilpotency_index and tau do
    with pytest.raises(InputError):
        op(RingStructure(C2C2, constants), (1, 1), (1, 1))


@pytest.mark.parametrize("rows", [3, 1])
def test_nilpotency_index_rejects_a_table_that_is_not_k_by_k(rows):
    # a 3-row table on C2 x C2 raised IndexError, a 1-row one gave index 2;
    # validate reports its shape and make_structure rejects it alike
    constants = [[[1, 0], [0, 1]]] * rows
    for A in (RingStructure(C2C2, tuple(tuple(map(tuple, row)) for row in constants)),
              RingStructure.from_json({"spec": C2C2.to_json(), "constants": constants})):
        assert [v.axiom for v in validate(A)] == ["shape"]
        with pytest.raises(InputError, match="constants table must be 2x2"):
            nilpotency_index(A)
    with pytest.raises(InputError, match="constants table must be 2x2"):
        make_structure(C2C2, constants)


def test_nilpotency_index_builds_no_additive_closure(monkeypatch):
    # A^m = 0 is read off the nonzero generator products alone
    def closure(*args):
        raise AssertionError("additive_closure called")

    monkeypatch.setattr(abelian, "additive_closure", closure)
    for A, index in ((primitive_structure(3, 3), 4), (cyclic_structure(3, 2, 1), 3)):
        assert validate(A) == []
        assert nilpotency_index(A) == index
    z_squared_is_z = make_structure(GroupSpec(2, (1,)), (((1,),),))
    assert nilpotency_index(z_squared_is_z) == 3  # n + 2: A^(n+1) != 0
    assert [v.axiom for v in validate(z_squared_is_z)] == ["nilpotency"]


@pytest.mark.parametrize("A", SMALL_VALID)
def test_nilpotency_bound(A):
    assert nilpotency_index(A) <= A.spec.n + 1


def test_circle_examples():
    A = trivial_structure(C2C2)
    for a in C2C2.elements():
        for b in C2C2.elements():
            assert circle(A, a, b) == add(C2C2, a, b)
    P = primitive_structure(2, 2)
    assert circle(P, (1, 0), (1, 0)) == (0, 1)  # z o z = z^2
    F = fixture_structure()
    assert circle(F, (1,), (1,)) == (0,)  # 1 + 1 + 2 = 4


def _circle_inverses(A, a):
    """Every x with a o x = 0, by exhaustive search."""
    return [x for x in A.spec.elements() if circle(A, a, x) == A.spec.zero()]


def test_circle_inverse_examples():
    assert _circle_inverses(trivial_structure(Z9), (4,)) == [(5,)]
    assert _circle_inverses(primitive_structure(2, 2), (1, 0)) == [(1, 1)]
    for A in SMALL_VALID:
        assert _circle_inverses(A, A.spec.zero()) == [A.spec.zero()]


@pytest.mark.parametrize("A", SMALL_VALID)
def test_circle_inverse_everywhere(A):
    # each a has exactly one right inverse, and it is a left inverse too
    for a in A.spec.elements():
        [x] = _circle_inverses(A, a)
        assert circle(A, x, a) == A.spec.zero()


@pytest.mark.parametrize("A", SMALL_VALID)
def test_circle_is_a_group_operation(A):
    spec = A.spec
    elems = list(spec.elements())
    zero = spec.zero()
    for a in elems:
        assert circle(A, zero, a) == a
        assert circle(A, a, zero) == a
    if spec.order <= 16:
        for a, b, c in itertools.product(elems, repeat=3):
            assert circle(A, circle(A, a, b), c) == circle(A, a, circle(A, b, c))


def test_circle_group_types():
    assert Context(trivial_structure(Z4)).circle_type == (2,)
    assert Context(trivial_structure(C2C2)).circle_type == (1, 1)
    assert Context(primitive_structure(2, 2)).circle_type == (2,)
    assert Context(fixture_structure()).circle_type == (1, 1)
    # p > n: elementary abelian circle group
    assert Context(primitive_structure(5, 4)).circle_type == (1, 1, 1, 1)
    assert Context(primitive_structure(3, 2)).circle_type == (1, 1)


def test_ideals_examples():
    P = primitive_structure(2, 2)
    sizes = [s.size for s in ideals(Context(P))]
    assert sizes == [1, 2, 4]
    C = cyclic_structure(3, 2, 1)
    assert [s.elements for s in ideals(Context(C))] == [
        ((0,),),
        ((0,), (3,), (6,)),
        tuple((r,) for r in range(9)),
    ]
    T = trivial_structure(C2C2)
    assert [s.elements for s in ideals(Context(T))] == [
        s.elements for s in walk_subgroups(C2C2)
    ]


@pytest.mark.parametrize("A", SMALL_VALID)
def test_ideal_lattice_closed_under_sum_and_intersection(A):
    spec = A.spec
    ideal_sets = [frozenset(s.elements) for s in ideals(Context(A))]
    lattice = set(ideal_sets)
    for x, y in itertools.combinations(ideal_sets, 2):
        assert x & y in lattice
        total = frozenset(
            add(spec, a, b) for a in x for b in y
        )
        assert total in lattice


def test_trivial_structures_all_zero():
    for spec in (C2C2, Z4, GroupSpec(3, (1, 1))):
        A = trivial_structure(spec)
        assert A.is_trivial()
        assert validate(A) == []


def test_primitive_structure_constants():
    A = primitive_structure(2, 2)
    assert A.constants == (((0, 1), (0, 0)), ((0, 0), (0, 0)))
    B = primitive_structure(3, 3)
    z, z2, z3 = B.spec.basis()
    assert mul(B, z, z2) == z3
    assert mul(B, z2, z2) == (0, 0, 0)  # z^4 = 0


def test_primitive_ideal_chain():
    for p, n in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
        A = primitive_structure(p, n)
        chain = ideals(Context(A))
        assert len(chain) == n + 1
        assert [s.size for s in chain] == [p**i for i in range(n + 1)]
        for small, big in zip(chain, chain[1:]):
            assert set(small.elements) < set(big.elements)


def test_cyclic_structure_inputs():
    with pytest.raises(InputError):
        cyclic_structure(2, 2, 0)  # p must be odd
    with pytest.raises(InputError):
        cyclic_structure(3, 2, 3)  # d out of range
    assert cyclic_structure(3, 2, 0).is_trivial()
    assert cyclic_structure(3, 2, 1).constants[0][0] == (3,)
    # one structure per d
    assert len({cyclic_structure(3, 2, d) for d in range(3)}) == 3


def test_enumerate_structures_counts():
    # 4 on C2xC2: the independent oracle is the regular-subgroup count
    # checked in test_holomorph; 1 trivial + 3 with circle group C4.
    structures = enumerate_structures(C2C2)
    assert len(structures) == 4
    types = sorted(Context(A).circle_type for A in structures)
    assert types == [(1, 1), (2,), (2,), (2,)]

    line3 = GroupSpec(3, (1,))
    assert len(enumerate_structures(line3)) == 1

    z4_structures = enumerate_structures(Z4)
    assert fixture_structure() in z4_structures


@pytest.mark.parametrize(
    "spec",
    [C2C2, Z4, Z9, GroupSpec(2, (3,)), GroupSpec(3, (1, 1))],
)
def test_enumerated_structures_validate(spec):
    structures = enumerate_structures(spec)
    assert len(structures) == len(set(structures))
    assert structures == sorted(structures, key=lambda A: A.constants)
    for A in structures:
        assert validate(A) == []


def test_enumerate_structures_cap():
    with pytest.raises(CapExceeded):
        enumerate_structures(C2C2, search_cap=10)


def test_enumerate_structures_cap_checked_before_candidates():
    # 421^6 tensors: the cap must fire before any candidate list is built
    spec = GroupSpec(421, (1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            enumerate_structures(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _all_tensors(spec):
    """Every symmetric table whose (i, j) entry is killed by p^min(e_i, e_j),
    the order condition, derived here from the elements of G."""
    k = spec.rank
    zero = spec.zero()
    free = [(i, j) for i in range(k) for j in range(i, k)]
    entries = [
        [
            c
            for c in spec.elements()
            if scalar_mul(spec, spec.p ** min(spec.exponents[i], spec.exponents[j]), c) == zero
        ]
        for i, j in free
    ]
    for assignment in itertools.product(*entries):
        table = [[None] * k for _ in range(k)]
        for (i, j), c in zip(free, assignment):
            table[i][j] = table[j][i] = c
        yield tuple(tuple(row) for row in table)


INT_CHECK_SPECS = [C2C2, Z4, GroupSpec(2, (3,)), GroupSpec(3, (1, 1)), Z9,
                   GroupSpec(2, (2, 1)), GroupSpec(2, (2, 2))]


# On C2^2 and C3^2 (|G| = p^2) nilpotency alone forces associativity, and
# C4 x C2 has no tensor that fails only triple (0, 1, 1); C4 x C4 has one.
@pytest.mark.parametrize("spec", INT_CHECK_SPECS)
def test_int_checks_accept_exactly_what_validate_accepts(spec):
    # the search's row checks (commuting, nilpotent multiplication maps) keep
    # exactly the tables that validate accepts, in sorted order
    tables = list(_all_tensors(spec))
    accepted = sorted(table for table in tables if not validate(RingStructure(spec, table)))
    assert [A.constants for A in enumerate_structures(spec)] == accepted
    assert 0 < len(accepted) < len(tables)


def _associativity_witnesses(A):
    return [v.witness for v in validate(A) if v.axiom == "associativity"]


@pytest.mark.parametrize("spec", INT_CHECK_SPECS, ids=str)
def test_associativity_violations_match_the_all_triples_scan(spec):
    # validate scans the triples i < l of a commutative table and reports
    # each failure as (i, j, l) and (l, j, i); the list is the full scan's
    failing = 0
    for table in _all_tensors(spec):
        A = RingStructure(spec, table)
        expected = oracles.associativity_violations(A)
        assert _associativity_witnesses(A) == expected, table
        failing += bool(expected)
    assert failing or spec.rank == 1


@pytest.mark.parametrize("spec, constants, witnesses", [
    # b2*b2 = b3, b3*b3 = b1 on C2^3
    (GroupSpec(2, (1, 1, 1)),
     (((0, 0, 0),) * 3, ((0, 0, 0), (0, 0, 1), (0, 0, 0)), ((0, 0, 0),) * 2 + ((1, 0, 0),)),
     [(1, 1, 2), (2, 1, 1)]),
    # b1*b2 = b2, b2*b2 = b1 on C4 x C4
    (GroupSpec(2, (2, 2)), (((0, 0), (0, 1)), ((0, 1), (1, 0))),
     [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]),
], ids=["C2^3", "C4xC4"])
def test_planted_associativity_violations_match_the_all_triples_scan(spec, constants, witnesses):
    A = make_structure(spec, constants)
    assert _associativity_witnesses(A) == oracles.associativity_violations(A) == witnesses
    assert [v.axiom for v in validate(A)] == ["associativity"] * len(witnesses)


def _kept_tables_row_by_row(spec, candidates, rows=()):
    """The row backtrack of the search with no shared verdicts and no batch:
    the mod-p test of `oracles.nilpotent_mod_p` runs on every row that
    commutes, by `oracles._commute`, with the rows before it.  With the
    candidates of the first rows only, it yields the kept prefixes."""
    i = len(rows)
    if i == len(candidates):
        yield rows
        return
    head = tuple(row[i] for row in rows)
    for tail in itertools.product(*candidates[i]):
        row = head + tail
        if all(oracles._commute(spec, row, earlier) for earlier in rows) and oracles.nilpotent_mod_p(spec, row):
            yield from _kept_tables_row_by_row(spec, candidates, rows + (row,))


def _candidates(spec):
    k = spec.rank
    return [[list(itertools.product(*nilring._entry_ranges(spec, i, j))) for j in range(i, k)] for i in range(k)]


def _row_by_row_search(spec):
    return list(_kept_tables_row_by_row(spec, _candidates(spec)))


def _catalogue_specs():
    """The groups of the benchmark catalogue, read only."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "catalogue.json"
    return [GroupSpec(g["p"], tuple(g["exponents"])) for g in json.loads(path.read_text())["groups"]]


@pytest.mark.parametrize("spec", _catalogue_specs() + [GroupSpec(2, (1, 1, 1))], ids=str)
def test_shared_nilpotency_verdicts_keep_the_row_by_row_tables(spec):
    # a row's nilpotency is decided by its residues mod p, so deciding each
    # residue class once keeps exactly the tables of deciding every row
    assert [A.constants for A in enumerate_structures(spec)] == _row_by_row_search(spec)


@pytest.mark.parametrize("spec", [GroupSpec(2, (1, 1, 1)), GroupSpec(2, (3, 2)), GroupSpec(5, (1, 1))], ids=str)
def test_search_does_not_depend_on_the_slice_bound(monkeypatch, spec):
    # slices of 3 rows per depth, the last one short, keep the tables of one slice
    whole = [A.constants for A in enumerate_structures(spec)]
    monkeypatch.setattr(nilring, "_SLICE_PRODUCTS", 3 * spec.rank**3)
    assert [A.constants for A in enumerate_structures(spec)] == whole
    assert len(whole) == {(1, 1, 1): 92, (3, 2): 288, (1, 1): 25}[spec.exponents]


@pytest.mark.parametrize("spec", [GroupSpec(2, (1, 1, 1)), GroupSpec(2, (3, 2))], ids=str)
def test_commuting_matches_the_per_pair_test_on_every_prefix_and_tail(spec):
    # every kept prefix of every depth, each tail of the next row, each earlier row
    candidates, rows, others = _candidates(spec), [], []
    for depth in range(1, spec.rank):
        for prefix in _kept_tables_row_by_row(spec, candidates[:depth]):
            head = tuple(row[depth] for row in prefix)
            for tail, earlier in itertools.product(itertools.product(*candidates[depth]), prefix):
                rows.append(head + tail)
                others.append(earlier)
    verdicts = nilring._commuting(spec, rows, others)
    assert verdicts == [oracles._commute(spec, row, other) for row, other in zip(rows, others)]
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("spec, search_cap, tried, class_tests", [
    (GroupSpec(2, (3, 2)), nilring.DEFAULT_SEARCH_CAP, 512 + 128 * 16, 528),
    (GroupSpec(3, (1, 1, 1)), 3**18, 581013, 49599),
], ids=str)
def test_the_class_test_runs_once_per_head_class(monkeypatch, spec, search_cap, tried, class_tests):
    # a row's class is its head's residues followed by its tail's, so the tails
    # that pass are listed once per class of the head, not once per prefix: on
    # C8 x C4, 528 class tests for the 2 560 rows tried (512 of row 0, 16 tails
    # for each of the 128 kept row 0s, whose heads share one class)
    keys = []

    class Counted(set):
        def __contains__(self, key):
            keys.append(key)
            return set.__contains__(self, key)

    classes = nilring._nilpotent_classes
    monkeypatch.setattr(nilring, "_nilpotent_classes", lambda spec, residues: Counted(classes(spec, residues)))
    assert len(enumerate_structures(spec, search_cap)) == {2: 288, 3: 963}[spec.p]
    assert len(keys) == class_tests < tried


@pytest.mark.parametrize("spec, search_cap", [(spec, nilring.DEFAULT_SEARCH_CAP) for spec in _catalogue_specs()] + [
    (GroupSpec(2, (1, 1, 1)), nilring.DEFAULT_SEARCH_CAP), (GroupSpec(2, (3, 2)), nilring.DEFAULT_SEARCH_CAP),
    (GroupSpec(3, (1, 1, 1)), 3**18)], ids=str)
def test_search_hands_out_one_object_per_distinct_row(spec, search_cap):
    rows = [row for A in enumerate_structures(spec, search_cap) for row in A.constants]
    assert len({id(row) for row in rows}) == len(set(rows))
    if spec == GroupSpec(2, (3, 2)):
        assert len(rows) == 576 and len(set(rows)) == 128


@pytest.mark.parametrize("spec, search_cap, row_by_row, classes, kept, commute_tests", [
    (GroupSpec(2, (1, 1, 1)), nilring.DEFAULT_SEARCH_CAP, (924, 5184), 512, 92, 888),
    (GroupSpec(2, (3, 2)), nilring.DEFAULT_SEARCH_CAP, (864, 2048), 8, 288, 1024),
    (GroupSpec(3, (2, 1)), nilring.DEFAULT_SEARCH_CAP, (306, 243), 27, 45, 81),
    (GroupSpec(5, (1, 1)), nilring.DEFAULT_SEARCH_CAP, (690, 625), 625, 25, 41),
    (GroupSpec(3, (1, 1, 1)), 3**18, None, 3**9, 963, 26793),
], ids=["C2^3", "C8xC4", "C9xC3", "C5xC5", "C3^3"])
def test_nilpotency_is_evaluated_once_per_residue_class(monkeypatch, spec, search_cap, row_by_row,
                                                        classes, kept, commute_tests):
    # row by row, the rows that pass the commute test reach the nilpotency
    # test; the search decides every residue class of row 0 mod p in one
    # batch, and a row of a class that fails never reaches the commute test.
    # The batch compresses its rows after each earlier row, so it tests the
    # (row, earlier row) pairs a short-circuiting per-pair test would
    calls = {"nilpotent_mod_p": [], "_commute": [], "_nilpotent_classes": [], "_commuting": []}
    for owner, name in [(oracles, "nilpotent_mod_p"), (oracles, "_commute"), (nilring, "_nilpotent_classes"),
                        (nilring, "_commuting")]:
        check, log = getattr(owner, name), calls[name]
        monkeypatch.setattr(owner, name, lambda *args, log=log, check=check: log.append(args) or check(*args))
    if row_by_row:
        tables = _row_by_row_search(spec)
        assert (len(calls["nilpotent_mod_p"]), len(calls["_commute"])) == row_by_row
        assert len(tables) == kept
    assert len(enumerate_structures(spec, search_cap)) == kept
    [(_, residues)] = calls["_nilpotent_classes"]
    assert math.prod(map(len, residues)) == classes
    assert sum(len(rows) for _, rows, _ in calls["_commuting"]) == commute_tests


@pytest.mark.parametrize("p, search_cap", [(2, nilring.DEFAULT_SEARCH_CAP), (3, 3**18)])
def test_structures_on_f_p_cubed_by_dim_a_squared(p, search_cap):
    # closed form by dim A^2: A^2 = 0 is one structure, dim 1 gives
    # (p^2+p+1)(p^3-1) and dim 2 gives |GL_3(F_p)|/((p-1)p^2); 92 and 963 in all
    spec = GroupSpec(p, (1, 1, 1))
    gl3 = (p**3 - 1) * (p**3 - p) * (p**3 - p**2)
    expected = {1: 1, p: (p**2 + p + 1) * (p**3 - 1), p**2: gl3 // ((p - 1) * p**2)}
    squares = Counter(
        len(abelian.additive_closure(spec, [c for row in A.constants for c in row]))
        for A in enumerate_structures(spec, search_cap)
    )
    assert squares == expected
    assert sum(expected.values()) == {2: 92, 3: 963}[p]


def test_search_raises_on_a_kept_table_that_validate_rejects(monkeypatch):
    # on Z/4 the table 1*1 = 1 passes every check but nilpotency
    monkeypatch.setattr(nilring, "_nilpotent_classes", lambda spec, residues: set(itertools.product(*residues)))
    with pytest.raises(TheoremViolation, match="search kept an invalid structure"):
        enumerate_structures(Z4)


def _row_map(spec, row):
    """x -> b_0 x, tabulated over G with `mul` alone, for a table whose row 0
    is `row` and whose other rows are 0."""
    zero = spec.zero()
    A = RingStructure(spec, (tuple(row),) + ((zero,) * spec.rank,) * (spec.rank - 1))
    b0 = spec.basis()[0]
    return {x: mul(A, b0, x) for x in spec.elements()}


@pytest.mark.parametrize("spec", [GroupSpec(2, (2, 1)), GroupSpec(3, (1, 1)), GroupSpec(3, (2, 1))],
                         ids=str)
def test_commute_matches_composing_the_products(spec):
    # on every pair of row-0 candidates, the commute test on the rows' matrices
    # agrees with L(L'(b_t)) = L'(L(b_t)) composed from products
    rows = list(itertools.product(*(itertools.product(*nilring._entry_ranges(spec, 0, j))
                                    for j in range(spec.rank))))
    maps = [_row_map(spec, row) for row in rows]
    verdicts = Counter()
    for (row, L), (other, M) in itertools.product(zip(rows, maps), repeat=2):
        verdict = all(L[M[b]] == M[L[b]] for b in spec.basis())
        assert oracles._commute(spec, row, other) is verdict, (row, other)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]
    pairs = list(itertools.product(rows, repeat=2))
    assert nilring._commuting(spec, *map(list, zip(*pairs))) == [oracles._commute(spec, *pair) for pair in pairs]


def _row_0_residues(spec):
    """The distinct residues mod p of each row-0 entry, as the search lists them."""
    return [list(dict.fromkeys(tuple(c % spec.p for c in x)
                               for x in itertools.product(*nilring._entry_ranges(spec, 0, j))))
            for j in range(spec.rank)]


@pytest.mark.parametrize("spec", [GroupSpec(p, e) for p, e in [
    (2, (3, 2)), (3, (2, 1)), (2, (2, 1, 1)), (2, (6,))]], ids=str)
def test_nilpotent_classes_hold_the_rows_nilpotent_on_g(spec):
    # L commutes with x -> px, so L^k(G) in pG forces L^(ke)(G) = 0: the
    # classes decided mod p hold a row-0 candidate iff n - 1 steps over G
    # take it to 0
    nilpotent = nilring._nilpotent_classes(spec, _row_0_residues(spec))
    entries = [itertools.product(*nilring._entry_ranges(spec, 0, j)) for j in range(spec.rank)]
    verdicts = Counter()
    for row in itertools.product(*entries):
        verdict = tuple(tuple(c % spec.p for c in x) for x in row) in nilpotent
        assert verdict is oracles.nilpotent_on_g(spec, row), row
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_nilpotent_classes_on_f_p_k_count_the_nilpotent_matrices(p, k):
    # every k x k matrix over F_p is a class, and p^(k^2 - k) of them are
    # nilpotent (Fine and Herstein, Illinois J. Math. 2, 1958)
    spec = GroupSpec(p, (1,) * k)
    nilpotent = nilring._nilpotent_classes(spec, _row_0_residues(spec))
    assert len(nilpotent) == p ** (k * k - k)


@pytest.mark.parametrize("spec", [GroupSpec(2, (1, 1, 1)), GroupSpec(5, (1, 1))], ids=str)
def test_nilpotent_classes_do_not_depend_on_the_slice_bound(monkeypatch, spec):
    # slices of 3 classes, the last one short, decide what one slice decides
    residues = _row_0_residues(spec)
    whole = nilring._nilpotent_classes(spec, residues)
    monkeypatch.setattr(nilring, "_SLICE_PRODUCTS", 3 * spec.rank**3)
    assert nilring._nilpotent_classes(spec, residues) == whole
    assert len(whole) == {2: 64, 5: 25}[spec.p]


@pytest.mark.parametrize("spec", _catalogue_specs() + [GroupSpec(2, (3, 2, 1)), GroupSpec(2, (2, 1, 1))],
                         ids=str)
def test_every_rows_residue_class_is_a_row_0_class(spec):
    # entry (i, j) has residues mod p in coordinate u only if e_u <= min(e_i,
    # e_j) <= min(e_0, e_j), so the key of every candidate row at every depth,
    # its entries (min(i, j), max(i, j)) mod p, lies in the product of row 0's
    # residues, where the search decides nilpotency; a key outside it would
    # drop its row unseen
    def residues(i, j):
        return {tuple(c % spec.p for c in x)
                for x in itertools.product(*nilring._entry_ranges(spec, min(i, j), max(i, j)))}

    row_0 = set(itertools.product(*_row_0_residues(spec)))
    for i in range(spec.rank):
        keys = set(itertools.product(*(residues(i, j) for j in range(spec.rank))))
        assert keys <= row_0, i


def test_validate_checks_each_constant_once(monkeypatch):
    # the shape check runs check_elem on every constant, so the nilpotency
    # index validate reads does not check them again
    checked = []
    check = GroupSpec.check_elem
    monkeypatch.setattr(GroupSpec, "check_elem", lambda spec, a: checked.append(a) or check(spec, a))
    A = primitive_structure(3, 3)
    assert validate(A) == []
    assert sorted(checked) == sorted(c for row in A.constants for c in row)


def test_validate_runs_no_helper_of_the_search():
    # validate certifies what the search keeps, so it must not reach, through
    # any function of the module, the row checks the search prunes by
    tree = ast.parse(Path(nilring.__file__).read_text())
    calls = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }

    def reach(*roots):
        reached, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(calls[name] & calls.keys())
        return reached

    prune = {"_commuting", "_nilpotent_classes", "_kept_tables", "enumerate_structures"}
    assert prune <= calls.keys()
    assert not reach("validate", "nilpotency_index") & prune
    # the batch certifier of the search's tables reaches neither the row
    # checks nor validate, the certifier it stands beside
    assert not reach("_all_valid") & (prune | {"validate"})
    # the prune and the batch certifier keep their own columnar kernels and
    # name no helper of linalg, which validate runs on
    assert "linalg" in calls["validate"]
    assert not {"linalg"} & set().union(*map(calls.get, reach("_commuting", "_nilpotent_classes",
                                                              "_kept_tables", "_all_valid")))


def test_structure_json_round_trip():
    for A in [primitive_structure(2, 2), *_catalogue_structures()]:
        assert RingStructure.from_json(A.to_json()) == A
        assert RingStructure.from_json(json.loads(json.dumps(A.to_json()))) == A


@pytest.mark.parametrize("p", [2.9, "3", 3.0])
def test_from_json_rejects_a_non_integer_p(p):
    # p is passed on as it is read, so the spec's own check rejects it, as
    # it does any other non-integer, alone and inside a structure's JSON
    spec = {"p": p, "exponents": [1]}
    with pytest.raises(InputError, match="must be integers"):
        GroupSpec.from_json(spec)
    with pytest.raises(InputError, match="must be integers"):
        RingStructure.from_json({"spec": spec, "constants": [[[0]]]})
    assert GroupSpec.from_json(GroupSpec(3, (1,)).to_json()) == GroupSpec(3, (1,))


@pytest.mark.parametrize("build, args", [
    (cyclic_structure, (3, 2, 1.0)), (cyclic_structure, (3, 2, "1")),
    (cyclic_structure, (3, "2", 1)), (primitive_structure, (3, 2.0)),
    (gaussian_subspace_count, (3.0, 2)), (gaussian_subspace_count, (3, 2.0))])
def test_constructors_reject_a_non_integer_parameter(build, args):
    # cyclic_structure(3, 2, 1.0) built the float constant (3.0,) and
    # gaussian_subspace_count(3.0, 2) returned 5.0; the others raised TypeError
    with pytest.raises(InputError, match="integer"):
        build(*args)


def test_json_booleans_are_no_integers():
    # JSON's true is a Python bool, and so an int: the spec below was read as
    # C2 x C2, and the true constant passed the shape check and was reported
    # as a nilpotency violation (true * true = true on C2)
    with pytest.raises(InputError, match="must be integers"):
        GroupSpec.from_json({"p": 2, "exponents": [True, True]})
    with pytest.raises(InputError, match="must be integers"):
        GroupSpec.from_json({"p": True, "exponents": [1]})
    A = RingStructure.from_json({"spec": {"p": 2, "exponents": [1]}, "constants": [[[True]]]})
    assert [v.axiom for v in validate(A)] == ["shape"]
    with pytest.raises(InputError, match="invalid structure: shape"):
        Context(A)
    with pytest.raises(InputError, match="non-integer"):
        make_structure(GroupSpec(2, (1,)), [[(True,)]])


@pytest.mark.parametrize("build, args", [
    (cyclic_structure, (3, 2, True)), (cyclic_structure, (3, True, 0)),
    (primitive_structure, (3, True)), (gaussian_subspace_count, (3, True))])
def test_constructors_reject_a_boolean_parameter(build, args):
    # each built the structure or count for 1 in place of True
    with pytest.raises(InputError, match="integer"):
        build(*args)


def _dense_product(A, a, b):
    """Reference product, independent of the package kernel: the sum over
    every (i, j) of a_i b_j c_ij, reduced modulo the factor orders."""
    moduli = A.spec.moduli
    total = [0] * len(moduli)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for t, c in enumerate(A.constants[i][j]):
                total[t] += x * y * c
    return tuple(v % m for v, m in zip(total, moduli))


@pytest.mark.parametrize(
    "structures",
    [lambda spec=spec: enumerate_structures(spec)
     for spec in (C2C2, GroupSpec(2, (2, 1)), GroupSpec(3, (1, 1)), Z9, GroupSpec(2, (1, 1, 1)))]
    + [lambda: [primitive_structure(3, 3)]],
    ids=["C2xC2", "C4xC2", "C3xC3", "C9", "C2^3", "primitive(3,3)"],
)
def test_kernel_matches_dense_bilinear_reference(structures):
    for A in structures():
        moduli = A.spec.moduli
        elements = list(itertools.product(*(range(m) for m in moduli)))
        for a in elements:
            for b in elements:
                ab = _dense_product(A, a, b)
                assert mul(A, a, b) == ab
                assert circle(A, a, b) == tuple(
                    (x + y + z) % m for x, y, z, m in zip(a, b, ab, moduli))


def test_sparse_terms_do_not_change_identity():
    # the sparse product terms are kept on the instance after first use;
    # equality, hashing, set membership and to_json ignore them
    used, fresh = primitive_structure(3, 3), primitive_structure(3, 3)
    mul(used, (1, 0, 0), (1, 0, 0))
    assert "_terms" in vars(used) and "_terms" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert fresh in {used} and used in {fresh} and len({used, fresh}) == 1
    assert used.to_json() == fresh.to_json() == primitive_structure(3, 3).to_json()
    assert RingStructure.from_json(used.to_json()) == fresh


def _catalogue_structures():
    """The 217 structures of the benchmark catalogue, read only."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "catalogue.json"
    for group in json.loads(path.read_text())["groups"]:
        spec = {"p": group["p"], "exponents": group["exponents"]}
        for item in group["structures"]:
            yield RingStructure.from_json({"spec": spec, "constants": item["constants"]})


def _perturbations(A, rng):
    """Seeded edits of A's table: one entry or one symmetric pair replaced by
    a random element, and one coordinate made out of range, negative or a bool."""
    spec, k = A.spec, A.spec.rank
    out = []
    for edit in range(8):
        rows = [list(row) for row in A.constants]
        i, j = rng.randrange(k), rng.randrange(k)
        rows[i][j] = tuple(rng.randrange(m) for m in spec.moduli)
        if edit % 2:
            rows[j][i] = rows[i][j]
        out.append(rows)
    for bad in (spec.moduli[0], -1, True):
        rows = [list(row) for row in A.constants]
        i, j = rng.randrange(k), rng.randrange(k)
        rows[i][j] = (bad,) + rows[i][j][1:]
        out.append(rows)
    return [RingStructure(spec, tuple(map(tuple, rows))) for rows in out]


def test_validate_matches_the_reference_on_the_catalogue_and_perturbations():
    # every violation list, axiom, witness and order, is the one the
    # reference builds from mul and add alone
    rng = random.Random(36)
    seen, count = Counter(), 0
    for A in _catalogue_structures():
        assert validate(A) == []
        for B in _perturbations(A, rng):
            expected = oracles.validation(B)
            assert [(v.axiom, v.witness) for v in validate(B)] == expected, B
            seen.update({axiom for axiom, _ in expected})
        count += 1
    assert count == 217
    assert set(seen) == {"shape", "symmetry", "well-defined", "associativity", "nilpotency"}, seen


PLANTED_NILPOTENCY = pytest.mark.parametrize("A, expected", [
    (make_structure(GroupSpec(2, (1, 1, 1)), [[(1, 0, 0)] + [(0, 0, 0)] * 2] + [[(0, 0, 0)] * 3] * 2),
     [("nilpotency", ((1, 0, 0),))]),
    (make_structure(GroupSpec(2, (2, 1)), [[(1, 0), (0, 0)], [(0, 0), (0, 0)]]),
     [("nilpotency", ((1, 0),))]),
    (make_structure(GroupSpec(3, (1, 1)), [[(1, 0), (0, 0)], [(0, 0), (0, 0)]]),
     [("nilpotency", ((1, 0),))]),
    (primitive_structure(2, 3), []),
    (make_structure(C2C2, [[(1, 1)] * 2] * 2), []),
], ids=["C2^3", "C4xC2", "F_3^2", "primitive(2,3)", "C2^2-square-zero"])


@PLANTED_NILPOTENCY
def test_validate_matches_the_reference_on_planted_nilpotency_tables(A, expected):
    # b_0 b_0 = b_0 is commutative and associative and fails only nilpotency;
    # its matrix mod p is nonzero, so the verdict needs a matrix product.  On
    # primitive(2, 3), x -> zx is nilpotent of index 3 = k: its matrix mod p
    # and that matrix squared are nonzero, so the verdict needs k - 1 products.
    # Every product b_i b_j = b_0 + b_1 on C2^2 gives matrices whose square is
    # 2 in every entry, 0 only mod p
    assert [(v.axiom, v.witness) for v in validate(A)] == oracles.validation(A) == expected


@pytest.mark.parametrize("constants, witness", [
    (5, (5,)),
    (None, (None,)),
    ((5,), (1,)),
    (((5,),), (0, 0, 5)),
    (((None,),), (0, 0, None)),
    (tuple, (tuple,)),
    ((tuple,), (1,)),
    (((tuple,),), (0, 0, tuple)),
], ids=["table-int", "table-None", "row", "constant-int", "constant-None", "table-class", "row-class",
        "constant-class"])
def test_validate_reports_a_part_that_is_not_a_sequence_as_its_shape(constants, witness):
    # each raised TypeError ("object of type ... has no len()"); a class such
    # as tuple has a __len__ attribute, yet len(tuple) raises TypeError too
    A = RingStructure(GroupSpec(2, (1,)), constants)
    assert [(v.axiom, v.witness) for v in validate(A)] == [("shape", witness)]
    assert oracles.validation(A) == [("shape", witness)]
    with pytest.raises(InputError):
        nilpotency_index(A)


def test_validate_runs_no_sparse_product(monkeypatch):
    # every product is read off the operator matrices: the sparse terms are
    # never built and the product kernel never runs
    calls = []
    product = nilring._product
    monkeypatch.setattr(nilring, "_product", lambda *args: calls.append(1) or product(*args))
    rings = [primitive_structure(3, 3), cyclic_structure(3, 3, 4), make_structure(GroupSpec(2, (1,)), (((1,),),))]
    rings += enumerate_structures(GroupSpec(2, (2, 1)))
    for A in rings:
        fresh = RingStructure(A.spec, A.constants)
        validate(fresh)
        nilpotency_index(fresh)
        assert "_terms" not in vars(fresh)
    assert calls == []
    assert mul(rings[0], (1, 0, 0), (1, 0, 0)) == (0, 1, 0) and calls == [1]


@pytest.mark.parametrize("data, message", [
    ({"spec": {"p": 2, "exponents": [1]}, "constants": [[5]]}, "structure JSON must be"),
    ({"spec": {"p": 2, "exponents": [1]}, "constants": 5}, "structure JSON must be"),
    ([{"p": 2, "exponents": [1]}, [[[0]]]], "structure JSON must be"),
    ("constants", "structure JSON must be"),
    ({"spec": {"p": 2, "exponents": [1]}}, "no key 'constants'"),
    ({"constants": [[[0]]]}, "no key 'spec'"),
    ({"spec": {"p": 2}, "constants": [[[0]]]}, "no key 'exponents'"),
    ({"spec": {"p": 2, "exponents": 1}, "constants": [[[0]]]}, "exponents"),
], ids=["constant-int", "constants-int", "list", "string", "no-constants", "no-spec", "no-exponents",
         "exponents-int"])
def test_structure_from_json_rejects_malformed_json(data, message):
    # each raised the raw TypeError or KeyError
    with pytest.raises(InputError, match=message):
        RingStructure.from_json(data)


# -- the batch certifier of the search's tables ------------------------------

def _certified(A):
    return nilring._all_valid(A.spec, [A.constants])


def test_batch_certifier_decides_what_validate_decides_on_the_catalogue_and_perturbations():
    rng = random.Random(40)
    verdicts = Counter()
    for A in _catalogue_structures():
        assert _certified(A)
        for B in _perturbations(A, rng):
            verdict = validate(B) == []
            assert _certified(B) is verdict, B
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


@PLANTED_NILPOTENCY
def test_batch_certifier_decides_what_validate_decides_on_planted_nilpotency_tables(A, expected):
    # the nilpotency verdict needs up to k - 1 products, here ceil(log2 k) squarings
    assert _certified(A) is (expected == [])


@pytest.mark.parametrize("spec, constants", [
    (C2C2, (((True, 0), (0, 0)), ((0, 0), (0, 0)))),
    (C2C2, (((0, 0), (0, 0)), ((0, 0), (0, False)))),
    (Z4, (((-1,),),)),
    (Z4, (((4,),),)),
    (GroupSpec(2, (2, 1)), (((0, 2), (0, 0)), ((0, 0), (0, 0)))),
    (C2C2, (((0, 0), (0, 0)),)),
    (C2C2, (((0, 0), (0, 0)), ((0, 0),))),
    (C2C2, (((0, 0), (0, 0, 0)), ((0, 0), (0, 0)))),
    (C2C2, (((0, 0), (0,)), ((0, 0), (0, 0)))),
    (C2C2, (((0, 0), (0, 0)), ((0, 0), (0.0, 0)))),
    (C2C2, (((0, 0), [0, 0]), ((0, 0), (0, 0)))),
    (GroupSpec(2, (1,)), 5),
    (GroupSpec(2, (1,)), None),
    (GroupSpec(2, (1,)), (5,)),
    (GroupSpec(2, (1,)), ((5,),)),
    (GroupSpec(2, (1,)), ((None,),)),
    (GroupSpec(2, (1,)), tuple),
    (GroupSpec(2, (1,)), (tuple,)),
    (GroupSpec(2, (1,)), ((tuple,),)),
    (GroupSpec(2, (1,)), ((iter([0]),),)),
], ids=["bool", "bool-False", "negative", "out-of-range", "out-of-range-second-coordinate", "one-row",
        "short-row", "long-constant", "short-constant", "float", "list-against-tuple", "table-int",
        "table-None", "row-int", "constant-int", "constant-None", "table-class", "row-class",
        "constant-class", "constant-iterator"])
def test_batch_certifier_rejects_the_malformed_tables_validate_rejects(spec, constants):
    # each table is rejected by validate; a valid table beside it is rejected
    # with it, and the valid table alone is accepted
    A = RingStructure(spec, constants)
    assert validate(A) != []
    valid = trivial_structure(spec).constants
    assert nilring._all_valid(spec, [constants]) is False
    assert nilring._all_valid(spec, [valid, constants]) is False
    assert nilring._all_valid(spec, [valid]) is True


def _random_table(spec, rng):
    """A symmetric table whose entries are zero or a random element, half each."""
    k = spec.rank
    table = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            table[i][j] = table[j][i] = (tuple(rng.randrange(m) for m in spec.moduli) if rng.random() < 0.5
                                         else spec.zero())
    return tuple(map(tuple, table))


def _square_into_a_line(spec, rng):
    """A valid table: b_i b_j = beta_ij b_(k-1) on the first k - 1 generators
    for a random symmetric beta, b_(k-1) killing everything; A^3 = 0, and each
    entry is a multiple of the order of G/pG's last factor in G."""
    k, top = spec.rank, spec.moduli[-1] // spec.p
    last = tuple(int(t == k - 1) * top for t in range(k))
    table = [[spec.zero()] * k for _ in range(k)]
    for i in range(k - 1):
        for j in range(i, k - 1):
            beta = rng.randrange(spec.p)
            table[i][j] = table[j][i] = tuple(beta * x % m for x, m in zip(last, spec.moduli))
    return tuple(map(tuple, table))


def _edited(spec, table, rng):
    """table with one entry, or one symmetric pair, set to a random element."""
    k = spec.rank
    rows = [list(row) for row in table]
    i, j = rng.randrange(k), rng.randrange(k)
    rows[i][j] = tuple(rng.randrange(m) for m in spec.moduli)
    if rng.random() < 0.5:
        rows[j][i] = rows[i][j]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("spec", [GroupSpec(2, (1, 1, 1)), GroupSpec(3, (1, 1, 1)), GroupSpec(2, (2, 1, 1)),
                                  GroupSpec(2, (1, 1, 1, 1))], ids=str)
def test_batch_certifier_decides_what_validate_decides_on_random_tables(spec):
    # random tables, valid ones (the search's where it is fast, else tables
    # that square into a line) and their one-entry edits, each alone; then
    # slices of them in every mix, which are valid iff each table is
    rng = random.Random(spec.order)
    if spec.order <= 16 and spec.rank <= 3:
        valid = [A.constants for A in enumerate_structures(spec)]
    else:
        valid = [_square_into_a_line(spec, rng) for _ in range(40)] + [primitive_structure(spec.p, spec.rank).constants]
    tables = ([_random_table(spec, rng) for _ in range(300)] + rng.sample(valid, min(len(valid), 60))
              + [_edited(spec, rng.choice(valid), rng) for _ in range(300)])
    verdicts = {t: validate(RingStructure(spec, t)) == [] for t in tables}
    assert Counter(verdicts.values())[True] >= 20 and Counter(verdicts.values())[False] >= 100
    for t in tables:
        assert nilring._all_valid(spec, [t]) is verdicts[t], t
    assert nilring._all_valid(spec, valid)
    good, mixes = [t for t in tables if verdicts[t]], Counter()
    for size in (2, 3, 7, 40):
        for _ in range(20):
            batch = rng.sample(good, size - 1) + [rng.choice(tables)]
            rng.shuffle(batch)
            mixes[all(map(verdicts.get, batch))] += 1
            assert nilring._all_valid(spec, batch) is all(map(verdicts.get, batch)), batch
    assert mixes[True] and mixes[False]


def test_search_certifies_its_tables_in_batches_with_no_validate_call(monkeypatch):
    # the 288 tables on C8 x C4, in the order that sorting every tensor that
    # validate accepts gives, certified by the batch certifier alone
    spec = GroupSpec(2, (3, 2))
    expected = sorted(t for t in _all_tensors(spec) if not validate(RingStructure(spec, t)))
    calls = []
    monkeypatch.setattr(nilring, "validate", lambda A: calls.append(A) or [])
    assert [A.constants for A in enumerate_structures(spec)] == expected
    assert len(expected) == 288 and calls == []


def test_search_raises_when_the_two_certifiers_disagree(monkeypatch):
    # a rejected slice goes through validate table by table; when validate
    # accepts them all, the disagreement is a theorem violation, not a pass
    monkeypatch.setattr(nilring, "_all_valid", lambda spec, tables: False)
    with pytest.raises(TheoremViolation, match="_all_valid and validate disagree") as info:
        enumerate_structures(C2C2)
    assert info.value.witness == trivial_structure(C2C2).to_json()
