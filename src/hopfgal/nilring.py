"""Nilpotent commutative associative ring structures on a GroupSpec.

A structure is stored as a symmetric table of structure constants on the
standard generators and extended bilinearly.  The induced circle
operation a o b = a + b + a*b turns the underlying set into a group,
whose isomorphism type plays the role of the Galois group.
`mul` and `circle` check their input, then call the unchecked `_mul` and
`_circle` the package runs.  The ideals and the circle type are served by
`correspondence.Context`, which caps and validates a structure first.
The element kernel runs on sparse terms: the nonzero generator products,
listed once per structure on first use.  `validate`, `nilpotency_index` and
the search's row tests run on the matrices of x -> b_i x, the constants' rows
transposed.  `enumerate_structures` fills the table a depth at a time: every
kept prefix meets every tail of row i, the map x -> b_i x, kept when it is
nilpotent on G/pG, decided for every residue class of row 0 mod p in one batch
before the search, and commutes with the rows before it, tested on bounded
slices against one earlier row after another; equal kept rows are one object.
`validate` checks associativity on the triples i < l, and nilpotency on each
matrix mod p; the search's kept tables are certified by the same axioms a slice
at a time (`_all_valid`), and a slice it rejects by `validate`, table by table.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

from . import abelian
from .abelian import Elem, GroupSpec, _length
from .errors import CapExceeded, InputError, TheoremViolation

DEFAULT_SEARCH_CAP = 1 << 24


@dataclass(frozen=True)
class RingStructure:
    """Commutative multiplication on a GroupSpec via generator products.

    constants[i][j] is the product of the i-th and j-th standard
    generators; validity (symmetry, well-definedness, associativity,
    nilpotency) is checked by `validate`, not by the constructor.
    """

    spec: GroupSpec
    constants: tuple  # k x k tuple of Elem

    def is_trivial(self) -> bool:
        zero = self.spec.zero()
        return all(c == zero for row in self.constants for c in row)

    def to_json(self) -> dict:
        # JSON encoders write the constants' tuples as arrays
        return {"spec": self.spec.to_json(), "constants": self.constants}

    @staticmethod
    def from_json(data: dict) -> "RingStructure":
        try:
            return RingStructure(GroupSpec.from_json(data["spec"]),
                                 tuple(tuple(tuple(c) for c in row) for row in data["constants"]))
        except KeyError as key:
            raise InputError(f"structure JSON has no key {key}") from None
        except TypeError:
            raise InputError(f"structure JSON must be {{'spec': ..., 'constants': [[elem, ...], ...]}}: {data!r}") from None

    @cached_property
    def _terms(self) -> tuple:
        """(i, j, ((t, c_t), ...)) for each nonzero product b_i b_j, with
        c_t its nonzero coordinates: the sparse table `_product` runs on.
        Kept on the instance, outside the dataclass fields."""
        return tuple(
            (i, j, tuple((t, c) for t, c in enumerate(cij) if c))
            for i, row in enumerate(self.constants)
            for j, cij in enumerate(row)
            if any(cij)
        )


@dataclass(frozen=True)
class Violation:
    axiom: str  # "shape" | "symmetry" | "well-defined" | "associativity" | "nilpotency"
    witness: tuple


def make_structure(spec: GroupSpec, constants) -> RingStructure:
    if not _square(RingStructure(spec, constants)):  # before a part with no length is iterated
        raise InputError(f"constants table must be {spec.rank}x{spec.rank}: it or a row has the wrong length")
    return RingStructure(spec, tuple(tuple(spec.reduce_coords(c) for c in row) for row in constants))


def _product(A: RingStructure, a: Elem, b: Elem, acc: list) -> Elem:
    """acc + a*b, reduced: the bilinear extension of the generator products,
    over the nonzero ones only (`RingStructure._terms`)."""
    for i, j, coeffs in A._terms:
        xy = a[i] * b[j]
        if xy:
            for t, c in coeffs:
                acc[t] += xy * c
    return tuple(map(operator.mod, acc, A.spec.moduli))


def _mul(A: RingStructure, a: Elem, b: Elem) -> Elem:
    return _product(A, a, b, [0] * len(a))


def _circle(A: RingStructure, a: Elem, b: Elem) -> Elem:
    return _product(A, a, b, list(map(operator.add, a, b)))


def mul(A: RingStructure, a: Elem, b: Elem) -> Elem:
    """Bilinear extension of the generator products."""
    A.spec.check_elem(a)
    A.spec.check_elem(b)
    return _mul(A, a, b)


def nilpotency_index(A: RingStructure) -> int:
    """Least m with every m-fold product zero; n + 2 if A^(n+1) != 0, where
    valid structures have m <= n + 1.  The products ops[i] g = b_i g of the
    generators g of A^m generate A^(m+1), by bilinearity, so A^m = 0 exactly
    when no nonzero generator is left (ops[i]: `validate`'s matrices)."""
    if not _square(A):
        raise InputError(f"constants table must be {A.spec.rank}x{A.spec.rank}")
    for c in itertools.chain.from_iterable(A.constants):
        A.spec.check_elem(c)
    spec, zero, ops = A.spec, A.spec.zero(), [tuple(zip(*row)) for row in A.constants]
    gens = set(map(tuple, itertools.chain.from_iterable(A.constants))) - {zero}  # of A^2
    m = 2
    while gens and m <= spec.n + 1:
        gens = {tuple([sum(map(operator.mul, row, g)) % mod for row, mod in zip(op, spec.moduli)])
                for op in ops for g in gens} - {zero}
        m += 1
    return m


def _square(A: RingStructure) -> bool:
    """Whether the constants are a k x k table (`abelian._length` decides what has a length)."""
    return _length(A.constants) == A.spec.rank and all(_length(row) == A.spec.rank for row in A.constants)


def validate(A: RingStructure) -> list:
    """All axiom violations (empty iff A is a valid nilpotent structure).

    Never raises: each violation names the failing axiom and a witness.  Every
    product is read off the matrix ops[i][u][t] = (b_i b_t)_u of x -> b_i x:
    (b_i b_j) b_l = ops[l] c_ij and b_i (b_j b_l) = ops[i] c_jl, by symmetry.
    Associativity is checked once the product is commutative, on the triples
    i < l: (b_l b_j) b_i = b_i (b_j b_l) and b_l (b_j b_i) = (b_i b_j) b_l, so
    (l, j, i) is (i, j, l) with its sides swapped, and (i, j, i) holds.  A
    failing (i, j, l) is listed with (l, j, i), all in lexicographic order.
    Nilpotency comes last, when the L_i = (x -> b_i x) commute: A^(n+1) = 0 iff
    each L_i is nilpotent (L_i^n G is in A^(n+1); commuting nilpotent L_i make
    A > A^2 > ... fall strictly to 0, |G| = p^n).  As L_i commutes with x -> px,
    that holds iff ops[i] mod p on G/pG = F_p^k, squared s times, is 0, 2^s >= k.
    """
    spec, c, k, moduli, p = A.spec, A.constants, A.spec.rank, A.spec.moduli, A.spec.p
    if not _square(A):
        return [Violation("shape", (c if (n := _length(c)) is None else n,))]
    for i, j in itertools.product(range(k), repeat=2):
        try:
            spec.check_elem(c[i][j])
        except InputError:
            return [Violation("shape", (i, j, c[i][j]))]
    out = [Violation("symmetry", (i, j)) for i, j in itertools.combinations(range(k), 2) if c[i][j] != c[j][i]]
    # bilinearity must respect the generator orders: p^min(e_i, e_j) c_ij = min(m_i, m_j) c_ij = 0
    out += [Violation("well-defined", (i, j)) for i, j in itertools.product(range(k), repeat=2)
            if any(map(operator.mod, map(min(moduli[i], moduli[j]).__mul__, c[i][j]), moduli))]
    if out:
        return out
    ops = [tuple(zip(*row)) for row in c]
    failed = sorted(
        triple
        for i, l in itertools.combinations(range(k), 2)
        for j in range(k)
        if any((sum(map(operator.mul, row_l, c[i][j])) - sum(map(operator.mul, row_i, c[j][l]))) % m
               for row_l, row_i, m in zip(ops[l], ops[i], moduli))
        for triple in ((i, j, l), (l, j, i))
    )
    if failed:
        return [Violation("associativity", triple) for triple in failed]
    if not all(abelian._nilpotent_mod_p(p, op) for op in ops):
        return [Violation("nilpotency", (next((x for row in c for x in row if any(x)), spec.zero()),))]
    return []


_SLICE_PRODUCTS = 1 << 16  # gathered products per slice and pass: k^4 per table in `_all_valid`, k^3 per class, 2k^3 per row


def _all_valid(spec: GroupSpec, tables: list) -> bool:
    """Whether `validate` accepts every table, by its axioms on all the tables at
    once and with no helper of the search.  col[i, j, t] lists c[i][j][t] of every
    table, so a list of keys gathers one run over all of them: associativity is
    ops[l] c_ij = ops[i] c_jl on the triples i < l, as in `validate`, and
    nilpotency each c[i] mod p, the transpose of ops[i], squared s times to 0."""
    k, moduli, p, n = spec.rank, spec.moduli, spec.p, len(tables)
    try:  # a part with no length raises TypeError
        rows = list(itertools.chain.from_iterable(tables))
        entries = list(itertools.chain.from_iterable(rows))
        flat = list(itertools.chain.from_iterable(entries))
        lengths = {*map(len, tables), *map(len, rows), *map(len, entries)}
    except TypeError:
        return False
    bounds = moduli * (k * k * n)
    if lengths - {k} or not ({int} >= set(map(type, flat)) or all(map(abelian._is_int, flat))) \
            or min(flat, default=0) < 0 or not all(map(operator.lt, flat, bounds)):
        return False

    def gather(cols, keys):
        return itertools.chain.from_iterable(map(cols.__getitem__, keys))

    pairs, cells = list(itertools.combinations(range(k), 2)), list(itertools.product(range(k), repeat=3))
    by_entry = [entries[x::k * k] for x in range(k * k)]
    orders = [min(moduli[i], moduli[j]) for i, j, _ in cells] * n  # the order condition, per offset
    if list(gather(by_entry, [i * k + j for i, j in pairs])) != list(gather(by_entry, [j * k + i for i, j in pairs])) \
            or any(map(operator.mod, map(operator.mul, flat, orders), bounds)):
        return False
    col = {key: flat[x::k**3] for x, key in enumerate(cells)}
    triples = [(i, j, l, u) for i, l in pairs for j in range(k) for u in range(k)]
    left = [map(operator.mul, gather(col, [(l, t, u) for i, j, l, u in triples]),
                gather(col, [(i, j, t) for i, j, l, u in triples])) for t in range(k)]
    right = [map(operator.mul, gather(col, [(i, t, u) for i, j, l, u in triples]),
                 gather(col, [(j, l, t) for i, j, l, u in triples])) for t in range(k)]
    differences = map(operator.sub, map(sum, zip(*left)), map(sum, zip(*right)))
    if any(map(operator.mod, differences, gather([[m] * n for m in moduli], [u for *_, u in triples]))):
        return False
    power = {key: list(map(p.__rmod__, x)) for key, x in col.items()}
    plans = [([(i, a, t) for i, a, b in cells], [(i, t, b) for i, a, b in cells]) for t in range(k)]
    for _ in range((k - 1).bit_length()):  # power = c[i]^(2^s) mod p, 2^s >= k
        squared = list(map(p.__rmod__, map(sum, zip(*(
            map(operator.mul, gather(power, a), gather(power, b)) for a, b in plans)))))
        power = {key: squared[x * n:(x + 1) * n] for x, key in enumerate(cells)}
    return not any(map(any, power.values()))


def circle(A: RingStructure, a: Elem, b: Elem) -> Elem:
    """a o b = a + b + a*b."""
    A.spec.check_elem(a)
    A.spec.check_elem(b)
    return _circle(A, a, b)


def trivial_structure(spec: GroupSpec) -> RingStructure:
    """The structure with all products zero (A^2 = 0)."""
    return RingStructure(spec, ((spec.zero(),) * spec.rank,) * spec.rank)


def primitive_structure(p: int, n: int) -> RingStructure:
    """One-generator structure on F_p^n: basis z, z^2, ..., z^n with z^{n+1} = 0."""
    if not abelian._is_int(n):
        raise InputError(f"n must be an integer: {n!r}")
    if n < 1:
        raise InputError("n must be >= 1")
    spec = abelian._elementary(p, n)
    # generator index i stands for z^(i+1), so b_i b_j = z^(i+j+2) is b_(i+j+1), or 0
    powers = spec.basis() + [spec.zero()] * n
    return RingStructure(spec, tuple(tuple(powers[i + j + 1] for j in range(n)) for i in range(n)))


def cyclic_structure(p: int, n: int, d: int) -> RingStructure:
    """Structure A_d on Z/p^n (p odd): r * s = r*s*p*d."""
    if p == 2:
        raise InputError("cyclic family requires an odd prime")
    if not all(map(abelian._is_int, (n, d))):
        raise InputError(f"n and d must be integers: {n!r}, {d!r}")
    if n < 1:
        raise InputError("n must be >= 1")
    spec = GroupSpec(p, (n,))  # its range check comes before p^(n-1)
    if not (0 <= d < p ** (n - 1)):
        raise InputError(f"d must lie in [0, p^(n-1)) = [0, {p ** (n - 1)})")
    return RingStructure(spec, ((( (p * d) % p**n ,),),))


def _entry_ranges(spec: GroupSpec, i: int, j: int) -> list:
    """Per coordinate, the residues admissible in the (i, j) structure
    constant (order condition); the candidates are their product."""
    killer = min(spec.exponents[i], spec.exponents[j])
    return [
        range(0, m, spec.p ** max(0, e - killer))
        for e, m in zip(spec.exponents, spec.moduli)
    ]


def _commuting(spec: GroupSpec, rows: list, others: list) -> list:
    """Per x, whether the map L of rows[x] commutes with the map L' of
    others[x] on the generators: L(L'(b_t)) = L'(L(b_t)), L(b_t) = row[t],
    one coordinate at a time, L(y)_u = sum_s y_s row[s][u].  col[s * k + u]
    lists entry (s, u) of every row, and the other rows' columns are also
    negated, so each difference (t, u) is one sum in one C-level run."""
    k, moduli = spec.rank, spec.moduli
    flat, other = (list(itertools.chain.from_iterable(itertools.chain.from_iterable(x))) for x in (rows, others))
    col, other_col = [flat[x::k * k] for x in range(k * k)], [other[x::k * k] for x in range(k * k)]
    negated = [list(map(operator.neg, c)) for c in other_col]
    differences = [map(moduli[u].__rmod__, map(sum, zip(
        *(map(operator.mul, col[s * k + u], other_col[t * k + s]) for s in range(k)),
        *(map(operator.mul, col[t * k + s], negated[s * k + u]) for s in range(k)))))
        for t, u in itertools.product(range(k), repeat=2)]
    return list(map(operator.not_, map(any, zip(*differences))))


def _nilpotent_classes(spec: GroupSpec, residues) -> set:
    """The classes in the product of `residues` (per entry of row 0, its distinct
    residues mod p) on which the map L of the row (`_commuting`) is nilpotent.  L
    commutes with x -> px, so L^k(G) in pG gives L^(ke)(G) = 0, e the largest
    exponent: L is nilpotent iff its matrix mod p on G/pG = F_p^k, here its
    transpose, squared s times is 0, 2^s >= k.  col[a * k + b] lists entry (a, b)
    of a slice of classes, so each squaring is one C-level run over the slice."""
    k, p, classes, out = spec.rank, spec.p, itertools.product(*residues), set()
    cells = list(itertools.product(range(k), repeat=2))
    while batch := list(itertools.islice(classes, max(1, _SLICE_PRODUCTS // k**3))):
        flat = list(itertools.chain.from_iterable(itertools.chain.from_iterable(batch)))
        col = [flat[x::k * k] for x in range(k * k)]
        for _ in range((k - 1).bit_length()):  # col = matrix^(2^s) mod p, 2^s >= k
            col = [list(map(p.__rmod__, map(sum, zip(*(map(operator.mul, col[a * k + t], col[t * k + b])
                                                        for t in range(k)))))) for a, b in cells]
        out.update(itertools.compress(batch, map(operator.not_, map(any, zip(*col)))))
    return out


def _kept_tables(spec: GroupSpec, candidates, residues, nilpotent) -> list:
    """The tables whose rows are nilpotent and commute with every earlier row,
    built a depth at a time; candidates[i] lists row i's entries j >= i,
    residues[i] the same mod p.  At depth i each kept prefix, in order, meets
    each tail of row i, in order.  A row is nilpotent iff its residue class, its
    entries' residues, is in `nilpotent` (`_nilpotent_classes`), so the tails
    that pass are listed once per class of the head, the entries fixed by the
    prefix.  A slice of those rows is tested against earlier row 0, what passes
    against row 1, and so on: the pairs a short-circuiting test per row would
    try.  Equal kept rows are one object, per call."""
    k, p, shared, tables = spec.rank, spec.p, {}, [()]
    for i in range(k):
        heads = [tuple(row[i] for row in table) for table in tables]
        keys = [tuple(tuple(map(p.__rmod__, x)) for x in head) for head in heads]
        passing = {key: list(itertools.compress(itertools.product(*candidates[i]), map(
            nilpotent.__contains__, map(key.__add__, itertools.product(*residues[i]))))) for key in set(keys)}
        pairs = itertools.chain.from_iterable(zip(itertools.repeat(a), passing[key]) for a, key in enumerate(keys))
        kept = []
        while batch := list(itertools.islice(pairs, max(1, _SLICE_PRODUCTS // (2 * k**3)))):
            prefixes, tails = map(list, zip(*batch))
            rows = list(map(operator.add, map(heads.__getitem__, prefixes), tails))
            for j in range(i):
                verdicts = _commuting(spec, rows, [tables[a][j] for a in prefixes])
                prefixes, rows = (list(itertools.compress(x, verdicts)) for x in (prefixes, rows))
            kept += zip(prefixes, map(shared.setdefault, rows, rows))
        tables = [tables[a] + (row,) for a, row in kept]
    return tables


def enumerate_structures(
    spec: GroupSpec, search_cap: int = DEFAULT_SEARCH_CAP
) -> list:
    """Every valid structure on spec, exactly once, ordered by constants tensor.

    A search over the rows of the symmetric constants table c, a depth at a
    time (`_kept_tables`).  Row i takes c[i][j], j < i, from the rows already
    fixed, and each c[i][j], j >= i, from the constants that satisfy the order
    condition.  Row i is the map L_i = (x -> b_i x); it is kept when L_i
    commutes with every earlier L_j and is nilpotent.  The prune is exact:

    - (xy)z = L_z L_x y and x(yz) = L_x L_z y, so a commutative product is
      associative iff the maps L commute, and by bilinearity iff the L_i
      commute on the generators.
    - Commuting nilpotent L_i generate a nilpotent algebra R of maps, and
      A^(m+1) = R A^m, so A > A^2 > ... falls strictly until it reaches 0:
      A^(n+1) = 0, |G| = p^n.  A valid structure has nilpotent L_i.
    - L_i commutes with x -> px, so it is nilpotent iff the map it induces
      on G/pG is.  That map depends on row i mod p alone, so
      `_nilpotent_classes` decides every residue class of row 0 in one batch
      before the search, and a row of a class that fails gets no commute
      test.  Every row's class is one of row 0's: the exponents do not
      increase, and entry (i, j) has residues mod p in coordinate u only if
      e_u <= min(e_i, e_j) <= e_j = min(e_0, e_j), where entry (0, j) has all.

    The search space (the product of the candidate counts, in tensors) is
    compared with search_cap as it is multiplied up, before any candidate
    is built.  `_all_valid` certifies the full tables a bounded slice at a
    time; a slice it rejects raises TheoremViolation with the first table
    `validate` rejects, or, if there is none, as a disagreement.  At each
    depth the kept prefixes meet the tails in lexicographic order, so the tables
    come out sorted.  The commute test runs on bounded slices of rows, against
    one earlier row at a time (`_commuting`), and equal kept rows are one object,
    so a payload that holds the tables writes each distinct row once.
    """
    k = spec.rank
    space = 1
    for i in range(k):
        for j in range(i, k):
            for r in _entry_ranges(spec, i, j):
                space *= len(r)
                if space > search_cap:
                    raise CapExceeded(f"search space exceeds cap {search_cap}")
    candidates = [
        [list(itertools.product(*_entry_ranges(spec, i, j))) for j in range(i, k)]
        for i in range(k)
    ]
    residues = [[[tuple(c % spec.p for c in x) for x in entry] for entry in row] for row in candidates]
    nilpotent = _nilpotent_classes(spec, [list(dict.fromkeys(entry)) for entry in residues[0]])
    out, tables = [], iter(_kept_tables(spec, candidates, residues, nilpotent))
    while batch := list(itertools.islice(tables, max(1, _SLICE_PRODUCTS // k**4))):
        if not _all_valid(spec, batch):
            for A in map(RingStructure, itertools.repeat(spec), batch):
                if validate(A):
                    raise TheoremViolation("search kept an invalid structure", witness=A.to_json())
            raise TheoremViolation("_all_valid and validate disagree", witness=RingStructure(spec, batch[0]).to_json())
        out += map(RingStructure, itertools.repeat(spec), batch)
    return out
