"""Exact arithmetic and subgroup machinery for finite abelian p-groups.

A group is presented as a direct sum of cyclic p-power factors
(GroupSpec); elements are dense residue vectors, one coordinate per
factor, always reduced modulo the factor order.  Everything here is a
pure function on immutable values; outputs are canonically ordered so
runs are deterministic and diffable.
The public ops check their arguments and call the unchecked kernel (`_add`,
`_scalar_mul`, `_walk_subgroups`), which the package runs on its own values.
An element's index is its position in `GroupSpec.elements()`; the index
tables of `_translation_perm` and `_linear_table` are built per coordinate.
The one lattice walk is additive and runs on indices; `subgroup_count`
reads a type alone.  `_grow_by_cosets` grows a span by its cosets under one
commuting map: every closure runs on it, the walk's covers included, and
`_greedy_generators` picks every generating set with it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce

from .errors import InputError

Elem = tuple  # tuple[int, ...], one residue per cyclic factor

DEFAULT_ENUM_CAP = 10_000

_MAX_ORDER = 2**63 - 1  # order must fit in a signed 64-bit integer


def _is_int(v) -> bool:
    """An int that is no bool: JSON's true and false are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _length(x):
    """len(x), or None for an object with no length, whose len raises TypeError."""
    try:
        return len(x)
    except TypeError:
        return None


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..37, exact below
    3.18 * 10^23 (GroupSpec checks p < 2^63 first)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # b witnesses that p is composite unless b^d = 1 or b^(d 2^r) = -1, r < s
    return all(pow(b, d, p) == 1 or any(pow(b, d << r, p) == p - 1 for r in range(s))
               for b in bases)


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian p-group C_{p^e1} x ... x C_{p^ek}, e1 >= ... >= ek."""

    p: int
    exponents: tuple

    def __post_init__(self):
        if _length(self.exponents) is None:
            raise InputError(f"exponents {self.exponents!r} have wrong length: a sequence is needed")
        if not all(map(_is_int, (self.p, *self.exponents))):
            raise InputError(f"p and the exponents must be integers: {self.p}, {self.exponents}")
        exps = tuple(map(int, self.exponents))
        object.__setattr__(self, "exponents", exps)
        if not exps or any(e < 1 for e in exps):
            raise InputError(f"exponents must be positive: {exps}")
        if list(exps) != sorted(exps, reverse=True):
            raise InputError(f"exponents must be nonincreasing: {exps}")
        # a prime never fits sum(exps) >= 63; the range comes first, so p < 2^63 below
        if sum(exps) >= 63 or self.p ** sum(exps) > _MAX_ORDER:
            raise InputError("group order exceeds 64-bit range")
        if not is_prime(self.p):
            raise InputError(f"p = {self.p} is not prime")

    @cached_property
    def rank(self) -> int:
        return len(self.exponents)

    @cached_property
    def n(self) -> int:
        """Total exponent: |G| = p^n."""
        return sum(self.exponents)

    @cached_property
    def moduli(self) -> tuple:
        return tuple(self.p**e for e in self.exponents)

    @cached_property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.moduli, 1)

    def zero(self) -> Elem:
        return (0,) * self.rank

    @cached_property
    def _basis(self) -> tuple:
        """Standard generators: the unit vector of each cyclic factor, built once."""
        return tuple(tuple(int(j == i) for j in range(self.rank)) for i in range(self.rank))

    def basis(self) -> list:
        return list(self._basis)

    def reduce_coords(self, coords) -> Elem:
        if _length(coords) != self.rank:
            raise InputError(f"element {coords} has wrong length for {self}")
        if not all(map(_is_int, coords)):
            raise InputError(f"element {coords} has a non-integer coordinate")
        return tuple(c % m for c, m in zip(coords, self.moduli))

    @cached_property
    def _elements(self) -> tuple:
        return tuple(itertools.product(*map(range, self.moduli)))

    @cached_property
    def element_index(self) -> dict:
        return {x: n for n, x in enumerate(self._elements)}

    def elements(self) -> tuple:
        """All elements in lexicographic coordinate order: one tuple, built on
        first use and kept on the spec, outside the dataclass fields."""
        return self._elements

    def check_elem(self, a: Elem) -> None:
        """InputError unless a is a sequence of rank ints, each in [0, its modulus)."""
        if _length(a) != self.rank:
            raise InputError(f"element {a} has wrong length for {self}")
        if not (all(map(_is_int, a)) and min(a) >= 0 and all(map(operator.lt, a, self.moduli))):
            raise InputError(f"element {a} not reduced for moduli {self.moduli}")

    def to_json(self) -> dict:
        return {"p": self.p, "exponents": list(self.exponents)}

    @staticmethod
    def from_json(data: dict) -> "GroupSpec":
        try:
            return GroupSpec(data["p"], tuple(data["exponents"]))
        except KeyError as key:
            raise InputError(f"spec JSON has no key {key}") from None
        except TypeError:
            raise InputError(f"spec JSON must be {{'p': int, 'exponents': [int, ...]}}: {data!r}") from None

    def __str__(self):
        return " x ".join(f"C{m}" for m in self.moduli)


def _elementary(p: int, n: int) -> GroupSpec:
    """C_p^n; GroupSpec rejects every n >= 63, so n is cut to 63 first."""
    return GroupSpec(p, (1,) * min(n, 63))


def _add(spec: GroupSpec, a: Elem, b: Elem) -> Elem:
    return tuple(map(operator.mod, map(operator.add, a, b), spec.moduli))


def _scalar_mul(spec: GroupSpec, m: int, a: Elem) -> Elem:
    return tuple((m * x) % mod for x, mod in zip(a, spec.moduli))


def _translation_perm(spec: GroupSpec, g: Elem) -> tuple:
    """The index permutation of x -> g + x: coordinate i of g + x depends on
    x_i alone, so one product of the shifted ranges lists the images in order."""
    shifted = [[(gi + t) % mod for t in range(mod)] for gi, mod in zip(g, spec.moduli)]
    return tuple(map(spec.element_index.__getitem__, itertools.product(*shifted)))


def _linear_table(spec: GroupSpec, m) -> tuple:
    """The index table of x -> m(x), m well defined: coordinate i of m(x) is
    sum_j m_ij x_j mod m_i, for every x at once from one product per row."""
    coords = []
    for row, mod in zip(m, spec.moduli):
        multiples = [[c * t for t in range(mj)] for c, mj in zip(row, spec.moduli)]
        coords.append(map(operator.mod, map(sum, itertools.product(*multiples)), itertools.repeat(mod)))
    return tuple(map(spec.element_index.__getitem__, zip(*coords)))


def _pivots(p: int, vectors) -> dict:
    """Gaussian elimination mod p: {t: v}, one v per dimension of the span of
    `vectors` in F_p^k, v in the span with last nonzero coordinate t, there 1.
    The keys depend on the span alone, and its dimension is their number."""
    pivots = {}
    for v in vectors:
        v = [x % p for x in v]
        while any(v):
            t = max([t for t, x in enumerate(v) if x])
            if t not in pivots:
                pivots[t] = [x * pow(v[t], -1, p) % p for x in v]
                break
            v = [(x - v[t] * y) % p for x, y in zip(v, pivots[t])]
    return pivots


def _nilpotent_mod_p(p: int, rows) -> bool:
    """Whether the k x k matrix `rows` is nilpotent mod p: squared s times to
    0, 2^s >= k, as a nilpotent N on F_p^k has N^k = 0."""
    power = [[x % p for x in row] for row in rows]
    for _ in range((len(power) - 1).bit_length()):
        if any(map(any, power)):
            power = [[sum(map(operator.mul, row, col)) % p for col in zip(*power)] for row in power]
    return not any(map(any, power))


def _grow_by_cosets(span: set, step) -> set:
    """span, grown in place by its images under the powers of the map `step`,
    up to the first image inside it.  When span is a group H of permutations
    (or of elements, step a translation), or the orbit of one, and step
    commutes with H, the images are the cosets step^k H, so span becomes
    <H, step>, or its orbit."""
    coset = span
    while not (coset := set(map(step, coset))) <= span:
        span |= coset
    return span


def add(spec: GroupSpec, a: Elem, b: Elem) -> Elem:
    spec.check_elem(a)
    spec.check_elem(b)
    return _add(spec, a, b)


def scalar_mul(spec: GroupSpec, m: int, a: Elem) -> Elem:
    if not _is_int(m):
        raise InputError(f"multiplier {m!r} is not an integer")
    spec.check_elem(a)
    return _scalar_mul(spec, m, a)


@dataclass(frozen=True)
class Subgroup:
    """An additive subgroup: sorted element list, and a minimal generating
    list (`minimal_generators`) computed on first read."""

    spec: GroupSpec
    elements: tuple  # sorted, deduplicated tuple of Elem

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def generators(self) -> tuple:
        return minimal_generators(self.spec, frozenset(self.elements))

    def to_json(self) -> dict:
        return {"generators": [list(g) for g in self.generators], "size": self.size}

    def sort_key(self):
        return (self.size, self.elements)


def _greedy_generators(items, span: set, step) -> list:
    """The items outside the span of those before them, in order; each joining
    x grows `span` in place by its cosets under step(x) (`_grow_by_cosets`)."""
    gens = []
    for x in items:
        if x not in span:
            gens.append(x)
            _grow_by_cosets(span, step(x))
    return gens


def additive_closure(spec: GroupSpec, gens) -> frozenset:
    """Closure of the sequence gens under addition: {0} grown by `_greedy_generators`.
    Each gen is read by `GroupSpec.reduce_coords`, which checks its length and type."""
    if _length(gens) is None:
        raise InputError(f"generators {gens!r} have wrong length: a sequence of elements is needed")
    elems = {spec.zero()}
    _greedy_generators(map(spec.reduce_coords, gens), elems, lambda g: partial(_add, spec, g))
    return frozenset(elems)


def minimal_generators(spec: GroupSpec, elements: frozenset) -> tuple:
    """Minimal-size generating list for a subgroup given by its elements.

    Picks representatives whose images are independent in J/pJ, which by
    the Burnside basis theorem yields a generating set of minimal size:
    `_greedy_generators` over the sorted elements, from the span pJ.
    """
    span = {_scalar_mul(spec, spec.p, x) for x in elements}
    return tuple(_greedy_generators(sorted(elements), span, lambda x: partial(_add, spec, x)))


def walk_subgroups(spec: GroupSpec, maps=()) -> list:
    """The checked form of `_walk_subgroups`: a map that is not |G| entries,
    each an element index or None (which lies in no subgroup), is an InputError."""
    maps, entries = tuple(maps), {None, *range(spec.order)}
    if any(_length(m) != spec.order or not entries.issuperset(m) for m in maps):
        raise InputError(f"each map must be a table of {spec.order} element indices or None")
    return _walk_subgroups(spec, maps)


def _walk_subgroups(spec: GroupSpec, maps) -> list:
    """Every additive subgroup of `spec` that each map in `maps`
    (endomorphisms) sends into itself, canonically sorted.  Each map is an
    index table like `_linear_table`'s, m[n] the index of the image of
    elements[n]; on a group that is not elementary the walk tabulates x -> px
    as one more such table (else px = 0, which lies in every subgroup).

    Each cover J < I has index p: I is J + <g> for any g in I - J, and pg and
    each m(g) lie in J.  This holds for subgroups of a p-group, and for ideals
    of a nilpotent ring A with the products by ring generators as `maps`, as A
    acts trivially on the simple module I/J: AI and pI lie in J.  For each J,
    a g inside a cover already found is skipped; else J grows by
    `_grow_by_cosets` under g's translation table, built once per call, into
    g + J, ..., (p - 1)g + J, as pg + J = J.  Subgroups are walked as sets of
    indices and decoded only when returned.
    """
    elements = spec.elements()
    if spec.exponents[0] > 1:
        maps = (_linear_table(spec, [[spec.p * c for c in row] for row in spec.basis()]), *maps)
    shift = cache(lambda g: _translation_perm(spec, elements[g]).__getitem__)
    images = tuple(zip(*maps)) or ((),) * len(elements)
    level = [frozenset({0})]
    found = list(level)
    while level:
        covers = {}  # insertion-ordered, so the walk is deterministic
        for J in level:
            covered = set(J)
            for g, g_images in enumerate(images):
                if g in covered or not J.issuperset(g_images):
                    continue
                cover = _grow_by_cosets(set(J), shift(g))
                covered |= cover
                covers[frozenset(cover)] = None
        level = list(covers)
        found.extend(level)
    subgroups = (Subgroup(spec, tuple(map(elements.__getitem__, sorted(e)))) for e in found)
    return sorted(subgroups, key=Subgroup.sort_key)


def _gaussian_binomial(p: int, n: int, r: int) -> int:
    """[n choose r]_p, the number of r-dimensional subspaces of F_p^n, by
    exact integer division."""
    num = den = 1
    for i in range(r):
        num *= p**n - p**i
        den *= p**r - p**i
    assert num % den == 0
    return num // den


def subgroup_count(p: int, exponents) -> int:
    """Number of subgroups of the abelian p-group of type lam = `exponents`,
    from the type alone (Butler, Subgroup lattices and symmetric functions,
    Mem. AMS 539, 1994): with ' the conjugate partition, the sum over types
    mu <= lam, that is over nonincreasing mu' <= lam' entrywise, of
    prod_i p^(mu'_{i+1} (lam'_i - mu'_i)) [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p."""
    lam = GroupSpec(p, exponents).exponents
    lc = [sum(1 for e in lam if e > i) for i in range(lam[0])]
    total = 0
    for mc in itertools.combinations_with_replacement(range(lc[0], -1, -1), len(lc)):
        if all(a <= c for a, c in zip(mc, lc)):
            total += math.prod(p ** (b * (c - a)) * _gaussian_binomial(p, c - b, a - b)
                               for c, a, b in zip(lc, mc, mc[1:] + (0,)))
    return total
