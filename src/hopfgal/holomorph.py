"""Hol(G) as invertible affine maps on a finite abelian p-group.

Elements are stored as (translation, matrix) pairs: x -> a + m(x), m in
`linalg`'s format, column j the image of the j-th standard generator.
Includes the embedding of the circle group into Hol(G), both directions of
the structure/regular-subgroup correspondence, and the regular-subgroup
search for small holomorphs.  `AffineMap.apply`, `tau`, `translation` and
`affine_map` check their elements, `tau` its constants' shape, `tau` and
`inverse` that the linear part is an automorphism (`is_invertible`: k x k,
well defined, rank k mod p), and `regular_subgroup_from_ring` its ring; the
rest is unchecked, and the package's own loops build and invert circle
translations with `_tau` and `_inverse`.  The round trip runs on the
matrices: a reduced, well-defined (a, m) is its map, and the way back tests
T abelian by T = tau(A), with no closure.  A map tabulates its linear part
on element indices once, for the preimages `_inverse` reads and the
conjugation report.  The regular-subgroup search runs on pairs (a, n),
x -> a + m(x) with a an element index and m the n-th automorphism, and
decides mod p, on G/pG = F_p^k: m is an automorphism iff m mod p has rank k
(`is_invertible`), and has p-power order iff m mod p is unipotent
(`_unipotent`), and then so has x -> a + m(x), as the translations are a
p-group.  No permutation is composed or raised to a power: only the
unipotent m are tabulated, with their 1 - m for the fixed points.  The
search grows subgroups by cosets (`_extend`), and counts a subgroup abelian
if its generators commute.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, partial

from . import abelian, linalg, nilring
from .abelian import Elem, GroupSpec, _length
from .errors import CapExceeded, InputError, TheoremViolation
from .nilring import RingStructure

DEFAULT_HOL_CAP = 2000


@dataclass(frozen=True)
class AffineMap:
    """x -> a + m(x); rows of m are reduced modulo the row's factor order."""

    spec: GroupSpec
    a: Elem
    m: tuple  # k x k tuple of rows of ints

    def apply(self, x: Elem) -> Elem:
        return abelian._add(self.spec, self.a, self.linear_apply(self.spec.check_elem(x)))

    def linear_apply(self, x: Elem) -> Elem:
        return linalg.apply(self.spec.moduli, self.m, x)

    @cached_property
    def linear_table(self) -> tuple:
        """The index of m(x) for each x in spec.elements() order, built on first
        use and kept on the map, outside the dataclass fields."""
        return abelian._linear_table(self.spec, self.m)

    def is_translation(self) -> bool:
        return self.m == self.spec._basis

    def sort_key(self):
        return (self.a, self.m)

    def to_json(self) -> dict:
        return {"a": list(self.a), "m": [list(row) for row in self.m]}


def affine_map(spec: GroupSpec, a: Elem, m) -> AffineMap:
    a = spec.check_elem(a)
    if not _int_matrix(spec, m):
        raise InputError(f"matrix {m} has wrong shape or a non-integer entry: k x k ints are needed")
    mat = linalg.reduce(spec.moduli, m)
    if not linalg.well_defined(spec.moduli, mat):
        raise InputError(f"matrix {mat} is not a well-defined endomorphism")
    return AffineMap(spec, a, mat)


def translation(spec: GroupSpec, g: Elem) -> AffineMap:
    """The left regular representation of (G, +): x -> g + x."""
    return AffineMap(spec, spec.check_elem(g), spec._basis)


def is_invertible(f: AffineMap) -> bool:
    """Whether f lies in Hol(G): whether its linear part m is an automorphism
    of G, that is, a k x k matrix (`nilring._square`) of ints, no bools (as
    `affine_map` requires), well defined, and of rank k mod p
    (`linalg.pivots`).  m induces m' = (m_ij mod p) on G/pG = F_p^k.  If m is
    onto, so is m'.  If m' has rank k, m(G) + pG = G, and pG is the Frattini
    subgroup of G, so m(G) = G by the Burnside basis theorem: a set that
    generates G modulo pG generates G.  Then m, onto the finite G, is one to
    one.  No map is tabulated."""
    return (_int_matrix(f.spec, f.m) and linalg.well_defined(f.spec.moduli, f.m)
            and len(linalg.pivots(f.spec.p, f.m)) == f.spec.rank)


def _int_matrix(spec: GroupSpec, m) -> bool:
    """Whether m is k x k (`nilring._square`) and of ints, no bools (`abelian._is_int`)."""
    return nilring._square(spec, m) and all(abelian._is_int(v) for row in m for v in row)


def compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """(f o g)(x) = f(g(x)) = f.a + f.m(g.a) + f.m g.m(x): f.m times the
    augmented matrix [g.m | g.a], then f.a added, with no map evaluated."""
    if f.spec != g.spec:
        raise InputError("affine maps over different specs")
    spec = f.spec
    *cols, a = (linalg.apply(spec.moduli, f.m, col) for col in (*zip(*g.m), g.a))
    return AffineMap(spec, abelian._add(spec, f.a, a), tuple(zip(*cols)))


def inverse(f: AffineMap) -> AffineMap:
    """Inverse map x -> m^{-1}(x - a) (`_inverse`) of an f in Hol(G): InputError
    unless a is an element (`check_elem`) and m is k x k, of ints, well defined
    and of rank k mod p (`is_invertible`).  Only an f whose a is no tuple is rebuilt."""
    a = f.spec.check_elem(f.a)
    if not is_invertible(f):
        raise InputError("linear part is not invertible")
    return _inverse(f if a is f.a else AffineMap(f.spec, a, f.m))


def _inverse(f: AffineMap) -> AffineMap:
    """inverse, unchecked, for m an automorphism (as `is_invertible` decides):
    the preimages of the generators and of a are read off the linear table."""
    spec = f.spec
    elems, index, table = spec.elements(), spec.element_index, f.linear_table
    *cols, a = [elems[table.index(index[y])] for y in spec._basis + (f.a,)]
    return AffineMap(spec, abelian._scalar_mul(spec, -1, a), tuple(zip(*cols)))


def tau(A: RingStructure, g: Elem) -> AffineMap:
    """The affine map x -> g o x realizing left circle translation by g.  A is
    not validated here, so its constants are checked to be a k x k table of
    elements (`nilring._check_constants`), and the map to lie in Hol(G), its
    linear part well defined with rank k mod p (`is_invertible`): InputError
    if not.  The package's own loops over `spec.elements()` call `_tau`, which
    skips these checks."""
    g = A.spec.check_elem(g)
    nilring._check_constants(A)
    f = _tau(A, g)
    if not is_invertible(f):
        raise InputError(f"circle translation by {g} is not invertible: invalid structure")
    return f


def _tau(A: RingStructure, g: Elem) -> AffineMap:
    """tau for a reduced g, unchecked: x -> g + (I + M_g)(x), M_g multiplication
    by g, nilpotent on a valid A, so I + M_g is invertible there.  Column j,
    b_j + g*b_j = b_j + sum_i g_i b_i b_j, is summed in one pass over the
    nonzero products (`RingStructure._terms`), then reduced."""
    spec = A.spec
    rows = list(map(list, spec._basis))  # rows[t][j]: coordinate t of column j
    for i, j, coeffs in A._terms:
        if gi := g[i]:
            for t, c in coeffs:
                rows[t][j] += gi * c
    return AffineMap(spec, g, linalg.reduce(spec.moduli, rows))


@dataclass(frozen=True)
class RegularSubgroup:
    """A subgroup of Hol(G) of order |G| whose orbit of 0 is all of G."""

    spec: GroupSpec
    elements: tuple  # AffineMaps, canonically sorted by (a, m)

    def to_json(self) -> list:
        return [t.to_json() for t in self.elements]


def _extend(group: list, gens: tuple, limit: int, admit, compose):
    """The members of <gens>, for gens generating a group that contains H, the
    group listed in `group` with its identity first, by Dimino's cosets
    (Butler, LNCS 559, 1991) under the product `compose`: for g in gens outside
    them, the coset H g joins whole, then H (g g') for g' in gens, until the
    members are closed under the generators.  None once the order would pass
    limit, or at the first new member that fails `admit`.  As H lists its
    identity first, g is the first member of H g, so compose meets no left
    factor that is neither in H nor admitted."""
    out, inside, reps = list(group), set(group), list(gens)
    for r in reps:  # reps grows while it is read
        if r in inside:
            continue
        if len(out) + len(group) > limit:
            return None
        for h in group:
            y = compose(h, r)
            if not admit(y):
                return None
            out.append(y)
        inside.update(out[-len(group):])
        reps.extend(compose(r, g) for g in gens)
    return out


def is_abelian(T: RegularSubgroup) -> bool:
    """Whether the maps of T, any set, commute pairwise (no caller in the
    package: `ring_from_regular_subgroup` tests T = tau(A)), on the generators
    `abelian._greedy_generators` picks, pairwise after its loop.  If they
    commute, each grew a group it commutes with by cosets, so the span is
    <T>, abelian; else T is not.  The loop ends, as compose keeps its reduced
    results in the finite Hol(G).  The maps are compared and composed as
    (a, m) pairs, so no map is tabulated."""
    spec = T.spec
    span = {AffineMap(spec, spec.zero(), spec._basis)}
    gens = abelian._greedy_generators(T.elements, span, lambda a: partial(compose, a))
    return all(compose(a, b) == compose(b, a) for a, b in itertools.combinations(gens, 2))


def regular_subgroup_from_ring(A: RingStructure) -> RegularSubgroup:
    """Image of the circle group inside Hol(G): {x -> g o x : g in G}, in (a, m)
    order, as tau(g) sends 0 to g.  A is validated first (InputError), so
    every tau is built by `_tau` on a valid ring and is invertible."""
    if violations := nilring.validate(A):
        raise InputError(f"invalid structure: {violations[0].axiom}")
    return RegularSubgroup(A.spec, tuple(_tau(A, g) for g in A.spec.elements()))


def ring_from_regular_subgroup(T: RegularSubgroup) -> RingStructure:
    """Recover the structure with g * h = t_g(h) - g - h, t_g the member with
    t_g(0) = t_g.a = g: c_ij = b_i b_j = m_{b_i} b_j - b_j, column j of the
    matrix of t_{b_i} less b_j.  T must be regular (InputError): |G| affine
    maps on G sending 0 to each element once, the t_{b_i} with k x k integer
    matrices (`_int_matrix`), read before the constants.  Only an abelian T carries a
    commutative structure (Hol(Z/8) has dihedral and quaternion regular
    subgroups), and T is abelian iff (a) the t_{b_i} commute pairwise and
    (b) t_g = tau_A(g) for every g: k(k - 1) compositions and |G| `_tau`
    builds, no closure.
    (=>) Commuting t_g, t_h have equal translation parts, (m_g - I)h =
    (m_h - I)g.  With g = b_i, h = b_j: c_ij = c_ji.  With h = b_t: column t
    of m_g - I is (m_{b_t} - I)g = sum_i g_i c_ti = g*b_t, so t_g = tau_A(g).
    (<=) Commuting t_{b_i}, t_{b_j} give c_ij = c_ji by their translation
    parts and M_{b_i} M_{b_j} = M_{b_j} M_{b_i} by their linear parts, M_g
    the map x -> g*x.  By bilinearity every M_g, M_h commute and g*h = h*g,
    so the tau_A(g) commute pairwise.  For abelian T a validation failure
    would contradict the correspondence, so it raises TheoremViolation.
    """
    spec = T.spec
    members = T.elements if _length(T.elements) == spec.order else ()
    # `is` first: the dataclass == builds a tuple of fields on each call
    by_base = {t.a: t for t in members
               if isinstance(t, AffineMap) and (t.spec is spec or t.spec == spec)}
    if by_base.keys() != spec.element_index.keys():
        raise InputError("not a regular subgroup: its members must be affine maps on G "
                         "sending 0 to each element once")
    gens = [by_base[b] for b in spec._basis]
    if not all(_int_matrix(spec, t.m) for t in gens):
        raise InputError("not a regular subgroup: its generators' linear parts must be k x k integer matrices")
    A = RingStructure(spec, tuple(
        tuple(abelian._add(spec, col, map(operator.neg, b)) for col, b in zip(zip(*t.m), spec._basis))
        for t in gens))
    if not (all(compose(s, t) == compose(t, s) for s, t in itertools.combinations(gens, 2))
            and all(_tau(A, g) == t for g, t in by_base.items())):
        raise InputError("regular subgroup is non-abelian: no commutative structure")
    if violations := nilring.validate(A):
        raise TheoremViolation(
            "regular subgroup does not induce a valid nilpotent structure",
            witness={
                "subgroup": T.to_json(),
                "violations": [{"axiom": v.axiom, "witness": repr(v.witness)} for v in violations],
            },
        )
    return A


def enumerate_automorphisms(spec: GroupSpec) -> list:
    """Aut(G) as matrices, in the lexicographic order of their entries: each
    residue matrix mod p of a well-defined m of rank k (`is_invertible`'s
    test), lifted to every well-defined m with those residues.  Entry (i, j)
    of a well-defined m is a multiple of p^(e_i - e_j) below p^e_i, so it is 0
    mod p where e_i > e_j (m mod p is block triangular), and any r + pt where
    e_i <= e_j."""
    p, k, exps = spec.p, spec.rank, spec.exponents
    residues = [range(p if ei <= ej else 1) for ei in exps for ej in exps]
    strides = [p ** max(1, ei - ej) for ei in exps for ej in exps]
    moduli = [mod for mod in spec.moduli for _ in exps]
    flats = []
    for flat in itertools.product(*residues):
        if len(linalg.pivots(p, zip(*[iter(flat)] * k))) == k:
            flats += itertools.product(*map(range, flat, moduli, strides))
    return [tuple(zip(*[iter(flat)] * k)) for flat in sorted(flats)]


def automorphism_count(spec: GroupSpec) -> int:
    """|Aut(G)| in closed form (Hillar and Rhea, Amer. Math. Monthly 114,
    2007).  With exponents e_1 <= ... <= e_k, d_i the last and c_i the
    first position of the value e_i:
    prod_i (p^{d_i} - p^{i-1}) p^{e_i (k - d_i)} p^{(e_i - 1)(k - c_i + 1)}.
    """
    p, e = spec.p, sorted(spec.exponents)
    k, count = len(e), 1
    for i, ei in enumerate(e):  # i = position - 1, and k - c_i + 1 = k - e.index(ei)
        d = k - e[::-1].index(ei)
        count *= (p**d - p**i) * p ** (ei * (k - d) + (ei - 1) * (k - e.index(ei)))
    return count


def _automorphisms(spec: GroupSpec, cap: int) -> list:
    """Aut(G) as matrices.  |Hol(G)| is compared with cap by
    `automorphism_count` before any automorphism is enumerated, and the
    enumeration, by the rank test mod p, must then match that closed form."""
    size = spec.order * automorphism_count(spec)
    if size > cap:
        raise CapExceeded(f"|Hol(G)| = {size} exceeds holomorph cap {cap}")
    auts = enumerate_automorphisms(spec)
    if spec.order * len(auts) != size:
        raise TheoremViolation("|Aut(G)| enumerated differs from the closed form",
                               witness={"spec": spec.to_json(), "enumerated": len(auts)})
    return auts


def _unipotent(spec: GroupSpec, m) -> bool:
    """Whether the automorphism m has p-power order: whether m' = m mod p is
    unipotent, m' - I nilpotent mod p (`linalg.nilpotent_mod_p`).  The kernel
    of Aut(G) -> GL_k(F_p) is a p-group: there m = 1 + d with dG in pG, and if
    dG lies in p^t G, t >= 1, then m^p = 1 + sum_{0<i<p} C(p, i) d^i + d^p is
    1 + d' with d'G in p^(t+1) G, as p divides each C(p, i); so m^(p^(e-1)) = 1,
    p^e the exponent of G.  If m has order p^j, then (m' - I)^(p^j) = m'^(p^j)
    - I = 0 mod p.  If (m' - I)^k = 0 and p^j >= k, then m'^(p^j) = I, so
    m^(p^j) lies in the kernel, and m has p-power order."""
    return linalg.nilpotent_mod_p(spec.p, [[x - (i == j) for j, x in enumerate(row)]
                                             for i, row in enumerate(m)])


def _fixed_point_free(spec: GroupSpec, auts: list) -> tuple:
    """Hol(G) on pairs (a, n), the map x -> a + m(x) with a an element index
    and m = auts[n]: (compose, identity, candidates), the candidates every
    fixed-point-free pair of p-power order.  (a, n) has p-power order iff m
    does (`_unipotent`, once per automorphism), as Hol(G) -> Aut(G) has a
    p-group kernel, the translations, and it fixes x iff a = (1 - m)(x).  So
    the candidates are the (a, n) with m unipotent mod p and a outside
    (1 - m)(G), and only those m are tabulated, with their 1 - m.
    compose(f, g), f = (a, m) a candidate or the identity and g = (b, n), is
    f o g: x -> a + m(b) + m(n(x)).  a + m(b) is shift_a[table_m[b]], and
    m o n, fixed by its basis images m(n(b_j)), is the automorphism whose
    columns have the indices table_m[n(b_j)]: no map is composed whole."""
    index = spec.element_index
    columns = [tuple([index[c] for c in zip(*m)]) for m in auts]
    ids = {c: n for n, c in enumerate(columns)}
    shifts = [abelian._translation_perm(spec, a) for a in spec.elements()]
    tables, candidates = [None] * len(auts), []
    for n, m in enumerate(auts):
        if _unipotent(spec, m):
            tables[n] = abelian._linear_table(spec, m)
            one_minus_m = [map(operator.sub, b, row) for b, row in zip(spec._basis, m)]
            fixing = set(abelian._linear_table(spec, linalg.reduce(spec.moduli, one_minus_m)))
            candidates += [(a, n) for a in range(spec.order) if a not in fixing]

    def compose(f, g):
        table = tables[f[1]]
        return shifts[f[0]][table[g[0]]], ids[tuple(map(table.__getitem__, columns[g[1]]))]

    return compose, (0, ids[tuple([index[b] for b in spec._basis])]), candidates


def _regular_search(spec: GroupSpec, cap: int):
    """(auts, compose, found): found holds each regular subgroup of Hol(G) as
    (gens, <gens>) in pairs (`_fixed_point_free`), their m indexing auts.  The
    subgroups are grown depth first from one stack; each is kept once, by its
    member set, in whatever order the search reaches it."""
    order, auts = spec.order, _automorphisms(spec, cap)
    compose, ident, candidates = _fixed_point_free(spec, auts)
    admitted, by_base = {ident, *candidates}, {}  # by the image of 0, the index a
    for f in candidates:
        by_base.setdefault(f[0], []).append(f)
    seen, found, stack = set(), [], [((), [ident])]
    while stack:
        gens, sub = stack.pop()
        if len(sub) == order:
            found.append((gens, sub))
            continue
        orbit = {t[0] for t in sub}  # orbit of 0 (index 0)
        base = next(x for x in range(order) if x not in orbit)
        for f in by_base.get(base, ()):
            grown = _extend(sub, gens + (f,), order, admitted.__contains__, compose)
            if grown is not None and (key := frozenset(grown)) not in seen:
                seen.add(key)
                stack.append((gens + (f,), grown))
    return auts, compose, found


def enumerate_regular_subgroups(spec: GroupSpec, cap: int = DEFAULT_HOL_CAP) -> list:
    """All regular subgroups of Hol(G), grown one generator at a time from {id}
    (`_regular_search`).  Their members but id are fixed-point-free of p-power
    order, the candidates, as pairs (`_fixed_point_free`, which decides the
    order mod p once per automorphism m: x -> a + m(x) has it iff m has).
    A regular R above a subgroup S has one member sending 0 to each point, so
    S grows only by the candidates f with f(0) the least point outside the
    orbit S(0), and the search stays complete.  <S, f> grows from S by cosets
    (`_extend`), dropped at its first new member that is no candidate or once
    its order would pass |G|.  A kept subgroup acts semiregularly, so it is
    regular at order |G|.  Only the returned subgroups become affine maps."""
    auts, _, found = _regular_search(spec, cap)
    elements = spec.elements()
    out = [RegularSubgroup(spec, tuple(sorted((AffineMap(spec, elements[a], auts[n]) for a, n in sub),
                                              key=AffineMap.sort_key))) for _, sub in found]
    out.sort(key=lambda T: tuple(t.sort_key() for t in T.elements))
    return out


def regular_subgroup_counts(spec: GroupSpec, cap: int = DEFAULT_HOL_CAP) -> tuple:
    """(regular, abelian) subgroup counts of Hol(G), from `_regular_search`: each
    is <gens> for the generators it was grown from, so abelian iff they commute."""
    _, compose, found = _regular_search(spec, cap)
    return len(found), sum(all(compose(f, g) == compose(g, f) for f, g in itertools.combinations(gens, 2))
                           for gens, _ in found)
