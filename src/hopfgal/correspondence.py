"""Permutation-level verification of the sub-Hopf / ideal correspondence.

The Galois group is modeled as the circle group (G, o) itself (the
relabeling isomorphism is fixed to the identity set map, which changes
no lattice).  Left circle translations and additive translations give
two regular representations on the same set; the subgroups invariant
under conjugation by circle translations are computed by literal
permutation conjugation and compared with the ideals of the structure.
Both sides use the additive lattice walk `abelian._walk_subgroups` and differ
by predicate: stability under ring generator products vs. conjugation by the
circle generators.  Brute-force and closed-form tests check that the walk is
complete.  The subgroups of (G, o) are counted from its type alone
(`abelian.subgroup_count`).  Per gamma, `Context.conjugation_row` reads the
index of h, the conjugate lam alpha(g) lam^{-1} at 0, for every g off one
composition, and tests that the conjugates are translations on the k
standard generators only (conjugation is a homomorphism in g), or on every
g when one of them fails: 2k + 1 compositions of length |G| per row, where
testing every g takes 2 |G|.  The conjugation report compares the three h
rows (Hol(G), Perm(G) and the closed form g + gamma*g, one linear index table
from the structure constants) of the r circle generators, on their own lam
tables.  Each row is a homomorphism in gamma, so when every such table sends
0 to its gamma and its rows agree, and no other lam is held, the generators
certify all |G|^2 pairs.  Otherwise every gamma is scanned by the same check,
on its lam table.  The report makes no element-level product per pair.  The
maps both sides give the walk and the rows are index tables, decoded only for
witnesses and failure records.  lam is read point by point: each gamma o x is
computed on its first read and kept, and a whole lam table is completed from
those points only for a conjugation row or the report; no lam table is built
from others.  The circle generators and the type of (G, o) read no whole
table: the orbit of 0 under the generators' p^j-th powers, applied point by
point, is (G, o)^(p^j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

from . import abelian, holomorph, nilring
from .abelian import Elem, GroupSpec
from .errors import CapExceeded, InputError, TheoremViolation
from .nilring import RingStructure

# permutations of G are dense index tables over the canonical element order
Perm = tuple


class Context:
    """The per-structure model, and the one place a structure is capped
    (before any validation work) and validated for lattice work; it caches
    permutations, the circle products read so far, circle type, circle
    generators and conjugation rows."""

    def __init__(self, ring: RingStructure, cap: int = abelian.DEFAULT_ENUM_CAP):
        if ring.spec.order > cap:
            raise CapExceeded(f"|G| = {ring.spec.order} exceeds enumeration cap {cap}")
        violations = nilring.validate(ring)
        if violations:
            raise InputError(f"invalid structure: {violations[0].axiom}")
        self.ring = ring
        self.spec = ring.spec
        self.elements = self.spec.elements()
        self.index = self.spec.element_index
        self._lambda_cache = {}
        self._points = {}
        self._alpha_cache = {}
        self._rows = {}

    def circle_translation_perm(self, gamma: Elem) -> Perm:
        """Left translation by gamma in (G, o): delta -> gamma o delta, the
        whole table, completed from the points `_circle_translation` holds."""
        if gamma not in self._lambda_cache:
            self.spec.check_elem(gamma)
            self._lambda_cache[gamma] = tuple(map(self._circle_translation(gamma),
                                                  range(len(self.elements))))
            self._points.pop(gamma, None)
        return self._lambda_cache[gamma]

    def _circle_translation(self, gamma: Elem):
        """lam(gamma) as a map on indices: its held table's lookup, else gamma o x
        computed at the first read of each x and kept for the table."""
        if gamma in self._lambda_cache:
            return self._lambda_cache[gamma].__getitem__
        points, elems, index = self._points.setdefault(gamma, {}), self.elements, self.index

        def lam(i):
            j = points.get(i)
            if j is None:
                j = points[i] = index[nilring._circle(self.ring, gamma, elems[i])]
            return j
        return lam

    def additive_translation_perm(self, g: Elem) -> Perm:
        """Translation by g in (G, +), regarded as a permutation of the set."""
        if g not in self._alpha_cache:
            self.spec.check_elem(g)
            self._alpha_cache[g] = abelian._translation_perm(self.spec, g)
        return self._alpha_cache[g]

    @cached_property
    def circle_type(self) -> tuple:
        """Cyclic invariants of (G, o), read point by point off the circle
        generators' lam.  x -> x^p is an endomorphism of the abelian group
        (G, o), so G^(p^j) is the orbit of 0 under the lam(gamma)^(p^j), gamma
        a circle generator, each applied p^j times to a point, and
        log_p |G^(p^j)| / |G^(p^(j+1))| factors have exponent > j.  No table
        is completed or composed."""
        p, sizes = self.spec.p, [self.spec.order]
        layer = [self._circle_translation(self.elements[n]) for n in self.circle_generators]
        while sizes[-1] > 1:
            layer = [mu for mu in (partial(_power, lam, p) for lam in layer) if mu(0)]
            orbit = {0}
            for mu in layer:
                abelian._grow_by_cosets(orbit, mu)
            sizes.append(len(orbit))
        counts = [round(math.log(a // b, p)) for a, b in zip(sizes, sizes[1:])]
        return tuple(sum(1 for c in counts if c >= i) for i in range(1, counts[0] + 1))

    @cached_property
    def circle_generators(self) -> tuple:
        """Indices of generators of (G, o), by `abelian._greedy_generators`
        under lam read point by point: an element joins when it lies outside
        the span of those before it, so at most log_p |G| join, and lam of a
        joiner is evaluated on the span it grows, no table completed."""
        return tuple(abelian._greedy_generators(
            range(len(self.elements)), {0},
            lambda n: self._circle_translation(self.elements[n])))

    def conjugation_row(self, n: int) -> tuple:
        """(hs, oks) over g, built once per gamma = elements[n].  With lam =
        lam(gamma) and z = lam^{-1}(0), h = lam(g + z) is the conjugate
        lam alpha(g) lam^{-1} at 0, so the index row hs is one composition
        lam alpha(z); ok tells whether that conjugate is alpha(h), that is
        whether lam alpha(g) = alpha(h) lam.  Conjugation by any permutation
        lam is a homomorphism in g, as alpha is, so when the k standard
        generators pass that test every g does, and the row costs 2k + 1
        compositions of length |G|; else each g is tested on its own."""
        if n not in self._rows:
            lam = self.circle_translation_perm(self.elements[n])
            hs = perm_compose(lam, self.additive_translation_perm(self.elements[lam.index(0)]))
            if all(self._intertwines(lam, self.index[b], hs) for b in self.spec._basis):
                oks = (True,) * len(hs)
            else:
                oks = tuple(self._intertwines(lam, i, hs) for i in range(len(hs)))
            self._rows[n] = (hs, oks)
        return self._rows[n]

    def _intertwines(self, lam: Perm, i: int, hs: tuple) -> bool:
        """Whether lam alpha(g) = alpha(h) lam, g and h at indices i and hs[i]."""
        return (perm_compose(lam, self.additive_translation_perm(self.elements[i]))
                == perm_compose(self.additive_translation_perm(self.elements[hs[i]]), lam))


def perm_compose(f: Perm, g: Perm) -> Perm:
    """(f * g)(x) = f(g(x))."""
    return tuple(map(f.__getitem__, g))


def _power(f, e: int, x: int) -> int:
    """f applied e times to x."""
    for _ in range(e):
        x = f(x)
    return x


_NOT_PREDICTED = "conjugation of an additive translation is not the predicted translation"


def holomorph_conjugation_report(ctx: Context) -> dict:
    """Check both conjugation identities, in Hol(G) and in Perm(G).

    For each (gamma, g): conjugating the additive translation by g with
    the circle translation by gamma must give an additive translation by
    the same h on both levels.  The three h rows share no derivation:
    - Hol(G): per gamma, beta = tau(gamma) (by the unchecked `_tau`), its
      inverse and the linear part M_beta M_beta^{-1} of every conjugate are
      built once, and the translation parts beta(g + beta^{-1}(0)) of all g
      are composed from beta's table and the Context's translations;
    - Perm(G): gamma's conjugation row (one composition, with the
      translation test made on the standard generators, or on every g when
      one fails), on the lam(gamma) table the Context holds;
    - the closed form g + gamma*g: one linear index table per gamma, from
      the structure constants (`_closed_form_table`).
    The report passes when each circle generator's held lam table passes
    `_gamma_failures` (it sends 0 to its gamma, then the Hol(G) translation
    test, its row's test on the standard generators and the comparison of
    the three rows), and no lam table is held for any other gamma, which is
    tested after the generators' tables are completed.  Such a table
    is the true circle translation: lam alpha(x) = alpha(x + gamma x) lam
    gives lam(x) = lam(0) + x + gamma x = gamma o x.  Each row is a
    homomorphism in gamma from (G, o): lam(gamma o delta) = lam(gamma)
    lam(delta), tau(gamma o delta) = tau(gamma) tau(delta), and (I +
    M_gamma)(I + M_delta) = I + M_{gamma o delta}, the last two by the
    associativity `Context` validated, so the r generators certify all
    |G|^2 pairs.  Otherwise every gamma is scanned by the same step, each
    lam table not held yet completed from circle products.  The rows are
    compared as whole index tuples, so the report makes no element-level
    product per pair; only a gamma where they disagree is checked pair by
    pair, for the failure records.  Returns the failures.
    """
    gens, failures = ctx.circle_generators, []
    # each generator's check completes its table, so the held count comes last
    if any(_gamma_failures(ctx, n) for n in gens) or len(ctx._lambda_cache) > len(gens):
        failures = [f for n in range(len(ctx.elements)) for f in _gamma_failures(ctx, n)]
    return {"pairs_checked": len(ctx.elements) ** 2, "failures": failures}


def _gamma_failures(ctx: Context, n: int) -> list:
    """The failure records of gamma = elements[n] over every g: one per g if
    its lam table does not send 0 to gamma, else from its three h rows (see
    `holomorph_conjugation_report`)."""
    elems, gamma = ctx.elements, ctx.elements[n]

    def every_g(reason):
        return [{"gamma": list(gamma), "g": list(g), "reason": reason} for g in elems]
    if ctx.circle_translation_perm(gamma)[0] != n:
        return every_g("lam(gamma) does not send 0 to gamma")
    beta = holomorph._tau(ctx.ring, gamma)
    beta_inv = holomorph.inverse(beta)
    if not holomorph.compose(beta, beta_inv).is_translation():
        return every_g("holomorph conjugate is not a translation")
    # beta(0) + M_beta(g + beta^{-1}(0)) for every g, composed on indices
    hol = tuple(map(ctx.additive_translation_perm(beta.a).__getitem__,
                    map(beta.linear_table.__getitem__,
                        ctx.additive_translation_perm(beta_inv.a))))
    hs, oks = ctx.conjugation_row(n)
    closed = _closed_form_table(ctx, gamma)
    if hol == hs == closed and all(oks):
        return []
    failures = []
    for g, h_hol, h, ok, h_closed in zip(elems, hol, hs, oks, closed):
        if h != h_closed or not ok:
            failures.append({"gamma": list(gamma), "g": list(g), "reason": _NOT_PREDICTED})
        elif h_hol != h:
            failures.append({"gamma": list(gamma), "g": list(g),
                             "reason": "holomorph-level and permutation-level h differ",
                             "h_holomorph": list(elems[h_hol]),
                             "h_permutation": list(elems[h])})
    return failures


def _closed_form_table(ctx: Context, gamma: Elem) -> tuple:
    """The index table of g -> g + gamma*g, from the structure constants c
    alone: the map is linear, with matrix I + M, M[i][j] = sum_t gamma_t
    c[t][j][i] the coordinate i of gamma * b_j."""
    spec, c = ctx.spec, ctx.ring.constants
    return abelian._linear_table(spec, [
        [((i == j) + sum(gt * c[t][j][i] for t, gt in enumerate(gamma))) % mod
         for j in range(spec.rank)] for i, mod in enumerate(spec.moduli)])


def _ring_generators(A: RingStructure) -> list:
    """The indices of a ring-generating set S, less its b_i with a zero row
    (b_i A = 0 lies in every subgroup): the b_i, in order, whose images span
    A/(A^2 + pA) = F_p^k / span{c_ij mod p}, that is, the i that are the last
    nonzero coordinate of no vector of that span (`abelian._pivots`).
    With R the ring S generates, A = R + A^2 + pA gives A = R + A^m + pA for
    every m, so A = R + pA, as A is nilpotent, and A = R."""
    p = A.spec.p
    pivots = abelian._pivots(p, {tuple([x % p for x in c]) for i, row in enumerate(A.constants) for c in row[i:]})
    return [i for i, row in enumerate(A.constants) if i not in pivots and any(map(any, row))]


def _generator_products(ctx: Context) -> list:
    """Per ring generator b_i (`_ring_generators`), the index table of x ->
    b_i*x: the map is linear, its matrix (column j is b_i*b_j) is row i of the
    structure constants, and all |G| images come from one `abelian._linear_table`."""
    return [abelian._linear_table(ctx.spec, tuple(zip(*ctx.ring.constants[i])))
            for i in _ring_generators(ctx.ring)]


def ideals(ctx: Context) -> list:
    """All ideals of the structure, canonically sorted: the additive subgroups
    J with sJ in J for each ring generator s (`_ring_generators`), from the
    walk, which is complete for a nilpotent ring.  Then rJ is in J for every r
    in the ring they generate, A, so J is an ideal.  The products are read off
    index tables (`_generator_products`), and generators stay lazy."""
    return abelian._walk_subgroups(ctx.spec, _generator_products(ctx))


def invariant_subgroups(ctx: Context) -> list:
    """Additive subgroups J whose translation image is stable under conjugation
    by every circle translation, canonically sorted.  lam is a homomorphism on
    (G, o), so the circle generators suffice.  Each one's conjugation row
    gives `abelian._walk_subgroups` the index table of g -> h - g = gamma * g,
    a nilpotent endomorphism, so the walk is complete.  If every conjugate
    in the row is a translation, g -> h is additive and the table linear,
    with column j h - b_j; else a g whose conjugate is no translation maps
    to None, which lies in no J."""
    spec, elems, index = ctx.spec, ctx.elements, ctx.index
    maps = []
    for hs, oks in map(ctx.conjugation_row, ctx.circle_generators):
        if all(oks):
            columns = [abelian._add(spec, elems[hs[index[b]]], abelian._scalar_mul(spec, -1, b))
                       for b in spec._basis]
            maps.append(abelian._linear_table(spec, tuple(zip(*columns))))
        else:
            maps.append(tuple(index[abelian._add(spec, elems[h], abelian._scalar_mul(spec, -1, g))]
                              if ok else None for g, h, ok in zip(elems, hs, oks)))
    return abelian._walk_subgroups(spec, maps)


def circle_subgroup_count(ctx: Context) -> int:
    """Number of subgroups of (G, o), in closed form from its type."""
    return abelian.subgroup_count(ctx.spec.p, ctx.circle_type)


@dataclass(frozen=True)
class LatticeReport:
    """Both lattices, their matching, and the strong-correspondence verdict."""

    ideals: tuple  # Subgroups, canonical order
    invariant_subgroups: tuple  # Subgroups, canonical order
    gamma_subgroup_count: int
    strong_ftgt: bool
    circle_type: tuple


def lattice_report(ctx: Context) -> LatticeReport:
    """Compare the ideal lattice with the invariant-subgroup lattice.

    The two sides share the lattice walk but not the predicate (stability
    under generator multiplication vs. permutation conjugation).  Lattices
    with different members raise TheoremViolation.
    """
    ideal_list = ideals(ctx)
    inv_list = invariant_subgroups(ctx)
    if ideal_list != inv_list:
        raise TheoremViolation(
            "ideal lattice differs from invariant-subgroup lattice",
            witness={
                "structure": ctx.ring.to_json(),
                "ideals": [s.to_json() for s in ideal_list],
                "invariant_subgroups": [s.to_json() for s in inv_list],
            },
        )
    gamma_count = circle_subgroup_count(ctx)
    return LatticeReport(
        ideals=tuple(ideal_list),
        invariant_subgroups=tuple(inv_list),
        gamma_subgroup_count=gamma_count,
        strong_ftgt=(len(ideal_list) == gamma_count),
        circle_type=ctx.circle_type,
    )


def gaussian_subspace_count(p: int, n: int) -> int:
    """Sum over r = 1..n of the number of r-dimensional subspaces of F_p^n,
    in exact integers.  The sum deliberately starts at r = 1, so the zero
    subspace is not counted (callers add 1 to get the full subgroup count
    of an elementary abelian group)."""
    if not all(map(abelian._is_int, (p, n))):
        raise InputError(f"p and n must be integers: {p!r}, {n!r}")
    if not abelian.is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if n < 0:
        raise InputError("n must be >= 0")
    return sum(abelian._gaussian_binomial(p, n, r) for r in range(1, n + 1))


def klein_four_ring() -> RingStructure:
    """The structure on Z/4 with 1*1 = 2, whose circle group is C2 x C2.

    Its correspondence data is the smallest wholly-abelian failure case:
    3 ideals against 5 subgroups of the circle group, with exactly one
    proper nontrivial invariant subgroup.
    """
    return nilring.make_structure(GroupSpec(2, (2,)), (((2,),),))


def klein_four_fixture() -> Context:
    """The Context of `klein_four_ring`, validated."""
    return Context(klein_four_ring())
