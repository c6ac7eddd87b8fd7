"""Permutation-level verification of the sub-Hopf / ideal correspondence.

The Galois group is modeled as the circle group (G, o) itself (the
relabeling isomorphism is fixed to the identity set map, which changes
no lattice).  Left circle translations and additive translations give
two regular representations on the same set; the subgroups invariant
under conjugation by circle translations are computed by literal
permutation conjugation and compared with the ideals of the structure.
Both sides use the lattice walk `abelian.walk_subgroups` and differ by
predicate: stability under generator multiplication vs. conjugation.
Brute-force and closed-form tests check that the walk is complete.
Only `conjugated_translation` checks its elements; the rest is unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import abelian, holomorph, nilring
from .abelian import Elem, GroupSpec, Subgroup
from .errors import InputError, TheoremViolation
from .nilring import RingStructure

# permutations of G are dense index tables over the canonical element order
Perm = tuple


class Context:
    """The per-structure model: a valid structure, the enumeration cap every
    computation on it obeys, and lazily cached translation permutations."""

    def __init__(self, ring: RingStructure, cap: int = abelian.DEFAULT_ENUM_CAP):
        nilring.require_valid(ring, cap)
        self.ring = ring
        self.spec = ring.spec
        self.cap = cap
        self.elements = tuple(self.spec.elements())
        self.index = {e: i for i, e in enumerate(self.elements)}
        self._lambda_cache = {}
        self._alpha_cache = {}

    def circle_translation_perm(self, gamma: Elem) -> Perm:
        """Left translation by gamma in (G, o): delta -> gamma o delta."""
        if gamma not in self._lambda_cache:
            self.spec.check_elem(gamma)
            self._lambda_cache[gamma] = tuple(
                self.index[nilring._circle(self.ring, gamma, d)]
                for d in self.elements
            )
        return self._lambda_cache[gamma]

    def additive_translation_perm(self, g: Elem) -> Perm:
        """Translation by g in (G, +), regarded as a permutation of the set."""
        if g not in self._alpha_cache:
            self.spec.check_elem(g)
            self._alpha_cache[g] = tuple(
                self.index[abelian._add(self.spec, g, d)] for d in self.elements
            )
        return self._alpha_cache[g]


def perm_compose(f: Perm, g: Perm) -> Perm:
    """(f * g)(x) = f(g(x))."""
    return tuple(map(f.__getitem__, g))


def _conjugate(ctx: Context, gamma: Elem, g: Elem):
    """(h, ok): with lam = lam(gamma), h is lam alpha(g) lam^{-1} applied to
    0, and ok tells whether that conjugate is the translation alpha(h).

    Literal permutation conjugation without inverting lam: the conjugate
    is alpha(h) iff lam alpha(g) = alpha(h) lam, and h is lam alpha(g) read
    at lam^{-1}(0), the position in lam of index 0 (the zero element).
    """
    lam = ctx.circle_translation_perm(gamma)
    left = perm_compose(lam, ctx.additive_translation_perm(g))
    h = ctx.elements[left[lam.index(0)]]
    return h, left == perm_compose(ctx.additive_translation_perm(h), lam)


def conjugated_translation(ctx: Context, gamma: Elem, g: Elem) -> Elem:
    """The unique h with lam(gamma) alpha(g) lam(gamma)^{-1} = alpha(h).

    Computed two independent ways: literal permutation conjugation, and
    the closed form h = g + gamma*g.  A mismatch is a theorem violation.
    """
    ctx.spec.check_elem(gamma)
    ctx.spec.check_elem(g)
    h_perm, is_translation = _conjugate(ctx, gamma, g)
    closed = abelian._add(ctx.spec, g, nilring._mul(ctx.ring, gamma, g))
    if h_perm != closed or not is_translation:
        raise TheoremViolation(
            "conjugation of an additive translation is not the predicted translation",
            witness={
                "gamma": list(gamma),
                "g": list(g),
                "permutation_path": list(h_perm),
                "closed_form": list(closed),
            },
        )
    return closed


def holomorph_conjugation_report(ctx: Context) -> dict:
    """Check both conjugation identities, in Hol(G) and in Perm(G).

    For each (gamma, g): conjugating the additive translation by g with
    the circle translation by gamma must give an additive translation by
    the same h on both levels.  tau(gamma) and its inverse are built once
    per gamma, and each translation once.  Returns a report with any failures.
    """
    translations = [holomorph.translation(ctx.spec, g) for g in ctx.elements]
    failures = []
    for gamma in ctx.elements:
        beta = holomorph.tau(ctx.ring, gamma)
        beta_inv = holomorph.inverse(beta)
        for g, alpha in zip(ctx.elements, translations):
            conj = holomorph.compose(holomorph.compose(beta, alpha), beta_inv)
            entry = {"gamma": list(gamma), "g": list(g)}
            if not conj.is_translation():
                entry["reason"] = "holomorph conjugate is not a translation"
                failures.append(entry)
                continue
            h_hol = conj.a
            try:
                h_perm = conjugated_translation(ctx, gamma, g)
            except TheoremViolation as exc:
                entry["reason"] = str(exc)
                failures.append(entry)
                continue
            if h_hol != h_perm:
                entry["reason"] = "holomorph-level and permutation-level h differ"
                entry["h_holomorph"] = list(h_hol)
                entry["h_permutation"] = list(h_perm)
                failures.append(entry)
    return {"pairs_checked": len(ctx.elements) ** 2, "failures": failures}


def invariant_subgroups(ctx: Context) -> list:
    """Additive subgroups J whose translation image is stable under conjugation
    by every circle translation, computed by literal permutation conjugation.
    The conjugates of alpha(g) are computed once per g, for all subgroups:
    the set of their h, or None if one of them is not a translation."""
    conjugates = {}
    out = []
    for sub in abelian.enumerate_subgroups(ctx.spec, ctx.cap):
        members = set(sub.elements)
        for g in sub.elements:
            if g not in conjugates:
                pairs = [_conjugate(ctx, gamma, g) for gamma in ctx.elements]
                conjugates[g] = {h for h, _ in pairs} if all(ok for _, ok in pairs) else None
            if conjugates[g] is None or not conjugates[g] <= members:
                break
        else:
            out.append(sub)
    return out


def circle_subgroup_count(ctx: Context) -> int:
    """Number of subgroups of (G, o), by the lattice walk of
    `abelian.walk_subgroups` under the circle operation."""
    return len(abelian.walk_subgroups(
        ctx.elements, partial(nilring._circle, ctx.ring), ctx.spec.zero(), ctx.spec.p
    ))


@dataclass(frozen=True)
class LatticeReport:
    """Both lattices, their matching, and the strong-correspondence verdict."""

    ideals: tuple  # Subgroups, canonical order
    invariant_subgroups: tuple  # Subgroups, canonical order
    inclusion_edges: tuple  # (i, j) with ideals[i] strictly contained in ideals[j]
    gamma_subgroup_count: int
    strong_ftgt: bool
    circle_type: tuple

    def to_json(self) -> dict:
        return {
            "ideals": [s.to_json() for s in self.ideals],
            "invariant_subgroups": [s.to_json() for s in self.invariant_subgroups],
            "inclusion_edges": [list(e) for e in self.inclusion_edges],
            "gamma_subgroup_count": self.gamma_subgroup_count,
            "strong_ftgt": self.strong_ftgt,
            "circle_type": list(self.circle_type),
        }


def _strict_inclusions(subs) -> tuple:
    edges = []
    sets = [set(s.elements) for s in subs]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a < b:
                edges.append((i, j))
    return tuple(edges)


def lattice_report(ctx: Context) -> LatticeReport:
    """Compare the ideal lattice with the invariant-subgroup lattice.

    The two sides share the lattice walk but not the predicate (stability
    under generator multiplication vs. permutation conjugation); any
    discrepancy in membership or inclusion structure raises TheoremViolation.
    """
    ideal_list = nilring.ideals(ctx.ring, ctx.cap)
    inv_list = invariant_subgroups(ctx)
    ideal_sets = [s.elements for s in ideal_list]
    inv_sets = [s.elements for s in inv_list]
    if ideal_sets != inv_sets:
        raise TheoremViolation(
            "ideal lattice differs from invariant-subgroup lattice",
            witness={
                "structure": ctx.ring.to_json(),
                "ideals": [s.to_json() for s in ideal_list],
                "invariant_subgroups": [s.to_json() for s in inv_list],
            },
        )
    ideal_edges = _strict_inclusions(ideal_list)
    inv_edges = _strict_inclusions(inv_list)
    if ideal_edges != inv_edges:
        raise TheoremViolation(
            "lattice matching does not preserve inclusion",
            witness={"structure": ctx.ring.to_json()},
        )
    gamma_count = circle_subgroup_count(ctx)
    cg = nilring.circle_group(ctx.ring, ctx.cap)
    return LatticeReport(
        ideals=tuple(ideal_list),
        invariant_subgroups=tuple(inv_list),
        inclusion_edges=ideal_edges,
        gamma_subgroup_count=gamma_count,
        strong_ftgt=(len(ideal_list) == gamma_count),
        circle_type=cg.invariants,
    )


def elementary_scan(
    spec: GroupSpec,
    search_cap: int = nilring.DEFAULT_SEARCH_CAP,
    cap: int = abelian.DEFAULT_ENUM_CAP,
) -> dict:
    """Over all structures on an elementary abelian spec whose circle group is
    also elementary abelian, check: strong correspondence iff all products zero."""
    if any(e != 1 for e in spec.exponents):
        raise InputError("scan requires an elementary abelian spec")
    rows = []
    for A in nilring.enumerate_structures(spec, search_cap):
        if any(e != 1 for e in nilring.circle_group(A, cap).invariants):
            continue
        report = lattice_report(Context(A, cap))
        expected = A.is_trivial()
        if report.strong_ftgt != expected:
            raise TheoremViolation(
                "strong correspondence verdict contradicts the A^2 = 0 criterion",
                witness={
                    "structure": A.to_json(),
                    "strong_ftgt": report.strong_ftgt,
                },
            )
        rows.append(
            {
                "constants": A.to_json()["constants"],
                "trivial": expected,
                "strong_ftgt": report.strong_ftgt,
                "ideal_count": len(report.ideals),
                "gamma_subgroup_count": report.gamma_subgroup_count,
            }
        )
    return {"spec": spec.to_json(), "structures_scanned": len(rows), "rows": rows}


def gaussian_subspace_count(p: int, n: int) -> int:
    """Sum over r = 1..n of the number of r-dimensional subspaces of F_p^n.

    Exact integer arithmetic; note the sum deliberately starts at r = 1,
    so the zero subspace is not counted (callers add 1 to get the full
    subgroup count of an elementary abelian group).
    """
    if not abelian.is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if n < 0:
        raise InputError("n must be >= 0")
    total = 0
    for r in range(1, n + 1):
        num = 1
        den = 1
        for i in range(r):
            num *= p**n - p**i
            den *= p**r - p**i
        assert num % den == 0
        total += num // den
    return total


def klein_four_fixture() -> Context:
    """The structure on Z/4 with 1*1 = 2, whose circle group is C2 x C2.

    Its correspondence data is the smallest wholly-abelian failure case:
    3 ideals against 5 subgroups of the circle group, with exactly one
    proper nontrivial invariant subgroup.
    """
    spec = GroupSpec(2, (2,))
    A = nilring.make_structure(spec, (((2,),),))
    return Context(A)
