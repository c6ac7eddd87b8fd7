"""Reference implementations for the tests, sharing no code with what they check.

Each oracle works from first principles: a full operation table, trial
division, affine maps and permutations applied point by point, or subgroups
grown one element at a time.  The regular-subgroup search here composes
index permutations, finds Aut(G) by image counts and p-power order by p-th
powers, where `holomorph` composes (translation, automorphism) pairs and
decides both mod p; Hol(G) is listed whole from the same image counts.
From `hopfgal` they import only the element API
(`test_oracles_import_only_the_element_api` keeps it that way), never the
lattice walk, the subgroup-count formulas or `Context`, whose circle type
`isomorphism_type` and `omega_type` check from a full operation table.
"""

import itertools

from hopfgal.abelian import add
from hopfgal.errors import InputError
from hopfgal.holomorph import AffineMap, compose
from hopfgal.nilring import circle, mul


def is_prime(n: int) -> bool:
    """Trial division by every d with d^2 <= n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _group_table_checks(elements, op):
    """Raise unless (elements, op) is a closed table with identity and
    inverses; return the identity."""
    elem_set = set(elements)
    if len(elem_set) != len(elements):
        raise InputError("duplicate elements in table")
    identity = None
    for e in elements:
        if all(op(e, x) == x for x in elements):
            identity = e
            break
    if identity is None:
        raise InputError("operation table has no identity")
    for x in elements:
        for y in elements:
            if op(x, y) not in elem_set:
                raise InputError(f"table not closed at ({x}, {y})")
    for x in elements:
        if not any(op(x, y) == identity for y in elements):
            raise InputError(f"element {x} has no inverse")
    return identity


def _log(size: int, p: int) -> int:
    k = 0
    while size % p == 0:
        size, k = size // p, k + 1
    if size != 1:
        raise InputError(f"a count is not a power of {p}")
    return k


def omega_type(elements, op, identity, p) -> list:
    """Cyclic invariants (nonincreasing exponents) of the abelian p-group
    (elements, op), from |Omega_k| = #{x : x^(p^k) = e} = p^(sum_i min(e_i, k)):
    the number of invariants >= k is log_p |Omega_k| - log_p |Omega_(k-1)|.
    It counts solutions, where `Context.circle_type` takes image layers."""
    n = _log(len(elements), p)
    powers, logs = list(elements), [0]  # powers[x] = x^(p^k)
    while logs[-1] < n:
        nxt = []
        for y in powers:
            z = identity
            for _ in range(p):
                z = op(z, y)
            nxt.append(z)
        powers = nxt
        log = _log(sum(1 for y in powers if y == identity), p)
        if log <= logs[-1]:
            raise InputError("no new solutions of x^(p^k) = e: not a p-group")
        logs.append(log)
    at_least = [b - a for a, b in zip(logs, logs[1:])]  # at_least[k-1] = #{i : e_i >= k}
    return [sum(1 for d in at_least if d >= i) for i in range(1, at_least[0] + 1)] if at_least else []


def isomorphism_type(elements, op) -> list:
    """Cyclic invariants of a finite abelian p-group given by its operation
    table: the table is checked first, then read by `omega_type`."""
    identity = _group_table_checks(elements, op)
    order = len(elements)
    p = next((d for d in range(2, order + 1) if order % d == 0), 2)  # least prime factor
    return omega_type(elements, op, identity, p)


def circle_subgroups(A) -> set:
    """Every subgroup of the circle group (G, o), as frozensets: from {0},
    each subgroup H found grows by each g outside it to <H, g>, the union of
    the cosets H o g^k, k = 0, 1, ..., up to the first that is H again."""
    start = frozenset({A.spec.zero()})
    found, todo = {start}, [start]
    while todo:
        H = todo.pop()
        for g in A.spec.elements():
            if g in H:
                continue
            grown, coset = set(H), H
            while not (coset := frozenset(circle(A, x, g) for x in coset)) <= grown:
                grown |= coset
            if (K := frozenset(grown)) not in found:
                found.add(K)
                todo.append(K)
    return found


def identity_map(spec) -> AffineMap:
    return AffineMap(spec, spec.zero(), tuple(spec.basis()))


def is_closed(maps) -> bool:
    maps = set(maps)
    return all(compose(f, g) in maps for f in maps for g in maps)


def is_regular(maps) -> bool:
    """Transitive-plus-order criterion for a composition-closed set."""
    maps = list(maps)
    if not maps:
        return False
    spec = maps[0].spec
    if not is_closed(maps):
        raise InputError("map set is not closed under composition")
    orbit = {t.apply(spec.zero()) for t in maps}
    return len(maps) == spec.order and len(orbit) == spec.order


def index_perm(f: AffineMap) -> tuple:
    """x -> a + m(x) as the indices of its images, the points of G listed in
    lexicographic order, each image written out with no package code."""
    moduli = f.spec.moduli
    points = list(itertools.product(*map(range, moduli)))
    index = {x: n for n, x in enumerate(points)}
    return tuple(index[tuple((a + sum(r * c for r, c in zip(row, x))) % mod
                             for a, row, mod in zip(f.a, f.m, moduli))] for x in points)


def is_fixed_point_free(f: AffineMap) -> bool:
    return all(f.apply(x) != x for x in f.spec.elements())


def addition_table(spec) -> dict:
    """{(a, b): a + b} over every pair of elements, from `add`."""
    elems = spec.elements()
    return {(a, b): add(spec, a, b) for a in elems for b in elems}


def circle_translation(A, gamma) -> dict:
    """lam(gamma), x -> gamma o x, as a dict, from `circle`."""
    return {x: circle(A, gamma, x) for x in A.spec.elements()}


def conjugation_row(spec, plus, lam) -> tuple:
    """(hs, oks) over g, for a permutation lam of G given as a dict and the
    table `plus` of `addition_table`: h = lam(g + z), z = lam^{-1}(0), is the
    conjugate lam alpha(g) lam^{-1} at 0, and ok says whether lam alpha(g)
    = alpha(h) lam, tested at every point, for every g on its own."""
    elems = spec.elements()
    z = next(x for x in elems if lam[x] == spec.zero())
    hs = tuple(lam[plus[g, z]] for g in elems)
    oks = tuple(all(lam[plus[g, x]] == plus[h, lam[x]] for x in elems)
                for g, h in zip(elems, hs))
    return hs, oks


def conjugation_report(A, lams=None, inverses=None, marked=()) -> dict:
    """The report of `holomorph_conjugation_report`, made pair by pair from
    `add`, `circle` and `mul`.  For each (gamma, g): the Hol(G) conjugate
    x -> beta(g + beta^{-1}(x)) of alpha(g), beta = (x -> gamma o x), tested
    at every x to be a translation, by its value h_hol at 0; the
    permutation-level h and its translation test from `conjugation_row`;
    and the closed form g + gamma*g.  Stand-ins, dicts keyed by gamma:
    `lams` for lam(gamma) (else `circle_translation`), `inverses` for
    beta^{-1} (else beta inverted); a (gamma, g) in `marked` is taken as a
    conjugate that is no translation.  A lam(gamma) that does not send 0 to
    gamma fails at every g."""
    spec, lams, inverses = A.spec, lams or {}, inverses or {}
    elems, zero, plus = spec.elements(), spec.zero(), addition_table(spec)
    failures = []
    for gamma in elems:
        beta = circle_translation(A, gamma)
        lam = lams.get(gamma, beta)
        if lam[zero] != gamma:
            failures += [{"gamma": list(gamma), "g": list(g),
                          "reason": "lam(gamma) does not send 0 to gamma"} for g in elems]
            continue
        beta_inv = inverses.get(gamma) or {y: x for x, y in beta.items()}
        hs, oks = conjugation_row(spec, plus, lam)
        for g, h, ok in zip(elems, hs, oks):
            record = {"gamma": list(gamma), "g": list(g)}
            h_hol = beta[plus[g, beta_inv[zero]]]
            if any(beta[plus[g, beta_inv[x]]] != plus[h_hol, x] for x in elems):
                failures.append({**record, "reason": "holomorph conjugate is not a translation"})
            elif h != add(spec, g, mul(A, gamma, g)) or not ok or (gamma, g) in marked:
                failures.append({**record, "reason": "conjugation of an additive translation "
                                                     "is not the predicted translation"})
            elif h_hol != h:
                failures.append({**record, "reason": "holomorph-level and permutation-level h differ",
                                 "h_holomorph": list(h_hol), "h_permutation": list(h)})
    return {"pairs_checked": len(elems) ** 2, "failures": failures}


def perm_order(f, limit):
    """The order of the index permutation f, by composing f with itself up
    to `limit` times; None past limit."""
    ident, g, order = tuple(range(len(f))), f, 1
    while g != ident:
        g, order = tuple(g[x] for x in f), order + 1
        if order > limit:
            return None
    return order


def closure_by_products(perms, size_limit=None):
    """The group generated by index permutations, from {id} by breadth-first
    products with the generators; None once it passes size_limit."""
    gens = list(perms)
    if not gens:
        return frozenset()
    ident = tuple(range(len(gens[0])))
    elems, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
                    if size_limit is not None and len(elems) > size_limit:
                        return None
        frontier = nxt
    return frozenset(elems)


def nilpotent_on_g(spec, row) -> bool:
    """Whether the map L of G with L(b_t) = row[t] has L^n = 0, |G| = p^n:
    the images of the generators under n - 1 more steps of L, all in G."""
    def apply(x):
        return tuple(sum(xt * image[u] for xt, image in zip(x, row)) % mod
                     for u, mod in enumerate(spec.moduli))

    zero = tuple(0 for _ in spec.moduli)
    vectors = set(row) - {zero}
    for _ in range(spec.n - 1):
        vectors = {apply(x) for x in vectors} - {zero}
    return not vectors


def nilpotent_mod_p(spec, row) -> bool:
    """Whether the map L of G with L(b_t) = row[t] is nilpotent, decided on
    G/pG = F_p^k, k the rank, one row at a time: the generators' images mod p
    followed k - 1 steps under L mod p, each dropped once 0."""
    p = spec.p
    op = [tuple(c % p for c in col) for col in zip(*row)]
    vectors = {y for y in (tuple(c % p for c in x) for x in row) if any(y)}
    for _ in range(spec.rank - 1):
        vectors = {y for y in (tuple(sum(a * b for a, b in zip(r, x)) % p for r in op) for x in vectors)
                   if any(y)}
    return not vectors


def _commute(spec, row, other) -> bool:
    """Whether the maps of two rows commute, one pair at a time: L(L'(b_t)) =
    L'(L(b_t)) for every generator, L(b_t) = row[t], L'(b_t) = other[t], one
    coordinate at a time: L(x)_u is x dotted with row u of L's matrix, the row
    transposed."""
    ops, other_ops = tuple(zip(*row)), tuple(zip(*other))
    for x, y in zip(row, other):
        for op, other_op, m in zip(ops, other_ops, spec.moduli):
            if (sum(a * b for a, b in zip(op, y)) - sum(a * b for a, b in zip(other_op, x))) % m:
                return False
    return True


def associativity_violations(A) -> list:
    """Every triple (i, j, l) with (b_i b_j) b_l != b_i (b_j b_l), in
    lexicographic order: all k^3 triples, with no use of commutativity."""
    basis = A.spec.basis()
    k = len(basis)
    return [
        (i, j, l)
        for i in range(k)
        for j in range(k)
        for l in range(k)
        if mul(A, A.constants[i][j], basis[l]) != mul(A, basis[i], A.constants[j][l])
    ]


def _length(x):
    """len(x), or None where len raises TypeError (5, None, the class tuple)."""
    try:
        return len(x)
    except TypeError:
        return None


def validation(A) -> list:
    """(axiom, witness) for each violation `validate` reports, in its order,
    built on `mul` and `add` alone: the shape by hand, then symmetry, the
    order condition by adding c_ij to itself p^min(e_i, e_j) times, the k^3
    triples of `associativity_violations`, and nilpotency from every product
    of n + 1 generators, taken left to right."""
    spec, table = A.spec, A.constants
    k, moduli, zero = len(spec.exponents), spec.moduli, spec.zero()
    if _length(table) is None:
        return [("shape", (table,))]
    if len(table) != k or any(_length(row) != k for row in table):
        return [("shape", (len(table),))]
    for i in range(k):
        for j in range(k):
            c = table[i][j]
            if not (_length(c) == k and all(
                    type(x) is not bool and isinstance(x, int) and 0 <= x < m for x, m in zip(c, moduli))):
                return [("shape", (i, j, c))]
    out = [("symmetry", (i, j)) for i in range(k) for j in range(i + 1, k) if table[i][j] != table[j][i]]
    for i in range(k):
        for j in range(k):
            total = zero
            for _ in range(spec.p ** min(spec.exponents[i], spec.exponents[j])):
                total = add(spec, total, table[i][j])
            if total != zero:
                out.append(("well-defined", (i, j)))
    if out:
        return out
    failed = associativity_violations(A)
    if failed:
        return [("associativity", triple) for triple in failed]
    basis = spec.basis()
    products = set(basis)
    for _ in range(spec.n):
        products = {mul(A, x, b) for x in products for b in basis}
    if any(x != zero for x in products):
        return [("nilpotency", (next((c for row in table for c in row if c != zero), zero),))]
    return []


def well_defined_matrices(spec) -> list:
    """The endomorphisms of G as matrices, in the lexicographic order of their
    entries: every matrix with entry (i, j) below p^e_i whose column j is
    killed by p^e_j."""
    k, moduli = len(spec.exponents), spec.moduli
    matrices = (tuple(zip(*[iter(flat)] * k))
                for flat in itertools.product(*[range(mi) for mi in moduli for _ in range(k)]))
    return [m for m in matrices
            if all(m[i][j] * moduli[j] % moduli[i] == 0 for i in range(k) for j in range(k))]


def automorphisms_by_image_count(spec) -> list:
    """Aut(G) as matrices: the `well_defined_matrices` whose index permutation
    (`index_perm`) has |G| distinct images."""
    return [m for m in well_defined_matrices(spec)
            if len(set(index_perm(AffineMap(spec, spec.zero(), m)))) == spec.order]


def holomorph_elements(spec) -> list:
    """Hol(G) listed whole: every x -> a + m(x), a in G and m in
    `automorphisms_by_image_count`, a first."""
    auts = automorphisms_by_image_count(spec)
    return [AffineMap(spec, a, m) for a in spec.elements() for m in auts]


def p_power_order(f, p, n) -> bool:
    """Whether the index permutation f has f^(p^j) = id for some j <= n, by
    p-th powers up to the first identity."""
    ident = tuple(range(len(f)))
    for _ in range(n):
        g = ident
        for _ in range(p):
            g = tuple(f[x] for x in g)
        if (f := g) == ident:
            return True
    return False


def extend_by_cosets(group, gens, limit, admit):
    """Dimino's cosets on index permutations: <gens> from the group listed in
    `group`, its identity first; None once its order would pass limit, or at
    the first new member that fails `admit`."""
    out, inside, reps = list(group), set(group), list(gens)
    for r in reps:
        if r in inside:
            continue
        if len(out) + len(group) > limit:
            return None
        for h in group:
            y = tuple(h[x] for x in r)
            if not admit(y):
                return None
            out.append(y)
        inside.update(out[-len(group):])
        reps.extend(tuple(r[x] for x in g) for g in gens)
    return out


def regular_subgroups_by_permutations(spec) -> list:
    """(gens, members) for each regular subgroup of Hol(G), members a frozenset
    of AffineMaps, gens the index permutations it was grown from: the
    permutation search, with no cap.  The candidates are the fixed-point-free
    x -> a + m(x) of p-power order (`automorphisms_by_image_count`,
    `p_power_order` on every map); from {id} a subgroup grows, one stack and
    depth first, by each candidate that sends 0 to the least point outside
    its orbit of 0, by `extend_by_cosets`, and is kept once by its members."""
    order, n = spec.order, spec.n
    ident = tuple(range(order))
    maps, by_base = {ident: AffineMap(spec, spec.zero(), tuple(spec.basis()))}, {}
    for m in automorphisms_by_image_count(spec):
        for a in spec.elements():
            f = AffineMap(spec, a, m)
            perm = index_perm(f)
            if all(perm[x] != x for x in range(order)) and p_power_order(perm, spec.p, n):
                maps[perm] = f
                by_base.setdefault(perm[0], []).append(perm)
    seen, found, stack = set(), [], [((), [ident])]
    while stack:
        gens, sub = stack.pop()
        if len(sub) == order:
            found.append((gens, frozenset(map(maps.__getitem__, sub))))
            continue
        orbit = {t[0] for t in sub}
        base = min(x for x in range(order) if x not in orbit)
        for f in by_base.get(base, ()):
            grown = extend_by_cosets(sub, gens + (f,), order, maps.__contains__)
            if grown is not None and (key := frozenset(grown)) not in seen:
                seen.add(key)
                stack.append((gens + (f,), grown))
    return found


def regular_subgroup_counts(spec) -> tuple:
    """(regular, abelian) counts of `regular_subgroups_by_permutations`: a
    subgroup is abelian iff the permutations it was grown from commute."""
    found = regular_subgroups_by_permutations(spec)
    return len(found), sum(all(tuple(f[x] for x in g) == tuple(g[x] for x in f)
                               for f, g in itertools.combinations(gens, 2)) for gens, _ in found)
