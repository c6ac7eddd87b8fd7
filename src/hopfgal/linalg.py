"""Matrices over Z/p^e, and the decisions about them made on G/pG = F_p^k.

A matrix on G = C_{p^e_1} x ... x C_{p^e_k} is a k x k tuple of rows: column
j is the image of the standard generator b_j, and row i is reduced mod the
modulus p^e_i, like coordinate i of an element.  No element table is built
here: the index tables the lattice walk reads stay in `abelian`.
"""

import operator


def reduce(moduli, m) -> tuple:
    """m, any k rows of ints, as a matrix: row i reduced mod moduli[i]."""
    return tuple([tuple([v % mod for v in row]) for row, mod in zip(m, moduli)])


def well_defined(moduli, m) -> bool:
    """Whether the matrix m is an endomorphism of G: column j, the image of a
    generator of order moduli[j], must be killed by moduli[j]."""
    return all(mj * v % mi == 0 for row, mi in zip(m, moduli) for v, mj in zip(row, moduli))


def apply(moduli, m, x) -> tuple:
    """m(x), reduced: coordinate i is sum_j m_ij x_j mod moduli[i]."""
    return tuple([sum(map(operator.mul, row, x)) % mod for row, mod in zip(m, moduli)])


def pivots(p: int, vectors) -> dict:
    """Gaussian elimination mod p: {t: v}, one v per dimension of the span of
    `vectors` in F_p^k, v in the span with last nonzero coordinate t, there 1.
    The keys depend on the span alone, and its dimension is their number."""
    out = {}
    for v in vectors:
        v = [x % p for x in v]
        while any(v):
            t = max([t for t, x in enumerate(v) if x])
            if t not in out:
                out[t] = [x * pow(v[t], -1, p) % p for x in v]
                break
            v = [(x - v[t] * y) % p for x, y in zip(v, out[t])]
    return out


def nilpotent_mod_p(p: int, rows) -> bool:
    """Whether the k x k matrix `rows` is nilpotent mod p: squared s times to
    0, 2^s >= k, as a nilpotent N on F_p^k has N^k = 0."""
    power = [[x % p for x in row] for row in rows]
    for _ in range((len(power) - 1).bit_length()):
        if any(map(any, power)):
            power = [[sum(map(operator.mul, row, col)) % p for col in zip(*power)] for row in power]
    return not any(map(any, power))
