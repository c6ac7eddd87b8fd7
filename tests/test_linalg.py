"""The matrix helpers against references that share no code with them: images
summed column by column in G, spans listed whole, powers multiplied out."""

import itertools
import random

import pytest

from hopfgal import linalg
from hopfgal.abelian import GroupSpec

SPECS = [GroupSpec(2, (2, 1)), GroupSpec(2, (3, 1)), GroupSpec(2, (1, 1, 1)), GroupSpec(3, (2,))]


def _image(moduli, m, x):
    """m(x) as x_0 copies of column 0 plus x_1 copies of column 1 ..., added in G."""
    y = [0] * len(moduli)
    for j, xj in enumerate(x):
        for _ in range(xj):
            y = [(yi + row[j]) % mod for yi, row, mod in zip(y, m, moduli)]
    return tuple(y)


def _matrices(spec):
    """Every k x k matrix with row i below the modulus p^e_i."""
    k, moduli = spec.rank, spec.moduli
    for flat in itertools.product(*[range(mod) for mod in moduli for _ in range(k)]):
        yield tuple(zip(*[iter(flat)] * k))


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_a_matrix_is_well_defined_iff_its_map_is_additive(spec):
    moduli, elems = spec.moduli, spec.elements()
    for m in _matrices(spec):
        images = {x: linalg.apply(moduli, m, x) for x in elems}
        assert all(images[x] == _image(moduli, m, x) for x in elems)
        additive = all(images[tuple((a + b) % mod for a, b, mod in zip(x, y, moduli))]
                       == tuple((a + b) % mod for a, b, mod in zip(images[x], images[y], moduli))
                       for x, y in itertools.product(elems, repeat=2))
        assert linalg.well_defined(moduli, m) == additive, m


@pytest.mark.parametrize("p,k", [(2, 3), (3, 3), (5, 2)])
def test_pivots_span_the_vectors(p, k):
    rng = random.Random(p * k)
    for size in range(5):
        vectors = [[rng.randrange(-p, 2 * p) for _ in range(k)] for _ in range(size)]
        span = {tuple(sum(c * v[t] for c, v in zip(coeffs, vectors)) % p for t in range(k))
                for coeffs in itertools.product(range(p), repeat=size)}
        pivots = linalg.pivots(p, vectors)
        assert p ** len(pivots) == len(span)
        for t, v in pivots.items():
            assert tuple(v) in span and v[t] == 1 and not any(v[t + 1:])


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
def test_nilpotent_mod_p_is_a_zero_power(p, k):
    for flat in itertools.product(range(p), repeat=k * k):
        n = [flat[i * k:(i + 1) * k] for i in range(k)]
        power = n
        for _ in range(k - 1):
            power = [[sum(power[i][t] * n[t][j] for t in range(k)) % p for j in range(k)] for i in range(k)]
        # shifted by a multiple of p, the verdict is the same
        shifted = [[x + p * (i == j) for j, x in enumerate(row)] for i, row in enumerate(n)]
        assert linalg.nilpotent_mod_p(p, n) == linalg.nilpotent_mod_p(p, shifted) == (not any(map(any, power)))
