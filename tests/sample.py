"""Seeded random generators for graded objects.

Used by the property suites; all sampling goes through an explicit
random.Random instance so runs are reproducible from one seed.
"""

from fractions import Fraction

from ntpg.fields import mat_inv
from ntpg.graded import PolyMap
from ntpg.poly import Poly
from ntpg.signature import monomials_of_weight


def random_scalar(rng, field):
    """A uniform element of F_p, or a rational a/b with -3 <= a <= 3 and
    1 <= b <= 3 over Q."""
    if field.char:
        return rng.randrange(field.char)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_invertible_matrix(rng, field, n):
    while True:
        rows = [[random_scalar(rng, field) for _ in range(n)] for _ in range(n)]
        if mat_inv(field, rows) is not None:
            return rows


def random_polynomial(rng, field, nvars, max_degree=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(exps) > max_degree:
            continue
        terms[exps] = random_scalar(rng, field)
    return Poly(field, nvars, terms)


def random_homogeneous(rng, field, sig, w, n_terms=3):
    monos = monomials_of_weight(sig, w)
    terms = {}
    for _ in range(n_terms):
        if not monos:
            break
        terms[monos[rng.randrange(len(monos))]] = random_scalar(rng, field)
    return Poly(field, sig.ncoords, terms)


def random_weight_preserving_map(rng, field, sig, density=0.6):
    """A random graded endomorphism (not necessarily invertible)."""
    comps = []
    for c in range(sig.ncoords):
        w = sig.weights[c]
        terms = {}
        for exps in monomials_of_weight(sig, w):
            if rng.random() < density:
                terms[exps] = random_scalar(rng, field)
        comps.append(Poly(field, sig.ncoords, terms))
    return PolyMap(sig, sig, field, comps)


def random_graded_automorphism(rng, field, sig, density=0.5):
    """A random weight-preserving map with invertible linear blocks."""
    nv = sig.ncoords
    data = [{} for _ in range(nv)]
    for wkey, _dim in sig.blocks:
        coords = sig.block_coords(wkey)
        mat = random_invertible_matrix(rng, field, len(coords))
        for r, c in enumerate(coords):
            for k, b in enumerate(coords):
                if mat[r][k] != field.zero:
                    unit = tuple(1 if j == b else 0 for j in range(nv))
                    data[c][unit] = mat[r][k]
            for exps in monomials_of_weight(sig, wkey):
                if sum(exps) == 1 and any(
                        exps[b] for b in coords):
                    continue  # linear slot handled by the block matrix
                if rng.random() < density:
                    data[c][exps] = random_scalar(rng, field)
    comps = [Poly(field, nv, d) for d in data]
    return PolyMap(sig, sig, field, comps)
