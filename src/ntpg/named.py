"""A small catalog of concrete groups used by tests, reports and the docs.

Quaternion elements are ordered (1, -1, i, -i, j, -j, k, -k); dihedral
elements r^a s^b are coded a + n*b.
"""

from itertools import permutations

from .groups import _built, make_group, make_group_from_permutations
from .principal import product_factor_members, semidirect  # noqa: F401

# Q8 element indices, in catalog order.
Q8_NAMES = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
Q8_ONE, Q8_MINUS_ONE, Q8_I, Q8_MINUS_I, Q8_J, Q8_MINUS_J, Q8_K, Q8_MINUS_K = range(8)

# unit products i*j = k etc.; entries (axis, axis) -> (sign, axis)
_UNIT = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
    (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (2, 3): (1, 1), (3, 2): (-1, 1),
    (3, 1): (1, 2), (1, 3): (-1, 2),
}


def _q8_decode(idx):
    return (1 if idx % 2 == 0 else -1, idx // 2)


def _q8_encode(sign, axis):
    return 2 * axis + (0 if sign == 1 else 1)


def quaternion_group():
    """Q8 with elements (1, -1, i, -i, j, -j, k, -k)."""
    table = []
    for a in range(8):
        sa, ua = _q8_decode(a)
        row = []
        for b in range(8):
            sb, ub = _q8_decode(b)
            s, u = _UNIT[(ua, ub)]
            row.append(_q8_encode(sa * sb * s, u))
        table.append(row)
    return make_group(table)


def trivial_group():
    return cyclic(1)


def cyclic(n):
    return make_group([[(a + b) % n for b in range(n)] for a in range(n)])


def klein_four():
    return direct_product(cyclic(2), cyclic(2))


def dihedral(n):
    """Dihedral group of order 2n; r^a s^b coded as a + n*b."""
    def code(a, b):
        return a % n + n * (b % 2)

    table = []
    for x in range(2 * n):
        a1, b1 = x % n, x // n
        row = []
        for y in range(2 * n):
            a2, b2 = y % n, y // n
            # (r^a1 s^b1)(r^a2 s^b2) = r^(a1 + (-1)^b1 a2) s^(b1+b2)
            a = a1 + (a2 if b1 == 0 else -a2)
            row.append(code(a, b1 + b2))
        table.append(row)
    return make_group(table)


def symmetric(n):
    """S_n via permutation closure; elements are the lex-sorted permutations."""
    if n == 1:
        return trivial_group()
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    G, elements = make_group_from_permutations([list(g) for g in gens])
    assert len(elements) == len(list(permutations(range(n))))
    return G


def direct_product(G, H):
    """G x H with element (g, h) coded g*|H| + h: the semidirect product
    by the trivial action, whose embedded factors are
    ``product_factor_members``."""
    return _built(semidirect, G, H, [range(H.order)] * G.order)
