"""A small catalog of concrete groups used by tests, reports and the docs.

Quaternion elements are ordered (1, -1, i, -i, j, -j, k, -k); dihedral
elements r^a s^b are coded a + n*b.  ``groups._built_group`` builds each
table from its row rule, so a rule that gives no group is a library bug.
"""

from math import factorial

from .errors import InternalInconsistency, InvalidInput, is_int
from .groups import _built, _built_group, make_group_from_permutations
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
    def row_of(a):
        (sa, ua), row = _q8_decode(a), []
        for sb, ub in map(_q8_decode, range(8)):
            s, u = _UNIT[(ua, ub)]
            row.append(_q8_encode(sa * sb * s, u))
        return tuple(row)

    return _built_group(8, Q8_ONE, row_of)


def _check_n(n):
    if not is_int(n) or n < 1:
        raise InvalidInput("n must be a positive integer", n=n)


def trivial_group():
    return cyclic(1)


def cyclic(n):
    _check_n(n)
    ints = tuple(range(n))
    return _built_group(n, 0, lambda a: ints[a:] + ints[:a])


def klein_four():
    return direct_product(cyclic(2), cyclic(2))


def dihedral(n):
    """Dihedral group of order 2n; r^a s^b coded as a + n*b."""
    _check_n(n)

    def row_of(x):
        a1, b1 = x % n, x // n
        # (r^a1 s^b1)(r^a2 s^b2) = r^(a1 + (-1)^b1 a2) s^(b1+b2)
        return tuple((a1 + (-1) ** b1 * y) % n + n * ((b1 + y // n) % 2)
                     for y in range(2 * n))

    return _built_group(2 * n, 0, row_of)


def symmetric(n):
    """S_n via permutation closure; elements are the lex-sorted permutations."""
    _check_n(n)
    # an n-cycle, and from n = 3 on a transposition
    gens = [list(range(1, n)) + [0]]
    if n > 2:
        gens.append([1, 0] + list(range(2, n)))
    G, _ = make_group_from_permutations(gens)
    if G.order != factorial(n):
        raise InternalInconsistency("the closure is not S_n", order=G.order)
    return G


def direct_product(G, H):
    """G x H with element (g, h) coded g*|H| + h: the semidirect product
    by the trivial action, whose embedded factors are
    ``product_factor_members``."""
    return _built(semidirect, G, H, [range(H.order)] * G.order)
