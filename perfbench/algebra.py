"""Finite algebra for the benchmark's known answers.

Deliberately independent of ``ntpg``: nothing here imports it, so a
defect in the program cannot leak into the answers it is checked against.
Groups are multiplication tables ``t[a][b] = a*b`` on the labels 0..n-1.
Permutations are image tuples and compose left to right, ``(p*q)(x) =
q(p(x))``, the convention of the ``ntpg`` permutation input format.
"""

from itertools import combinations, product


# -- groups as tables -----------------------------------------------------------

def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral(n):
    """Order 2n; r^a s^b is coded a + n*b."""
    def mul(x, y):
        a, b = x % n, x // n
        c, d = y % n, y // n
        return ((a + (c if b == 0 else -c)) % n) + n * ((b + d) % 2)
    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def quaternion():
    """Q8 as +-1, +-i, +-j, +-k coded 2*unit + (sign is negative)."""
    unit = {(0, u): (1, u) for u in range(4)}
    unit.update({(u, 0): (1, u) for u in range(4)})
    unit.update({(1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
                 (1, 2): (1, 3), (2, 1): (-1, 3), (2, 3): (1, 1),
                 (3, 2): (-1, 1), (3, 1): (1, 2), (1, 3): (-1, 2)})
    table = []
    for a in range(8):
        row = []
        for b in range(8):
            s, u = unit[(a // 2, b // 2)]
            neg = (a % 2) ^ (b % 2) ^ (s < 0)
            row.append(2 * u + neg)
        table.append(row)
    return table


def direct_product(*factors):
    """Tables of A x B x ..., the tuple (a, b, ...) coded in mixed radix."""
    table = [[0]]
    for f in factors:
        m, k = len(table), len(f)
        table = [[table[x // k][y // k] * k + f[x % k][y % k]
                  for y in range(m * k)] for x in range(m * k)]
    return table


def factor_members(orders, i):
    """Labels of the i-th factor of a direct product (other coordinates 0)."""
    stride = 1
    for k in orders[i + 1:]:
        stride *= k
    return [a * stride for a in range(orders[i])]


def cofactor_members(orders, i):
    """Labels of the product of every factor but the i-th."""
    total = 1
    for k in orders:
        total *= k
    stride = 1
    for k in orders[i + 1:]:
        stride *= k
    return [x for x in range(total) if (x // stride) % orders[i] == 0]


def relabel(table, perm):
    """The same group with element a renamed perm[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row, pa = table[a], perm[a]
        dest = out[pa]
        for b in range(n):
            dest[perm[b]] = perm[row[b]]
    return out


def identity(table):
    for e, row in enumerate(table):
        if all(row[a] == a and table[a][e] == a for a in range(len(table))):
            return e
    return None


def inverses(table):
    e = identity(table)
    return [row.index(e) for row in table]


def is_abelian(table):
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a))


def is_group(table):
    """Brute force over every triple; for small tables and self-tests."""
    n = len(table)
    full = set(range(n))
    if any(set(row) != full for row in table):
        return False
    if any({table[a][b] for a in range(n)} != full for b in range(n)):
        return False
    if identity(table) is None:
        return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def closure(table, gens):
    """The subgroup generated by gens, as a set of labels."""
    e = identity(table)
    seen, frontier = {e}, [e]
    gens = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = table[a][g]
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def conjugate(table, inv, g, h):
    """g h g^-1."""
    return table[table[g][h]][inv[g]]


def is_normal(table, members):
    inv = inverses(table)
    s = set(members)
    return all(conjugate(table, inv, g, h) in s
               for g in range(len(table)) for h in s)


# -- permutations -----------------------------------------------------------------

def perm_mul(p, q):
    return tuple(q[i] for i in p)


def perm_closure(gens):
    """Sorted list of every permutation the generators produce."""
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = perm_mul(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(seen)


def perm_table(elements):
    index = {p: i for i, p in enumerate(elements)}
    return [[index[perm_mul(a, b)] for b in elements] for a in elements]


def conjugate_perm(p, s):
    """p with its points renamed by s."""
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[s[x]] = s[y]
    return tuple(out)


# -- non-groups -------------------------------------------------------------------

def find_intercalate(table, rng):
    """A 2x2 subsquare (r1, r2, c1, c2) clear of the identity row, column and
    value, so swapping it keeps a Latin square with identity and inverses."""
    n = len(table)
    e = identity(table)
    col_of = [{v: c for c, v in enumerate(row)} for row in table]
    rows = [r for r in range(n) if r != e]
    rng.shuffle(rows)
    for r1 in rows:
        for r2 in rows:
            if r2 == r1:
                continue
            for c1 in range(n):
                x, y = table[r1][c1], table[r2][c1]
                c2 = col_of[r1][y]
                if c1 == e or c2 == e or e in (x, y):
                    continue
                if table[r2][c2] == x:
                    return r1, r2, c1, c2
    raise ValueError("no intercalate")


def swap_intercalate(table, cells):
    r1, r2, c1, c2 = cells
    out = [list(row) for row in table]
    out[r1][c1], out[r1][c2] = out[r1][c2], out[r1][c1]
    out[r2][c1], out[r2][c2] = out[r2][c2], out[r2][c1]
    return out


def nonassociative_triple(table, a, b):
    """A c with (ab)c != a(bc), or None."""
    ab = table[a][b]
    for c in range(len(table)):
        if table[ab][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


# -- graded automorphism groups ----------------------------------------------------

def gl_order(d, p):
    out = 1
    for k in range(d):
        out *= p ** d - p ** k
    return out


def _partitions(sigma, weights):
    """Ways to write sigma as a sum of distinct block weights with disjoint
    supports (the 0/1 monomials of weight sigma, one factor per block)."""
    if not any(sigma):
        yield ()
        return
    first = sigma.index(1)
    for w in weights:
        if w[first] == 1 and all(s >= x for s, x in zip(sigma, w)):
            rest = tuple(s - x for s, x in zip(sigma, w))
            for tail in _partitions(rest, weights):
                yield (w,) + tail


def aut_orders(n, blocks, p):
    """Orders of Aut, of each G^i, of each pairwise intersection and of the
    statomorphisms (identity linear part, p^mixed) for a
    0/1 multi-graded model over F_p: |Aut| = prod |GL(d_sigma)| * p^mixed,
    where the mixed slots are the non-linear monomials of each target
    weight; G^i fixes the block e_i, so it drops the factor |GL(d_{e_i})|.
    ``blocks`` maps weight tuples to dimensions."""
    weights = sorted(blocks)
    linear, mixed = 1, 0
    for sigma, d in blocks.items():
        linear *= gl_order(d, p)
        for part in _partitions(sigma, weights):
            if len(part) > 1:
                count = d
                for w in part:
                    count *= blocks[w]
                mixed += count
    order = linear * p ** mixed

    def unit_gl(i):
        e = tuple(1 if k == i else 0 for k in range(n))
        return gl_order(blocks.get(e, 0), p)

    gi = [order // unit_gl(i) for i in range(n)]
    inter = {"%d,%d" % (i + 1, j + 1): order // (unit_gl(i) * unit_gl(j))
             for i in range(n) for j in range(i + 1, n)}
    return {"gamma": order, "gi": gi, "intersections": inter,
            "statomorphisms": p ** mixed}


def aut_order_by_bijectivity(n, blocks, p):
    """|Aut| by brute force: every coefficient vector of the weight-exact
    slots whose map F_p^N -> F_p^N is a bijection.  For self-tests."""
    coords = [w for w in blocks for _ in range(blocks[w])]
    slots = []
    for c, sigma in enumerate(coords):
        for subset in _coord_subsets(coords, sigma):
            slots.append((c, subset))
    points = list(product(range(p), repeat=len(coords)))
    count = 0
    for values in product(range(p), repeat=len(slots)):
        images = set()
        for pt in points:
            img = [0] * len(coords)
            for (c, subset), v in zip(slots, values):
                if v:
                    term = v
                    for k in subset:
                        term *= pt[k]
                    img[c] += term
            images.add(tuple(x % p for x in img))
        if len(images) == len(points):
            count += 1
    return count


def _coord_subsets(coords, sigma):
    """Coordinate sets whose weights are disjoint and sum to sigma."""
    out = []
    for r in range(1, len(coords) + 1):
        for subset in combinations(range(len(coords)), r):
            total = [0] * len(sigma)
            for k in subset:
                total = [t + x for t, x in zip(total, coords[k])]
            if tuple(total) == tuple(sigma):
                out.append(subset)
    return out


# -- cocycles on a nerve -------------------------------------------------------------

def coboundary_first(table, n, pairs, c1, c2):
    """First family (lambda_i) in the product order of the labels with
    c2_ij = lambda_i c1_ij lambda_j^-1 on every overlap, and the number of
    families the exhaustive grid search visits to reach it (or all of them).

    A connected nerve determines every lambda_j from lambda_0 along a
    spanning tree, so only |G| roots are tried; a family's position in the
    grid is its labels read as base-|G| digits.
    """
    g = len(table)
    inv = inverses(table)
    value1 = dict(c1)
    value2 = dict(c2)
    for (i, j), v in c1.items():
        value1[(j, i)] = inv[v]
    for (i, j), v in c2.items():
        value2[(j, i)] = inv[v]
    adj = {i: [] for i in range(n)}
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    order, parent, seen = [0], {}, {0}
    for i in order:
        for j in sorted(adj[i]):
            if j not in seen:
                seen.add(j)
                parent[j] = i
                order.append(j)
    if len(order) != n:
        raise ValueError("nerve is not connected")
    for root in range(g):
        lam = {0: root}
        for j in order[1:]:
            i = parent[j]
            lam[j] = table[table[inv[value2[(i, j)]]][lam[i]]][value1[(i, j)]]
        if all(table[table[lam[i]][value1[(i, j)]]][inv[lam[j]]]
               == value2[(i, j)] for (i, j) in value1):
            fam = [lam[i] for i in range(n)]
            pos = 0
            for x in fam:
                pos = pos * g + x
            return fam, pos + 1
    return None, g ** n


def coboundary_brute(table, n, c1, c2):
    """The same answer by walking the whole grid; for self-tests."""
    inv = inverses(table)
    value1, value2 = dict(c1), dict(c2)
    for (i, j), v in c1.items():
        value1[(j, i)] = inv[v]
    for (i, j), v in c2.items():
        value2[(j, i)] = inv[v]
    searched = 0
    for lam in product(range(len(table)), repeat=n):
        searched += 1
        if all(table[table[lam[i]][value1[(i, j)]]][inv[lam[j]]]
               == value2[(i, j)] for (i, j) in value1):
            return list(lam), searched
    return None, searched
