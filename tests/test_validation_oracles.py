"""The generator-based validators of actions and groupoids against the
brute-force scans they replaced.

``FiniteAction`` proves the composition law on product generators and
``FiniteGroupoid`` counts composable pairs per object and runs Light's
test; the oracles below check every (a, b, x) and every composable triple
in index order.  Both must raise the same exception class with the same
message and witness, or both accept.
"""

from itertools import combinations, product, permutations

import pytest

from ntpg.errors import AlgebraError, InvalidInput, NotAnAction
from ntpg.groupoids import (FiniteGroupoid, build_from_morphism,
                            gauge_groupoid, pair_groupoid)
from ntpg.groups import FiniteAction, subgroup_closure
from ntpg.named import (cyclic, dihedral, klein_four, quaternion_group,
                        symmetric, trivial_group)


def brute_force_action(G, set_size, act):
    """Every row a permutation, the identity trivial, then x.(ab) = (x.a).b
    for every a, b and x in index order."""
    for g, row in enumerate(act):
        if len(row) != set_size:
            raise NotAnAction("row %d has wrong length" % g, element=g)
        if sorted(row) != list(range(set_size)):
            raise NotAnAction("element %d does not act bijectively" % g,
                              element=g)
    if tuple(act[G.identity]) != tuple(range(set_size)):
        raise NotAnAction("identity does not act as the identity")
    for a in range(G.order):
        for b in range(G.order):
            ab = G.table[a][b]
            for x in range(set_size):
                if act[ab][x] != act[b][act[a][x]]:
                    raise NotAnAction("composition law fails",
                                      pair=(a, b), point=x)


def brute_force_groupoid(n, src, tgt, id_, inv, mul):
    """Every pair of arrows checked for composability, every product for
    range and endpoints, then units, inverses and every composable
    triple."""
    m = len(src)
    if len(tgt) != m or len(inv) != m or len(id_) != n:
        raise InvalidInput("groupoid arrays have inconsistent lengths")
    for a in range(m):
        if not (0 <= src[a] < n and 0 <= tgt[a] < n):
            raise InvalidInput("src/tgt out of range", arrow=a)
        if not 0 <= inv[a] < m:
            raise InvalidInput("inv out of range", arrow=a)
    for x in range(n):
        u = id_[x]
        if not 0 <= u < m or src[u] != x or tgt[u] != x:
            raise InvalidInput("id[x] is not an arrow at x", object=x)
    for g in range(m):
        for h in range(m):
            if src[g] == tgt[h]:
                if (g, h) not in mul:
                    raise InvalidInput("missing product of composable pair",
                                       pair=(g, h))
            elif (g, h) in mul:
                raise InvalidInput("product defined on non-composable pair",
                                   pair=(g, h))
    for (g, h), gh in mul.items():
        if not 0 <= gh < m:
            raise InvalidInput("product out of range", pair=(g, h))
        if src[gh] != src[h] or tgt[gh] != tgt[g]:
            raise InvalidInput("product has wrong endpoints", pair=(g, h))
    for g in range(m):
        if mul[(g, id_[src[g]])] != g or mul[(id_[tgt[g]], g)] != g:
            raise InvalidInput("units are not two-sided", arrow=g)
        gi = inv[g]
        if src[gi] != tgt[g] or tgt[gi] != src[g]:
            raise InvalidInput("inverse has wrong endpoints", arrow=g)
        if mul[(g, gi)] != id_[tgt[g]] or mul[(gi, g)] != id_[src[g]]:
            raise InvalidInput("inverse law fails", arrow=g)
    for (g, h), gh in mul.items():
        for k in range(m):
            if src[h] == tgt[k]:
                if mul[(gh, k)] != mul[(g, mul[(h, k)])]:
                    raise InvalidInput("associativity fails",
                                       triple=(g, h, k))


def outcome(build, *args):
    """(class name, message, details) of the raised error, or None."""
    try:
        build(*args)
    except AlgebraError as e:
        return type(e).__name__, str(e), e.details
    return None


def assert_same_action(G, set_size, act):
    expected = outcome(brute_force_action, G, set_size, act)
    assert outcome(FiniteAction, G, set_size, act) == expected, \
        (G.order, set_size, act)
    return expected


# -- actions ------------------------------------------------------------------

def test_every_assignment_of_permutations_for_tiny_groups():
    kinds = set()
    checked = 0
    for G in (trivial_group(), cyclic(2), cyclic(3)):
        for points in range(4):
            perms = list(permutations(range(points)))
            for act in product(perms, repeat=G.order):
                verdict = assert_same_action(G, points, act)
                kinds.add(verdict and verdict[1])
                checked += 1
    # k!^|G| assignments on k = 0..3 points
    assert checked == (1 + 1 + 2 + 6) + (1 + 1 + 4 + 36) + (1 + 1 + 8 + 216)
    assert kinds == {None, "identity does not act as the identity",
                     "composition law fails"}


def _coset_action(G, H):
    """G acting on the right cosets of H by right multiplication."""
    cosets = sorted({tuple(sorted(G.table[h][x] for h in H.members))
                     for x in range(G.order)})
    index = {x: i for i, c in enumerate(cosets) for x in c}
    return len(cosets), [[index[G.table[c[0]][g]] for c in cosets]
                         for g in range(G.order)]


_ACTION_GROUPS = {"Z4": lambda: cyclic(4), "V4": klein_four,
                  "S3": lambda: symmetric(3), "D4": lambda: dihedral(4),
                  "Q8": quaternion_group}


@pytest.mark.parametrize("name", sorted(_ACTION_GROUPS))
def test_coset_actions_with_two_entries_swapped(name):
    G = _ACTION_GROUPS[name]()
    subgroups = {subgroup_closure(G, gens).members
                 for gens in combinations(range(G.order), 2)}
    subgroups.add((G.identity,))    # the regular action
    failures = 0
    for members in sorted(subgroups):
        points, act = _coset_action(G, subgroup_closure(G, members))
        assert assert_same_action(G, points, act) is None
        for g in range(G.order):
            for x, y in combinations(range(points), 2):
                bad = [list(row) for row in act]
                bad[g][x], bad[g][y] = bad[g][y], bad[g][x]
                failures += assert_same_action(G, points, bad) is not None
    assert failures


# -- groupoids ----------------------------------------------------------------

def _fields(gpd):
    return (gpd.n_objects, list(gpd.src), list(gpd.tgt), list(gpd.id),
            list(gpd.inv), dict(gpd.mul))


def _free_s3_gauge():
    G = symmetric(3)
    act = [[c * 6 + G.table[x][g] for c in range(3) for x in range(6)]
           for g in range(6)]
    return gauge_groupoid(18, FiniteAction(G, 18, act))[0]


def _built_s3():
    """Z4 as a one-object groupoid, built over S3 through the morphism
    sending the generator to a transposition; the kernel {0, 2} leaves
    loops of order 2 at every object."""
    z4, G = cyclic(4), symmetric(3)
    base = FiniteGroupoid(1, [0] * 4, [0] * 4, [z4.identity], z4.inverse,
                          {(a, b): z4.table[a][b]
                           for a in range(4) for b in range(4)})
    t = next(a for a in range(6) if G.element_order(a) == 2)
    b = [t if k % 2 else G.identity for k in range(4)]
    return build_from_morphism(base, G, b).action.groupoid


_GROUPOIDS = {"pair-%d" % k: (lambda k=k: pair_groupoid(k))
              for k in range(1, 5)}
_GROUPOIDS["gauge-S3"] = _free_s3_gauge
_GROUPOIDS["built-S3"] = _built_s3


def _spread(items, count):
    """About count items spread evenly over the list."""
    return items[::max(1, len(items) // count)]


def _variants(fields):
    """The groupoid with one product value swapped, one composable pair
    dropped or one non-composable pair added, each in several places."""
    n, src, tgt, id_, inv, mul = fields
    keys = list(mul)
    # swaps of equal-endpoint products get past the endpoint check
    alike = [(i, j) for i, j in combinations(keys, 2)
             if mul[i] != mul[j] and src[mul[i]] == src[mul[j]]
             and tgt[mul[i]] == tgt[mul[j]]]
    for i, j in _spread(alike, 60) + _spread(list(zip(keys, keys[1:])), 10):
        swapped = dict(mul)
        swapped[i], swapped[j] = mul[j], mul[i]
        yield swapped
    for key in _spread(keys, 15):
        dropped = dict(mul)
        del dropped[key]
        yield dropped
    m = len(src)
    apart = [(g, h) for g in range(m) for h in range(m) if src[g] != tgt[h]]
    for key in _spread(apart, 15):
        yield {**mul, key: 0}


@pytest.mark.parametrize("name", sorted(_GROUPOIDS))
def test_groupoids_with_a_product_swapped_dropped_or_added(name):
    fields = _fields(_GROUPOIDS[name]())
    assert outcome(FiniteGroupoid, *fields) is None
    messages = set()
    for mul in _variants(fields):
        args = fields[:-1] + (mul,)
        expected = outcome(brute_force_groupoid, *args)
        assert outcome(FiniteGroupoid, *args) == expected
        messages.add(expected and expected[1])
    if name != "pair-1":
        assert "missing product of composable pair" in messages
        assert "product defined on non-composable pair" in messages
    if name in ("gauge-S3", "built-S3"):
        assert "associativity fails" in messages
