"""The generator-based validators of actions, groupoids, normality and
homomorphisms, the product closure of subgroups, and the propagation search
for coboundaries, against the brute-force scans they replaced.

``FiniteAction`` proves the composition law on product generators and
``FiniteGroupoid`` counts composable pairs per object and runs Light's
test; the oracles below check every (a, b, x) and every composable triple
in index order.  Both must raise the same exception class with the same
message and witness, or both accept.  ``are_cohomologous`` tries |G| roots
per nerve component; its oracle walks the whole |G|^charts grid in
``product`` order, and both must give the same verdict, witness and count.
``normality_witness`` conjugates by product generators alone, and
``GroupHom`` multiplies by them and rescans in index order on failure;
``subgroup_closure`` extends the inputs by right products only, and
``Subgroup`` compares its members with their closure.  Their oracles
conjugate by every element, check every pair, search from the identity over
every input and its inverse, and scan every inverse and pair of members.
``make_group`` proves the identity, the inverses and associativity and
scans the rows and columns only when a proof fails; its reference checks
the rows and columns first, and both must give the same error or the same
group, field by field, on the named groups and on every table one entry,
one swap of two rows or columns, or one principal isotope away from a
named group of order at most 8 or from a non-associative loop.
``check_compatible`` tests the group's product generators alone; its
oracle tests every element.  ``action_check`` reads freeness off the orbit
sizes; its reference scans every element and joins orbits through a
union-find, and each point's coordinate g, with r.g the point for r the
least point of its orbit, is checked against the action table, and for a
free action against every element.  ``check_compatible``'s pre-principal
verdict is compared with the route through the quotient group G/K
(``reduce_action``).  ``gauge_groupoid`` builds its arrows and products in
closed form from those coordinates; its reference walks the pair orbits,
divides through the map (x, x.g) -> g and scans every pair of arrows.
The named groups of order at most 12 run here; larger orders run the same
comparisons from the command line, the group checks up to the first order
and the changed tables up to the second, whose counts are pinned:

    PYTHONPATH=src python tests/test_validation_oracles.py 24 12
"""

import sys
from itertools import (chain, combinations, combinations_with_replacement,
                       product, permutations)

import pytest

from ntpg.actions import (FiniteAction, GroupHom, action_check, quotient,
                          reduce_action, regular_action,
                          right_translation_action, trivial_action)
from ntpg.autgroups import enumerate_aut
from ntpg.cocycles import Cocycle, CoverNerve, are_cohomologous, check_cocycle
from ntpg.errors import (AlgebraError, InternalInconsistency, InvalidInput,
                         NoIdentity, NoInverse, NonAssociative, NotAnAction,
                         NotLatinSquare, is_int)
from ntpg.fields import GF
from ntpg.groupoids import (FiniteGroupoid, GroupoidAction,
                            build_from_morphism, check_compatible,
                            gauge_groupoid, pair_groupoid)
from ntpg.groups import (Subgroup, _light_test, _product_generators,
                         make_group, normality_witness, subgroup_closure)
from ntpg.named import (cyclic, dihedral, direct_product, klein_four,
                        quaternion_group, symmetric, trivial_group)
from ntpg.signature import GradedSignature
from test_cli_fuzz import LOOP5


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
    triple, each scan in index order whatever the order of mul."""
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
    pairs = [(g, h) for g in range(m) for h in range(m) if src[g] == tgt[h]]
    for g, h in pairs:
        gh = mul[(g, h)]
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
    for g, h in pairs:
        for k in range(m):
            if src[h] == tgt[k]:
                if mul[(mul[(g, h)], k)] != mul[(g, mul[(h, k)])]:
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


def test_every_assignment_of_rows_with_one_value_out_of_range():
    # every row in {0..k}^k, so rows repeat a point or name the point k
    kinds = set()
    checked = 0
    for G, most in ((trivial_group(), 3), (cyclic(2), 3), (cyclic(3), 2)):
        for points in range(most + 1):
            rows = list(product(range(points + 1), repeat=points))
            for act in product(rows, repeat=G.order):
                verdict = assert_same_action(G, points, act)
                kinds.add(verdict and verdict[1])
                checked += 1
    # (k+1)^(k|G|) assignments
    assert checked == (1 + 2 + 9 + 64) + (1 + 4 + 81 + 4096) + (1 + 8 + 729)
    assert kinds == {None, "identity does not act as the identity",
                     "composition law fails",
                     *("element %d does not act bijectively" % g
                       for g in range(3))}


def reference_action_check(a):
    """(fixed, kernel members, orbits, orbit_of) as ``action_check`` gave
    them when it scanned every element for the kernel and the first fixed
    point and joined the orbits through a union-find over the product
    generators."""
    G = a.group
    ident = tuple(range(a.set_size))
    kernel = tuple(g for g in range(G.order) if a.act[g] == ident)
    fixed = next(((g, x) for g, row in enumerate(a.act) if g != G.identity
                  for x in ident if row[x] == x), None)
    parent = list(ident)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in G.generators:
        for x in ident:
            ra, rb = find(x), find(a.act[g][x])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots, orbit_of, orbits = {}, [], []
    for x in ident:
        r = find(x)
        if r not in roots:
            roots[r] = len(orbits)
            orbits.append([])
        orbit_of.append(roots[r])
        orbits[roots[r]].append(x)
    return fixed, kernel, [tuple(o) for o in orbits], tuple(orbit_of)


def assert_same_action_report(a):
    """action_check against its reference, field by field, and each point x
    as r.coordinate[x], r the least point of its orbit, by the only such
    element when the action is free: is a free?"""
    rep = action_check(a)
    assert (rep.fixed, rep.kernel.members, rep.orbits, rep.orbit_of) == \
        reference_action_check(a), (a.group.order, a.act)
    for x, (X, c) in enumerate(zip(rep.orbit_of, rep.coordinate)):
        r = rep.orbits[X][0]
        assert a.act[c][r] == x, (a.act, x)
        if rep.is_free:
            assert [g for g, row in enumerate(a.act) if row[r] == x] == [c]
    return rep.is_free


def reference_gauge_groupoid(set_size, action):
    """The groupoid fields, products and labels of ``gauge_groupoid`` as it
    built them before its closed form: each pair orbit walked from its
    least pair in lexicographic order, the transporter (x, x.g) -> g of
    every point and element, and a scan of every pair of arrows for the
    composable ones.  The action must be free."""
    act = action.act
    _, _, orbits, point_orbit = reference_action_check(action)
    object_rep = [min(o) for o in orbits]
    pair_to_arrow, arrow_rep = {}, []
    for p in range(set_size):
        for q in range(set_size):
            if (p, q) not in pair_to_arrow:
                for row in act:
                    pair_to_arrow[(row[p], row[q])] = len(arrow_rep)
                arrow_rep.append((p, q))
    transport = {(x, row[x]): g for x in range(set_size)
                 for g, row in enumerate(act)}
    mul = {}
    for a, (p, q) in enumerate(arrow_rep):
        for b, (q2, r) in enumerate(arrow_rep):
            if point_orbit[q2] == point_orbit[q]:
                mul[(a, b)] = pair_to_arrow[(p, act[transport[(q2, q)]][r])]
    return (len(object_rep), [point_orbit[q] for p, q in arrow_rep],
            [point_orbit[p] for p, q in arrow_rep],
            [pair_to_arrow[(r, r)] for r in object_rep],
            [pair_to_arrow[(q, p)] for p, q in arrow_rep], list(mul.items()),
            list(pair_to_arrow.items()), arrow_rep)


def assert_same_gauge(set_size, action):
    gpd, labels = gauge_groupoid(set_size, action)
    assert (gpd.n_objects, list(gpd.src), list(gpd.tgt), list(gpd.id),
            list(gpd.inv), list(gpd.mul.items()),
            list(labels.pair_to_arrow.items()),
            labels.arrow_rep) == reference_gauge_groupoid(set_size, action)


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
    return build_from_morphism(base, G, b).groupoid


_GROUPOIDS = {"pair-%d" % k: (lambda k=k: pair_groupoid(k))
              for k in range(1, 5)}
_GROUPOIDS["gauge-S3"] = _free_s3_gauge
_GROUPOIDS["built-S3"] = _built_s3


def _spread(items, count):
    """About count items spread evenly over the list."""
    return items[::max(1, len(items) // count)]


def _variants(fields):
    """The groupoid with one product value swapped, one composable pair
    dropped or one non-composable pair added, each in several places, and
    the swaps again with the products listed in reverse."""
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
        yield dict(reversed(swapped.items()))
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


# -- normality, homomorphisms and subgroup closure --------------------------

def brute_force_closure(G, gens):
    """Members of the subgroup generated by gens: breadth-first search from
    the identity, multiplying by every input, its inverse and the
    identity."""
    seen = {G.identity}
    frontier = [G.identity]
    gens = sorted(set(gens) | {G.identity})
    gens = gens + [G.inverse[g] for g in gens]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = G.table[a][g]
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen))


def brute_force_subgroup(G, members):
    """Range and identity, then every member's inverse and every pair's
    product in index order."""
    present = set(members)
    members = sorted(present)
    for m in members:
        if not 0 <= m < G.order:
            raise InvalidInput("subgroup member out of range", member=m)
    if G.identity not in present:
        raise InvalidInput("subgroup misses the identity")
    for a in members:
        if G.inverse[a] not in present:
            raise InvalidInput("subgroup not closed under inverse", element=a)
        for b in members:
            if G.table[a][b] not in present:
                raise InvalidInput("subgroup not closed under product",
                                   pair=(a, b))


def assert_same_subgroup(G, members):
    expected = outcome(brute_force_subgroup, G, members)
    assert outcome(Subgroup, G, members) == expected, sorted(members)
    return expected


def brute_force_normality(G, H):
    """The first (g, h) in index order with g h g^-1 outside H, or None."""
    for g in range(G.order):
        for h in H.members:
            if G.conjugate(g, h) not in H:
                return (g, h)
    return None


def brute_force_hom(source, target, images):
    """Length, range and identity, then map(ab) = map(a)map(b) for every
    pair (a, b) in index order."""
    if len(images) != source.order:
        raise InvalidInput("image array has wrong length")
    for x in images:
        if not 0 <= x < target.order:
            raise InvalidInput("image out of range", value=x)
    if images[source.identity] != target.identity:
        raise InvalidInput("identity not mapped to identity")
    for a in range(source.order):
        for b in range(source.order):
            if images[source.table[a][b]] != \
                    target.table[images[a]][images[b]]:
                raise InvalidInput("map is not a homomorphism", pair=(a, b))


_FACTORS = {"1": (1, trivial_group), "V4": (4, klein_four),
            "Q8": (8, quaternion_group), "S3": (6, lambda: symmetric(3)),
            "S4": (24, lambda: symmetric(4))}
_FACTORS.update(("Z%d" % n, (n, lambda n=n: cyclic(n))) for n in range(2, 25))
_FACTORS.update(("D%d" % n, (2 * n, lambda n=n: dihedral(n)))
                for n in range(3, 13))
_PRODUCTS = [("Z2", "Z4"), ("Z2", "V4"), ("Z3", "Z3"), ("Z2", "Z6"),
             ("Z2", "S3"), ("V4", "Z3"), ("Z2", "Q8"), ("Z2", "D4"),
             ("Z3", "S3"), ("Z4", "S3"), ("Z3", "Q8"), ("V4", "S3")]


def named_groups(max_order):
    """name -> builder for the named groups, and small direct products of
    them, of order at most max_order."""
    out = {name: build for name, (order, build) in _FACTORS.items()
           if order <= max_order}
    for a, b in _PRODUCTS:
        (m, x), (n, y) = _FACTORS[a], _FACTORS[b]
        if m * n <= max_order:
            out[a + "x" + b] = lambda x=x, y=y: direct_product(x(), y())
    return out


def compare_group_checks(G):
    """Compare closure, normality and homomorphism checks with their oracles
    on G.  The closures: every subgroup generated by one or two elements,
    and every union of two of them.  The homomorphisms: each quotient
    projection, the projection with one image moved to the next element,
    and the identity map with two images swapped.  Each union of two
    subgroups is also validated as a subgroup.  The first conjugator that
    moves a subgroup is always a product generator.  The action reports,
    against the union-find reference: each subgroup acting on G by right
    translation, G on the right cosets of each subgroup, the trivial
    action on 3 points, the regular action and the action on no points.
    The gauge groupoid of each subgroup's right translation, against its
    reference.  Returns how many unions were not subgroups, how many
    subgroups were not normal, how many maps were not homomorphisms, how
    many of those actions were free and not free, and how many gauge
    groupoids were compared."""
    subgroups = {}
    for gens in combinations_with_replacement(range(G.order), 2):
        gens = set(gens)
        H = subgroup_closure(G, gens)
        assert H.members == brute_force_closure(G, gens), gens
        subgroups.setdefault(H.members, H)
    counts = {"not a subgroup": 0, "not normal": 0, "not a homomorphism": 0,
              "free": 0, "not free": 0, "gauges": 0}
    for H1, H2 in combinations(list(subgroups.values()), 2):
        gens = set(H1.members) | set(H2.members)
        H = subgroup_closure(G, gens)
        assert H.members == brute_force_closure(G, gens), gens
        subgroups.setdefault(H.members, H)
        counts["not a subgroup"] += \
            assert_same_subgroup(G, gens) is not None

    def check_hom(target, images):
        expected = outcome(brute_force_hom, G, target, images)
        assert outcome(GroupHom, G, target, images) == expected, images
        counts["not a homomorphism"] += expected is not None and \
            expected[1] == "map is not a homomorphism"

    def check_action(a):
        counts["free" if assert_same_action_report(a) else "not free"] += 1

    for a in (trivial_action(G, 3), regular_action(G), trivial_action(G, 0)):
        check_action(a)
    for members, H in sorted(subgroups.items()):
        translation = right_translation_action(G, H)
        check_action(translation)
        assert_same_gauge(G.order, translation)
        counts["gauges"] += 1
        check_action(FiniteAction(G, *_coset_action(G, H)))
        w = normality_witness(G, H)
        assert w == brute_force_normality(G, H), members
        if w is not None:
            counts["not normal"] += 1
            assert w[0] in G.generators, members
            continue
        Q, proj = quotient(G, H)
        check_hom(Q, proj.map)
        for x in range(G.order):
            moved = list(proj.map)
            moved[x] = (moved[x] + 1) % Q.order
            check_hom(Q, moved)
    for x, y in combinations(range(G.order), 2):
        swapped = list(range(G.order))
        swapped[x], swapped[y] = y, x
        check_hom(G, swapped)
    return counts


@pytest.mark.parametrize("name", sorted(named_groups(12)))
def test_group_checks_match_the_oracles(name):
    G = named_groups(12)[name]()
    counts = compare_group_checks(G)
    # only the Hamiltonian Q8 is non-abelian with every subgroup normal
    assert (counts["not normal"] > 0) == (not G.is_abelian()
                                          and name != "Q8")
    assert (counts["not a homomorphism"] > 0) == (G.order > 2)
    # the trivial group acts freely on anything
    assert counts["free"] > 0
    assert (counts["not free"] > 0) == (G.order > 1)
    # two subgroups, neither inside the other, never have a subgroup union
    assert (counts["not a subgroup"] > 0) == (G.order > 1 and
                                              not _is_cyclic_p_group(G))


def _is_cyclic_p_group(G):
    """Are G's subgroups a chain?  Exactly when G is a cyclic p-group."""
    n = G.order
    p = next(q for q in range(2, n + 1) if n % q == 0)
    while n % p == 0:
        n //= p
    return n == 1 and any(G.element_order(a) == G.order
                          for a in range(G.order))


def test_every_subset_with_the_identity_matches_the_oracle():
    kinds = set()
    for name, build in sorted(named_groups(8).items()):
        G = build()
        others = [a for a in range(G.order) if a != G.identity]
        for k in range(len(others) + 1):
            for rest in combinations(others, k):
                verdict = assert_same_subgroup(G, (G.identity,) + rest)
                kinds.add(verdict and verdict[1])
    assert kinds == {None, "subgroup not closed under inverse",
                     "subgroup not closed under product"}


def test_first_non_normal_conjugator_is_the_oracles():
    # S4 in lexicographic order; <1> = {(), (2 3)} is first moved by 2
    G = symmetric(4)
    H = subgroup_closure(G, {1})
    assert normality_witness(G, H) == brute_force_normality(G, H) == (2, 1)
    assert normality_witness(G, Subgroup(G, range(24))) is None


def test_first_non_homomorphism_pair_is_the_oracles():
    # Z4 -> Z2 with only 3 sent to 1: the generator 1 first fails at
    # (2, 1), but the first pair in index order is (1, 2)
    G = cyclic(4)
    images = [0, 0, 0, 1]
    expected = outcome(brute_force_hom, G, cyclic(2), images)
    assert expected == ("InvalidInput", "map is not a homomorphism",
                        {"pair": (1, 2)})
    assert G.generators == (1,)
    assert outcome(GroupHom, G, cyclic(2), images) == expected


# -- group tables -----------------------------------------------------------

def reference_make_group(table):
    """The checks in the order make_group gives its errors: every entry,
    then the rows, the columns, the identity, the inverses and Light's test
    over the greedy product generators, with a rescan for the first
    violating triple."""
    n = len(table)
    if n == 0:
        raise InvalidInput("empty multiplication table")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise InvalidInput("table is not square", row=i)
        for x in row:
            if not is_int(x):
                raise InvalidInput("entry is not an integer", row=i, value=x)
            if not 0 <= x < n:
                raise InvalidInput("entry out of range", row=i, value=x)
        rows.append(tuple(map(int, row)))
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise NotLatinSquare("row %d is not a permutation" % i, row=i)
    for j, col in enumerate(zip(*rows)):
        if len(set(col)) != n:
            raise NotLatinSquare("column %d is not a permutation" % j,
                                 column=j)
    ident = tuple(range(n))
    e = rows.index(ident) if ident in rows else None
    if e is None or tuple(row[e] for row in rows) != ident:
        raise NoIdentity("no two-sided identity element")
    inverse = []
    for a, row in enumerate(rows):
        b = row.index(e)
        if rows[b][a] != e:
            raise NoInverse("element %d has no two-sided inverse" % a,
                            element=a)
        inverse.append(b)
    zeros = [0] * n
    gens, _ = _product_generators(rows, range(n), [e], zeros, zeros,
                                  range(n))
    if _light_test(rows, range(n), [rows], zeros, gens):
        return tuple(rows), e, tuple(inverse), gens
    for a, b, c in product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            raise NonAssociative("(a*b)*c != a*(b*c)", triple=(a, b, c))
    raise InternalInconsistency("Light's test failed on an associative table")


def assert_same_group(table):
    """make_group and the reference raise the same error, or build the same
    table, identity, inverses and generators; returns the error, or None."""
    expected = outcome(reference_make_group, table)
    got = outcome(make_group, table)
    assert got == expected, table
    if expected is None:
        G = make_group(table)
        assert (G.table, G.identity, G.inverse, G.generators) == \
            reference_make_group(table)
        assert all(type(x) is int for row in G.table for x in row)
    return expected


def test_make_group_matches_the_reference_on_every_named_group():
    # each group as built, then relabelled so that the identity is last
    for name, build in sorted(named_groups(24).items()):
        table = build().table
        n = len(table)
        flip = [[n - 1 - table[n - 1 - a][n - 1 - b] for b in range(n)]
                for a in range(n)]
        assert assert_same_group(table) is None, name
        assert assert_same_group(flip) is None, name


def table_changes(table):
    """Every table one entry away, then every table with two rows or two
    columns swapped."""
    n = len(table)
    for a, b, v in product(range(n), repeat=3):
        if v != table[a][b]:
            changed = [list(row) for row in table]
            changed[a][b] = v
            yield changed
    for i, j in combinations(range(n), 2):
        rows, cols = [list(row) for row in table], [list(row) for row in table]
        rows[i], rows[j] = rows[j], rows[i]
        for row in cols:
            row[i], row[j] = row[j], row[i]
        yield rows
        yield cols


def principal_isotopes(table):
    """For every u and v, the rows and columns relabelled to
    x o y = R_v^-1(x) * L_u^-1(y), which has the identity u*v: a Latin
    square with an identity gives a loop, a group gives a group isomorphic
    to it, and a loop may give one without two-sided inverses."""
    n = len(table)
    for u, v in product(range(n), repeat=2):
        rho, lam = [None] * n, [None] * n
        for x in range(n):
            rho[table[x][v]], lam[table[u][x]] = x, x
        yield [[table[rho[a]][lam[b]] for b in range(n)] for a in range(n)]


# two non-associative loops: LOOP5, and Z2^3 with the intercalate in rows
# 1, 3 and columns 4, 6 swapped
_LOOP8 = [[a ^ b for b in range(8)] for a in range(8)]
for _row in (1, 3):
    _LOOP8[_row][4], _LOOP8[_row][6] = _LOOP8[_row][6], _LOOP8[_row][4]
_LOOPS = [LOOP5, _LOOP8]

# largest group order -> error class (None for a group) -> tables
PINNED = {
    8: {"NotLatinSquare": 3_840, "NoIdentity": 538, "NoInverse": 24,
        "NonAssociative": 67, None: 550},
    12: {"NotLatinSquare": 16_066, "NoIdentity": 1_632, "NoInverse": 24,
         "NonAssociative": 67, None: 1_753},
}


def sweep_make_group(max_order):
    """make_group against its reference on both loops, and on the changes
    and principal isotopes of both loops and of every named group up to
    max_order; returns how many tables gave each error class."""
    bases = [build().table for _, build in sorted(
        named_groups(max_order).items())] + _LOOPS
    counts = {}
    for table in chain(_LOOPS, *(chain(table_changes(t), principal_isotopes(t))
                                 for t in bases)):
        kind = (assert_same_group(table) or [None])[0]
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def test_make_group_matches_the_reference_on_every_changed_table():
    assert sweep_make_group(8) == PINNED[8]


# -- groupoid actions -------------------------------------------------------

def brute_force_compat(ga):
    """Every g in index order: units to units, then endpoints and inverses
    arrow by arrow, units object by object and products pair by pair."""
    gpd = ga.groupoid
    unit_of = {u: x for x, u in enumerate(gpd.id)}
    for g, row in enumerate(ga.act):
        omap = []
        for x, u in enumerate(gpd.id):
            if row[u] not in unit_of:
                return "unit", g, x
            omap.append(unit_of[row[u]])
        for a, fa in enumerate(row):
            if gpd.src[fa] != omap[gpd.src[a]] or \
                    gpd.tgt[fa] != omap[gpd.tgt[a]]:
                return "endpoints", g, a
            if gpd.inv[fa] != row[gpd.inv[a]]:
                return "inverse", g, a
        for x, u in enumerate(gpd.id):
            if gpd.id[omap[x]] != row[u]:
                return "unit", g, x
        for (a, b), ab in gpd.mul.items():
            if gpd.mul[(row[a], row[b])] != row[ab]:
                return "product", g, (a, b)
    return None


def actions_from_generator_images(G, n):
    """Every action of G on n points, from each assignment of permutations
    to G's product generators that extends to one."""
    for images in product(permutations(range(n)), repeat=len(G.generators)):
        act = [None] * G.order
        act[G.identity] = tuple(range(n))
        reached = [G.identity]
        for a in reached:
            for g, image in zip(G.generators, images):
                c = G.table[a][g]
                if act[c] is None:
                    act[c] = tuple(image[x] for x in act[a])
                    reached.append(c)
        if outcome(FiniteAction, G, n, act) is None:
            yield act


def _one_object(G):
    return FiniteGroupoid(1, [0] * G.order, [0] * G.order, [G.identity],
                          G.inverse, {(a, b): G.table[a][b]
                                      for a in range(G.order)
                                      for b in range(G.order)})


def pre_principal_by_reduction(ga, rep):
    """Is G/K free on the arrows, and on the objects, with each action
    reduced through the quotient group G/K and checked by the reference?"""
    assert rep.kernel.members == reference_action_check(ga.arrow_action)[1]
    return tuple(reference_action_check(reduce_action(a, rep.kernel))[0]
                 is None for a in (ga.arrow_action, rep.object_action))


def test_check_compatible_matches_the_scan_of_every_element():
    kinds, counts = set(), [0, 0, 0]   # actions, incompatible, late
    pre = [0, 0]                        # compatible: pre-principal, not
    four = (klein_four(), cyclic(4), symmetric(3), dihedral(4))
    for gpd, groups in ((pair_groupoid(2), four),
                        (_one_object(cyclic(4)), four),
                        (_one_object(cyclic(5)), (cyclic(2), cyclic(4)))):
        for G in groups:
            for act in actions_from_generator_images(G, gpd.n_arrows):
                ga = GroupoidAction(gpd, FiniteAction(G, gpd.n_arrows, act))
                expected = brute_force_compat(ga)
                counts[0] += 1
                rep = check_compatible(ga)
                assert (rep.compatible, rep.witness) == \
                    (expected is None, expected), (G, act)
                if expected is not None:
                    kinds.add(expected[0])
                    # the first element that fails is always a generator,
                    # not always the first one
                    assert expected[1] in G.generators
                    counts[1] += 1
                    counts[2] += expected[1] != G.generators[0]
                else:
                    # one verdict for the arrows and the objects
                    assert pre_principal_by_reduction(ga, rep) == \
                        (rep.pre_principal,) * 2, (G, act)
                    pre[not rep.pre_principal] += 1
    assert kinds == {"unit", "endpoints", "inverse", "product"}
    assert counts == [438, 408, 48]
    assert (counts[0] - counts[1], pre) == (30, [18, 12])
    # a groupoid with no arrows: each group acts with kernel all of G
    empty = FiniteGroupoid(0, [], [], [], [], {})
    for G in four:
        ga = GroupoidAction(empty, FiniteAction(G, empty.n_arrows,
                                                [()] * G.order))
        rep = check_compatible(ga)
        assert rep.compatible and rep.pre_principal
        assert len(rep.kernel) == G.order
        assert pre_principal_by_reduction(ga, rep) == (True, True)


# -- coboundary search -------------------------------------------------------

def grid_cohomologous(c1, c2):
    """Every family (λ_i) in ``product`` order until g'_ij = λ_i g_ij λ_j^-1
    holds on every ordered pair: (verdict, witness, families searched)."""
    G = c1.group
    pairs = c1.nerve.ordered_pairs()
    searched = 0
    for lam in product(range(G.order), repeat=c1.nerve.n):
        searched += 1
        if all(G.mul(G.mul(lam[i], c1.value(i, j)), G.inverse[lam[j]])
               == c2.value(i, j) for (i, j) in pairs):
            return True, list(lam), searched
    return False, None, searched


def assert_same_search(c1, c2):
    expected = grid_cohomologous(c1, c2)
    res = are_cohomologous(c1, c2)
    assert (res.cohomologous, res.witness, res.searched) == expected
    return expected[0]


def _cocycles(G, nerve):
    """Every G-valued cocycle on the nerve, from free values on the pairs
    (i, j), i < j, filtered by the cocycle laws."""
    pairs = sorted(tuple(sorted(p)) for p in nerve.pairs)
    cs = [Cocycle(nerve, G, dict(zip(pairs, values)))
          for values in product(range(G.order), repeat=len(pairs))]
    return [c for c in cs if check_cocycle(c)[0]]


_NERVES = {"two": CoverNerve(2, [(0, 1)]),
           "path": CoverNerve(3, [(0, 1), (1, 2)]),
           "full": CoverNerve.full(3),
           "isolated": CoverNerve(3, [(0, 2)]),
           # a circle: no triple overlap, so holonomy can obstruct
           "circle": CoverNerve(3, [(0, 1), (1, 2), (0, 2)])}
_COH_GROUPS = {"Z3": lambda: cyclic(3), "S3": lambda: symmetric(3),
               "Q8": quaternion_group}


@pytest.mark.parametrize("group,nerve", [
    ("Z3", "two"), ("S3", "two"), ("Q8", "two"),
    ("Z3", "path"), ("Z3", "full"), ("Z3", "isolated"), ("Z3", "circle"),
    ("S3", "path"), ("S3", "full"), ("S3", "isolated")])
def test_every_pair_of_cocycles_matches_the_grid(group, nerve):
    cs = _cocycles(_COH_GROUPS[group](), _NERVES[nerve])
    verdicts = {assert_same_search(c1, c2) for c1 in cs for c2 in cs}
    assert verdicts == ({True, False} if nerve == "circle" else {True})


@pytest.mark.parametrize("group,nerve,fixed", [("S3", "circle", 4),
                                               ("Q8", "full", 8)])
def test_every_cocycle_against_fixed_ones_matches_the_grid(group, nerve,
                                                           fixed):
    cs = _cocycles(_COH_GROUPS[group](), _NERVES[nerve])
    verdicts = {assert_same_search(c1, c2)
                for c1 in cs for c2 in _spread(cs, fixed)[:fixed]}
    assert verdicts == ({True, False} if nerve == "circle" else {True})


def test_automorphism_cocycles_match_the_grid():
    handle = enumerate_aut(GradedSignature.double_vector(1, 1, 1), GF(2))
    for a, b in product(range(handle.group.order), repeat=2):
        assert assert_same_search(
            Cocycle(_NERVES["two"], handle.group, {(0, 1): a}),
            Cocycle(_NERVES["two"], handle.group, {(0, 1): b}))


if __name__ == "__main__":
    # compare the group checks with their oracles up to the given order
    for name, build in sorted(named_groups(int(sys.argv[1])).items()):
        G = build()
        print(name, G.order, compare_group_checks(G), flush=True)
    if len(sys.argv) > 2:
        order = int(sys.argv[2])
        counts = sweep_make_group(order)
        print("changed tables up to order", order, counts, flush=True)
        if order in PINNED and counts != PINNED[order]:
            sys.exit("expected %s" % PINNED[order])
