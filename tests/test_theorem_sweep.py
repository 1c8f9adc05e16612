"""The paper's group-level statements on every pair of subgroups of small
groups.

For each catalog group Γ every subgroup is enumerated, and ``verify_double``
runs on every ordered pair (G, G').  Its verdict must match a direct check
(both conjugation-stable under every element, the union generating Γ).  On
each pass the sweep asserts:

- exactness of 1 -> G ∩ G' -> Γ -> [G] x [G'] (``exact_sequence_check``);
- the vacancy identities: a trivial core iff the product map G x G' -> Γ is
  bijective, every fiber of size |G ∩ G'| (``vacancy``);
- the dressing laws (``dressing``);
- the second isomorphism theorem: the reported orders |G|/|G ∩ G'| and
  |G'|/|G ∩ G'| of [G] and [G'] are those of the quotients Γ/G' and Γ/G
  that ``quotient`` builds;
- that ``gamma_from_actions`` on the right translations of Γ by G and by G'
  rebuilds Γ: the same order, and the induced action is Γ's right
  translations.

The counts of groups, pairs, passes and vacant pairs are pinned, so a
shrinking catalog cannot hide a defect.  Groups of order at most 12 run
here, twice: the catalog, and a complete set with one group of each
isomorphism class, whose counts per order are those of OEIS A000001 and no
two of which are isomorphic.  The catalog up to order 24 runs from the
command line:

    PYTHONPATH=src python tests/test_theorem_sweep.py 24
"""

import sys
from collections import Counter
from itertools import combinations

from ntpg.actions import quotient, right_translation_action
from ntpg.groups import make_group_from_permutations, subgroup_closure
from ntpg.named import (cyclic, dihedral, direct_product, klein_four,
                        quaternion_group, symmetric)
from ntpg.principal import (dressing, exact_sequence_check,
                            gamma_from_actions, semidirect, vacancy,
                            verify_double)

# max order -> (groups, ordered pairs, passes, vacant passes) of the catalog
PINNED = {12: (19, 931, 281, 110), 24: (42, 10_896, 2_782, 1_008)}
# the same counts for the complete set up to order 12
PINNED_COMPLETE_12 = (23, 1_259, 387, 152)

# OEIS A000001, the number of groups of order n up to isomorphism, for
# n = 2..12
A000001 = {2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
           12: 5}


def _z2_cubed():
    return direct_product(klein_four(), cyclic(2))


def catalog(max_order):
    """(name, group) for the catalog groups of order at most max_order."""
    builders = [("Z%d" % n, n, lambda n=n: cyclic(n)) for n in range(2, 25)]
    builders += [("D%d" % n, 2 * n, lambda n=n: dihedral(n))
                 for n in range(3, 13)]
    builders += [
        ("Q8", 8, quaternion_group),
        ("K4", 4, klein_four),
        ("Z2^3", 8, _z2_cubed),
        ("S3", 6, lambda: symmetric(3)),
        ("S4", 24, lambda: symmetric(4)),
        ("Z2^4", 16, lambda: direct_product(_z2_cubed(), cyclic(2))),
        ("D4xZ2", 16, lambda: direct_product(dihedral(4), cyclic(2))),
        ("Q8xZ2", 16, lambda: direct_product(quaternion_group(), cyclic(2))),
        ("S3xZ3", 18, lambda: direct_product(symmetric(3), cyclic(3))),
    ]
    return [(name, build()) for name, order, build in builders
            if order <= max_order]


def complete_catalog():
    """(name, group), one of each isomorphism class of order 2 to 12: the
    catalog without D3, which is S3, and the five groups it lacks."""
    a4 = make_group_from_permutations([[1, 2, 0, 3], [0, 2, 3, 1]])[0]
    # Z3 x| Z4, the generator of Z4 acting on Z3 by inversion
    dic3 = semidirect(cyclic(4), cyclic(3), [[0, 1, 2], [0, 2, 1]] * 2)
    return [(name, G) for name, G in catalog(12) if name != "D3"] + [
        ("Z4xZ2", direct_product(cyclic(4), cyclic(2))),
        ("Z3xZ3", direct_product(cyclic(3), cyclic(3))),
        ("Z6xZ2", direct_product(cyclic(6), cyclic(2))),
        ("A4", a4),
        ("Dic3", dic3),
    ]


def _extends(G, H, gens, images):
    """Whether phi(gens[i]) = images[i] extends, through
    phi(a*g) = phi(a)*phi(g), to a one-to-one map on the closure of gens."""
    phi, reached = {G.identity: H.identity}, [G.identity]
    for a in reached:
        for g, h in zip(gens, images):
            ag, image = G.mul(a, g), H.mul(phi[a], h)
            if ag not in phi:
                phi[ag] = image
                reached.append(ag)
            elif phi[ag] != image:
                return False
    return len(set(phi.values())) == len(phi)


def isomorphic(G, H):
    """Whether some bijection G -> H is a homomorphism, by backtracking
    over the images of G's product generators, each an element of H of
    the generator's order, dropping a choice as soon as the map it forces
    on the closure of the generators so far clashes or is not injective."""
    if G.order != H.order:
        return False
    gens = G.generators

    def extend(images):
        k = len(images)
        if k == len(gens):
            return True
        order = G.element_order(gens[k])
        return any(extend(images + [h]) for h in H.elements()
                   if H.element_order(h) == order and _extends(
                       G, H, gens[:k + 1], images + [h]))

    return extend([])


def all_subgroups(G):
    """Every subgroup of G: the cyclic ones, joined pairwise until no join
    is new."""
    found = {}
    for g in G.elements():
        H = subgroup_closure(G, {g})
        found.setdefault(H.members, H)
    frontier = list(found)
    while frontier:
        new = []
        for a in frontier:
            for b in list(found):
                H = subgroup_closure(G, a + b)
                if H.members not in found:
                    found[H.members] = H
                    new.append(H.members)
        frontier = new
    return [found[m] for m in sorted(found, key=lambda m: (len(m), m))]


def _is_normal(G, H):
    return all(G.conjugate(g, h) in H for g in G.elements() for h in H.members)


def check_pass(G, dpg):
    """Assert the five statements on a verified double principal group."""
    assert exact_sequence_check(dpg)
    v = vacancy(dpg)
    assert v.fiber_size == len(dpg.core)
    assert v.vacant == v.product_bijective == (len(dpg.core) == 1)
    dressing(dpg)
    assert dpg.report()["quotients"] == [quotient(G, dpg.g2)[0].order,
                                         quotient(G, dpg.g1)[0].order]
    res = gamma_from_actions(G.order, right_translation_action(G, dpg.g1),
                             right_translation_action(G, dpg.g2))
    assert res.gamma.order == G.order
    translations = {tuple(G.mul(x, g) for x in G.elements())
                    for g in G.elements()}
    assert set(res.gamma_action.act) == translations
    return v.vacant


def sweep(groups):
    """(groups, pairs, passes, vacant) over (name, group) pairs."""
    pairs = passes = vacant = 0
    for name, G in groups:
        subs = all_subgroups(G)
        normal = {H.members: _is_normal(G, H) for H in subs}
        for H1 in subs:
            for H2 in subs:
                pairs += 1
                expected = (normal[H1.members] and normal[H2.members] and
                            len(subgroup_closure(G, H1.members + H2.members))
                            == G.order)
                res = verify_double(G, H1, H2)
                assert res.ok == expected, (name, H1.members, H2.members)
                if res.ok:
                    passes += 1
                    vacant += check_pass(G, res.dpg)
    return len(groups), pairs, passes, vacant


def test_theorem_sweep_up_to_order_12():
    assert sweep(catalog(12)) == PINNED[12]


def test_theorem_sweep_on_every_group_up_to_order_12():
    assert sweep(complete_catalog()) == PINNED_COMPLETE_12


def test_complete_catalog_has_one_group_per_isomorphism_class():
    groups = complete_catalog()
    assert Counter(G.order for _, G in groups) == A000001
    for (a, G), (b, H) in combinations(groups, 2):
        assert not isomorphic(G, H), (a, b)


def test_isomorphic_finds_an_isomorphism():
    assert isomorphic(symmetric(3), dihedral(3))
    assert isomorphic(cyclic(6), direct_product(cyclic(2), cyclic(3)))
    assert isomorphic(klein_four(), dihedral(2))
    for _, G in complete_catalog():
        assert isomorphic(G, G)


if __name__ == "__main__":
    order = int(sys.argv[1])
    counts = sweep(catalog(order))
    print("groups %d, pairs %d, passes %d, vacant %d" % counts, flush=True)
    if order in PINNED and counts != PINNED[order]:
        sys.exit("expected groups %d, pairs %d, passes %d, vacant %d"
                 % PINNED[order])
