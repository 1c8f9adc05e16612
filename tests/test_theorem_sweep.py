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
here; the catalog up to order 24 runs from the command line:

    PYTHONPATH=src python tests/test_theorem_sweep.py 24
"""

import sys

from ntpg.actions import quotient, right_translation_action
from ntpg.groups import subgroup_closure
from ntpg.named import (cyclic, dihedral, direct_product, klein_four,
                        quaternion_group, symmetric)
from ntpg.principal import (dressing, exact_sequence_check,
                            gamma_from_actions, vacancy, verify_double)

# max order -> (groups, ordered pairs, passes, vacant passes)
PINNED = {12: (19, 931, 281, 110), 24: (42, 10_896, 2_782, 1_008)}


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


def sweep(max_order):
    """(groups, pairs, passes, vacant) over the catalog up to max_order."""
    groups = catalog(max_order)
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
    assert sweep(12) == PINNED[12]


if __name__ == "__main__":
    order = int(sys.argv[1])
    counts = sweep(order)
    print("groups %d, pairs %d, passes %d, vacant %d" % counts, flush=True)
    if order in PINNED and counts != PINNED[order]:
        sys.exit("expected groups %d, pairs %d, passes %d, vacant %d"
                 % PINNED[order])
