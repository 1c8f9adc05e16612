"""The paper's recursive n-tuple definition on every triple of subgroups of
small groups.

For each catalog group Γ every subgroup is enumerated, and ``verify_ntuple``
runs on every ordered triple (G^1, G^2, G^3).  Its verdict must match
``is_ntuple_principal``, a direct check of the definition written on
element sets of Γ: each G^i is conjugation-stable under every element of
the group at that level, their union generates it, and for n >= 3 every
intersected sub-system (G^i; G^1∩G^i, ..., G^n∩G^i) is again
(n-1)-tuple principal.  No subgroup is reified as a group of its own, and
no generating set or witness order is used.  On each pass the sweep also
asserts that every pair (Γ; G^i, G^j) is a double principal group.

The counts of groups, triples, passes and the triples that fail only below
the top level are pinned, so a shrinking catalog cannot hide a defect.
Groups of order at most 8 run here; larger ones run from the command line:

    PYTHONPATH=src python tests/test_triple_sweep.py 12
"""

import sys
from functools import cache
from itertools import product

from test_theorem_sweep import all_subgroups, catalog

from ntpg.principal import verify_double, verify_ntuple

# max order -> (groups, ordered triples, passes, failing below the top)
PINNED = {8: (13, 6_056, 670, 3_231), 12: (19, 10_979, 781, 3_588)}


@cache
def is_ntuple_principal(G, group, subs):
    """Is (group; subs) n-tuple principal?  group and each of subs are
    frozensets of elements of G."""
    for H in subs:
        if any(G.conjugate(g, h) not in H for g in group for h in H):
            return False
    span = frozenset().union(*subs)
    frontier = span
    while frontier:
        frontier = {G.mul(a, b) for a in frontier for b in span} - span
        span |= frontier
    if span != group:
        return False
    return len(subs) < 3 or all(
        is_ntuple_principal(G, H, tuple(H & K for j, K in enumerate(subs)
                                        if j != i))
        for i, H in enumerate(subs))


def sweep(max_order):
    """(groups, triples, passes, failing below the top) over the catalog
    up to max_order."""
    groups = catalog(max_order)
    triples = passes = below = 0
    for name, G in groups:
        subs = all_subgroups(G)
        for triple in product(subs, repeat=3):
            triples += 1
            w = verify_ntuple(G, list(triple))
            sets = tuple(frozenset(H.members) for H in triple)
            expected = is_ntuple_principal(G, frozenset(G.elements()), sets)
            case = (name, [H.members for H in triple])
            assert w.verdict == expected, case
            if w.verdict:
                passes += 1
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert verify_double(G, triple[i], triple[j]).ok, case
            elif not w.trace["failures"]:
                below += 1
    return len(groups), triples, passes, below


def test_triple_sweep_up_to_order_8():
    assert sweep(8) == PINNED[8]


if __name__ == "__main__":
    order = int(sys.argv[1])
    counts = sweep(order)
    print("groups %d, triples %d, passes %d, failing below the top %d"
          % counts, flush=True)
    if order in PINNED and counts != PINNED[order]:
        sys.exit("expected groups %d, triples %d, passes %d, failing below "
                 "the top %d" % PINNED[order])
