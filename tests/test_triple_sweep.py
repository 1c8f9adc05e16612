"""The paper's recursive n-tuple definition on every triple of subgroups of
small groups, and on every 4-tuple from the command line.

For each catalog group Γ every subgroup is enumerated, and ``verify_ntuple``
runs on every ordered triple (G^1, G^2, G^3).  Its verdict must match
``is_ntuple_principal``, a direct check of the definition written on
element sets of Γ: each G^i is conjugation-stable under every element of
the group at that level, their union generates it, and for n >= 3 every
intersected sub-system (G^i; G^1∩G^i, ..., G^n∩G^i) is again
(n-1)-tuple principal.  No subgroup is reified as a group of its own, and
no generating set or witness order is used.  On each pass the sweep also
asserts that every pair (Γ; G^i, G^j) is a double principal group.

The whole trace must equal ``reference_trace``, which reifies every
sub-system as a group of its own with ``subgroup_as_group`` and names each
witness by its index there.  No level below the top may report NotNormal:
an intersection of normal subgroups of Γ is normal in Γ, so in every
subgroup of Γ that holds it.

The counts of groups, tuples, passes and the tuples that fail only below
the top level are pinned, so a shrinking catalog cannot hide a defect.
Triples of groups of order at most 8 run here; larger orders and 4-tuples
run from the command line, as max order and arity:

    PYTHONPATH=src python tests/test_triple_sweep.py 12
    PYTHONPATH=src python tests/test_triple_sweep.py 8 4
"""

import sys
from functools import cache
from itertools import product

from test_theorem_sweep import all_subgroups, catalog

from ntpg.actions import subgroup_as_group
from ntpg.groups import Subgroup, normality_witness, subgroup_closure
from ntpg.ntuple import verify_ntuple
from ntpg.principal import verify_double

# (arity, max order) -> (groups, ordered tuples, passes, failing below the
# top)
PINNED = {(3, 8): (13, 6_056, 670, 3_231), (3, 12): (19, 10_979, 781, 3_588),
          (4, 8): (13, 80_706, 1_573, 63_208)}


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


def reference_trace(G, subs, path=()):
    """The trace of (G; subs) with every sub-system reified as a group of
    its own: each level's witnesses are indices of that level's group."""
    failures = []
    for i, H in enumerate(subs):
        w = normality_witness(G, H)
        if w is not None:
            failures.append({"kind": "NotNormal", "subgroup": i,
                             "witness": {"conjugator": w[0], "element": w[1]}})
    span = subgroup_closure(G, [m for H in subs for m in H.members])
    if len(span) != G.order:
        missing = min(set(G.elements()) - set(span.members))
        failures.append({"kind": "NotGenerating", "missing": missing})
    node = {"path": list(path), "group_order": G.order,
            "subgroup_orders": [len(H) for H in subs],
            "failures": failures, "children": []}
    if failures or len(subs) < 3:
        return node
    for i, H in enumerate(subs):
        Hgrp, _, from_parent = subgroup_as_group(H)
        children = [Subgroup(Hgrp, [from_parent[m] for m in H.members
                                    if m in K]) for j, K in enumerate(subs)
                    if j != i]
        node["children"].append(reference_trace(Hgrp, children, path + (i,)))
    return node


def _nodes(node):
    yield node
    for child in node["children"]:
        yield from _nodes(child)


def sweep(max_order, arity=3):
    """(groups, tuples, passes, failing below the top) over the catalog up
    to max_order, on every ordered tuple of the given arity."""
    groups = catalog(max_order)
    tuples = passes = below = 0
    for name, G in groups:
        subs = all_subgroups(G)
        for tup in product(subs, repeat=arity):
            tuples += 1
            w = verify_ntuple(G, list(tup))
            sets = tuple(frozenset(H.members) for H in tup)
            expected = is_ntuple_principal(G, frozenset(G.elements()), sets)
            case = (name, [H.members for H in tup])
            assert w.verdict == expected, case
            assert w.trace == reference_trace(G, tup), case
            assert not any(f["kind"] == "NotNormal"
                           for node in _nodes(w.trace) if node["path"]
                           for f in node["failures"]), case
            if w.verdict:
                passes += 1
                for i in range(arity):
                    for j in range(i + 1, arity):
                        assert verify_double(G, tup[i], tup[j]).ok, case
            elif not w.trace["failures"]:
                below += 1
    return len(groups), tuples, passes, below


def test_triple_sweep_up_to_order_8():
    assert sweep(8) == PINNED[3, 8]


if __name__ == "__main__":
    order = int(sys.argv[1])
    arity = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    counts = sweep(order, arity)
    print("groups %d, tuples %d, passes %d, failing below the top %d"
          % counts, flush=True)
    pinned = PINNED.get((arity, order))
    if pinned and counts != pinned:
        sys.exit("expected groups %d, tuples %d, passes %d, failing below "
                 "the top %d" % pinned)
