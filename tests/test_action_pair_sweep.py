"""``gamma_from_actions`` on every pair of free actions on a few points.

For each point count n and each ordered pair (G, G') of the groups Z2, Z3,
Z4, V4, S3 and Z6 whose orders divide n, rho is G acting by right
translation on n/|G| copies of itself (point c*|G| + x goes to
c*|G| + x*g), and rho' is the same construction for G', relabelled by
every permutation of the n points; relabellings that give one action
table are run once.  Every such pair is free on both sides, and the sweep
asserts that:

- the pipeline raises no ``InternalInconsistency``: each pair passes, or
  fails with ``NotFree`` (the induced Γ-action) or ``NotCompatible``;
- it passes exactly when ``check_compatibility`` holds, the paper's
  groupoid form of the condition, which checks both directions;
- on a pass, Γ equals the paper's (G' ⋉ G)/G0: ``semidirect`` of the
  derived twist, acting on the points, reduced by the pairs that act
  trivially.  Table, identity, generators, kernel size and the Γ-action
  rows all agree.

The counts of pairs, passes and each failure are pinned, so a shrinking
sweep cannot hide a defect.  Up to 6 points run here; up to 8 run from the
command line:

    PYTHONPATH=src python tests/test_action_pair_sweep.py 8
"""

import sys
from itertools import permutations

from ntpg.actions import FiniteAction, action_check, reduce_action
from ntpg.errors import NotCompatible, NotFree
from ntpg.groups import Subgroup
from ntpg.named import cyclic, klein_four, symmetric
from ntpg.principal import (check_compatibility, derive_twist,
                            gamma_from_actions, semidirect)

# max points -> (pairs, passes, NotFree, NotCompatible)
PINNED = {6: (1_228, 73, 90, 1_065), 8: (9_103, 378, 384, 8_341)}


def catalog():
    return [cyclic(2), cyclic(3), cyclic(4), klein_four(), symmetric(3),
            cyclic(6)]


def translations(G, n):
    """The rows of G acting by right translation on n/|G| copies of G."""
    k = G.order
    return [tuple(x - x % k + G.table[x % k][g] for x in range(n))
            for g in range(k)]


def relabellings(rows, n):
    """Every relabelling of the action by a permutation of the n points,
    one per distinct action table."""
    seen = set()
    for sigma in permutations(range(n)):
        relabelled = [[0] * n for _ in rows]
        for new, row in zip(relabelled, rows):
            for x, y in enumerate(row):
                new[sigma[x]] = sigma[y]
        key = tuple(map(tuple, relabelled))
        if key not in seen:
            seen.add(key)
            yield relabelled


def reference_gamma(n, rho, rho_prime):
    """The action of (G' ⋉ G)/G0 on the points and |G0|, built the paper's
    way from the derived twist."""
    G, Gp = rho.group, rho_prime.group
    twist = derive_twist(n, rho, rho_prime, action_check(rho))
    S = semidirect(Gp, G, [[twist[(x, gp)] for x in range(G.order)]
                           for gp in range(Gp.order)])
    # (g', g), at index g'·|G| + g, acts by p -> (p.g').g
    perms = [tuple(rho.act[g][x] for x in rho_prime.act[gp])
             for gp in range(Gp.order) for g in range(G.order)]
    kernel = Subgroup(S, [i for i, q in enumerate(perms)
                          if q == tuple(range(n))])
    return reduce_action(FiniteAction(S, n, perms), kernel), len(kernel)


def outcome(n, rho, rho_prime):
    try:
        res = gamma_from_actions(n, rho, rho_prime)
    except NotFree:
        return "NotFree"
    except NotCompatible:
        return "NotCompatible"
    ref, kernel_order = reference_gamma(n, rho, rho_prime)
    got, want = res.gamma, ref.group
    assert (got.table, got.identity, got.generators, len(res.kernel),
            res.gamma_action.act) == \
        (want.table, want.identity, want.generators, kernel_order, ref.act)
    return "pass"


def sweep(max_points):
    """(pairs, passes, NotFree, NotCompatible) up to max_points points."""
    groups = catalog()
    counts = {"pass": 0, "NotFree": 0, "NotCompatible": 0}
    for n in range(1, max_points + 1):
        for G in groups:
            if n % G.order:
                continue
            rho = FiniteAction(G, n, translations(G, n))
            for Gp in groups:
                if n % Gp.order:
                    continue
                for act in relabellings(translations(Gp, n), n):
                    rho_prime = FiniteAction(Gp, n, act)
                    got = outcome(n, rho, rho_prime)
                    ok = check_compatibility(n, rho, rho_prime).ok
                    assert (got == "pass") == ok, (n, G, Gp, act, got)
                    counts[got] += 1
    return (sum(counts.values()), counts["pass"], counts["NotFree"],
            counts["NotCompatible"])


def test_action_pair_sweep_up_to_6_points():
    assert sweep(6) == PINNED[6]


if __name__ == "__main__":
    points = int(sys.argv[1])
    counts = sweep(points)
    print("pairs %d, passes %d, NotFree %d, NotCompatible %d" % counts,
          flush=True)
    if points in PINNED and counts != PINNED[points]:
        sys.exit("expected pairs %d, passes %d, NotFree %d, NotCompatible %d"
                 % PINNED[points])
