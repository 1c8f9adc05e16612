"""The n-tuple principal structure of Aut on every small 0/1 model.

For every 0/1 multi-graded signature with n = 2 or 3 gradings, block
dimensions 0 or 1 and no base block, over each field F_p given,
``verify_p54`` enumerates Aut and must verify the n-tuple principal
structure of Aut with the subgroups G^i.  Its orders of Aut, of each G^i
and of each pairwise intersection must equal the closed form of
``perfbench/algebra.aut_orders``, which imports nothing from ``ntpg``.
Models whose closed-form |Aut| exceeds 1,000 are skipped.  The counts of
checked and skipped models are pinned, so a shrinking sweep cannot hide a
defect.  F_2 runs here; F_2 and F_3 run from the command line:

    PYTHONPATH=src python tests/test_aut_sweep.py 2 3

The one-grading model is not in the sweep: over F_3 its Aut is Z2 and G^1
is trivial, so the structure fails with ``NotGenerating``.  The golden
case ``aut_verify_p54_one_grading_f3`` pins that report.
"""

import itertools
import os
import sys

from ntpg.autgroups import verify_p54
from ntpg.fields import GF
from ntpg.graded import GradedSignature

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from algebra import aut_orders  # noqa: E402

MAX_AUT = 1000
# primes -> (models checked, models over MAX_AUT)
PINNED = {(2,): (134, 0), (2, 3): (260, 8)}


def models(n):
    """Every nonempty set of nonzero 0/1 weights of length n, as blocks of
    dimension 1."""
    sigmas = [s for s in itertools.product((0, 1), repeat=n) if any(s)]
    for r in range(1, len(sigmas) + 1):
        for chosen in itertools.combinations(sigmas, r):
            yield {s: 1 for s in chosen}


def sweep(primes):
    """(models checked, models skipped) over n = 2, 3 and the given F_p."""
    checked = skipped = 0
    for p in primes:
        for n in (2, 3):
            for blocks in models(n):
                want = aut_orders(n, blocks, p)
                if want["gamma"] > MAX_AUT:
                    skipped += 1
                    continue
                sig = GradedSignature.multi(n, blocks)
                rep = verify_p54(sig, GF(p))
                case = (p, sorted(blocks))
                assert rep.witness.verdict, case
                assert rep.orders == {k: want[k] for k in (
                    "gamma", "gi", "intersections")}, case
                checked += 1
    return checked, skipped


def test_aut_sweep_over_f2():
    assert sweep((2,)) == PINNED[(2,)]


if __name__ == "__main__":
    primes = tuple(int(a) for a in sys.argv[1:])
    counts = sweep(primes)
    print("models %d, skipped %d" % counts, flush=True)
    if primes in PINNED and counts != PINNED[primes]:
        sys.exit("expected models %d, skipped %d" % PINNED[primes])
