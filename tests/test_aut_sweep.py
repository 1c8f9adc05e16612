"""The n-tuple principal structure of Aut on every small 0/1 model.

For every 0/1 multi-graded signature with n = 2 or 3 gradings, block
dimensions 0 or 1 and no base block, over each field F_p given,
``verify_p54`` enumerates Aut and must verify the n-tuple principal
structure of Aut with the subgroups G^i.  Its orders of Aut, of each G^i
and of each pairwise intersection must equal the closed form of
``perfbench/algebra.aut_orders``, which imports nothing from ``ntpg``.
On every model it also builds the standard fibered space and checks its
n sides (``check_sides``), and checks the handle's element lookup against
symbolic composition (``check_lookup``).  Models whose closed-form |Aut|
exceeds 1,000 are skipped.  The counts of checked and skipped models, and
of the models where some side tells an element from its inverse, are
pinned, so a shrinking sweep cannot hide a defect.  F_2 runs here; F_2
and F_3 run from the command line:

    PYTHONPATH=src python tests/test_aut_sweep.py 2 3

A second slice, also run here, covers n = 2 with block dimensions 0 to 2
and at least one block of dimension 2, over F_2 and F_3.  It leaves out
n = 3 at dimensions up to 2, which took 254 s over F_2 alone (960 models
checked, 1,099 skipped) on a shared 2-core machine.

The one-grading model is not in the sweep: over F_3 its Aut is Z2 and G^1
is trivial, so the structure fails with ``NotGenerating``.  The golden
case ``aut_verify_p54_one_grading_f3`` pins that report.

Three n = 4 models (``FOUR_GRADINGS``), the most gradings a signature
takes, are checked here as each sweep model is: |Aut| 4 and 8 over F_2 and
576 over F_3.

The mode ``large-f3`` runs ``aut verify-p54`` as a fresh CLI process on
three larger F_3 models at orders the sweep skips, against the same closed
form: two with dimension-2 blocks (|Aut| 1,728 and 4,608) and the n = 4
model with three pair blocks (|Aut| 3,456):

    PYTHONPATH=src python tests/test_aut_sweep.py large-f3
"""

import itertools
import json
import os
import subprocess
import sys
import tempfile

import pytest

from ntpg.autgroups import verify_p54
from ntpg.cocycles import (Cocycle, CoverNerve, associated_cocycle,
                           standard_fibered_space)
from ntpg.fields import GF
from ntpg.graded import PolyMap, compose
from ntpg.signature import GradedSignature

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from algebra import aut_orders  # noqa: E402

MAX_AUT = 1000
# (largest block dimension, primes) -> (models checked, models over MAX_AUT,
# models with a side that tells some element from its inverse)
PINNED = {(1, (2,)): (134, 0, 0), (1, (2, 3)): (260, 8, 0),
          (2, (2, 3)): (27, 11, 20)}
# largest block dimension -> the numbers of gradings swept
GRADINGS = {1: (2, 3), 2: (2,)}
# n = 4, the most gradings a signature takes: the four unit blocks and the
# pair blocks (1,1,0,0) and (0,0,1,1), all of dimension 1, and with the pair
# block (1,0,1,0) as well
FOUR_UNITS = {tuple(int(k == i) for k in range(4)): 1 for i in range(4)}
TWO_PAIRS = {**FOUR_UNITS, (1, 1, 0, 0): 1, (0, 0, 1, 1): 1}
THREE_PAIRS = {**TWO_PAIRS, (1, 0, 1, 0): 1}
# (p, blocks) of the n = 4 models checked here: |Aut| 4, 8 and 576
FOUR_GRADINGS = [(2, TWO_PAIRS), (2, THREE_PAIRS), (3, TWO_PAIRS)]
# (n, blocks) of the large-f3 mode: |Aut| 1,728, 4,608 and 3,456 over F_3
LARGE_F3 = [(2, {(1, 0): 2, (0, 1): 1, (1, 1): 1}),
            (3, {(1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 1): 2}),
            (4, THREE_PAIRS)]


def models(n, top):
    """Every assignment of dimensions 0..top to the nonzero 0/1 weights of
    length n in which some block has dimension top."""
    sigmas = [s for s in itertools.product((0, 1), repeat=n) if any(s)]
    for dims in itertools.product(range(top + 1), repeat=len(sigmas)):
        if top in dims:
            yield {s: d for s, d in zip(sigmas, dims) if d}


def check_sides(handle, case):
    """The standard fibered space has one side per grading; the kernel of
    side i's action on its classes is G^{i+1}; on the full nerve of three
    charts each side's transitions satisfy
    side[g_ik] = side[g_ij] o side[g_jk]; and side i's transition on
    (0, 1) is side i's permutation of the cocycle value there.

    That value is the last element that some side tells from its inverse,
    so a transition read from the inverse element fails.  Where no side
    does, as when every unit-weight block has dimension at most 1 and each
    side acts through GL(1, F_p) with p <= 3, it is the last element.
    Returns whether such an element exists."""
    G, n = handle.group, handle.sig.n
    fibered = standard_fibered_space(handle)
    assert len(fibered.side_perms) == n, case
    for i, perms in enumerate(fibered.side_perms):
        kernel = {g for g, perm in enumerate(perms)
                  if perm == tuple(range(len(perm)))}
        assert kernel == set(handle.gi_subgroup(i + 1).members), (case, i)
    told = [g for g in range(G.order)
            if any(perms[g] != perms[G.inverse[g]]
                   for perms in fibered.side_perms)]
    a, b = (told or [G.order - 1])[-1], G.order // 2
    nerve = CoverNerve.full(3)
    c = Cocycle(nerve, G, {(0, 1): a, (1, 2): b, (0, 2): G.table[a][b]})
    for side, perms in zip(associated_cocycle(c, fibered),
                           fibered.side_perms):
        assert side[(0, 1)] == perms[a], case
        for i, j, k in nerve.ordered_triples():
            assert side[(i, k)] == tuple(side[(i, j)][x]
                                         for x in side[(j, k)]), case
    return bool(told)


def check_lookup(handle, case):
    """Every element's map is found at its own index, and each generator's
    map composed with its table inverse's is the identity: the table's
    inverses agree with symbolic composition."""
    G = handle.group
    for k in range(G.order):
        assert handle.index_of(handle.map_of(k)) == k, (case, k)
    identity = PolyMap.identity(handle.sig, handle.field)
    for g in G.generators:
        assert compose(handle.map_of(g), handle.map_of(G.inverse[g])) == \
            identity, (case, g)


def sweep(primes, top=1):
    """(models checked, models skipped, models where a side tells some
    element from its inverse) over GRADINGS[top] and the given F_p."""
    checked = skipped = told = 0
    for p in primes:
        for n in GRADINGS[top]:
            for blocks in models(n, top):
                if aut_orders(n, blocks, p)["gamma"] > MAX_AUT:
                    skipped += 1
                    continue
                told += check_model(n, blocks, p)
                checked += 1
    return checked, skipped, told


def check_model(n, blocks, p):
    """``verify_p54`` on one model over F_p against ``aut_orders``, then
    ``check_sides`` and ``check_lookup``; returns ``check_sides``' answer."""
    want = aut_orders(n, blocks, p)
    rep = verify_p54(GradedSignature.multi(n, blocks.items()), GF(p))
    case = (p, sorted(blocks.items()))
    assert rep.witness.verdict, case
    assert rep.orders == {k: want[k] for k in (
        "gamma", "gi", "intersections")}, case
    told = check_sides(rep.handle, case)
    check_lookup(rep.handle, case)
    return told


def check_large_f3(tmp):
    """Each LARGE_F3 model through ``aut verify-p54 --field Fp:3``, its
    signature and report files in tmp: the verdict must be pass, and the
    report's orders of Aut, of each G^i and of each intersection must equal
    aut_orders."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    for k, (n, blocks) in enumerate(LARGE_F3):
        sig = os.path.join(tmp, "sig%d.json" % k)
        out = os.path.join(tmp, "rep%d.json" % k)
        with open(sig, "w") as fh:
            json.dump({"mode": "multi", "n": n, "blocks": [
                {"sigma": list(s), "dim": d} for s, d in blocks.items()]}, fh)
        subprocess.run([sys.executable, "-m", "ntpg.cli", "aut", "verify-p54",
                        "--sig", sig, "--field", "Fp:3", "--out", out],
                       env=env, check=True)
        with open(out) as fh:
            report = json.load(fh)
        want = aut_orders(n, blocks, 3)
        del want["statomorphisms"]
        print(n, blocks, report["verdict"], report["details"]["orders"],
              flush=True)
        assert report["verdict"] == "pass", report
        assert report["details"]["orders"] == want, (report, want)


def test_aut_sweep_over_f2():
    assert sweep((2,)) == PINNED[(1, (2,))]


def test_aut_sweep_dim2_over_f2_f3():
    assert sweep((2, 3), top=2) == PINNED[(2, (2, 3))]


@pytest.mark.parametrize("p, blocks", FOUR_GRADINGS,
                         ids=["two pairs F2", "three pairs F2",
                              "two pairs F3"])
def test_four_gradings(p, blocks):
    check_model(4, blocks, p)


if __name__ == "__main__":
    if sys.argv[1:] == ["large-f3"]:
        with tempfile.TemporaryDirectory() as tmp:
            check_large_f3(tmp)
        sys.exit()
    primes = tuple(int(a) for a in sys.argv[1:])
    counts = sweep(primes)
    print("models %d, skipped %d, told from inverses %d" % counts,
          flush=True)
    if (1, primes) in PINNED and counts != PINNED[(1, primes)]:
        sys.exit("expected models %d, skipped %d, told from inverses %d"
                 % PINNED[(1, primes)])
