"""Self-tests of the benchmark's job lists and known answers.

Run from the checkout root: python3 -m pytest perfbench/tests -q
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
ROOT = os.path.dirname(os.path.dirname(HERE))

import algebra as A  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _profile(jobs):
    return [(job.subcommand, job.shape) for job in jobs]


def test_seed_changes_labels_not_work():
    for name in workloads.WORKLOADS:
        one = workloads.build(name, 1, ROOT)
        two = workloads.build(name, 2, ROOT)
        assert len(one) == len(two)
        assert _profile(one) == _profile(two)
        assert [sorted(j.files) for j in one] == [sorted(j.files) for j in two]
        texts = [t for j in one for t in j.files.values()]
        others = [t for j in two for t in j.files.values()]
        if texts:
            assert texts != others, "the seed should change the inputs"


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        one = workloads.build(name, 7, ROOT)
        two = workloads.build(name, 7, ROOT)
        assert [j.argv for j in one] == [j.argv for j in two]
        assert [j.files for j in one] == [j.files for j in two]


def test_cli_small_covers_every_subcommand_with_p90_samples():
    jobs = workloads.build("cli-small", 3, ROOT)
    assert len({j.subcommand for j in jobs}) == 19
    runs = len(jobs) * run.PASSES["cli-small"]
    assert runs - int(0.9 * (runs - 1)) - 1 >= 10


def test_aut_orders_match_bijectivity_count():
    for p in (2, 3, 5):
        assert A.aut_orders(2, workloads.D111, p)["gamma"] == \
            A.aut_order_by_bijectivity(2, workloads.D111, p)
    blocks = {(1, 0): 2, (0, 1): 1, (1, 1): 1}
    assert A.aut_orders(2, blocks, 2)["gamma"] == \
        A.aut_order_by_bijectivity(2, blocks, 2)
    assert A.aut_orders(2, workloads.D111, 5)["gamma"] == 320
    assert A.aut_orders(2, workloads.D111, 5)["gi"] == [80, 80]
    assert A.aut_orders(2, workloads.D111, 5)["intersections"] == {"1,2": 20}
    assert A.aut_orders(3, workloads.K3, 2)["gamma"] == 128


def test_constructed_tables_by_brute_force():
    rng = random.Random(0)
    D, C, Q = A.dihedral, A.cyclic, A.quaternion
    for table in (D(3), D(4), Q(), A.direct_product(D(3), C(2)),
                  A.direct_product(Q(), C(3))):
        t = A.relabel(table, workloads._perm(len(table), rng))
        assert A.is_group(t)
    s4 = A.perm_table(A.perm_closure([(1, 0, 2, 3), (1, 2, 3, 0)]))
    assert len(s4) == 24 and A.is_group(s4)
    assert len(A.perm_closure(workloads.S6_GENS)) == 720
    t = A.direct_product(D(4), C(2))
    bad = A.swap_intercalate(t, A.find_intercalate(t, rng))
    assert not A.is_group(bad)
    assert A.identity(bad) is not None
    orders = [6, 2, 2]
    for i in range(3):
        assert A.is_normal(A.direct_product(D(3), C(2), C(2)),
                           A.cofactor_members(orders, i))


def test_coboundary_search_matches_grid_walk():
    rng = random.Random(5)
    for group, late in ((A.dihedral(3), (3, 2, 4)), (A.quaternion(),
                                                     (4, 1, 6))):
        for exhausted in (False, True):
            t, pairs, c1, c2 = workloads.circle_cocycles(group, 3, late, rng,
                                                         exhausted)
            assert A.coboundary_first(t, 3, pairs, c1, c2) == \
                A.coboundary_brute(t, 3, c1, c2)
