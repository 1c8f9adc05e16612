import json
import os

import pytest

from ntpg.actions import (FiniteAction, action_check, regular_action,
                          right_translation_action, trivial_action)
from ntpg.errors import (ActionNotFree, InvalidInput, NotAnAction, NotFree,
                         NotMultiplicative)
from ntpg.groupoids import (FiniteGroupoid, GroupoidAction,
                            build_from_morphism,
                            check_compatible, gauge_groupoid,
                            multiplicative_function, pair_groupoid,
                            quotient_groupoid, reconstruct_and_check,
                            reduced_action, split)
from ntpg.groups import Subgroup, subgroup_closure
from ntpg.named import (Q8_I, Q8_J, cyclic, klein_four, quaternion_group,
                        trivial_group)
from ntpg.jsonio import load_groupoid_action
from test_cli_fuzz import EXAMPLES, LOOP5, RELISTINGS
from test_validation_oracles import brute_force_compat


def q8_gauge():
    """Gauge groupoid of Q8 under right translation by <i>."""
    G = quaternion_group()
    H = subgroup_closure(G, {Q8_I})
    action = right_translation_action(G, H)
    gpd, labels = gauge_groupoid(G.order, action)
    return G, H, action, gpd, labels


# -- gauge groupoid -----------------------------------------------------------

def test_gauge_of_regular_action_is_one_object_group():
    G = quaternion_group()
    gpd, labels = gauge_groupoid(G.order, regular_action(G))
    assert gpd.n_objects == 1
    assert gpd.n_arrows == 8
    # oracle: <p,q> -> p q^-1 is a bijection onto G respecting products
    def pq_inv(a):
        p, q = labels.arrow_rep[a]
        return G.mul(p, G.inv(q))
    assert len({pq_inv(a) for a in range(8)}) == 8
    for (a, b), ab in gpd.mul.items():
        assert pq_inv(ab) == G.mul(pq_inv(a), pq_inv(b))


def test_gauge_klein_by_first_factor():
    G = klein_four()
    H = Subgroup(G, [0, 2])
    gpd, _ = gauge_groupoid(4, right_translation_action(G, H))
    # oracle: orbit enumeration, 16 pairs / |H| = 8 arrows over 2 objects
    assert gpd.n_arrows == 8
    assert gpd.n_objects == 2


def test_gauge_by_trivial_group_is_pair_groupoid():
    # reference: arrow (p, q): q -> p is p*n + q, and (p, q)(q, r) = (p, r)
    for n in range(7):
        pairs = [(p, q) for p in range(n) for q in range(n)]
        _, labels = gauge_groupoid(n, trivial_action(trivial_group(), n))
        assert labels.arrow_rep == pairs
        pg = pair_groupoid(n)
        assert (pg.n_objects, pg.n_arrows) == (n, n * n)
        assert pg.src == tuple(q for p, q in pairs)
        assert pg.tgt == tuple(p for p, q in pairs)
        assert pg.id == tuple(p * n + p for p in range(n))
        assert pg.inv == tuple(q * n + p for p, q in pairs)
        assert pg.mul == {(p * n + q, q * n + r): p * n + r
                          for p, q in pairs for r in range(n)}


def test_pair_groupoid_refuses_a_bad_size():
    with pytest.raises(InvalidInput, match="set size and entries must be "
                                           "integers"):
        pair_groupoid(2.0)
    with pytest.raises(NotAnAction, match="row 0 has wrong length"):
        pair_groupoid(-1)


def test_gauge_requires_free_action():
    G = cyclic(2)
    with pytest.raises(ActionNotFree) as e:
        gauge_groupoid(3, trivial_action(G, 3))
    assert "point" in e.value.details


def z4_with_a_swapped_pair():
    """Z4 rotating points 0..3 and swapping 4 and 5: only 2 fixes points."""
    G = cyclic(4)
    rows = [[(x + g) % 4 for x in range(4)] + ([4, 5], [5, 4])[g % 2]
            for g in range(4)]
    return G, rows


def test_gauge_names_the_first_fixed_point():
    G, rows = z4_with_a_swapped_pair()
    with pytest.raises(ActionNotFree) as e:
        gauge_groupoid(6, FiniteAction(G, 6, rows))
    assert e.value.details == {"element": 2, "point": 4}


def test_quotient_names_the_first_element_fixing_an_arrow():
    G, rows = z4_with_a_swapped_pair()
    arrows = [[r[p] * 6 + r[q] for p in range(6) for q in range(6)]
              for r in rows]
    gpd = pair_groupoid(6)
    with pytest.raises(NotFree) as e:
        quotient_groupoid(GroupoidAction(
            gpd, FiniteAction(G, gpd.n_arrows, arrows)))
    assert e.value.details == {"element": 2}


def test_q8_gauge_counts():
    _, _, _, gpd, _ = q8_gauge()
    assert gpd.n_arrows == 16
    assert gpd.n_objects == 2


@pytest.mark.parametrize("field,value", [("src", [0.0]),
                                         ("mul", {(0, 0): True})])
def test_groupoid_entries_must_be_integers(field, value):
    # int() would read 0.0 as 0 and True as 1
    arrays = {"src": [0], "tgt": [0], "id_": [0], "inv": [0],
              "mul": {(0, 0): 0}}
    FiniteGroupoid(1, **arrays)
    arrays[field] = value
    with pytest.raises(InvalidInput, match="groupoid entries"):
        FiniteGroupoid(1, **arrays)


# -- compatible actions -------------------------------------------------------

def diagonal_translation_action(G, labels, gpd, members):
    """<p,q>.g' = <pg', qg'> for g' ranging over a subgroup of G."""
    from ntpg.actions import subgroup_as_group
    H = Subgroup(G, members)
    Hgrp, to_parent, _ = subgroup_as_group(H)
    rows = []
    for h in range(Hgrp.order):
        gp = to_parent[h]
        row = [labels.pair_to_arrow[G.mul(p, gp), G.mul(q, gp)]
               for (p, q) in labels.arrow_rep]
        rows.append(row)
    return GroupoidAction(gpd, FiniteAction(Hgrp, gpd.n_arrows, rows))


def test_q8_gauge_with_j_translation_is_compatible_preprincipal():
    G, H, action, gpd, labels = q8_gauge()
    Hj = subgroup_closure(G, {Q8_J})
    ga = diagonal_translation_action(G, labels, gpd, Hj.members)
    rep = check_compatible(ga)
    # oracle: exhaustive check over 16 arrows x 4 group elements
    assert rep.compatible
    # kernel is {1,-1} inside <j> = {1, -1, j, -j}
    assert len(rep.kernel) == 2
    # the kernel elements act trivially; they correspond to {1,-1}
    assert rep.pre_principal


def test_trivial_action_on_groupoid_is_compatible_kernel_everything():
    gpd = pair_groupoid(3)
    G = cyclic(4)
    rows = [list(range(gpd.n_arrows)) for _ in range(4)]
    rep = check_compatible(GroupoidAction(
        gpd, FiniteAction(G, gpd.n_arrows, rows)))
    assert rep.compatible
    assert len(rep.kernel) == 4
    assert rep.pre_principal  # quotient by the kernel is the trivial group


def one_object_groupoid(G, relist=list):
    """The group G as a groupoid with a single object, its products listed
    in index order or in the order relist gives them."""
    products = [((a, b), ab) for a, row in enumerate(G.table)
                for b, ab in enumerate(row)]
    return FiniteGroupoid(1, [0] * G.order, [0] * G.order, [G.identity],
                          G.inverse, dict(relist(products)))


LISTINGS = {"sorted": list, **RELISTINGS}


def _swaps(n, *pairs):
    row = list(range(n))
    for a, b in pairs:
        row[a], row[b] = b, a
    return row


# (groupoid, the non-identity row of a Z2 action, first witness): one case
# per kind of failure, each arrow or pair before the witness passing
_INCOMPATIBLE = [
    (pair_groupoid(2), _swaps(4, (0, 1), (2, 3)), ("unit", 1, 0)),
    (pair_groupoid(2), _swaps(4, (1, 2)), ("endpoints", 1, 1)),
    (one_object_groupoid(cyclic(4)), _swaps(4, (1, 2)), ("inverse", 1, 1)),
    (one_object_groupoid(cyclic(5)), _swaps(5, (1, 2), (3, 4)),
     ("product", 1, (1, 1))),
    # products listed in reverse: a scan in listing order named (4, 4)
    (one_object_groupoid(cyclic(5), RELISTINGS["reverse"]),
     _swaps(5, (1, 2), (3, 4)), ("product", 1, (1, 1))),
]


@pytest.mark.parametrize("gpd,row,witness", _INCOMPATIBLE)
def test_check_compatible_names_the_first_failure(gpd, row, witness):
    ga = GroupoidAction(gpd, FiniteAction(
        cyclic(2), gpd.n_arrows, [list(range(gpd.n_arrows)), row]))
    rep = check_compatible(ga)
    assert not rep.compatible
    assert rep.witness == witness == brute_force_compat(ga)


@pytest.mark.parametrize("listing", sorted(LISTINGS))
def test_first_non_associative_triple_whatever_the_listing(listing):
    # a scan in listing order named (4, 4, 1) for the reversed listing
    products = [((a, b), ab) for a, row in enumerate(LOOP5)
                for b, ab in enumerate(row)]
    with pytest.raises(InvalidInput, match="associativity fails") as err:
        FiniteGroupoid(1, [0] * 5, [0] * 5, [0], range(5),
                       dict(LISTINGS[listing](products)))
    assert err.value.details["triple"] == (1, 1, 2)


def test_swap_action_on_pair_groupoid_is_free():
    gpd = pair_groupoid(2)
    G = cyclic(2)
    swap = {0: 3, 3: 0, 1: 2, 2: 1}  # arrows (p,q) coded p*2+q
    rows = [list(range(4)), [swap[a] for a in range(4)]]
    rep = check_compatible(GroupoidAction(
        gpd, FiniteAction(G, gpd.n_arrows, rows)))
    assert rep.compatible
    assert rep.kernel.members == (0,)
    assert rep.pre_principal
    assert action_check(FiniteAction(G, 4, rows)).is_free


# -- quotient groupoid --------------------------------------------------------

def test_quotient_of_q8_gauge_by_reduced_j_action():
    G, H, action, gpd, labels = q8_gauge()
    Hj = subgroup_closure(G, {Q8_J})
    ga = diagonal_translation_action(G, labels, gpd, Hj.members)
    free = reduced_action(ga)
    q = quotient_groupoid(free)
    # oracle: orbit count 16/2 = 8 arrows over 2/2 = 1 object
    assert q.groupoid.n_arrows == 8
    assert q.groupoid.n_objects == 1
    vg, _ = q.groupoid.vertex_group(0)
    assert vg.order == 8


@pytest.mark.parametrize("x", [2, -1])
def test_vertex_group_refuses_an_object_out_of_range(x):
    with pytest.raises(InvalidInput) as e:
        pair_groupoid(2).vertex_group(x)
    assert e.value.details == {"object": x}


def test_quotient_by_trivial_group_is_identity():
    gpd = pair_groupoid(3)
    T = trivial_group()
    ga = GroupoidAction(gpd, FiniteAction(T, gpd.n_arrows,
                                          [list(range(gpd.n_arrows))]))
    q = quotient_groupoid(ga)
    assert q.groupoid.n_arrows == gpd.n_arrows
    assert q.arrow_map == tuple(range(gpd.n_arrows))


def test_quotient_of_klein_pair_groupoid_by_factor():
    # pair groupoid of Z2 x Z2, quotient by diagonal translations of a factor
    G = klein_four()
    gpd = pair_groupoid(4)
    H = Subgroup(G, [0, 1])  # {(0,0), (0,1)} under the g*2+h coding
    from ntpg.actions import subgroup_as_group
    Hgrp, to_parent, _ = subgroup_as_group(H)
    rows = []
    for h in range(Hgrp.order):
        gp = to_parent[h]
        row = [G.mul(p, gp) * 4 + G.mul(q, gp)
               for p in range(4) for q in range(4)]
        rows.append(row)
    ga = GroupoidAction(gpd, FiniteAction(Hgrp, gpd.n_arrows, rows))
    q = quotient_groupoid(ga)
    # oracle: direct orbit computation -> pair groupoid of 2 objects
    assert q.groupoid.n_objects == 2
    assert q.groupoid.n_arrows == 8
    with pytest.raises(NotFree):
        quotient_groupoid(GroupoidAction(
            gpd, FiniteAction(Hgrp, gpd.n_arrows, [rows[0], rows[0]])))


def test_arrow_count_divides():
    G, H, action, gpd, labels = q8_gauge()
    Hj = subgroup_closure(G, {Q8_J})
    ga = diagonal_translation_action(G, labels, gpd, Hj.members)
    free = reduced_action(ga)
    q = quotient_groupoid(free)
    assert q.groupoid.n_arrows * free.group.order == gpd.n_arrows


# -- splitting ----------------------------------------------------------------

def test_split_q8_gauge():
    G, H, action, gpd, labels = q8_gauge()
    Hj = subgroup_closure(G, {Q8_J})
    ga = diagonal_translation_action(G, labels, gpd, Hj.members)
    sp = split(reduced_action(ga))
    # oracle: 16 arrows against 8 x 2 fiber-product pairs
    assert len(sp.fiber) == 16
    assert len(sp.s_map) == 16


def test_split_checks_compatibility_once(monkeypatch):
    import ntpg.groupoids
    G, H, action, gpd, labels = q8_gauge()
    Hj = subgroup_closure(G, {Q8_J})
    ga = reduced_action(diagonal_translation_action(G, labels, gpd, Hj.members))
    calls = []

    def counting(ga):
        calls.append(ga)
        return check_compatible(ga)

    monkeypatch.setattr(ntpg.groupoids, "check_compatible", counting)
    split(ga)
    split(ga)
    assert len(calls) == 2


def test_quotient_checks_each_action_once(monkeypatch):
    import ntpg.groupoids
    G, H, action, gpd, labels = q8_gauge()
    Hj = subgroup_closure(G, {Q8_J})
    ga = reduced_action(diagonal_translation_action(G, labels, gpd, Hj.members))
    calls = []

    def counting(a):
        calls.append(a)
        return action_check(a)

    monkeypatch.setattr(ntpg.groupoids, "action_check", counting)
    q = quotient_groupoid(ga)
    # the arrow action, then the object action: one call each
    assert len({id(a) for a in calls}) == len(calls) == 2
    assert calls[0] is ga.arrow_action and calls[-1] is q.object_action


def test_split_hands_its_reports_down_to_the_round_trip(monkeypatch):
    # the quotient checks the arrow and the object action; the
    # multiplicative function reads the object report off the split
    import ntpg.groupoids
    with open(os.path.join(EXAMPLES, "s3_groupoid_action.json")) as fh:
        ga = load_groupoid_action(json.load(fh))
    calls = []

    def counting(a):
        calls.append(a)
        return action_check(a)

    monkeypatch.setattr(ntpg.groupoids, "action_check", counting)
    reconstruct_and_check(multiplicative_function(split(ga)))
    assert len(calls) == 2


def test_reduced_action_proves_its_action_once(monkeypatch):
    # reduce_action's proved action is handed over, not proved again
    with open(os.path.join(EXAMPLES, "s3_groupoid_action.json")) as fh:
        ga = load_groupoid_action(json.load(fh))
    validate = FiniteAction._validate
    calls = []

    def counting(action):
        calls.append(action)
        return validate(action)

    monkeypatch.setattr(FiniteAction, "_validate", counting)
    reduced = reduced_action(ga)
    assert len(calls) == 1 and calls[0] is reduced.arrow_action


def test_groupoid_action_refuses_another_point_count():
    with pytest.raises(InvalidInput) as e:
        GroupoidAction(pair_groupoid(2), trivial_action(cyclic(2), 3))
    assert e.value.details == {"set_size": 3, "arrows": 4}


def test_split_builds_no_quotient_group(monkeypatch):
    # pre-principality is read off the arrow orbit sizes
    import ntpg.actions
    import ntpg.groupoids
    G, H, action, gpd, labels = q8_gauge()
    Hj = subgroup_closure(G, {Q8_J})
    ga = reduced_action(diagonal_translation_action(G, labels, gpd, Hj.members))

    def refuse(*args):
        raise AssertionError("quotient group built")

    monkeypatch.setattr(ntpg.actions, "quotient", refuse)
    monkeypatch.setattr(ntpg.groupoids, "reduce_action", refuse)
    assert len(split(ga).fiber) == 16


def test_split_with_trivial_group_gives_target_map():
    gpd = pair_groupoid(3)
    T = trivial_group()
    ga = GroupoidAction(gpd, FiniteAction(T, gpd.n_arrows,
                                          [list(range(gpd.n_arrows))]))
    sp = split(ga)
    for y in range(gpd.n_arrows):
        y0, x = sp.s_map[y]
        assert sp.t_action[(y0, x)] == gpd.tgt[y]


def _built_instance(n_objects, group, c_values):
    """A groupoid built from a pair-groupoid morphism b(x,y)=c(x)c(y)^-1."""
    base = pair_groupoid(n_objects)
    b = [group.mul(c_values[p], group.inv(c_values[q]))
         for p in range(n_objects) for q in range(n_objects)]
    return build_from_morphism(base, group, b)


def test_build_from_morphism_splits_and_roundtrips():
    G = cyclic(2)
    sp = split(_built_instance(2, G, [0, 1]))
    mf = multiplicative_function(sp)
    # b extracted from the default trivialization satisfies (zb); rebuild
    reconstruct_and_check(mf)


def test_multiplicative_function_trivial_b_gives_direct_product():
    G = cyclic(3)
    base = pair_groupoid(2)
    built = build_from_morphism(base, G, [G.identity] * base.n_arrows)
    gpd = built.groupoid
    assert built.group is G
    # direct product structure: componentwise source and target, with
    # arrow (y0, g) coded y0*|G| + g and object (x0, g) coded x0*|G| + g
    for y0 in range(base.n_arrows):
        for g in range(3):
            a = y0 * 3 + g
            assert gpd.src[a] == base.src[y0] * 3 + g
            assert gpd.tgt[a] == base.tgt[y0] * 3 + g


def test_bad_b_is_rejected():
    G = cyclic(2)
    base = pair_groupoid(2)
    # not multiplicative: b(0,1)=1 but b(0,0)=1 forces b(unit) != e
    with pytest.raises(NotMultiplicative):
        build_from_morphism(base, G, [1, 1, 1, 1])


def test_extracted_b_from_gauge_example():
    # gauge groupoid of Z2xZ2 by a factor, trivialized: b satisfies (zb)
    G = klein_four()
    H = Subgroup(G, [0, 1])
    action = right_translation_action(G, H)
    gpd, labels = gauge_groupoid(4, action)
    # the second factor acts diagonally on arrows
    rows = []
    K = Subgroup(G, [0, 2])
    from ntpg.actions import subgroup_as_group
    Kgrp, to_parent, _ = subgroup_as_group(K)
    for h in range(Kgrp.order):
        gp = to_parent[h]
        rows.append([labels.pair_to_arrow[G.mul(p, gp), G.mul(q, gp)]
                     for (p, q) in labels.arrow_rep])
    ga = GroupoidAction(gpd, FiniteAction(Kgrp, gpd.n_arrows, rows))
    rep = check_compatible(ga)
    assert rep.compatible
    sp = split(ga)
    mf = multiplicative_function(sp)
    reconstruct_and_check(mf)
    base = sp.quotient.groupoid
    for (a, b), ab in base.mul.items():
        assert mf.group.table[mf.b[a]][mf.b[b]] == mf.b[ab]


def test_kernel_object_action_is_trivial():
    # induced object action of the kernel is trivial (compatible actions)
    G, H, action, gpd, labels = q8_gauge()
    Hj = subgroup_closure(G, {Q8_J})
    ga = diagonal_translation_action(G, labels, gpd, Hj.members)
    rep = check_compatible(ga)
    for k in rep.kernel.members:
        assert rep.object_action.act[k] == tuple(range(gpd.n_objects))


@pytest.mark.parametrize("subgroups", [({Q8_I}, {Q8_J}),
                                       ({Q8_I}, {Q8_I})])
def test_gauge_quotient_objects_match_joint_orbits(subgroups):
    # objects of (gauge(P, G) / [G']) are the orbits of P under the group
    # generated by both translation images (the object level of the
    # commuting diagram)
    G = quaternion_group()
    m1, m2 = subgroups
    H = subgroup_closure(G, m1)
    Hp = subgroup_closure(G, m2)
    action = right_translation_action(G, H)
    gpd, labels = gauge_groupoid(8, action)
    ga = diagonal_translation_action(G, labels, gpd, Hp.members)
    q = quotient_groupoid(reduced_action(ga))
    joint = subgroup_closure(G, set(H.members) | set(Hp.members))
    joint_orbits = {tuple(sorted(G.mul(x, h) for h in joint.members))
                    for x in range(8)}
    assert q.groupoid.n_objects == len(joint_orbits)
    # the composite orbit map separates exactly the joint orbits; the
    # orbit of p is the object of the unit arrow <p, p>
    composite = {}
    for p in range(8):
        composite.setdefault(
            q.object_report.orbit_of[gpd.src[labels.pair_to_arrow[p, p]]],
            set()).add(p)
    assert {tuple(sorted(v)) for v in composite.values()} == joint_orbits


def test_build_from_morphism_refuses_a_short_b():
    with pytest.raises(InvalidInput) as e:
        build_from_morphism(pair_groupoid(2), cyclic(2), [0])
    assert str(e.value) == "b has wrong length"
