import pytest

from ntpg.autgroups import (AutGroupHandle, aut_compose, aut_invert,
                            enumerate_aut, make_automorphism)
from ntpg.cocycles import (Cocycle, CoverNerve, FiberedSpace,
                           are_cohomologous, associated_cocycle, check_cocycle,
                           standard_fibered_space)
from ntpg.errors import (ActionIncompatibleWithFibration,
                         InternalInconsistency, InvalidInput,
                         NotInvertibleChart, SearchCapExceeded)
from ntpg.groups import Subgroup
from ntpg.fields import GF, QQ
from ntpg.graded import (PolyMap, is_graded_morphism, t2_has_quadratic_term,
                         t2_transition)
from ntpg.jsonio import dump_terms, load_aut_cocycle
from ntpg.named import cyclic, klein_four, quaternion_group, symmetric
from ntpg.poly import Poly
from ntpg.signature import GradedSignature

F3 = GF(3)
SIG = GradedSignature.double_vector(1, 1, 1)
Y, YP, Z, YYP = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)

TWO_CHARTS = CoverNerve(2, [(0, 1)])
FULL3 = CoverNerve.full(3)


def example_aut():
    """(y, y', z) -> (2y, y', yy' + z) over F3."""
    return make_automorphism(SIG, F3, [(0, Y, 2), (1, YP, 1),
                                       (2, YYP, 1), (2, Z, 1)])


# -- cocycle laws ---------------------------------------------------------------

def test_trivial_cocycle_is_valid():
    c = Cocycle(FULL3, cyclic(4), {(0, 1): 0, (1, 2): 0, (0, 2): 0})
    ok, w = check_cocycle(c)
    assert ok and w is None


def test_two_chart_arbitrary_value_is_valid():
    G = quaternion_group()
    c = Cocycle(TWO_CHARTS, G, {(0, 1): 5})
    ok, _ = check_cocycle(c)
    assert ok
    assert c.value(1, 0) == G.inverse[5]


def test_three_chart_order_three_element():
    G = cyclic(3)
    good = Cocycle(FULL3, G, {(0, 1): 1, (1, 2): 1, (0, 2): 2})
    ok, _ = check_cocycle(good)
    assert ok
    bad = Cocycle(FULL3, G, {(0, 1): 1, (1, 2): 1, (0, 2): 0})
    ok, w = check_cocycle(bad)
    assert not ok
    assert w["law"] == "triple"
    assert w["triple"] == (0, 1, 2)


def test_first_failing_triple_in_index_order():
    # every value 1 in Z5 breaks the triple law on every triple of the
    # full nerve of 6 charts; the first in index order is (0, 1, 2)
    values = {(i, j): 1 for i in range(6) for j in range(i + 1, 6)}
    c = Cocycle(CoverNerve.full(6), cyclic(5), values)
    assert check_cocycle(c) == (False, {"law": "triple", "triple": (0, 1, 2)})


def test_triple_without_pair_rejected():
    with pytest.raises(InvalidInput):
        CoverNerve(3, [(0, 1)], [(0, 1, 2)])


@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("pairs, triples, details", [
    ([(0, 1), (1, 2), (2, 3)], [(1, 2, 3), (0, 1, 3)],
     {"triple": [0, 1, 3], "pair": (0, 3)}),
    ([], [(2, 9, 10)], {"triple": [2, 9, 10], "pair": (2, 9)}),
    ([(0, 12), (0, -1)], [], {"pair": (0, -1)})],
    ids=["two-triples", "one-triple", "range"])
def test_nerve_names_the_least_witness_whatever_the_listing(
        order, pairs, triples, details):
    with pytest.raises(InvalidInput) as e:
        CoverNerve(11, pairs[::order], triples[::order])
    assert e.value.details == details


@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("values, pair", [
    ({(0, 1): 1, (2, 3): 0, (1, 2): 1, (1, 3): 0}, (1, 3)),
    ({(2, 2): 1, (0, 1): 1, (1, 1): 0}, (1, 1))], ids=["stray", "diagonal"])
def test_cocycle_names_the_least_bad_pair_whatever_the_listing(
        order, values, pair):
    nerve = CoverNerve(4, [(0, 1), (1, 2)])
    with pytest.raises(InvalidInput) as e:
        Cocycle(nerve, cyclic(2), dict(list(values.items())[::order]))
    assert e.value.details == {"pair": pair}


@pytest.mark.parametrize("n, pairs, triples", [
    (2.9, [(0, 1)], []),
    (3, [(0, 1), (0.5, 2)], []),
    (3, [(0, 1), (1, 2), (0, 2)], [(0, 1, 2.5)]),
    (True, [], [])], ids=["charts", "pair", "triple", "bool"])
def test_nerve_entries_must_be_integers(n, pairs, triples):
    # int() would read 2.9 charts as 2 and the triple as {0, 1, 2}
    with pytest.raises(InvalidInput, match="integers"):
        CoverNerve(n, pairs, triples)


# -- associated bundles ------------------------------------------------------------

@pytest.fixture(scope="module")
def f3_handle():
    return enumerate_aut(SIG, F3)


@pytest.fixture(scope="module")
def f3_model(f3_handle):
    return standard_fibered_space(f3_handle)


def test_trivial_principal_cocycle_gives_product_bundle(f3_handle, f3_model):
    G = f3_handle.group
    c = Cocycle(TWO_CHARTS, G, {(0, 1): G.identity})
    sides = associated_cocycle(c, f3_model)
    assert f3_handle.map_of(c.value(0, 1)) == PolyMap.identity(SIG, F3)
    assert [side[(0, 1)] for side in sides] == [tuple(range(3))] * 2


def test_associated_transition_is_the_acting_map(f3_handle, f3_model):
    G = f3_handle.group
    a = example_aut()
    c = Cocycle(TWO_CHARTS, G, {(0, 1): f3_handle.index_of(a)})
    rho, rho_prime = associated_cocycle(c, f3_model)
    assert f3_handle.map_of(c.value(0, 1)) == a
    # the rho-quotient transition is y -> 2y, the permutation (0, 2, 1)
    assert rho[(0, 1)] == (0, 2, 1)
    # y' is untouched
    assert rho_prime[(0, 1)] == (0, 1, 2)


def test_three_gradings_give_three_sides():
    # (y1, y2, y3) -> (2y1, y2, y3) over F3 moves only the first quotient
    sig = GradedSignature.multi(3, [((1, 0, 0), 1), ((0, 1, 0), 1),
                                    ((0, 0, 1), 1)])
    handle = enumerate_aut(sig, F3)
    a = make_automorphism(sig, F3, [(0, (1, 0, 0), 2), (1, (0, 1, 0), 1),
                                    (2, (0, 0, 1), 1)])
    c = Cocycle(TWO_CHARTS, handle.group, {(0, 1): handle.index_of(a)})
    sides = associated_cocycle(c, standard_fibered_space(handle))
    assert [side[(0, 1)] for side in sides] == [(0, 2, 1), (0, 1, 2),
                                                (0, 1, 2)]


def test_cocycle_outside_the_structure_group_is_rejected(f3_model):
    c = Cocycle(TWO_CHARTS, cyclic(24), {(0, 1): 1})
    with pytest.raises(InvalidInput, match="structure group"):
        associated_cocycle(c, f3_model)


def _fibered(G, perms, sides):
    return FiberedSpace(G, 4, perms, [(Subgroup(G, members), classes)
                                      for members, classes in sides])


def z2_fibered(*sides):
    """Z2 on four points, its involution swapping 1 and 2; each side is
    (subgroup members, class map)."""
    return _fibered(cyclic(2), [(0, 1, 2, 3), (0, 2, 1, 3)], sides)


def k4_fibered(*sides):
    """The Klein four group on itself, 1 swapping within {0, 1} and {2, 3}
    and 2 swapping the two halves; the whole group's product generators
    are 1 and 2."""
    G = klein_four()
    return _fibered(G, G.table, sides)


@pytest.mark.parametrize("fibered, nsides, side, members, witness", [
    # point 1 lies over class 0, its image 2 over class 1
    (z2_fibered, 2, 0, [0, 1], {"element": 1, "point": 1}),
    (z2_fibered, 2, 1, [0, 1], {"element": 1, "point": 1}),
    (z2_fibered, 3, 2, [0, 1], {"element": 1, "point": 1}),
    # generator 1 keeps the classes; generator 2 takes point 0 to class 1
    (k4_fibered, 2, 1, [0, 1, 2, 3], {"element": 2, "point": 0})],
    ids=["2-0", "2-1", "3-2", "k4-second-generator"])
def test_subgroup_leaving_its_fibers_is_named(fibered, nsides, side, members,
                                              witness):
    sides = [([0], [0, 0, 1, 1])] * nsides
    sides[side] = (members, [0, 0, 1, 1])
    with pytest.raises(ActionIncompatibleWithFibration) as e:
        fibered(*sides)
    assert str(e.value) == "subgroup of side %d leaves its fibers" % side
    assert e.value.details == witness


def test_element_that_does_not_descend_is_named():
    fibered = z2_fibered(([0], [0, 1, 1, 2]), ([0], [0, 1, 2, 3]))
    assert fibered.side_perms == [[(0, 1, 2), (0, 1, 2)],
                                  [(0, 1, 2, 3), (0, 2, 1, 3)]]
    with pytest.raises(ActionIncompatibleWithFibration) as e:
        z2_fibered(([0], [0, 0, 1, 1]), ([0], [0, 1, 2, 3]))
    assert str(e.value) == "element does not descend to the quotient"
    assert e.value.details == {"element": 1}
    # the two sides above descend; a third side that splits class 0 does not
    with pytest.raises(ActionIncompatibleWithFibration) as e:
        z2_fibered(([0], [0, 1, 1, 2]), ([0], [0, 1, 2, 3]),
                   ([0], [0, 0, 1, 1]))
    assert str(e.value) == "element does not descend to the quotient"
    assert e.value.details == {"element": 1}


# -- frame bundle round trip ----------------------------------------------------------

def dvb_cocycle(nerve, values, handle):
    """The cocycle ``cocycle frame`` reads from automorphism values."""
    obj = {"charts": nerve.n,
           "overlaps": sorted(sorted(p) for p in nerve.pairs),
           "triples": sorted(sorted(t) for t in nerve.triples),
           "values": [{"pair": list(p), "terms": dump_terms(F3, a)}
                      for p, a in values.items()]}
    return load_aut_cocycle(obj, handle)


def test_trivial_dvb_frames_to_trivial_principal(f3_handle):
    ident = PolyMap.identity(SIG, F3)
    principal, auts = dvb_cocycle(TWO_CHARTS, {(0, 1): ident}, f3_handle)
    assert principal.group is f3_handle.group
    assert principal.value(0, 1) == f3_handle.group.identity
    assert auts == {(0, 1): ident}


def test_round_trip_two_charts(f3_handle):
    a = example_aut()
    principal, _ = dvb_cocycle(TWO_CHARTS, {(0, 1): a}, f3_handle)
    assert f3_handle.map_of(principal.value(0, 1)) == a
    assert f3_handle.map_of(principal.value(1, 0)) == aut_invert(a)


def test_round_trip_three_charts(f3_handle):
    a = example_aut()
    b = make_automorphism(SIG, F3, [(0, Y, 1), (1, YP, 2), (2, Z, 2)])
    values = {(0, 1): a, (1, 2): b, (0, 2): aut_compose(a, b)}
    principal, _ = dvb_cocycle(FULL3, values, f3_handle)
    ok, _ = check_cocycle(principal)
    assert ok
    for (i, j) in FULL3.ordered_pairs():
        expected = (values[(i, j)] if (i, j) in values
                    else aut_invert(values[(j, i)]))
        assert f3_handle.map_of(principal.value(i, j)) == expected


def test_automorphism_missing_from_the_enumeration_is_a_library_bug(
        f3_handle):
    # a handle whose values lack the example: the lookup that cannot miss
    # misses
    k = f3_handle.index_of(example_aut())
    values = f3_handle.values[:k] + f3_handle.values[k + 1:]
    short = AutGroupHandle(SIG, F3, f3_handle.group, f3_handle.slots, values,
                           f3_handle.perms, f3_handle.points)
    with pytest.raises(InternalInconsistency):
        dvb_cocycle(TWO_CHARTS, {(0, 1): example_aut()}, short)


# -- cohomology ------------------------------------------------------------------------

def test_cocycle_is_cohomologous_to_itself():
    G = quaternion_group()
    c = Cocycle(TWO_CHARTS, G, {(0, 1): 3})
    res = are_cohomologous(c, c)
    assert res.cohomologous


def test_conjugated_two_chart_cocycles():
    G = symmetric(3)
    a = next(x for x in range(6) if G.element_order(x) == 3)
    b = next(x for x in range(6) if G.element_order(x) == 2)
    conj = G.mul(G.mul(b, a), G.inverse[b])
    c1 = Cocycle(TWO_CHARTS, G, {(0, 1): a})
    c2 = Cocycle(TWO_CHARTS, G, {(0, 1): conj})
    res = are_cohomologous(c1, c2)
    assert res.cohomologous
    lam = res.witness
    assert G.mul(G.mul(lam[0], a), G.inverse[lam[1]]) == conj


def test_abelian_two_chart_cocycles_are_all_cohomologous():
    G = cyclic(4)
    c1 = Cocycle(TWO_CHARTS, G, {(0, 1): 1})
    c2 = Cocycle(TWO_CHARTS, G, {(0, 1): 2})
    # oracle: 16-pair exhaustion; lambda = (g' - g, 0) always works
    res = are_cohomologous(c1, c2)
    assert res.cohomologous


def test_cocycles_in_different_groups_are_rejected():
    c1 = Cocycle(TWO_CHARTS, cyclic(3), {(0, 1): 1})
    c2 = Cocycle(TWO_CHARTS, cyclic(4), {(0, 1): 1})
    with pytest.raises(InvalidInput, match="different groups"):
        are_cohomologous(c1, c2)


def test_search_cap():
    c = Cocycle(TWO_CHARTS, quaternion_group(), {(0, 1): 3})
    with pytest.raises(SearchCapExceeded):
        are_cohomologous(c, c, cap=10)


def test_cohomology_is_equivalence_on_small_corpus():
    G = cyclic(3)
    cocycles = [Cocycle(FULL3, G, {(0, 1): a, (1, 2): b,
                                   (0, 2): G.mul(a, b)})
                for a in range(3) for b in range(3)]
    rel = [[are_cohomologous(x, y).cohomologous for y in cocycles]
           for x in cocycles]
    n = len(cocycles)
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


# -- second-order tangent transitions ----------------------------------------------------

def base_chart(comps, d=1):
    sig0 = GradedSignature.simple([], base=d)
    return PolyMap(sig0, sig0, QQ, comps)


def test_t2_of_identity_chart():
    x = Poly.var(QQ, 1, 0)
    out = t2_transition(base_chart([x]))
    assert out == PolyMap.identity(out.sig_in, QQ)


def test_t2_of_x_plus_x_squared():
    x = Poly.var(QQ, 1, 0)
    out = t2_transition(base_chart([x + x * x]))
    # exact law: x' = x + x^2, xdot' = (1+2x) xdot,
    # xddot' = (1+2x) xddot + 2 xdot^2
    assert out.components[0] == Poly(QQ, 3, {(1, 0, 0): 1, (2, 0, 0): 1})
    assert out.components[1] == Poly(QQ, 3, {(0, 1, 0): 1, (1, 1, 0): 2})
    assert out.components[2] == Poly(QQ, 3, {(0, 0, 1): 1, (1, 0, 1): 2,
                                             (0, 2, 0): 2})
    assert is_graded_morphism(out)
    assert t2_has_quadratic_term(out)


def test_t2_of_linear_chart_has_no_quadratic_term():
    x = Poly.var(QQ, 1, 0)
    out = t2_transition(base_chart([x.scale(2)]))
    assert not t2_has_quadratic_term(out)
    assert is_graded_morphism(out)


def test_t2_rejects_singular_chart():
    x = Poly.var(QQ, 1, 0)
    with pytest.raises(NotInvertibleChart):
        t2_transition(base_chart([x * x]))


@pytest.mark.parametrize("sig", [GradedSignature.simple([1]),
                                 GradedSignature.multi(1, [], base=1)])
def test_t2_needs_a_simple_chart_of_weight_0(sig):
    # a multi base block has weight 0 too, but is no chart of the base
    x = Poly.var(QQ, 1, 0)
    with pytest.raises(InvalidInput, match="weight-0"):
        t2_transition(PolyMap(sig, sig, QQ, [x]))


def test_t2_multidimensional():
    # x0' = x0 + x1^2, x1' = x1: the cross second derivative contributes
    x0 = Poly.var(QQ, 2, 0)
    x1 = Poly.var(QQ, 2, 1)
    out = t2_transition(base_chart([x0 + x1 * x1, x1], d=2))
    assert is_graded_morphism(out)
    assert t2_has_quadratic_term(out)
    # xddot0' = xddot0 + 2 x1dot^2 + 2 x1 xddot1
    assert out.components[4] == Poly(QQ, 6, {
        (0, 0, 0, 0, 1, 0): 1, (0, 0, 0, 2, 0, 0): 2,
        (0, 1, 0, 0, 0, 1): 2})


def test_cocycles_over_different_nerves_are_refused():
    Z2 = cyclic(2)
    c1 = Cocycle(TWO_CHARTS, Z2, {(0, 1): 1})
    c2 = Cocycle(CoverNerve(3, [(0, 1)]), Z2, {(0, 1): 1})
    with pytest.raises(InvalidInput) as e:
        are_cohomologous(c1, c2)
    assert str(e.value) == "cocycles over different nerves"


def test_a_cocycle_is_the_identity_on_the_diagonal():
    c = Cocycle(TWO_CHARTS, cyclic(2), {(0, 1): 1})
    assert [c.value(i, i) for i in range(2)] == [0, 0]
