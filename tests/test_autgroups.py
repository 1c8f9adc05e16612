import sys
from itertools import product

import pytest

from ntpg.autgroups import (_slot_list, aut_compose, aut_from_polymap,
                            aut_invert, enumerate_aut, forget_linear,
                            gi_membership, is_statomorphism,
                            make_affine_automorphism, make_automorphism,
                            verify_p54)
from ntpg.cocycles import standard_fibered_space
from ntpg.errors import (EnumerationCapExceeded, IllegalMonomial, InvalidInput,
                         NotInvertible)
from ntpg.fields import GF, mat_inv
from ntpg.graded import GradedSignature, PolyMap, compose
from ntpg.groups import _built_group, is_normal, make_group

SIG = GradedSignature.double_vector(1, 1, 1)   # coords y, y', z
F3 = GF(3)
F2 = GF(2)

Y, YP, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
YYP = (1, 1, 0)


def test_double_vector_coordinate_order():
    assert SIG.weights == ((1, 0), (0, 1), (1, 1))


def test_identity_automorphism():
    a = make_automorphism(SIG, F3, [(0, Y, 1), (1, YP, 1), (2, Z, 1)])
    assert a == PolyMap.identity(SIG, F3)
    assert is_statomorphism(a)          # vanishing mixed part is allowed
    assert gi_membership(a, 1) and gi_membership(a, 2)


def test_example_automorphism_over_f3():
    # (y, y', z) -> (2y, y', yy' + z)
    a = make_automorphism(SIG, F3, [(0, Y, 2), (1, YP, 1),
                                    (2, YYP, 1), (2, Z, 1)])
    # oracle: explicit inverse (2w, w', w w' + z), since 2^-1 = 2 and
    # z = z' - (2w)(w') = z' + w w' mod 3
    expect = PolyMap.from_terms(SIG, SIG, F3,
                                [(0, Y, 2), (1, YP, 1),
                                 (2, YYP, 1), (2, Z, 1)])
    assert compose(a, expect).key() == PolyMap.identity(SIG, F3).key()
    assert aut_invert(a) == expect


def test_illegal_monomial_rejected():
    with pytest.raises(IllegalMonomial) as e:
        make_automorphism(SIG, F3, [(0, Z, 1), (1, YP, 1), (2, Z, 1)])
    assert e.value.details["target"] == 0


def test_singular_linear_block_rejected():
    with pytest.raises(NotInvertible):
        make_automorphism(SIG, F3, [(0, Y, 0), (1, YP, 1), (2, Z, 1)])


# -- statomorphisms / G^i -------------------------------------------------------

def test_statomorphism_formula():
    a = make_automorphism(SIG, F3, [(0, Y, 1), (1, YP, 1),
                                    (2, YYP, 1), (2, Z, 1)])
    assert is_statomorphism(a)
    assert gi_membership(a, 1) and gi_membership(a, 2)


def test_scaled_linear_part_is_not_statomorphism():
    a = make_automorphism(SIG, F3, [(0, Y, 2), (1, YP, 1), (2, Z, 1)])
    assert not is_statomorphism(a)


def test_gi_membership_shape():
    # (y, y', z) -> (y, 2y', z) fixes y, so in G^1, not in G^2
    a = make_automorphism(SIG, F3, [(0, Y, 1), (1, YP, 2), (2, Z, 1)])
    assert gi_membership(a, 1)
    assert not gi_membership(a, 2)


# -- enumeration ------------------------------------------------------------------

def test_enumeration_count_p3():
    handle = enumerate_aut(SIG, F3)
    # oracle: alpha, alpha', sigma in F3^x and beta in F3 -> 3 * 2^3
    assert handle.group.order == 3 * (3 - 1) ** 3 == 24


def test_enumeration_count_p2():
    handle = enumerate_aut(SIG, F2)
    assert handle.group.order == 2


def test_statomorphism_subgroup_order_p3():
    handle = enumerate_aut(SIG, F3)
    stato = handle.statomorphism_subgroup()
    assert len(stato) == 3
    assert is_normal(handle.group, stato)
    # statomorphisms sit inside the intersection of the distinguished
    # subgroups
    core = set(handle.gi_subgroup(1).members) & set(handle.gi_subgroup(2).members)
    assert set(stato.members) <= core


def test_enumeration_count_p5():
    handle = enumerate_aut(SIG, GF(5))
    assert handle.group.order == 5 * (5 - 1) ** 3 == 320


K3_SIX = GradedSignature.multi(3, [
    ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
    ((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 1, 1), 1)])


@pytest.mark.parametrize("sig, field, order", [
    (SIG, F3, 24), (SIG, F2, 2), (K3_SIX, F2, 32),
    (GradedSignature.double_vector(2, 1, 0), F2, 6),
    (GradedSignature.double_vector(1, 1, 0), F2, 1)],
    ids=["D111-F3", "D111-F2", "k3-six-F2", "D210-F2", "D110-F2"])
def test_table_matches_symbolic_composition(sig, field, order):
    # oracle: the table built from point evaluations agrees with symbolic
    # composition on every pair
    handle = enumerate_aut(sig, field)
    assert handle.group.order == order
    maps = [handle.map_of(k) for k in range(order)]
    for i in range(order):
        for j in range(order):
            assert handle.group.table[i][j] == \
                handle.index_of(compose(maps[i], maps[j])), (i, j)


def grid_order(sig, field):
    """Keys of the coefficient-grid points whose linear blocks are
    invertible, in grid order: the whole grid, filtered point by point."""
    slots = _slot_list(sig)
    at = {(c, exps.index(1)): k
          for k, (c, exps, linear) in enumerate(slots) if linear}
    blocks = [sig.block_coords(w) for w, _ in sig.blocks]
    keys = []
    for values in product(range(field.char), repeat=len(slots)):
        if all(mat_inv(field, [[values[at[(c, b)]] for b in coords]
                               for c in coords]) is not None
               for coords in blocks):
            terms = [(c, exps, v)
                     for (c, exps, _), v in zip(slots, values) if v]
            keys.append(PolyMap.from_terms(sig, sig, field, terms).key())
    return keys


@pytest.mark.parametrize("sig, field", [
    (GradedSignature.double_vector(2, 1, 1), F2),
    (GradedSignature.double_vector(1, 2, 0), F3), (SIG, F3),
    (GradedSignature.double_vector(1, 1, 2), F2)],
    ids=["D211-F2", "D120-F3", "D111-F3", "D112-F2"])
def test_elements_in_grid_order_with_evaluated_perms(sig, field):
    # oracle: the enumeration lists exactly the filtered grid, in its
    # order, and each point permutation is the map evaluated point by point;
    # in D112 a free slot of the first z coordinate precedes the linear
    # slots of the second
    handle = enumerate_aut(sig, field)
    maps = [handle.map_of(k) for k in range(handle.group.order)]
    assert [a.key() for a in maps] == grid_order(sig, field)
    points = list(product(range(field.char), repeat=sig.ncoords))
    code = {pt: k for k, pt in enumerate(points)}
    assert len(handle.perms) == len(maps)
    for a, perm in zip(maps, handle.perms):
        assert perm == tuple(code[a.eval(pt)] for pt in points)


def test_fibered_action_matches_map_evaluation():
    handle = enumerate_aut(SIG, F3)
    points = list(product(F3.elements(), repeat=SIG.ncoords))
    code = {pt: k for k, pt in enumerate(points)}
    fibered = standard_fibered_space(handle)
    for k, perm in enumerate(fibered.perms):
        assert perm == tuple(code[handle.map_of(k).eval(pt)] for pt in points)


def test_enumeration_cap():
    big = GradedSignature.double_vector(2, 2, 2)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_aut(big, GF(5), cap=1000)


def test_gamma_acts_linearly_on_side_factors():
    handle = enumerate_aut(SIG, F3)
    for k in range(handle.group.order):
        for c in (0, 1):  # the degree-e_i coordinates
            for exps in handle.map_of(k).components[c].terms:
                assert SIG.monomial_weight(exps) == SIG.weights[c]
                assert sum(exps) == 1


def test_gi_conjugation_stable():
    handle = enumerate_aut(SIG, F3)
    G = handle.group
    g1 = handle.gi_subgroup(1)
    for b in range(G.order):
        for a in g1.members:
            assert G.conjugate(b, a) in g1


# -- the k-tuple principal structure -------------------------------------------

def test_p54_k2_p3():
    rep = verify_p54(SIG, F3)
    assert rep.witness.verdict
    assert rep.orders["gamma"] == 24
    assert rep.orders["gi"] == [12, 12]
    assert rep.orders["intersections"]["1,2"] == 6


def test_p54_k2_p2_degenerate():
    rep = verify_p54(SIG, F2)
    assert rep.witness.verdict
    assert rep.orders["gamma"] == 2
    assert rep.orders["gi"] == [2, 2]


K3 = GradedSignature.multi(3, [
    ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
    ((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1),
    ((1, 1, 1), 1)])


def test_p54_k3_p2():
    rep = verify_p54(K3, F2)
    # oracle: seven forced linear slots, seven free mixed slots -> 2^7
    assert rep.orders["gamma"] == 128
    assert rep.witness.verdict
    assert rep.witness.trace["children"], "recursion trace must be present"


def _count_calls(monkeypatch, name, real):
    """Count the calls of real through every ntpg module that binds it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for modname, mod in list(sys.modules.items()):
        if (modname.split(".")[0] == "ntpg"
                and getattr(mod, name, None) is real):
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("sig, field", [(SIG, GF(5)), (K3, F2)],
                         ids=["D111-F5", "k3-F2"])
def test_verify_p54_builds_one_group_and_no_polynomial_map(sig, field,
                                                          monkeypatch):
    import ntpg.principal
    validated = _count_calls(monkeypatch, "make_group", make_group)
    built = _count_calls(monkeypatch, "_built_group", _built_group)
    maps = []
    from_terms = PolyMap.from_terms.__func__

    def counting_from_terms(cls, *args):
        maps.append(args)
        return from_terms(cls, *args)

    def refuse(G, N):
        raise AssertionError("verify_p54 built a quotient")

    monkeypatch.setattr(PolyMap, "from_terms",
                        classmethod(counting_from_terms))
    monkeypatch.setattr(ntpg.principal, "quotient", refuse)
    rep = verify_p54(sig, field)
    assert rep.witness.verdict
    # the one group is the enumerated table, built by the library itself
    assert (len(validated), len(built)) == (0, 1)
    rep.handle.gi_subgroup(1)
    rep.handle.statomorphism_subgroup()
    assert maps == []
    # a map is built only for an element asked for, and found without
    # building any other
    last = rep.handle.group.order - 1
    assert rep.handle.index_of(rep.handle.map_of(last)) == last
    assert len(maps) == 1


def test_slot_read_subgroups_match_the_map_filters():
    # D111 over F3 and F5, and every F2 model of the tier-1 aut sweep
    from test_aut_sweep import GRADINGS, models
    cases = [(SIG, F3), (SIG, GF(5))]
    cases += [(GradedSignature.multi(n, blocks.items()), F2)
              for n in GRADINGS[1] for blocks in models(n, 1)]
    assert len(cases) == 136
    for sig, field in cases:
        handle = enumerate_aut(sig, field)
        elements = [handle.map_of(k) for k in range(handle.group.order)]
        for i in range(1, sig.n + 1):
            assert handle.gi_subgroup(i).members == tuple(
                k for k, a in enumerate(elements) if gi_membership(a, i))
        assert handle.statomorphism_subgroup().members == tuple(
            k for k, a in enumerate(elements) if is_statomorphism(a))
        for i in (0, sig.n + 1):
            with pytest.raises(InvalidInput) as expected:
                gi_membership(elements[0], i)
            with pytest.raises(InvalidInput) as got:
                handle.gi_subgroup(i)
            assert got.value.report() == expected.value.report()


# -- double affine automorphisms --------------------------------------------------

def test_affine_identity():
    a = PolyMap.identity(GradedSignature.double_vector(1, 1, 1), F3)
    assert aut_invert(a) == a


def test_pure_translation_inverts_to_negation():
    CONST = (0, 0, 0)
    a = make_affine_automorphism((1, 1, 1), F3,
                                 [(0, Y, 1), (0, CONST, 1),
                                  (1, YP, 1), (2, Z, 1)])
    inv = aut_invert(a)
    # the inverse translates by -1 = 2
    assert inv.components[0].terms[CONST] == 2


def test_affine_with_mixed_terms_and_forgetful_hom():
    CONST = (0, 0, 0)
    a = make_affine_automorphism((1, 1, 1), F3,
                                 [(0, Y, 1), (1, YP, 1),
                                  (2, Y, 1), (2, Z, 1)])   # beta^{i0} = 1
    b = make_affine_automorphism((1, 1, 1), F3,
                                 [(0, Y, 2), (0, CONST, 1),
                                  (1, YP, 1), (2, YYP, 1), (2, Z, 1)])
    ab = aut_compose(a, b)
    # oracle: compose with the candidate inverse gives the identity
    assert aut_compose(ab, aut_invert(ab)) == \
        PolyMap.identity(GradedSignature.double_vector(1, 1, 1), F3)
    # forgetting constants lands in the vector automorphism group, and the
    # assignment is a homomorphism
    fa, fb, fab = forget_linear(a), forget_linear(b), forget_linear(ab)
    assert aut_compose(fa, fb) == fab


def test_forgetful_is_homomorphism_exhaustively_small():
    # all 1-dimensional affine maps over F2 with a few slots
    CONST = (0, 0, 0)
    auts = []
    for a0 in range(2):
        for b00 in range(2):
            for bi0 in range(2):
                for beta in range(2):
                    terms = [(0, Y, 1), (1, YP, 1), (2, Z, 1)]
                    if a0:
                        terms.append((0, CONST, 1))
                    if b00:
                        terms.append((2, CONST, 1))
                    if bi0:
                        terms.append((2, Y, 1))
                    if beta:
                        terms.append((2, YYP, 1))
                    auts.append(make_affine_automorphism((1, 1, 1), F2, terms))
    for x in auts:
        for y in auts:
            assert forget_linear(aut_compose(x, y)) == \
                aut_compose(forget_linear(x), forget_linear(y))


def test_affine_shape_violation():
    with pytest.raises(IllegalMonomial):
        make_affine_automorphism((1, 1, 1), F3,
                                 [(0, Y, 1), (0, Z, 1),
                                  (1, YP, 1), (2, Z, 1)])


def test_symbolic_mode_over_q():
    # the automorphism shape is closed under composition and inversion over
    # the rationals as well; spot-checked on random coefficients
    import random

    from ntpg.autgroups import aut_from_polymap
    from ntpg.fields import QQ
    from sample import random_graded_automorphism

    rng = random.Random(31)
    sig = GradedSignature.double_vector(2, 1, 1)
    for _ in range(15):
        a = aut_from_polymap(random_graded_automorphism(rng, QQ, sig))
        b = aut_from_polymap(random_graded_automorphism(rng, QQ, sig))
        ab = aut_compose(a, b)
        assert compose(ab, aut_invert(ab)) == PolyMap.identity(sig, QQ)
        # conjugation stability of the distinguished subgroups
        for i in (1, 2):
            if gi_membership(a, i):
                conj = aut_compose(aut_compose(b, a), aut_invert(b))
                assert gi_membership(conj, i)


def test_leaving_every_shape_is_a_theory_failure(monkeypatch):
    import ntpg.autgroups
    from ntpg.errors import InternalInconsistency
    CONST = (0, 0, 0)
    a = make_affine_automorphism((1, 1, 1), F3,
                                 [(0, Y, 1), (0, CONST, 1),
                                  (1, YP, 1), (2, Z, 1)])
    # unvalidated: a y y' term in the y slot has weight (1,1) > (1,0)
    bad = PolyMap.from_terms(SIG, SIG, F3, [(0, Y, 1), (0, YYP, 1),
                                            (1, YP, 1), (2, Z, 1)])
    with pytest.raises(InternalInconsistency):
        aut_compose(bad, a)
    # an inversion that returns bad for a
    monkeypatch.setattr(ntpg.autgroups, "triangular_inverse", lambda pm: bad)
    with pytest.raises(InternalInconsistency):
        aut_invert(a)


# (call, error class, message): refusals a library caller reaches that no
# other tier-1 test does
@pytest.mark.parametrize("call, error, message", [
    (lambda: make_automorphism(SIG, F3, [(0, (1, 0), 1)]), InvalidInput,
     "exponent tuple has wrong length"),
    # z -> y: the weight-(1,1) target carries a weight-(1,0) monomial
    (lambda: aut_from_polymap(PolyMap.from_terms(
        SIG, SIG, F3, [(0, Y, 1), (1, YP, 1), (2, Y, 1)])),
     IllegalMonomial, "map is not weight-preserving")],
    ids=["exponents", "not-weight-preserving"])
def test_autgroups_refusals(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message
