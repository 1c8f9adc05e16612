import json
import os

import pytest

from ntpg.actions import (FiniteAction, GroupHom, quotient, regular_action,
                          restrict_action, right_translation_action)
from ntpg.errors import (InternalInconsistency, InvalidInput, NotAnAction,
                         NotCompatible, NotFree)
from ntpg.groups import Subgroup, make_group, subgroup_closure
from ntpg.jsonio import load_action, load_group, load_subgroup
from ntpg.named import (Q8_I, Q8_J, Q8_K, Q8_MINUS_I, Q8_MINUS_ONE, Q8_ONE,
                        cyclic, quaternion_group, symmetric)
from ntpg.ntuple import verify_ntuple
from ntpg.principal import (check_compatibility, dpg_morphism_check, dressing,
                            exact_sequence_check, gamma_from_actions,
                            semidirect, semidirect_from_dressing, vacancy,
                            verify_double)


def q8_dpg():
    G = quaternion_group()
    return G, verify_double(G, subgroup_closure(G, {Q8_I}),
                            subgroup_closure(G, {Q8_J})).dpg


# -- verify_double ------------------------------------------------------------

def test_q8_ij_is_double_principal():
    G, dpg = q8_dpg()
    assert dpg.core.members == (Q8_ONE, Q8_MINUS_ONE)
    assert quotient(G, dpg.g2)[0].order == 2
    assert quotient(G, dpg.g1)[0].order == 2


def test_z6_is_vacant_double_principal():
    G = cyclic(6)
    res = verify_double(G, subgroup_closure(G, {3}), subgroup_closure(G, {2}))
    assert res.ok
    assert len(res.dpg.core) == 1
    assert len(res.dpg.g1) * len(res.dpg.g2) == 6


def test_z4_same_subgroup_does_not_generate():
    G = cyclic(4)
    H = subgroup_closure(G, {2})
    res = verify_double(G, H, H)
    assert not res.ok
    assert res.failures[0]["kind"] == "NotGenerating"


# -- verify_ntuple --------------------------------------------------------------

def test_q8_triple_fails_with_named_trace():
    G = quaternion_group()
    subs = [subgroup_closure(G, {x}) for x in (Q8_I, Q8_J, Q8_K)]
    w = verify_ntuple(G, subs)
    assert not w.verdict
    # top level passes: all normal, union generates
    assert w.trace["failures"] == []
    # the sub-system (<i>; {±1}, {±1}) fails generation
    child = w.trace["children"][0]
    assert child["path"] == [0]
    assert child["group_order"] == 4
    assert child["subgroup_orders"] == [2, 2]
    assert any(f["kind"] == "NotGenerating" for f in child["failures"])


def _hyperplanes(k):
    # Z2^k with the k coordinate hyperplanes is k-tuple principal
    n = 2 ** k
    G = make_group([[a ^ b for b in range(n)] for a in range(n)])
    return G, [Subgroup(G, [x for x in range(n) if not x >> i & 1])
               for i in range(k)]


@pytest.mark.parametrize("k", [3, 4])
def test_pairwise_oracle_runs_each_unordered_pair_once(k, monkeypatch):
    import ntpg.ntuple
    import ntpg.principal
    G, subs = _hyperplanes(k)
    real = ntpg.ntuple.generates
    calls = []

    def counting(gamma, pair):
        calls.append(tuple(pair))
        return real(gamma, pair)

    def refuse(*args):
        raise AssertionError("the pair oracle called verify_double")

    monkeypatch.setattr(ntpg.ntuple, "generates", counting)
    monkeypatch.setattr(ntpg.principal, "verify_double", refuse)
    assert verify_ntuple(G, subs).verdict
    # k(k-1)/2 calls, one per unordered pair
    assert [tuple(map(subs.index, pair)) for pair in calls] == \
        [(i, j) for i in range(k) for j in range(i + 1, k)]


def test_pair_oracle_names_the_pair_it_refuses(monkeypatch):
    import ntpg.ntuple
    G, subs = _hyperplanes(3)
    real = ntpg.ntuple.generates

    def refuse_1_2(gamma, pair):
        if list(pair) == [subs[1], subs[2]]:
            return False
        return real(gamma, pair)

    monkeypatch.setattr(ntpg.ntuple, "generates", refuse_1_2)
    with pytest.raises(InternalInconsistency) as e:
        verify_ntuple(G, subs)
    assert e.value.report() == {
        "error": "InternalInconsistency",
        "message": "pair is not double principal despite n-tuple verdict",
        "details": {"pair": (1, 2)}}


def test_verify_double_builds_no_quotient(dpg_corpus, monkeypatch):
    import ntpg.principal
    real = ntpg.principal.quotient
    calls = []

    def counting(G, N):
        calls.append(N)
        return real(G, N)

    monkeypatch.setattr(ntpg.principal, "quotient", counting)
    for name, dpg in dpg_corpus:
        res = verify_double(dpg.gamma, dpg.g1, dpg.g2)
        assert res.ok, name
        dressing(res.dpg)
        quotients = res.dpg.report()["quotients"]
        assert calls == [], name
        core = len(res.dpg.core)
        assert quotients == [len(dpg.g1) // core, len(dpg.g2) // core], name
        # [G] = G/core is Γ/G' and [G'] = G'/core is Γ/G
        assert quotients == [quotient(dpg.gamma, dpg.g2)[0].order,
                             quotient(dpg.gamma, dpg.g1)[0].order], name


@pytest.mark.parametrize("k", [3, 4])
def test_verify_ntuple_builds_no_quotient(k, dpg_corpus, monkeypatch):
    import ntpg.actions
    import ntpg.groups

    def refuse(G, N):
        raise AssertionError("verify_ntuple built a quotient")

    monkeypatch.setattr(ntpg.actions, "quotient", refuse)
    for name, dpg in dpg_corpus:
        assert verify_ntuple(dpg.gamma, [dpg.g1, dpg.g2]).verdict, name
    G, subs = _hyperplanes(k)

    # every child level is a proper subgroup, read in G's own table
    def rebuild(*args):
        raise AssertionError("verify_ntuple rebuilt a group")

    for module in (ntpg.actions, ntpg.groups):
        monkeypatch.setattr(module, "_built_group", rebuild)
    monkeypatch.setattr(ntpg.actions, "subgroup_as_group", rebuild)
    w = verify_ntuple(G, subs)
    assert w.verdict
    assert w.trace["children"][0]["group_order"] == 2 ** k // 2


def test_verify_ntuple_builds_the_whole_group_once(monkeypatch):
    # one whole group per call, at the top level; the pair oracle needs none
    G, subs = _hyperplanes(4)
    whole = []
    validate = Subgroup._validate

    def counting(H):
        whole.append(len(H) == G.order)
        validate(H)

    monkeypatch.setattr(Subgroup, "_validate", counting)
    assert verify_ntuple(G, subs).verdict
    assert whole.count(True) == 1
    assert verify_double(G, subs[0], subs[1]).ok
    assert whole.count(True) == 2
    assert G.whole().members == tuple(range(G.order))


def test_single_full_subgroup_is_1_tuple():
    G = symmetric(3)
    w = verify_ntuple(G, [Subgroup(G, range(6))])
    assert w.verdict


def test_proper_subgroup_fails_1_tuple():
    G = cyclic(4)
    w = verify_ntuple(G, [subgroup_closure(G, {2})])
    assert not w.verdict


def test_ntuple_agrees_with_double(dpg_corpus):
    for name, dpg in dpg_corpus:
        w = verify_ntuple(dpg.gamma, [dpg.g1, dpg.g2])
        assert w.verdict, name


# -- vacancy --------------------------------------------------------------------

def test_z6_product_map_is_bijective():
    G = cyclic(6)
    dpg = verify_double(G, subgroup_closure(G, {3}),
                        subgroup_closure(G, {2})).dpg
    # oracle: the 2x3 product table covers Z6
    hit = {G.mul(a, b) for a in (0, 3) for b in (0, 2, 4)}
    assert hit == set(range(6))
    rep = vacancy(dpg)
    assert rep.vacant and rep.product_bijective and rep.fiber_size == 1


def test_q8_product_map_has_fiber_two():
    _, dpg = q8_dpg()
    rep = vacancy(dpg)
    assert not rep.vacant and not rep.product_bijective
    assert rep.fiber_size == 2


def test_whole_group_and_trivial_is_vacant():
    G = symmetric(3)
    dpg = verify_double(G, Subgroup(G, range(6)),
                        Subgroup(G, [G.identity])).dpg
    assert vacancy(dpg).vacant


# -- dressing ---------------------------------------------------------------------

def test_q8_dressing_of_i_by_j():
    G, dpg = q8_dpg()
    dr = dressing(dpg)
    # oracle: (-j) * i * j = -i in the quaternion table
    expected = G.mul(G.mul(G.inv(Q8_J), Q8_I), Q8_J)
    assert expected == Q8_MINUS_I
    assert dr.g_on[(Q8_I, Q8_J)] == Q8_MINUS_I


def test_abelian_dressing_is_trivial():
    G = cyclic(6)
    dpg = verify_double(G, subgroup_closure(G, {3}),
                        subgroup_closure(G, {2})).dpg
    dr = dressing(dpg)
    assert all(dr.g_on[(g, gp)] == g for (g, gp) in dr.g_on)
    assert all(dr.gp_on[(gp, g)] == gp for (gp, g) in dr.gp_on)


def test_dressing_laws_over_corpus(dpg_corpus):
    for name, dpg in dpg_corpus:
        dressing(dpg)  # raises on any law violation


def test_dressing_proves_both_actions_by_automorphisms(monkeypatch):
    # each dressing is one action proof, and one homomorphism proof per
    # product generator of the acting group; both factors are cyclic of
    # order 4, whose greedy generators are -1 and a square root of it
    with open(os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "docs", "examples",
            "q8_dpg.json")) as fh:
        data = json.load(fh)
    G = load_group(data["gamma"])
    dpg = verify_double(G, *(load_subgroup(G, s)
                             for s in data["subgroups"])).dpg
    proofs = []
    for cls in (FiniteAction, GroupHom):
        def counting(self, validate=cls._validate):
            proofs.append(type(self).__name__)
            validate(self)
        monkeypatch.setattr(cls, "_validate", counting)
    dressing(dpg)
    assert sorted(proofs) == ["FiniteAction"] * 2 + ["GroupHom"] * 4


# -- semidirect --------------------------------------------------------------------

def test_trivial_action_gives_direct_product():
    A, B = cyclic(2), cyclic(3)
    sd = semidirect(A, B, [list(range(3)), list(range(3))])
    assert sd.order == 6
    assert sd.is_abelian()


def test_inversion_action_gives_s3():
    A, B = cyclic(2), cyclic(3)
    act = [[0, 1, 2], [0, 2, 1]]  # the involution inverts Z3
    sd = semidirect(A, B, act)
    # oracle: the unique nonabelian group of order 6
    assert sd.order == 6
    assert not sd.is_abelian()


def test_twists_breaking_the_action_law_are_not_an_action():
    # each twist of Z3 by Z3 is an automorphism, but 1 inverts and 2 = 1*1
    # acts trivially, so x.(1*2) = x differs from (x.1).2 = -x
    with pytest.raises(NotAnAction):
        semidirect(cyclic(3), cyclic(3), [[0, 1, 2], [0, 2, 1], [0, 1, 2]])


def test_twist_that_is_not_an_automorphism_is_invalid():
    # swapping 1 and 2 of Z4 is an involution fixing 0, but 2 = 1+1 maps to
    # 1 while 1+1 maps to 2+2 = 0
    with pytest.raises(InvalidInput) as e:
        semidirect(cyclic(2), cyclic(4), [[0, 1, 2, 3], [0, 2, 1, 3]])
    assert str(e.value) == "map is not a homomorphism"
    assert e.value.details == {"pair": (1, 1)}


def test_semidirect_from_q8_dressing_has_order_16():
    _, dpg = q8_dpg()
    sd = semidirect_from_dressing(dpg)
    assert sd.order == 16


def test_semidirect_from_dressing_reifies_once_and_proves_once(monkeypatch):
    # G and G' are reified once each, and semidirect is the one proof of
    # the dressing of G by G', cyclic of order 4 with 2 product generators
    import ntpg.principal
    _, dpg = q8_dpg()
    calls = []
    for cls in (FiniteAction, GroupHom):
        def counting(self, validate=cls._validate):
            calls.append(type(self).__name__)
            validate(self)
        monkeypatch.setattr(cls, "_validate", counting)

    def reifying(H, reify=ntpg.principal.subgroup_as_group):
        calls.append("subgroup_as_group")
        return reify(H)
    monkeypatch.setattr(ntpg.principal, "subgroup_as_group", reifying)
    assert semidirect_from_dressing(dpg).order == 16
    assert sorted(calls) == ["FiniteAction"] + ["GroupHom"] * 2 + \
        ["subgroup_as_group"] * 2


# -- gamma_from_actions ---------------------------------------------------------------

def q8_translation_actions():
    G = quaternion_group()
    rho = right_translation_action(G, subgroup_closure(G, {Q8_I}))
    rho_prime = right_translation_action(G, subgroup_closure(G, {Q8_J}))
    return G, rho, rho_prime


def test_pipeline_on_q8():
    G, rho, rho_prime = q8_translation_actions()
    res = gamma_from_actions(8, rho, rho_prime)
    # oracle: kernel {(g', g'^-1) : g' in {±1}} has order 2; 16/2 = 8
    assert len(res.kernel) == 2
    assert res.gamma.order == 8
    assert res.m_size == 2 and res.m_prime_size == 2 and res.m0_size == 1
    assert not res.gamma.is_abelian()
    # rebuilt Γ equals the closure of the two translation images in Sym(P)
    gamma_perms = set(res.gamma_action.act)
    translations = {tuple(G.mul(x, g) for x in range(8)) for g in range(8)}
    assert gamma_perms == translations


def test_pipeline_checks_each_action_once(monkeypatch):
    import ntpg.principal
    from ntpg.actions import action_check
    G, rho, rho_prime = q8_translation_actions()
    calls = []

    def counting(a):
        calls.append(a)
        return action_check(a)

    monkeypatch.setattr(ntpg.principal, "action_check", counting)
    res = gamma_from_actions(8, rho, rho_prime)
    # rho, rho_prime and the induced gamma action, once each
    assert calls == [rho, rho_prime, res.gamma_action]


def test_pipeline_on_product_of_independent_translations():
    A, B = cyclic(2), cyclic(3)
    from ntpg.named import direct_product, product_factor_members
    P = direct_product(A, B)
    rho = right_translation_action(P, Subgroup(P, product_factor_members(A, B, 0)))
    rho_prime = right_translation_action(P, Subgroup(P, product_factor_members(A, B, 1)))
    res = gamma_from_actions(6, rho, rho_prime)
    assert res.gamma.order == 6
    assert len(res.kernel) == 1
    assert res.m0_size == 1


def test_pipeline_on_z4_with_equal_subgroups():
    G = cyclic(4)
    H = subgroup_closure(G, {2})
    rho = right_translation_action(G, H)
    rho_prime = right_translation_action(G, H)
    res = gamma_from_actions(4, rho, rho_prime)
    # oracle: direct enumeration of rho'_{g'} rho_g; kernel {(0,0),(2,2)}
    assert len(res.kernel) == 2
    assert res.gamma.order == 2


def test_pipeline_builds_gamma_without_the_semidirect_product(monkeypatch):
    import ntpg.principal

    def refuse(*args):
        raise AssertionError("the pipeline builds only Γ")

    monkeypatch.setattr(ntpg.principal, "semidirect", refuse)
    monkeypatch.setattr(ntpg.principal, "quotient", refuse)
    _, rho, rho_prime = q8_translation_actions()
    assert gamma_from_actions(8, rho, rho_prime).gamma.order == 8
    with open(os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "docs", "examples",
            "z2z3_pipeline.json")) as fh:
        data = json.load(fh)
    res = gamma_from_actions(data["points"], load_action(data["rho"]),
                             load_action(data["rho_prime"]))
    assert res.gamma.order == 6


def test_pipeline_on_unclosed_pair_permutations_is_a_library_bug(
        monkeypatch):
    import ntpg.principal
    # two fixed-point-free involutions of 6 points whose product has order
    # 3: no twist exists, and with the check bypassed the pair
    # permutations {e, a, b, b then a} miss a then b
    a = (1, 0, 3, 2, 5, 4)
    b = (5, 2, 1, 4, 3, 0)
    rho = FiniteAction(cyclic(2), 6, [tuple(range(6)), a])
    rho_prime = FiniteAction(cyclic(2), 6, [tuple(range(6)), b])
    with pytest.raises(NotCompatible):
        gamma_from_actions(6, rho, rho_prime)
    monkeypatch.setattr(ntpg.principal, "derive_twist",
                        lambda *args, **kw: {})
    with pytest.raises(InternalInconsistency, match="not closed"):
        gamma_from_actions(6, rho, rho_prime)


# -- check_compatibility -----------------------------------------------------------------

def test_normal_translations_are_compatible_both_ways():
    G, rho, rho_prime = q8_translation_actions()
    res = check_compatibility(8, rho, rho_prime)
    assert res.ok


def test_self_compatibility():
    G = quaternion_group()
    rho = right_translation_action(G, subgroup_closure(G, {Q8_I}))
    res = check_compatibility(8, rho, rho)
    assert res.ok


def test_non_free_action_raises():
    G = cyclic(4)
    rho = right_translation_action(G, subgroup_closure(G, {2}))
    # x -> -x on Z4 fixes 0, so it is not free
    neg = FiniteAction(cyclic(2), 4, [[0, 1, 2, 3], [0, 3, 2, 1]])
    with pytest.raises(NotFree):
        check_compatibility(4, rho, neg)


def test_incompatible_actions_report_direction():
    # S3 acting on itself by right translation vs, on the other side, an
    # action through a non-normal subgroup: translations by <s> where s is
    # a transposition are free but not compatible with the A3 gauge quotient
    G = symmetric(3)
    a3 = subgroup_closure(G, {a for a in range(6) if G.element_order(a) == 3})
    s = next(a for a in range(6) if G.element_order(a) == 2)
    h2 = subgroup_closure(G, {s})
    rho = right_translation_action(G, a3)
    rho_prime = right_translation_action(G, h2)
    res = check_compatibility(6, rho, rho_prime)
    assert not res.ok


def test_action_not_well_defined_on_orbits_names_element_and_arrow():
    # the swap (0 1)(2 3) normalises the rotations, but a rotation moves
    # (0, 0) and (1, 1), one arrow of the swap's gauge groupoid, to two
    rho = regular_action(cyclic(4))
    swap = FiniteAction(cyclic(2), 4, [[0, 1, 2, 3], [1, 0, 3, 2]])
    res = check_compatibility(4, rho, swap)
    assert not res.ok
    assert res.backward == {"reason": "action not well-defined on orbits",
                            "element": 1, "arrow": 0}


# -- morphisms, exactness ------------------------------------------------------------------

def test_identity_is_a_dpg_morphism():
    G, dpg = q8_dpg()
    ident = GroupHom(G, G, list(range(8)))
    assert dpg_morphism_check(ident, dpg, dpg)


def test_swapped_subgroups_is_not_a_morphism():
    G, dpg = q8_dpg()
    swapped = verify_double(G, dpg.g2, dpg.g1).dpg
    ident = GroupHom(G, G, list(range(8)))
    assert not dpg_morphism_check(ident, dpg, swapped)


def test_projection_to_quotient_is_a_morphism():
    G, dpg = q8_dpg()
    Q, proj = quotient(G, dpg.core)
    img1 = subgroup_closure(Q, {proj(m) for m in dpg.g1.members})
    img2 = subgroup_closure(Q, {proj(m) for m in dpg.g2.members})
    target = verify_double(Q, img1, img2).dpg
    assert dpg_morphism_check(proj, dpg, target)


def test_exact_sequence_over_corpus(dpg_corpus):
    for name, dpg in dpg_corpus:
        assert exact_sequence_check(dpg), name


def test_vacancy_equivalence_over_corpus(dpg_corpus):
    for name, dpg in dpg_corpus:
        rep = vacancy(dpg)
        assert rep.vacant == (len(dpg.core) == 1), name
        assert rep.fiber_size == len(dpg.core), name


def test_vacant_semidirect_is_isomorphic_to_gamma(dpg_corpus):
    # for vacant structures, (g', g) -> g' g is a bijective homomorphism
    # from the dressing semidirect product onto the ambient group
    for name, dpg in dpg_corpus:
        if len(dpg.core) != 1:
            continue
        S = semidirect_from_dressing(dpg)
        G = dpg.gamma
        to1 = list(dpg.g1.members)
        to2 = list(dpg.g2.members)
        phi = [G.mul(to2[gp], to1[g])
               for gp in range(len(to2)) for g in range(len(to1))]
        assert sorted(phi) == list(range(G.order)), name
        for a in range(S.order):
            for b in range(S.order):
                assert phi[S.table[a][b]] == G.mul(phi[a], phi[b]), name


# -- round trip: principal action of a DPG induces a double structure ----------

def _mulclose_perms(perms):
    els = set(perms)
    frontier = list(els)
    while frontier:
        nxt = []
        for a in frontier:
            for b in perms:
                c = tuple(b[x] for x in a)
                if c not in els:
                    els.add(c)
                    nxt.append(c)
        frontier = nxt
    return els


@pytest.mark.parametrize("case", ["q8", "z12"])
def test_theorem_restriction_roundtrip(case):
    if case == "q8":
        G, dpg = q8_dpg()
    else:
        G = cyclic(12)
        dpg = verify_double(G, subgroup_closure(G, {3}),
                            subgroup_closure(G, {2})).dpg
    r = regular_action(G)
    rho = restrict_action(r, dpg.g1)
    rho_prime = restrict_action(r, dpg.g2)
    assert check_compatibility(G.order, rho, rho_prime).ok
    res = gamma_from_actions(G.order, rho, rho_prime)
    rebuilt = set(res.gamma_action.act)
    generated = _mulclose_perms(set(rho.act) | set(rho_prime.act))
    assert rebuilt == generated
    assert res.gamma.order == len(generated)
