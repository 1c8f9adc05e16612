"""Acceptance suite: one test per criterion, each printing a pass/fail line
and holding to its runtime budget.  All comparisons are exact; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from itertools import product

from conftest import build_dpg_corpus
from ntpg.actions import (FiniteAction, action_check, quotient,
                          right_translation_action, subgroup_as_group)
from ntpg.autgroups import aut_compose, aut_invert, enumerate_aut, verify_p54
from ntpg.cocycles import (Cocycle, CoverNerve, are_cohomologous,
                           associated_cocycle, check_cocycle,
                           standard_fibered_space)
from ntpg.fields import GF, QQ
from ntpg.graded import (PolyMap, check_compatible_structures, compose,
                         conjugate_structure, dilation, dilation_families,
                         invert, is_graded_morphism, t2_has_quadratic_term,
                         t2_transition, weight_components)
from ntpg.groupoids import (FiniteGroupoid, GroupoidAction,
                            build_from_morphism, gauge_groupoid,
                            multiplicative_function, pair_groupoid,
                            reconstruct_and_check, reduced_action, split)
from ntpg.groups import Subgroup, subgroup_closure
from ntpg.named import (Q8_I, Q8_J, Q8_K, cyclic, klein_four,
                        quaternion_group)
from ntpg.ntuple import verify_ntuple
from ntpg.poly import Poly
from ntpg.principal import (dressing, exact_sequence_check, gamma_from_actions,
                            vacancy, verify_double)
from ntpg.signature import GradedSignature
from sample import (random_graded_automorphism, random_polynomial,
                    random_scalar, random_weight_preserving_map)

F3 = GF(3)
SIG111 = GradedSignature.simple([1, 1, 1])
D111 = GradedSignature.double_vector(1, 1, 1)


def criterion(num, limit_s, desc):
    def deco(fn):
        def wrapper(*args, **kw):
            start = time.monotonic()
            try:
                fn(*args, **kw)
            except BaseException:
                print("ACCEPTANCE %2d: FAIL - %s" % (num, desc))
                raise
            elapsed = time.monotonic() - start
            print("ACCEPTANCE %2d: PASS (%.2fs < %ds) - %s"
                  % (num, elapsed, limit_s, desc))
            assert elapsed < limit_s, "runtime budget exceeded"
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@criterion(1, 1, "Q8 double/triple suite with named trace failure")
def test_criterion_01_q8_suite():
    G = quaternion_group()
    hi = subgroup_closure(G, {Q8_I})
    hj = subgroup_closure(G, {Q8_J})
    hk = subgroup_closure(G, {Q8_K})
    res = verify_double(G, hi, hj)
    assert res.ok
    assert len(res.dpg.core) == 2
    assert quotient(G, hj)[0].order == 2 and quotient(G, hi)[0].order == 2

    w = verify_ntuple(G, [hi, hj, hk])
    assert not w.verdict
    child = w.trace["children"][0]
    assert child["path"] == [0]
    assert child["group_order"] == 4            # the <i> subsystem
    assert child["subgroup_orders"] == [2, 2]   # both intersections are {±1}
    assert any(f["kind"] == "NotGenerating" for f in child["failures"])


@criterion(2, 1, "two-action pipeline on Q8 rebuilds the structure group")
def test_criterion_02_pipeline():
    G = quaternion_group()
    rho = right_translation_action(G, subgroup_closure(G, {Q8_I}))
    rho_prime = right_translation_action(G, subgroup_closure(G, {Q8_J}))
    res = gamma_from_actions(8, rho, rho_prime)
    assert res.gamma.order == 8
    assert action_check(res.gamma_action).is_free
    assert res.m_size == 2 and res.m_prime_size == 2 and res.m0_size == 1
    translations = {tuple(G.mul(x, g) for x in range(8)) for g in range(8)}
    assert set(res.gamma_action.act) == translations


@criterion(3, 10, "exact sequence kernel equals the core over the corpus")
def test_criterion_03_exactness():
    corpus = build_dpg_corpus()
    assert len(corpus) >= 10
    assert all(dpg.gamma.order <= 48 for _, dpg in corpus)
    for name, dpg in corpus:
        assert exact_sequence_check(dpg), name


@criterion(4, 10, "vacancy iff product map bijective, constant fibers")
def test_criterion_04_vacancy():
    for name, dpg in build_dpg_corpus():
        rep = vacancy(dpg)
        assert rep.vacant == (len(dpg.core) == 1), name
        assert rep.vacant == rep.product_bijective, name
        assert rep.fiber_size == len(dpg.core), name


@criterion(5, 10, "dressing laws and the mixed identity over the corpus")
def test_criterion_05_dressing():
    for name, dpg in build_dpg_corpus():
        dressing(dpg)   # raises InternalInconsistency on any law violation


@criterion(6, 30, "enumerated automorphism groups are 2-tuple principal")
def test_criterion_06_p54():
    rep3 = verify_p54(D111, GF(3))
    assert rep3.witness.verdict
    assert rep3.orders["gamma"] == 3 * (3 - 1) ** 3 == 24
    rep2 = verify_p54(D111, GF(2))
    assert rep2.witness.verdict
    assert rep2.orders["gamma"] == 2
    # normality is checked exhaustively inside, but assert once more
    for handle, subs in ((rep3.handle, rep3.orders["gi"]),):
        from ntpg.groups import is_normal
        for i in (1, 2):
            assert is_normal(handle.group, handle.gi_subgroup(i))


def _splitting_instances():
    out = []
    # gauge groupoid of Q8 over <i>, reduced diagonal <j> translations
    G = quaternion_group()
    H = subgroup_closure(G, {Q8_I})
    action = right_translation_action(G, H)
    gpd, labels = gauge_groupoid(8, action)
    K = subgroup_closure(G, {Q8_J})
    Kgrp, to_parent, _ = subgroup_as_group(K)
    rows = [[labels.pair_to_arrow[G.mul(p, to_parent[h]),
                                  G.mul(q, to_parent[h])]
             for (p, q) in labels.arrow_rep] for h in range(Kgrp.order)]
    out.append(reduced_action(GroupoidAction(
        gpd, FiniteAction(Kgrp, gpd.n_arrows, rows))))

    # gauge groupoid of the Klein group over one factor, translated by the other
    K4 = klein_four()
    h_fac = Subgroup(K4, [0, 1])
    gpd2, labels2 = gauge_groupoid(4, right_translation_action(K4, h_fac))
    g_fac = Subgroup(K4, [0, 2])
    Ggrp, to_p, _ = subgroup_as_group(g_fac)
    rows2 = [[labels2.pair_to_arrow[K4.mul(p, to_p[h]), K4.mul(q, to_p[h])]
              for (p, q) in labels2.arrow_rep] for h in range(Ggrp.order)]
    out.append(GroupoidAction(gpd2, FiniteAction(Ggrp, gpd2.n_arrows, rows2)))

    # built instances over pair groupoids: b(x, y) = c(x) c(y)^-1
    for n, Gf, c in ((2, cyclic(2), [0, 1]), (3, cyclic(3), [0, 2, 1]),
                     (2, cyclic(4), [1, 3])):
        base = pair_groupoid(n)
        b = [Gf.mul(c[p], Gf.inv(c[q])) for p in range(n) for q in range(n)]
        out.append(build_from_morphism(base, Gf, b))

    # a one-object base: the cyclic group as a groupoid, b a homomorphism
    Z4 = cyclic(4)
    base = FiniteGroupoid(1, [0] * 4, [0] * 4, [Z4.identity],
                          list(Z4.inverse),
                          {(a, b): Z4.table[a][b] for a in range(4)
                           for b in range(4)})
    out.append(build_from_morphism(base, cyclic(2), [0, 1, 0, 1]))
    return out


@criterion(7, 10, "splitting theorem and multiplicative-function round trip")
def test_criterion_07_splitting():
    instances = _splitting_instances()
    assert len(instances) >= 5
    for ga in instances:
        sp = split(ga)                       # bijection plus (i)-(iv)
        mf = multiplicative_function(sp)     # trivialized extraction + law
        reconstruct_and_check(mf)            # identity up to canonical iso


def _random_pairs(rng, field, sig, count):
    for _ in range(count):
        yield (random_weight_preserving_map(rng, field, sig),
               random_weight_preserving_map(rng, field, sig))


@criterion(8, 60, "graded algebra property battery, 500 pairs per property")
def test_criterion_08_graded_properties():
    rng = random.Random(2024)
    nabla = {field: dilation(SIG111, field).weight_vector_field()
             for field in (QQ, F3)}
    for field in (QQ, F3):
        # compose associativity
        for _ in range(500):
            f = random_weight_preserving_map(rng, field, SIG111, density=0.4)
            g = random_weight_preserving_map(rng, field, SIG111, density=0.4)
            h = random_weight_preserving_map(rng, field, SIG111, density=0.4)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))
        # invert round trip
        ident = PolyMap.identity(SIG111, field)
        for _ in range(500):
            f = random_graded_automorphism(rng, field, SIG111, density=0.4)
            finv = invert(f)
            assert compose(f, finv) == ident and compose(finv, f) == ident
        # derivation law for the weight vector field
        for _ in range(500):
            f = random_polynomial(rng, field, 3)
            g = random_polynomial(rng, field, 3)
            n = nabla[field]
            assert n.apply(f * g) == n.apply(f) * g + f * n.apply(g)
        # weight additivity of products
        for _ in range(500):
            f = random_polynomial(rng, field, 3)
            g = random_polynomial(rng, field, 3)
            cf = weight_components(f, SIG111)
            cg = weight_components(g, SIG111)
            conv = {}
            for wf, pf in cf.items():
                for wg, pg in cg.items():
                    cur = conv.get(wf + wg)
                    conv[wf + wg] = pf * pg if cur is None else cur + pf * pg
            conv = {w: p for w, p in conv.items() if not p.is_zero()}
            assert weight_components(f * g, SIG111) == conv
        # closure of graded morphisms under composition and inversion
        for _ in range(500):
            f = random_graded_automorphism(rng, field, SIG111, density=0.4)
            g = random_weight_preserving_map(rng, field, SIG111, density=0.4)
            assert is_graded_morphism(compose(f, g))
            assert is_graded_morphism(invert(f))
    # dilation monoid laws across the signature family (checked on build):
    # all simple signatures with weights up to 6, plus wide and multi ones
    checked = 0
    for dims in product(range(3), repeat=6):
        if sum(dims) == 0 or sum(dims) > 24:
            continue
        sig = GradedSignature.simple(list(dims))
        dilation(sig, QQ)
        checked += 1
    for dims in ([8, 8, 8], [4, 4, 4, 4, 4, 4], [24]):
        dilation(GradedSignature.simple(dims), QQ)
        checked += 1
    for d1 in range(3):
        for d2 in range(3):
            for d0 in range(3):
                if d1 + d2 + d0 == 0:
                    continue
                sig = GradedSignature.double_vector(d1, d2, d0)
                dilation_families(sig, F3)
                checked += 1
    assert checked > 500


@criterion(9, 30, "formal commutation agrees with the generator bracket")
def test_criterion_09_compat_agreement():
    rng = random.Random(99)
    sigs = [SIG111, GradedSignature.simple([2, 1]),
            GradedSignature.simple([1, 1])]
    agree = 0
    for k in range(200):
        sig = sigs[k % len(sigs)]
        h1 = dilation(sig, QQ)
        if k % 2 == 0:
            phi = random_graded_automorphism(rng, QQ, sig)
            h2 = conjugate_structure(dilation(sig, QQ), phi)
        else:
            # non-graded linear conjugation with an explicit exact inverse
            nv = sig.ncoords
            lower = [[QQ.one if i == j else
                      (random_scalar(rng, QQ) if i > j else QQ.zero)
                      for j in range(nv)] for i in range(nv)]
            from ntpg.fields import mat_inv
            inv_rows = mat_inv(QQ, lower)
            phi = PolyMap(sig, sig, QQ, [
                Poly(QQ, nv, {tuple(1 if c == j else 0 for c in range(nv)):
                              lower[i][j] for j in range(nv)})
                for i in range(nv)])
            phi_inv = PolyMap(sig, sig, QQ, [
                Poly(QQ, nv, {tuple(1 if c == j else 0 for c in range(nv)):
                              inv_rows[i][j] for j in range(nv)})
                for i in range(nv)])
            h2 = conjugate_structure(dilation(sig, QQ), phi, phi_inv)
        rep = check_compatible_structures([h1, h2])
        assert rep.agreement_enforced
        assert rep.commute == rep.bracket_commute
        agree += 1
    assert agree == 200


@criterion(10, 60, "frame/associated round trip and cohomology equivalence")
def test_criterion_10_cocycle_roundtrip():
    rng = random.Random(4242)
    handle = enumerate_aut(D111, F3)
    fibered = standard_fibered_space(handle)
    two = CoverNerve(2, [(0, 1)])
    three = CoverNerve.full(3)

    cocycles_corpus = []
    for k in range(20):
        if k % 2 == 0:
            a = handle.map_of(rng.randrange(handle.group.order))
            nerve, auts = two, {(0, 1): a}
        else:
            a = handle.map_of(rng.randrange(handle.group.order))
            b = handle.map_of(rng.randrange(handle.group.order))
            nerve = three
            auts = {(0, 1): a, (1, 2): b, (0, 2): aut_compose(a, b)}
        # frame: each automorphism as its index in the enumerated group
        principal_c = Cocycle(nerve, handle.group,
                              {p: handle.index_of(x) for p, x in auts.items()})
        ok, _ = check_cocycle(principal_c)
        assert ok
        associated_cocycle(principal_c, fibered)
        for (i, j) in nerve.ordered_pairs():
            aut = (auts[(i, j)] if (i, j) in auts
                   else aut_invert(auts[(j, i)]))
            assert handle.map_of(principal_c.value(i, j)) == aut
        cocycles_corpus.append(principal_c)

    # equivalence relation, per nerve
    for n_charts, take in ((2, 6), (3, 4)):
        batch = [c for c in cocycles_corpus if c.nerve.n == n_charts][:take]
        rel = [[are_cohomologous(x, y).cohomologous for y in batch]
               for x in batch]
        m = len(batch)
        for i in range(m):
            assert rel[i][i]
            for j in range(m):
                assert rel[i][j] == rel[j][i]
                for k in range(m):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]


@criterion(11, 1, "second-order tangent transition law, exact coefficients")
def test_criterion_11_t2():
    sig0 = GradedSignature.simple([], base=1)
    x = Poly.var(QQ, 1, 0)
    chart = PolyMap(sig0, sig0, QQ, [x + x * x])
    out = t2_transition(chart)
    assert out.components[0] == Poly(QQ, 3, {(1, 0, 0): 1, (2, 0, 0): 1})
    assert out.components[1] == Poly(QQ, 3, {(0, 1, 0): 1, (1, 1, 0): 2})
    assert out.components[2] == Poly(QQ, 3, {(0, 0, 1): 1, (1, 0, 1): 2,
                                             (0, 2, 0): 2})
    assert is_graded_morphism(out)
    assert t2_has_quadratic_term(out)   # fails any linearity claim
