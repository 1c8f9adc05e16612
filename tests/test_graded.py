import random

import pytest

from ntpg.errors import InvalidInput, NotInvertible, SignatureMismatch
from ntpg.fields import GF, QQ
from ntpg.graded import (Derivation, GradedSignature, HomogeneityStructure,
                         PolyMap, check_compatible_structures, compose,
                         conjugate_structure, dilation, dilation_families,
                         invert, is_graded_morphism, is_homogeneous,
                         monomials_of_weight, triangular_inverse,
                         weight_components)
from ntpg.poly import Poly
from sample import (random_graded_automorphism, random_homogeneous,
                    random_polynomial, random_scalar,
                    random_weight_preserving_map)

SIG12 = GradedSignature.simple([1, 1])        # weights (1, 2)
SIG111 = GradedSignature.simple([1, 1, 1])    # weights (1, 2, 3)


def pmap(sig, field, comps):
    return PolyMap(sig, sig, field, comps)


def shear(field):
    """(y, z) -> (y, z + y^2) over weights (1, 2)."""
    y = Poly.var(field, 2, 0)
    z = Poly.var(field, 2, 1)
    return pmap(SIG12, field, [y, z + y * y])


# -- dilations ----------------------------------------------------------------

def test_dilation_of_12_signature():
    h = dilation(SIG12, QQ)
    # (y, z) -> (t y, t^2 z)
    assert h.components[0] == Poly(QQ, 3, {(1, 0, 1): 1})
    assert h.components[1] == Poly(QQ, 3, {(0, 1, 2): 1})


def test_dilation_at_one_is_identity():
    h = dilation(SIG111, QQ)
    assert h.at_one() == [Poly.var(QQ, 3, i) for i in range(3)]


def test_multi_dilation_families_commute():
    sig = GradedSignature.double_vector(1, 1, 1)
    h1, h2 = dilation_families(sig, QQ)
    # the (1,1) coordinate picks up t from family one and s from family two
    assert h1.components[2] == Poly(QQ, 4, {(0, 0, 1, 1): 1})
    assert h1.commutes_with(h2)
    assert check_compatible_structures([h1, h2]).commute


# -- compose / invert -----------------------------------------------------------

def test_invert_shear():
    f = shear(QQ)
    g = invert(f)
    # oracle: symbolic substitution check of the claimed inverse (y, z - y^2)
    y = Poly.var(QQ, 2, 0)
    z = Poly.var(QQ, 2, 1)
    claimed = pmap(SIG12, QQ, [y, z - y * y])
    assert compose(f, claimed) == PolyMap.identity(SIG12, QQ)
    assert g == claimed


def test_compose_with_identity():
    f = shear(QQ)
    assert compose(f, PolyMap.identity(SIG12, QQ)) == f
    assert compose(PolyMap.identity(SIG12, QQ), f) == f


def test_maps_over_different_fields_are_rejected():
    # a constant map substitutes nothing, so only the field check sees
    # that g is over another field
    F3, F5 = GF(3), GF(5)
    const = pmap(SIG12, F3, [Poly.const(F3, 2, 1), Poly.const(F3, 2, 2)])
    with pytest.raises(InvalidInput, match="different fields") as e:
        compose(const, PolyMap.identity(SIG12, F5))
    assert e.value.details == {"fields": ["F3", "F5"]}
    with pytest.raises(InvalidInput, match="different fields") as e:
        pmap(SIG12, F3, [Poly.var(F3, 2, 0), Poly.var(F5, 2, 1)])
    assert e.value.details == {"fields": ["F3", "F5"]}
    with pytest.raises(InvalidInput, match="different fields"):
        pmap(SIG12, QQ, shear(F3).components)


def test_compose_stays_weight_preserving_over_f3():
    rng = random.Random(7)
    F3 = GF(3)
    for _ in range(25):
        f = random_weight_preserving_map(rng, F3, SIG111)
        g = random_weight_preserving_map(rng, F3, SIG111)
        c = compose(f, g)
        # oracle: degree bookkeeping on every monomial
        for tgt, comp in enumerate(c.components):
            for exps in comp.terms:
                assert SIG111.monomial_weight(exps) == SIG111.weights[tgt]
        assert is_graded_morphism(c)


@pytest.mark.parametrize("mode, args", [
    ("simple", (["1"],)), ("simple", ([1.0],)), ("simple", ([1], True)),
    ("multi", (2, [((1, 0), "1")])), ("multi", (2, [(("1", 0), 1)])),
    ("multi", ("2", [((1, 0), 1)]))])
def test_signature_rejects_non_integers(mode, args):
    with pytest.raises(InvalidInput, match="must be an integer"):
        getattr(GradedSignature, mode)(*args)


@pytest.mark.parametrize("term", [(0, (1.0, 0), 1), (0.0, (1, 0), 1)],
                         ids=["exponent", "target"])
def test_polymap_terms_must_be_integers(term):
    # int() would read the exponent 1.0 as 1
    with pytest.raises(InvalidInput, match="must be integers"):
        PolyMap.from_terms(SIG12, SIG12, QQ, [term])


def test_signature_mismatch():
    f = shear(QQ)
    g = PolyMap.identity(SIG111, QQ)
    with pytest.raises(SignatureMismatch):
        compose(f, g)


def test_invert_rejects_singular_linear_block():
    y = Poly.var(QQ, 2, 0)
    f = pmap(SIG12, QQ, [y, Poly.zero(QQ, 2)])
    with pytest.raises(NotInvertible):
        invert(f)


def test_invert_rejects_non_graded():
    y = Poly.var(QQ, 2, 0)
    z = Poly.var(QQ, 2, 1)
    swap = pmap(SIG12, QQ, [z, y])
    with pytest.raises(NotInvertible):
        invert(swap)


def test_invert_handles_affine_base_block():
    # weights (0, 1): base coordinate x shifts, fiber scales by 2 with an
    # x-dependent correction of weight 1
    sig = GradedSignature.simple([1], base=1)
    x = Poly.var(QQ, 2, 0)
    v = Poly.var(QQ, 2, 1)
    f = pmap(sig, QQ, [x + 1, v.scale(2) + x * v])
    with pytest.raises(NotInvertible):
        invert(f)  # x-dependent linear block is out of scope
    g = pmap(sig, QQ, [x + 1, v.scale(2)])
    ginv = invert(g)
    assert compose(g, ginv) == PolyMap.identity(sig, QQ)


# -- homogeneity --------------------------------------------------------------------

def test_z_plus_y2_is_homogeneous_degree_2():
    f = Poly(QQ, 2, {(0, 1): 1, (2, 0): 1})
    assert is_homogeneous(f, SIG12, 2)
    assert list(weight_components(f, SIG12)) == [2]


def test_zero_is_homogeneous_of_every_degree():
    z = Poly.zero(QQ, 2)
    assert weight_components(z, SIG12) == {}
    assert is_homogeneous(z, SIG12, 1)
    assert is_homogeneous(z, SIG12, 5)


def test_mixed_weights_decompose():
    f = Poly(QQ, 2, {(1, 0): 1, (0, 1): 1})  # y + z
    comps = weight_components(f, SIG12)
    assert set(comps) == {1, 2}
    assert comps[1] == Poly(QQ, 2, {(1, 0): 1})
    assert comps[2] == Poly(QQ, 2, {(0, 1): 1})
    assert not is_homogeneous(f, SIG12, 1)


def test_weight_components_agree_with_formal_dilation():
    rng = random.Random(3)
    h = dilation(SIG111, QQ)
    for _ in range(20):
        f = random_polynomial(rng, QQ, 3, max_degree=4, n_terms=5)
        comps = weight_components(f, SIG111)
        # f ∘ h_t collected by powers of t reproduces the decomposition
        ys = [Poly.var(QQ, 4, i) for i in range(3)]
        ft = f.subs([h.components[i] for i in range(3)])
        by_t = {}
        for exps, c in ft.terms.items():
            w = exps[3]
            by_t.setdefault(w, {})[exps[:3]] = c
        assert set(by_t) == set(comps)
        for w, terms in by_t.items():
            assert terms == comps[w].terms


# -- weight vector field ----------------------------------------------------------

def test_nabla_detects_degree_2():
    f = Poly(QQ, 2, {(0, 1): 1, (2, 0): 1})  # z + y^2
    nabla = dilation(SIG12, QQ).weight_vector_field()
    assert nabla.apply(f) == f.scale(2)


def test_nabla_kills_constants():
    c = Poly.const(QQ, 2, 5)
    nabla = dilation(SIG12, QQ).weight_vector_field()
    assert nabla.apply(c).is_zero()


def test_euler_field_on_degree_one():
    sig = GradedSignature.simple([2])  # two coordinates of weight 1
    nabla = dilation(sig, QQ).weight_vector_field()
    f = Poly(QQ, 2, {(1, 1): 1})
    assert nabla.apply(f) == f.scale(2)


def test_nabla_eigenvalue_matches_homogeneity_over_q():
    rng = random.Random(11)
    nabla = dilation(SIG111, QQ).weight_vector_field()
    for w in (1, 2, 3, 4):
        f = random_homogeneous(rng, QQ, SIG111, (w,))
        assert nabla.apply(f) == f.scale(w)
        if not f.is_zero():
            assert is_homogeneous(f, SIG111, w)


def test_derivation_law():
    rng = random.Random(13)
    nabla = dilation(SIG111, QQ).weight_vector_field()
    for _ in range(30):
        f = random_polynomial(rng, QQ, 3)
        g = random_polynomial(rng, QQ, 3)
        assert nabla.apply(f * g) == nabla.apply(f) * g + f * nabla.apply(g)


# -- graded morphisms ---------------------------------------------------------------

def test_shear_is_graded_morphism():
    assert is_graded_morphism(shear(QQ))


def test_swap_is_not_graded():
    y = Poly.var(QQ, 2, 0)
    z = Poly.var(QQ, 2, 1)
    assert not is_graded_morphism(pmap(SIG12, QQ, [z, y]))


def test_linear_maps_between_degree_one_signatures_are_graded():
    sig = GradedSignature.simple([2])
    rng = random.Random(5)
    for _ in range(10):
        comps = [Poly(QQ, 2, {(1, 0): random_scalar(rng, QQ),
                              (0, 1): random_scalar(rng, QQ)})
                 for _ in range(2)]
        assert is_graded_morphism(pmap(sig, QQ, comps))


def test_graded_morphisms_closed_under_compose_and_invert():
    rng = random.Random(17)
    for _ in range(15):
        f = random_graded_automorphism(rng, QQ, SIG111)
        g = random_graded_automorphism(rng, QQ, SIG111)
        assert is_graded_morphism(compose(f, g))
        finv = invert(f)
        assert is_graded_morphism(finv)
        assert compose(f, finv) == PolyMap.identity(SIG111, QQ)
        assert compose(finv, f) == PolyMap.identity(SIG111, QQ)


def test_compose_associative():
    rng = random.Random(19)
    for _ in range(10):
        f = random_weight_preserving_map(rng, QQ, SIG12)
        g = random_weight_preserving_map(rng, QQ, SIG12)
        h = random_weight_preserving_map(rng, QQ, SIG12)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_weight_additivity_of_products():
    rng = random.Random(23)
    for _ in range(20):
        f = random_polynomial(rng, QQ, 3, max_degree=3)
        g = random_polynomial(rng, QQ, 3, max_degree=3)
        cf = weight_components(f, SIG111)
        cg = weight_components(g, SIG111)
        conv = {}
        for wf, pf in cf.items():
            for wg, pg in cg.items():
                prod = pf * pg
                if (wf + wg) in conv:
                    conv[wf + wg] = conv[wf + wg] + prod
                else:
                    conv[wf + wg] = prod
        conv = {w: p for w, p in conv.items() if not p.is_zero()}
        assert weight_components(f * g, SIG111) == conv


# -- compatibility of structures ---------------------------------------------------

def test_two_diagonal_scalings_are_compatible():
    sig = GradedSignature.double_vector(1, 1, 1)
    h1, h2 = dilation_families(sig, QQ)
    rep = check_compatible_structures([h1, h2])
    assert rep.commute and rep.bracket_commute and rep.agreement_enforced


def test_single_structure_is_vacuously_compatible():
    rep = check_compatible_structures([dilation(SIG12, QQ)])
    assert rep.commute and rep.bracket_commute


def test_conjugated_structure_verdicts_agree():
    # h1 the Euler structure on (y, z) both weight 1; h2 the (1,2) dilation
    # conjugated by the shear, which is a (1,2)-graded automorphism, so the
    # conjugation collapses and the two structures commute
    euler_sig = GradedSignature.simple([2])
    h1 = dilation(euler_sig, QQ)
    f = shear(QQ)
    h2 = conjugate_structure(dilation(SIG12, QQ), f)
    assert h2.components == dilation(SIG12, QQ).components
    rep = check_compatible_structures([h1, h2])
    assert rep.commute == rep.bracket_commute


def test_shear_conjugation_of_euler_still_commutes():
    # conjugating the Euler structure by the (1,2)-shear leaves a family
    # that still commutes with the (1,2) dilation; both criteria agree
    euler_sig = GradedSignature.simple([2])
    h2 = conjugate_structure(dilation(euler_sig, QQ), shear(QQ))
    h1 = dilation(SIG12, QQ)
    rep = check_compatible_structures([h1, h2])
    assert rep.commute and rep.bracket_commute


def test_noncommuting_conjugation_detected_both_ways():
    # conjugate the (1,2) dilation by the non-graded linear shear
    # (y, z) -> (y, y + z); the result does not commute with the original
    # dilation and both criteria say so
    y = Poly.var(QQ, 2, 0)
    z = Poly.var(QQ, 2, 1)
    phi = pmap(SIG12, QQ, [y, y + z])
    phi_inv = pmap(SIG12, QQ, [y, z - y])
    h1 = dilation(SIG12, QQ)
    h2 = conjugate_structure(h1, phi, phi_inv)
    rep = check_compatible_structures([h1, h2])
    assert not rep.commute
    assert not rep.bracket_commute


def test_randomized_conjugation_agreement():
    rng = random.Random(29)
    h1 = dilation(SIG111, QQ)
    for _ in range(20):
        phi = random_graded_automorphism(rng, QQ, SIG111)
        h2 = conjugate_structure(dilation(SIG111, QQ), phi)
        rep = check_compatible_structures([h1, h2])
        assert rep.agreement_enforced
        assert rep.commute == rep.bracket_commute


def test_dilation_laws_for_all_small_simple_signatures():
    # every simple signature with <= 3 weight levels and small dims
    for d1 in range(3):
        for d2 in range(3):
            for d3 in range(2):
                if d1 + d2 + d3 == 0:
                    continue
                sig = GradedSignature.simple([d1, d2, d3])
                dilation(sig, QQ)       # law check happens at construction
                dilation(sig, GF(3))


def test_monomial_enumeration():
    monos = monomials_of_weight(SIG12, (2,))
    assert set(monos) == {(0, 1), (2, 0)}
    monos3 = monomials_of_weight(SIG111, (3,))
    assert set(monos3) == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}


def test_monomials_leave_base_coordinates_out():
    # weight-0 coordinates only ever carry exponent 0, the zero target too
    simple = GradedSignature.simple([1, 1], base=2)      # weights 0, 0, 1, 2
    assert [monomials_of_weight(simple, (t,)) for t in range(5)] == [
        [(0, 0, 0, 0)],
        [(0, 0, 1, 0)],
        [(0, 0, 0, 1), (0, 0, 2, 0)],
        [(0, 0, 1, 1), (0, 0, 3, 0)],
        [(0, 0, 0, 2), (0, 0, 2, 1), (0, 0, 4, 0)]]
    multi = GradedSignature.multi(2, [((1, 0), 1), ((0, 1), 2), ((1, 1), 1)],
                                  base=1)
    assert multi.weights == ((0, 0), (1, 0), (0, 1), (0, 1), (1, 1))
    assert [monomials_of_weight(multi, t)
            for t in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]] == [
        [(0, 0, 0, 0, 0)],
        [(0, 1, 0, 0, 0)],
        [(0, 0, 0, 1, 0), (0, 0, 1, 0, 0)],
        [(0, 0, 0, 0, 1), (0, 1, 0, 1, 0), (0, 1, 1, 0, 0)],
        [(0, 0, 0, 2, 0), (0, 0, 1, 1, 0), (0, 0, 2, 0, 0)]]


def test_oversized_signature_is_rejected_before_allocating():
    import tracemalloc
    tracemalloc.start()
    try:
        for build in (lambda: GradedSignature.multi(2, [((1, 0), 10 ** 7)]),
                      lambda: GradedSignature.multi(10 ** 7, []),
                      lambda: GradedSignature.simple([], base=10 ** 7)):
            with pytest.raises(InvalidInput):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


SIG1 = GradedSignature.simple([1])                 # weight (1)
SIG1_BASE = GradedSignature.simple([1], base=1)   # weights (0, 1)
D11 = GradedSignature.multi(2, [((1, 0), 1), ((0, 1), 1)])


def _y(i, nvars=2):
    return Poly.var(QQ, nvars, i)


# (call, error class, message): refusals a library caller reaches that no
# other tier-1 test does
@pytest.mark.parametrize("call, error, message", [
    (lambda: GradedSignature("other", []), InvalidInput,
     "unknown signature mode"),
    (lambda: PolyMap(SIG12, SIG12, QQ, [_y(0)]), InvalidInput,
     "wrong number of components"),
    (lambda: PolyMap(SIG12, SIG12, QQ, [_y(0, 3), _y(1, 3)]), InvalidInput,
     "component over wrong variable count"),
    (lambda: PolyMap.from_terms(SIG12, SIG12, QQ, [(0, (1,), 1)]),
     InvalidInput, "exponent tuple has wrong length"),
    (lambda: is_graded_morphism(PolyMap(SIG12, D11, QQ, [_y(0), _y(1)])),
     SignatureMismatch, "mixed signature modes"),
    (lambda: triangular_inverse(PolyMap(SIG12, GradedSignature.simple([2]),
                                        QQ, [_y(0), _y(1)])),
     NotInvertible, "signatures have different block dimensions"),
    (lambda: triangular_inverse(pmap(SIG1_BASE, QQ, [_y(0) * _y(0), _y(1)])),
     NotInvertible, "base block is not affine"),
    (lambda: triangular_inverse(pmap(SIG12, QQ, [_y(0) + _y(1) * _y(1),
                                                 _y(1)])),
     NotInvertible, "block is not triangular"),
    (lambda: weight_components(_y(0, 3), D11), SignatureMismatch,
     "weight decomposition needs a simple signature"),
    (lambda: weight_components(_y(0, 3), SIG12), InvalidInput,
     "polynomial over wrong variable count"),
    (lambda: Derivation(QQ, 2, [_y(0)]), InvalidInput,
     "need one coefficient per variable"),
    (lambda: HomogeneityStructure(2, QQ, [_y(0, 3)]), InvalidInput,
     "wrong number of components"),
    (lambda: HomogeneityStructure(2, QQ, [_y(0), _y(1)]), InvalidInput,
     "component must use coords plus parameter"),
    (lambda: dilation(SIG12, QQ).commutes_with(dilation(SIG1, QQ)),
     SignatureMismatch, "structures on different coordinate sets"),
    (lambda: conjugate_structure(dilation(SIG12, QQ), PolyMap(
        SIG12, GradedSignature.simple([2]), QQ, [_y(0), _y(1)])),
     SignatureMismatch, "conjugation needs an endo-map"),
    (lambda: conjugate_structure(dilation(SIG1, QQ),
                                 PolyMap.identity(SIG12, QQ)),
     SignatureMismatch, "structure and map coordinate counts differ"),
    (lambda: conjugate_structure(dilation(SIG12, QQ),
                                 PolyMap.identity(SIG12, QQ),
                                 pmap(SIG12, QQ, [_y(0).scale(2), _y(1)])),
     NotInvertible, "supplied inverse fails the round trip"),
    (lambda: check_compatible_structures([]), InvalidInput,
     "need at least one structure"),
    (lambda: check_compatible_structures([dilation(SIG12, QQ),
                                          dilation(SIG1, QQ)]),
     SignatureMismatch, "structures on different coordinate sets")],
    ids=["mode", "components", "component-vars", "exponents", "mixed-modes",
         "block-dims", "affine", "triangular", "weights-mode",
         "weights-vars", "derivation", "family-components", "family-vars",
         "commutes-with", "endo-map", "conjugate-counts", "supplied-inverse",
         "no-structures", "structure-counts"])
def test_graded_refusals(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message
