from fractions import Fraction

import pytest

from ntpg.errors import InvalidInput
from ntpg.fields import GF, QQ
from ntpg.poly import Poly

F3 = GF(3)


def _sample(field):
    # 2x + y/3 - 1 over Q; 2x + 2y + 2 over F3 (1/3 has no image there)
    y_coeff = Fraction(1, 3) if field is QQ else 2
    return (Poly.var(field, 2, 0).scale(2)
            + Poly.var(field, 2, 1).scale(y_coeff)
            - Poly.const(field, 2, 1))


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_pow_matches_repeated_multiplication(field):
    p = _sample(field)
    expect = Poly.const(field, 2, 1)
    for k in range(5):
        assert p ** k == expect, k
        expect = expect * p


def test_pow_rejects_negative_exponent():
    with pytest.raises(InvalidInput):
        _sample(QQ) ** -1


@pytest.mark.parametrize("exps", [(1.7, 0), (True, 0), ("1", 0)],
                         ids=["float", "bool", "str"])
def test_exponents_must_be_integers(exps):
    # int() would store (1.7, 0) as x^1
    with pytest.raises(InvalidInput, match="exponents must be integers"):
        Poly(QQ, 2, {exps: 1})


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_subs_matches_hand_expansion(field):
    # f = xy + 2x^2 + 3 at x = a + b, y = a - b:
    # (a + b)(a - b) + 2(a + b)^2 + 3 = 3a^2 + 4ab + b^2 + 3
    f = Poly(field, 2, {(1, 1): 1, (2, 0): 2, (0, 0): 3})
    a, b = Poly.var(field, 2, 0), Poly.var(field, 2, 1)
    expect = Poly(field, 2, {(2, 0): 3, (1, 1): 4, (0, 2): 1, (0, 0): 3})
    assert f.subs([a + b, a - b]) == expect
    if field is F3:
        # the a^2 and constant terms vanish mod 3
        assert expect == Poly(field, 2, {(1, 1): 1, (0, 2): 1})


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_subs_into_more_variables(field):
    # g = 2x^3 y - y at x = s, y = s + t (two to three variables)
    g = Poly(field, 2, {(3, 1): 2, (0, 1): -1})
    s, t = Poly.var(field, 3, 0), Poly.var(field, 3, 1)
    expect = Poly(field, 3, {(4, 0, 0): 2, (3, 1, 0): 2,
                             (1, 0, 0): -1, (0, 1, 0): -1})
    assert g.subs([s, s + t]) == expect
    assert Poly.const(field, 2, 5).subs([s, t]) == Poly.const(field, 3, 5)
    assert Poly.zero(field, 2).subs([s, t]) == Poly.zero(field, 3)


# -- F_p scalars are ints in 0..p-1 ---------------------------------------------

def _naive(terms, point, p):
    """Evaluate {exponents: integer coefficient} at an integer point mod p."""
    total = 0
    for exps, c in terms.items():
        v = c
        for x, k in zip(point, exps):
            v *= x ** k
        total += v
    return total % p


def _assert_reduced(f, p):
    assert all(type(c) is int and 0 <= c < p for c in f.terms.values()), f


@pytest.mark.parametrize("p", [3, 5])
def test_fp_results_are_reduced_ints_that_agree_pointwise(p):
    field = GF(p)
    # coefficients outside 0..p-1 on purpose: the constructor reduces them
    f_terms = {(2, 1): -1, (1, 0): 7, (0, 2): p + 2, (0, 0): -4}
    g_terms = {(1, 1): 2 * p - 1, (0, 1): -3, (3, 0): 1}
    f, g = Poly(field, 2, f_terms), Poly(field, 2, g_terms)
    x, y = Poly.var(field, 2, 0), Poly.var(field, 2, 1)
    h = x * y + y - 1
    results = {
        "add": (f + g, lambda a, b: a + b),
        "sub": (f - g, lambda a, b: a - b),
        "mul": (f * g, lambda a, b: a * b),
        "pow": (f ** 3, lambda a, b: a ** 3),
        "scale": (f.scale(-2), lambda a, b: -2 * a),
        "subs": (f.subs([g, h]), None),
    }
    dx = {(e[0] - 1, e[1]): c * e[0] for e, c in f_terms.items() if e[0]}
    dy = {(e[0], e[1] - 1): c * e[1] for e, c in f_terms.items() if e[1]}
    for r in [f, g, f.diff(0), f.diff(1)] + [r for r, _ in results.values()]:
        _assert_reduced(r, p)
    for point in [(a, b) for a in range(p) for b in range(p)]:
        fv, gv = _naive(f_terms, point, p), _naive(g_terms, point, p)
        assert f.eval(point) == fv and g.eval(point) == gv
        assert type(f.eval(point)) is int
        for name, (r, op) in results.items():
            expect = (f.eval((gv, h.eval(point))) if op is None
                      else op(fv, gv) % p)
            assert r.eval(point) == expect, (name, point)
        assert f.diff(0).eval(point) == _naive(dx, point, p)
        assert f.diff(1).eval(point) == _naive(dy, point, p)


def test_eval_is_logarithmic_in_the_degree():
    f = Poly(GF(5), 1, {(10 ** 9,): 1})
    assert f.eval((2,)) == pow(2, 10 ** 9, 5)
    assert Poly(QQ, 1, {(10 ** 9,): 3}).eval((Fraction(1),)) == 3


def test_polys_over_different_prime_fields_do_not_mix():
    f3, f5 = (Poly(GF(p), 2, {(1, 0): 1, (0, 1): 2}) for p in (3, 5))
    assert f3 != f5 and f3 != Poly(QQ, 2, {(1, 0): 1, (0, 1): 2})
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a.subs([b, b])):
        with pytest.raises(InvalidInput):
            op(f3, f5)


# (call, error class, message): refusals a library caller reaches
@pytest.mark.parametrize("call, error, message", [
    (lambda: Poly(QQ, 2, {(1,): 1}), InvalidInput,
     "exponent tuple has wrong length"),
    (lambda: Poly.var(QQ, 2, 0) + Poly.var(QQ, 3, 0), InvalidInput,
     "polynomials over different variable sets"),
    (lambda: Poly.var(QQ, 2, 0).subs([Poly.var(QQ, 2, 0)]), InvalidInput,
     "wrong number of substitution values"),
    (lambda: Poly.var(QQ, 2, 0).lift(1), InvalidInput,
     "cannot drop variables")],
    ids=["exponents", "variable-sets", "subs", "lift"])
def test_poly_refusals(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


def test_a_polynomial_never_equals_a_scalar():
    # no coercion on comparison: == with a non-Poly is NotImplemented
    assert (Poly.const(QQ, 1, 0) == 0) is False
    assert (Poly.const(F3, 1, 1) == 1) is False
