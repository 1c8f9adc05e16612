from fractions import Fraction

import pytest

from ntpg.errors import InvalidInput
from ntpg.fields import GF, QQ
from ntpg.poly import Poly

F3 = GF(3)


def _sample(field):
    # 2x + y/3 - 1 over Q; 2x + 2y + 2 over F3 (1/3 has no image there)
    y_coeff = Fraction(1, 3) if field is QQ else 2
    return (Poly.var(field, 2, 0, field.of(2))
            + Poly.var(field, 2, 1, field.of(y_coeff))
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
