"""The iterated tangent T^n of a chart change, against its theory oracles.

``graded.tangent`` builds T^nφ by Faà di Bruno's sum over set partitions,
and ``graded.t2_transition`` is T^2 on its diagonal.  The oracles:

* t2 is a functor: t2(φ∘ψ) = t2(φ)∘t2(ψ) under ``compose``, on random
  pairs over Q, F3, F5 and F7 with d <= 3 (a draw with a singular
  Jacobian at the origin is skipped);
* t2 is T^2 with x_{0} and x_{1} set to xdot and x_{0,1} to xddot;
* every T^nφ built here is a graded morphism of its multi signature;
* the chain rule T^n(φ∘g) = T^nφ∘T^ng holds on every jet φ of order n
  and each generator g of the jet group, which is enough: a map that
  respects every product with a generator respects every product;
* the fibre map of T^2φ at 0, for each jet φ over F3 and F5, is an element
  of the enumerated Aut(D111), found by ``index_of``;
* for p > n the jets and their fibre maps are equally many, the order of
  the jet group |GL(d, p)|·p^(d·Σ_{k=2..n} C(d+k-1, k)); for p <= n the
  fibre maps collapse, since the k-th derivative of x^k carries k!.

Run as a script, it checks the whole jet group at n = 2, d = 2 over F3
(34,992 jets, 48·3^6) and the functor on 2,000 random pairs, and exits 1
on any other count or any break:

    PYTHONPATH=src python tests/test_tangent.py
"""

import random
import sys
from itertools import product
from math import comb, prod

import pytest

from ntpg.autgroups import enumerate_aut
from ntpg.errors import InvalidInput, NotInvertibleChart
from ntpg.fields import GF, QQ, mat_inv
from ntpg.graded import (PolyMap, compose, is_graded_morphism, tangent,
                         t2_transition)
from ntpg.poly import Poly
from ntpg.signature import GradedSignature
from sample import random_invertible_matrix, random_scalar

FIELDS = (QQ, GF(3), GF(5), GF(7))


def chart(field, d, terms):
    """The chart change of d coordinates with the given (target,
    exponents, coefficient) terms."""
    sig = GradedSignature.simple([], base=d)
    return PolyMap.from_terms(sig, sig, field, terms)


def T(phi, n):
    """T^nφ, checked to be a graded morphism of its multi signature."""
    out = tangent(phi, n)
    assert is_graded_morphism(out)
    return out


def jet_group_order(n, d, p):
    """|GL(d, p)|·p^(d·Σ_{k=2..n} C(d+k-1, k)), the number of jets of order
    n at 0 of maps of F_p^d with φ(0) = 0 and an invertible linear part."""
    gl = prod(p ** d - p ** i for i in range(d))
    return gl * p ** (d * sum(comb(d + k - 1, k) for k in range(2, n + 1)))


def _units(d):
    return [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]


def _higher(n, d):
    """(target, exponents) of every monomial of degree 2..n."""
    return [(i, e) for i in range(d) for e in product(range(n + 1), repeat=d)
            if 2 <= sum(e) <= n]


def jets(n, d, field):
    """Every jet of order n at 0 with φ(0) = 0 over F_p, as a chart."""
    p, units, higher = field.char, _units(d), _higher(n, d)
    slots = [(i, e) for i in range(d) for e in units] + higher
    for mat in product(range(p), repeat=d * d):
        if mat_inv(field, [mat[r:r + d] for r in range(0, d * d, d)]) is None:
            continue
        for rest in product(range(p), repeat=len(higher)):
            yield chart(field, d, [(i, e, c) for (i, e), c
                                   in zip(slots, mat + rest) if c])


def generators(n, d, field):
    """Generators of the jet group: x_0 scaled by a primitive root and the
    transvections x_i -> x_i + x_j, which generate GL(d, p), and
    x_i -> x_i + x^e for each monomial x^e of degree 2..n."""
    p, units = field.char, _units(d)
    root = next(g for g in range(1, p)
                if len({g ** k % p for k in range(p - 1)}) == p - 1)
    ident = [(i, units[i], 1) for i in range(d)]
    gens = [chart(field, d, [(0, units[0], root)] + ident[1:])]
    gens += [chart(field, d, ident + [(i, units[j], 1)])
             for i in range(d) for j in range(d) if i != j]
    gens += [chart(field, d, ident + [(i, e, 1)]) for i, e in _higher(n, d)]
    return gens


def fibre_map(tn):
    """T^nφ on the fibre over x_∅ = 0, for φ(0) = 0: a map of the fibre
    signature, the multi signature without its base block."""
    sig = tn.sig_in
    d = len(sig.block_coords(sig.zero_weight()))
    fibre = GradedSignature.multi(sig.n, [bd for bd in sig.blocks
                                          if any(bd[0])])
    terms = [(c - d, e[d:], v) for c, f in enumerate(tn.components)
             if c >= d for e, v in f.terms.items() if not any(e[:d])]
    return PolyMap.from_terms(fibre, fibre, tn.field, terms)


def fibre_map_count(n, d, p):
    """(jets of order n over F_p^d, distinct fibre maps at 0 of their T^n)."""
    keys = [fibre_map(T(phi, n)).key() for phi in jets(n, d, GF(p))]
    return len(keys), len(set(keys))


def random_chart(rng, field, d):
    """A random invertible linear part plus terms of degree 0 to 2."""
    mat = random_invertible_matrix(rng, field, d)
    terms = [(i, e, mat[i][j]) for i in range(d)
             for j, e in enumerate(_units(d))]
    for _ in range(rng.randint(0, 3)):
        e = tuple(rng.choice((0, 0, 1, 2)) for _ in range(d))
        if sum(e) != 1 and sum(e) <= 2:
            terms.append((rng.randrange(d), e, random_scalar(rng, field)))
    return chart(field, d, terms)


def functor_breaks(rng, pairs):
    """The pairs (φ, ψ), out of ``pairs`` random draws with an invertible
    Jacobian at the origin, for which t2(φ∘ψ) != t2(φ)∘t2(ψ)."""
    breaks, checked = [], 0
    while checked < pairs:
        field, d = rng.choice(FIELDS), rng.randint(1, 3)
        phi, psi = random_chart(rng, field, d), random_chart(rng, field, d)
        try:
            lhs = t2_transition(compose(phi, psi))
        except NotInvertibleChart:
            continue
        checked += 1
        if lhs != compose(t2_transition(phi), t2_transition(psi)):
            breaks.append((phi, psi))
    return breaks


# -- T^n of one chart ---------------------------------------------------------

def test_t2_is_a_functor():
    assert functor_breaks(random.Random(0), 60) == []


def test_tangent_of_x_plus_x_squared():
    # x' = x + x^2, x'_S = (1 + 2x) x_S for |S| = 1, and
    # x'_{01} = (1 + 2x) x_{01} + 2 x_0 x_1
    t = T(chart(QQ, 1, [(0, (1,), 1), (0, (2,), 1)]), 2)
    assert t.sig_in == GradedSignature.multi(
        2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)], base=1)
    assert t.components[3] == Poly(QQ, 4, {(0, 0, 0, 1): 1, (1, 0, 0, 1): 2,
                                           (0, 1, 1, 0): 2})


def test_t2_is_tangent_2_on_its_diagonal():
    rng = random.Random(1)
    for field in FIELDS:
        for d in (1, 2):
            phi = random_chart(rng, field, d)
            try:
                t2 = t2_transition(phi)
            except NotInvertibleChart:
                continue
            t = T(phi, 2)
            v = [Poly.var(field, 3 * d, c) for c in range(3 * d)]
            diagonal = v[:d] + v[d:2 * d] + v[d:2 * d] + v[2 * d:]
            kept = list(range(2 * d)) + list(range(3 * d, 4 * d))
            assert [t.components[c].subs(diagonal) for c in kept] == \
                list(t2.components)


@pytest.mark.parametrize("n", [0, 5, -1, "2", 2.0, True])
def test_tangent_order_must_be_a_grading_count(n):
    with pytest.raises(InvalidInput):
        tangent(chart(QQ, 1, [(0, (1,), 1)]), n)


def test_tangent_refuses_a_singular_chart_and_too_many_coordinates():
    with pytest.raises(NotInvertibleChart):
        tangent(chart(QQ, 1, [(0, (2,), 1)]), 2)
    with pytest.raises(InvalidInput, match="too many coordinates"):
        tangent(chart(QQ, 2, [(0, (1, 0), 1), (1, (0, 1), 1)]), 4)


# -- the jet group ------------------------------------------------------------

@pytest.mark.parametrize("n, p", [(2, 3), (2, 5), (3, 5)])
def test_chain_rule_on_every_jet_and_generator(n, p):
    field = GF(p)
    gens = [(g, T(g, n)) for g in generators(n, 1, field)]
    for phi in jets(n, 1, field):
        t = T(phi, n)
        for g, tg in gens:
            assert T(compose(phi, g), n) == compose(t, tg)


@pytest.mark.parametrize("p, order", [(3, 24), (5, 320)])
def test_fibre_maps_of_t2_are_found_in_aut_d111(p, order):
    field = GF(p)
    handle = enumerate_aut(GradedSignature.double_vector(1, 1, 1), field)
    assert handle.group.order == order
    found = {handle.index_of(fibre_map(T(phi, 2)))
             for phi in jets(2, 1, field)}
    assert len(found) == jet_group_order(2, 1, p)


@pytest.mark.parametrize("n, d, p, count", [(2, 1, 3, 6), (2, 1, 5, 20),
                                            (3, 1, 5, 100)])
def test_fibre_maps_count_as_the_jet_group_for_p_above_n(n, d, p, count):
    assert jet_group_order(n, d, p) == count
    assert fibre_map_count(n, d, p) == (count, count)


@pytest.mark.parametrize("n, p, counts", [(2, 2, (2, 1)), (3, 3, (18, 6))])
def test_fibre_maps_collapse_for_p_at_most_n(n, p, counts):
    assert jet_group_order(n, 1, p) == counts[0]
    assert fibre_map_count(n, 1, p) == counts


if __name__ == "__main__":
    counts = fibre_map_count(2, 2, 3)
    print("n = 2, d = 2 over F3: %d jets, %d distinct fibre maps" % counts,
          flush=True)
    breaks = functor_breaks(random.Random(0), 2000)
    print("t2 functor: 2000 pairs, %d breaks" % len(breaks))
    expected = jet_group_order(2, 2, 3)
    if counts != (expected, expected) or breaks:
        sys.exit("expected %d jets and fibre maps, and no break" % expected)
