"""Automorphism groups of multi-graded vector spaces and double affine
spaces over prime fields.

An automorphism of the model space is an invertible polynomial map whose
component of multi-degree sigma carries only monomials of weight exactly
sigma (products of one coordinate from each block of a decomposition of
sigma); that is precisely weight preservation for 0/1 multi-weights.  The
finite-field enumeration of all such maps is the brute-force oracle for the
n-tuple principal structure of these groups.

With 0/1 weights and no base coordinates every such map is multilinear, so
over F_p it is fixed by its values on the cube {0,1}^m.  The enumeration
therefore builds only the maps with invertible linear blocks, so its work
grows with |Aut| and not with the coefficient grid, stores each as a
permutation of the points of F_p^m, and builds the group table from these
permutations instead of composing polynomials.  Symbolic composition
stays the test oracle.

A validated automorphism is a plain ``graded.PolyMap`` of one of two
shapes: a model automorphism (weight exactly sigma) or an automorphism of
the trivial double affine space from ``make_affine_automorphism`` (weight
<= sigma componentwise).  The shape is read off the map, never stored.
Composition and inversion check that the result keeps every shape its
operands share.  The enumerated group addresses its elements by their
slot values only: ``AutGroupHandle.map_of`` builds one element's map and
``index_of`` finds a map by its coefficients on the slots.
"""

from bisect import bisect_left
from collections import namedtuple
from functools import cache
from itertools import product
from math import prod
from operator import eq

# read at call time, so that the aut commands run neither graded nor poly
from . import graded, ntuple, poly
from .errors import (EnumerationCapExceeded, IllegalMonomial,
                     InternalInconsistency, InvalidInput)
from .fields import mat_inv
from .groups import Subgroup, _built, _perm_group, _reader, intersect
from .signature import GradedSignature, monomials_of_weight

DEFAULT_ENUM_CAP = 10 ** 6


def _require_model_signature(sig):
    if sig.mode != "multi":
        raise InvalidInput("model signature must be multi-graded")
    if sig.block_coords(sig.zero_weight()):
        raise InvalidInput("model signature must have no base coordinates")


def _weight_le(a, b):
    return all(x <= y for x, y in zip(a, b))


def _validated(sig, field, terms, legal, message):
    """Check every slot against legal(monomial weight, target degree), then
    build the map; its triangular inverse proves it invertible."""
    terms = list(terms)
    for tgt, exps, _ in terms:
        if not 0 <= tgt < sig.ncoords:
            raise InvalidInput("target coordinate out of range", target=tgt)
        if len(exps) != sig.ncoords:
            raise InvalidInput("exponent tuple has wrong length",
                               target=tgt, exponents=list(exps))
        if not legal(sig.monomial_weight(exps), sig.weights[tgt]):
            raise IllegalMonomial(message, target=tgt, exponents=tuple(exps))
    pm = graded.PolyMap.from_terms(sig, sig, field, terms)
    graded.triangular_inverse(pm)
    return pm


def make_automorphism(sig, field, terms):
    """Validate coefficients against the degree decomposition and prove
    the map invertible.

    ``terms`` is an iterable of (target coordinate, exponent tuple,
    coefficient); a slot whose monomial weight differs from its target
    degree raises IllegalMonomial, a singular linear block NotInvertible.
    """
    _require_model_signature(sig)
    return _validated(sig, field, terms, eq,
                      "slot violates the degree decomposition")


def make_affine_automorphism(dims, field, terms):
    """Build a double affine automorphism for dims = (d, d', d0).

    ``terms`` as in make_automorphism; legal slots for a target of degree
    sigma are the monomials of weight <= sigma componentwise.
    """
    d, dp, d0 = dims
    sig = GradedSignature.double_vector(d, dp, d0)
    return _validated(sig, field, terms, _weight_le,
                      "slot outside the affine shape")


def aut_from_polymap(pm):
    """pm itself, once shown weight-preserving and invertible."""
    if not graded.is_graded_morphism(pm):
        raise IllegalMonomial("map is not weight-preserving")
    graded.triangular_inverse(pm)
    return pm


def _kept_shape(pm, operands, what):
    """Closure oracle: pm, which keeps every shape all operands have.

    Weight <= degree always holds; weight-exactness holds when every
    operand is weight-exact.
    """
    if graded.is_graded_morphism(pm):
        return pm
    sig = pm.sig_in
    if all(graded.is_graded_morphism(o) for o in operands) or not all(
            _weight_le(sig.monomial_weight(exps), pm.sig_out.weights[c])
            for c, f in enumerate(pm.components) for exps in f.terms):
        raise InternalInconsistency("%s left the automorphism shape" % what)
    return pm


def aut_compose(a, b):
    """a after b; the composite keeps every shape both operands have."""
    return _kept_shape(graded.compose(a, b), (a, b), "composite")


def aut_invert(a):
    return _kept_shape(graded.triangular_inverse(a), (a,), "inverse")


def is_statomorphism(a):
    """All linear parts equal to the identity; only mixed terms remain."""
    sig, field = a.sig_in, a.field
    nv = sig.ncoords
    for c in range(nv):
        w = sig.weights[c]
        coords = sig.block_coords(w)
        for b in coords:
            unit = tuple(1 if j == b else 0 for j in range(nv))
            coeff = a.components[c].terms.get(unit, field.zero)
            expect = field.one if b == c else field.zero
            if coeff != expect:
                return False
    return True


def gi_membership(a, i):
    """Does the automorphism act identically on the factor of degree e_i?

    i is 1-based; the condition is that the degree-e_i component is the
    identity projection.
    """
    sig, field = a.sig_in, a.field
    if not 1 <= i <= sig.n:
        raise InvalidInput("grading index out of range", i=i)
    eps = tuple(1 if k == i - 1 else 0 for k in range(sig.n))
    for c in sig.block_coords(eps):
        if a.components[c] != poly.Poly.var(field, sig.ncoords, c):
            return False
    return True


class AutGroupHandle(namedtuple("AutGroupHandle",
                                "sig field group slots values perms points")):
    """An enumerated automorphism group, addressed by slot values.

    ``slots`` is ``_slot_list(sig)``; ``values[k]`` holds element k's
    coefficient on each slot, and ``values`` is sorted, so element k is the
    k-th invertible point of the coefficient grid.  ``points`` lists F_p^m
    in code order: the point (x_0, ..., x_{m-1}) has code
    sum x_i p^(m-1-i), its position in ``product(range(p), repeat=m)``.
    ``perms[k]`` is element k evaluated on every point, as a permutation of
    point codes.  ``map_of`` builds one element's polynomial map and
    ``index_of`` finds a map's element; the distinguished subgroups are
    read off ``values``.
    """

    __slots__ = ()

    def map_of(self, k):
        """Element k's polynomial map."""
        terms = [(c, exps, v) for (c, exps, _), v
                 in zip(self.slots, self.values[k]) if v]
        return graded.PolyMap.from_terms(self.sig, self.sig, self.field, terms)

    def index_of(self, pm):
        """pm's element index, found by its coefficients on the slots.  The
        enumeration lists every map that make_automorphism accepts: both
        fill the same slots and test the same linear blocks.  A map with a
        term off the slots matches no element."""
        terms = [f.terms for f in pm.components]
        values = tuple(terms[c].get(exps, 0) for c, exps, _ in self.slots)
        k = bisect_left(self.values, values)
        if (k == len(self.values) or self.values[k] != values
                or sum(map(len, terms)) != len(values) - values.count(0)):
            raise InternalInconsistency("automorphism missing from the "
                                        "enumerated group")
        return k

    def _fixing(self, targets):
        """The elements whose linear slots with a target coordinate in
        targets hold the identity matrix."""
        slots = self.slots
        read = _reader([k for k, (c, _, linear) in enumerate(slots)
                        if linear and c in targets])
        ident = read([exps[c] for c, exps, _ in slots])
        return _built(Subgroup, self.group,
                      [k for k, values in enumerate(self.values)
                       if read(values) == ident])

    def gi_subgroup(self, i):
        """The elements that ``gi_membership`` accepts.  A component of
        degree e_i has only the linear slots of block e_i, so it is the
        identity projection exactly when those slots hold the identity."""
        sig = self.sig
        if not 1 <= i <= sig.n:
            raise InvalidInput("grading index out of range", i=i)
        eps = tuple(1 if k == i - 1 else 0 for k in range(sig.n))
        return self._fixing(set(sig.block_coords(eps)))

    def statomorphism_subgroup(self):
        """The elements that ``is_statomorphism`` accepts."""
        return self._fixing(range(self.sig.ncoords))


def _slot_list(sig):
    """All coefficient slots: (target, exponents), linear slots flagged."""
    slots = []
    for c in range(sig.ncoords):
        w = sig.weights[c]
        coords = sig.block_coords(w)
        for exps in monomials_of_weight(sig, w):
            linear = sum(exps) == 1 and any(exps[b] for b in coords)
            slots.append((c, exps, linear))
    return slots


def enumerate_aut(sig, field, cap=DEFAULT_ENUM_CAP):
    """Enumerate every automorphism of the model over F_p.

    The maps are the grid points whose linear blocks are invertible
    (sufficient, by triangularity).  They are built, not filtered: each
    block dimension's invertible matrices, listed once, times the values of
    the free slots, sorted into grid order.  The work grows with |Aut|;
    ``cap`` still bounds the p^slots grid.  Each map is stored as its
    permutation of the p^m points of F_p^m, a sum of cached per-coordinate
    digit columns.  ``groups._perm_group`` builds the table from them,
    keyed on the cube {0,1}^m.  The cube tells the maps apart, composites
    included: the model has no base coordinates and 0/1 weights, so every
    weight-preserving map is multilinear, and a multilinear map over F_p is
    fixed by its values on the cube (Moebius inversion).  The handle
    keeps the slots and each map's slot values; a polynomial map is built
    only for an element that is asked for.
    """
    _require_model_signature(sig)
    if field.char == 0:
        raise InvalidInput("enumeration needs a finite field")
    slots = _slot_list(sig)
    p, m = field.char, sig.ncoords
    grid = p ** len(slots)
    if grid > cap:
        raise EnumerationCapExceeded("coefficient grid exceeds cap",
                                     grid=grid, cap=cap)
    slots_of = [[k for k, (c, _, _) in enumerate(slots) if c == t]
                for t in range(m)]

    # choices[k] lists the values of the slots at where[k]: a block's
    # invertible matrices row by row (all rows list their linear slots in
    # one column order, so the columns are at most permuted), or one free
    # slot's values
    invertible, choices, where = {}, [], []
    for w, d in sig.blocks:
        if d not in invertible:
            invertible[d] = [
                mat for mat in product(range(p), repeat=d * d)
                if mat_inv(field, [mat[r:r + d] for r in range(0, d * d, d)])
                is not None]
        choices.append(invertible[d])
        where += [k for c in sig.block_coords(w) for k in slots_of[c]
                  if slots[k][2]]
    free = [k for k, slot in enumerate(slots) if not slot[2]]
    choices += [[(v,) for v in range(p)]] * len(free)
    where += free
    to_grid = _reader(sorted(range(len(slots)), key=where.__getitem__))
    kept = sorted(to_grid(sum(pick, ())) for pick in product(*choices))

    # each slot's monomial on every point, points in code order
    points = list(product(range(p), repeat=m))
    monomials = [[prod(x ** e for x, e in zip(pt, exps)) for pt in points]
                 for _, exps, _ in slots]

    @cache
    def digits(t, values):
        # coordinate t's digit column, from the values of its slots
        col = [0] * len(points)
        for k, v in zip(slots_of[t], values):
            if v:
                col = [a + v * b for a, b in zip(col, monomials[k])]
        return [a % p * p ** (m - 1 - t) for a in col]

    reads = [_reader(ks) for ks in slots_of]
    perms = [tuple(map(sum, zip(*(digits(t, read(values))
                                  for t, read in enumerate(reads)))))
             for values in kept]

    cube = [sum(b * p ** (m - 1 - i) for i, b in enumerate(bits))
            for bits in product((0, 1), repeat=m)]
    group = _perm_group(perms, cube)
    return AutGroupHandle(sig, field, group, slots, kept, perms, points)


P54Report = namedtuple("P54Report", "handle witness orders")


def verify_p54(sig, field, cap=DEFAULT_ENUM_CAP):
    """Enumerate Aut over F_p and verify the n-tuple principal structure
    with the distinguished subgroups G^i (identical on the degree-e_i
    factor).  Reports every order, including pairwise intersections."""
    handle = enumerate_aut(sig, field, cap)
    G = handle.group
    subs = [handle.gi_subgroup(i) for i in range(1, sig.n + 1)]
    witness = ntuple.verify_ntuple(G, subs)
    orders = {"gamma": G.order,
              "gi": [len(s) for s in subs],
              "intersections": {}}
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            orders["intersections"]["%d,%d" % (i + 1, j + 1)] = \
                len(intersect(subs[i], subs[j]))
    return P54Report(handle, witness, orders)


def forget_linear(a):
    """Drop all lower-degree terms, keeping the weight-exact part.

    The result is an automorphism of the underlying double vector space and
    the assignment is a group homomorphism.
    """
    sig, field = a.sig_in, a.field
    kept = []
    for c, f in enumerate(a.components):
        target = sig.weights[c]
        for exps, coeff in f.terms.items():
            if sig.monomial_weight(exps) == target:
                kept.append((c, exps, coeff))
    return make_automorphism(sig, field, kept)
