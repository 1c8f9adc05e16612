"""Principal and associated bundles at the level of Čech cocycles.

Covers are abstract nerves (an overlap relation plus consistent triple
overlaps); the constructions only ever consume overlap combinatorics and
transition values.  Transition values multiply like functions: the cocycle
law is g_ij g_jk = g_ik with mul(a, b) meaning "apply b, then a".
"""

from itertools import product

from . import autgroups, fields, graded, poly
from .errors import (ActionIncompatibleWithFibration, InternalInconsistency,
                     InvalidInput, NotInvertibleChart, SearchCapExceeded)
from .groups import FiniteAction, descend

DEFAULT_SEARCH_CAP = 10 ** 6


class CoverNerve:
    """Chart indices with a symmetric overlap relation and triple overlaps."""

    __slots__ = ("n", "pairs", "triples")

    def __init__(self, n, pairs, triples=()):
        self.n = int(n)
        norm = set()
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInput("chart index out of range", pair=(i, j))
            if i != j:
                norm.add(frozenset((i, j)))
        self.pairs = frozenset(norm)
        tri = set()
        for t in triples:
            t = frozenset(int(x) for x in t)
            if len(t) != 3:
                raise InvalidInput("triple must have three distinct charts",
                                   triple=sorted(t))
            for pair in (frozenset(p) for p in
                         [(a, b) for a in t for b in t if a < b]):
                if pair not in self.pairs:
                    raise InvalidInput("triple overlap without pair overlap",
                                       triple=sorted(t), pair=sorted(pair))
            tri.add(t)
        self.triples = frozenset(tri)

    def ordered_pairs(self):
        out = []
        for p in self.pairs:
            i, j = sorted(p)
            out.extend([(i, j), (j, i)])
        return sorted(out)

    def ordered_triples(self):
        out = []
        for t in self.triples:
            a, b, c = sorted(t)
            for i, j, k in ((a, b, c), (a, c, b), (b, a, c), (b, c, a),
                            (c, a, b), (c, b, a)):
                out.append((i, j, k))
        return out

    @classmethod
    def full(cls, n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        triples = [(i, j, k) for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n)]
        return cls(n, pairs, triples)


# -- value operations ----------------------------------------------------------

class FiniteGroupOps:
    """Cocycle values are element indices of a finite group."""

    def __init__(self, group):
        self.group = group

    @property
    def one(self):
        return self.group.identity

    def mul(self, a, b):
        return self.group.table[a][b]

    def inv(self, a):
        return self.group.inverse[a]

    def key(self, a):
        return a

    def elements(self):
        return list(range(self.group.order))


class AutOps:
    """Cocycle values are graded-space automorphisms (exact coefficients),
    drawn from the enumerated automorphism group ``handle``."""

    def __init__(self, sig, field, handle):
        self.sig = sig
        self.field = field
        self.handle = handle

    @property
    def one(self):
        return autgroups.identity_automorphism(self.sig, self.field)

    def mul(self, a, b):
        return autgroups.aut_compose(a, b)

    def inv(self, a):
        return autgroups.aut_invert(a)

    def key(self, a):
        return a.key()

    def elements(self):
        return list(self.handle.elements)


class PermOps:
    """Cocycle values are permutations of a finite fiber, as image tuples."""

    def __init__(self, degree):
        self.degree = degree

    @property
    def one(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        # apply b, then a (function order, matching left actions)
        return tuple(a[b[x]] for x in range(self.degree))

    def inv(self, a):
        out = [0] * self.degree
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    def key(self, a):
        return a


class Cocycle:
    """Transition data over a nerve.

    Values are stored for every ordered overlap pair; if only one
    orientation is supplied the other defaults to the inverse.
    """

    __slots__ = ("nerve", "ops", "values")

    def __init__(self, nerve, ops, values):
        self.nerve = nerve
        self.ops = ops
        vals = {}
        for (i, j), v in values.items():
            if i == j:
                raise InvalidInput("diagonal values are implicitly identity",
                                   pair=(i, j))
            if frozenset((i, j)) not in nerve.pairs:
                raise InvalidInput("value on a non-overlapping pair",
                                   pair=(i, j))
            vals[(i, j)] = v
        for (i, j) in nerve.ordered_pairs():
            if (i, j) not in vals:
                if (j, i) not in vals:
                    raise InvalidInput("missing transition value", pair=(i, j))
                vals[(i, j)] = ops.inv(vals[(j, i)])
        self.values = vals

    def value(self, i, j):
        if i == j:
            return self.ops.one
        return self.values[(i, j)]


def check_cocycle(c):
    """The inverse and triple laws; returns (ok, witness naming the first
    failure).  The identity law holds by construction: value(i, i) is
    ops.one."""
    ops = c.ops
    for (i, j) in c.nerve.ordered_pairs():
        if not _eq(ops, ops.mul(c.value(i, j), c.value(j, i)), ops.one):
            return False, {"law": "inverse", "pair": (i, j)}
    for (i, j, k) in c.nerve.ordered_triples():
        lhs = ops.mul(c.value(i, j), c.value(j, k))
        if not _eq(ops, lhs, c.value(i, k)):
            return False, {"law": "triple", "triple": (i, j, k)}
    return True, None


def _eq(ops, a, b):
    return ops.key(a) == ops.key(b)


def require_cocycle(c):
    ok, witness = check_cocycle(c)
    if not ok:
        raise InvalidInput("transition data violates the cocycle laws",
                           **witness)


# -- fibered spaces -------------------------------------------------------------

class FiberedSpace:
    """A finite model fiber with a structure-group action and two quotients.

    ``perms[g]`` is the left-action permutation of the fiber points;
    ``transforms[g]`` is a richer representative of the same transformation
    (for the standard graded model, the automorphism itself), a value of
    ``value_ops``, used as the transition value of associated bundles.  The
    two projections rho and rho_prime are class maps; the distinguished
    subgroups must act inside their fibers and every group element must
    descend along both.
    """

    __slots__ = ("gamma", "g1", "g2", "npoints", "perms", "transforms",
                 "value_ops", "rho", "rho_prime", "rho_classes",
                 "rho_prime_classes")

    def __init__(self, gamma, g1, g2, npoints, perms, rho, rho_prime,
                 transforms, value_ops):
        self.gamma = gamma
        self.g1 = g1
        self.g2 = g2
        self.npoints = npoints
        self.perms = [tuple(p) for p in perms]
        self.rho = tuple(rho)
        self.rho_prime = tuple(rho_prime)
        self.transforms = transforms
        self.value_ops = value_ops
        self.rho_classes = max(rho) + 1
        self.rho_prime_classes = max(rho_prime) + 1
        self._validate()

    def _validate(self):
        FiniteAction(self.gamma, self.npoints, self.perms, side="left")
        for which, H, classes in (("first", self.g1, self.rho),
                                  ("second", self.g2, self.rho_prime)):
            for g in H.members:
                for x in range(self.npoints):
                    if classes[self.perms[g][x]] != classes[x]:
                        raise ActionIncompatibleWithFibration(
                            "%s subgroup leaves its fibers" % which,
                            element=g, point=x)

    def descend(self, g, classes):
        """The induced map on rho-classes (or rho_prime), checked."""
        out, _ = descend(classes, [classes[y] for y in self.perms[g]],
                         max(classes) + 1)
        if out is None:
            raise ActionIncompatibleWithFibration(
                "element does not descend to the quotient", element=g)
        return tuple(out)


class AssociatedBundle:
    __slots__ = ("fiber_cocycle", "rho_cocycle", "rho_prime_cocycle")

    def __init__(self, fiber_cocycle, rho_cocycle, rho_prime_cocycle):
        self.fiber_cocycle = fiber_cocycle
        self.rho_cocycle = rho_cocycle
        self.rho_prime_cocycle = rho_prime_cocycle


def associated_cocycle(c, fibered):
    """Turn a principal cocycle into fiber transition data.

    ``c`` is valued in element indices of the structure group of the
    fibered model itself.  The result carries the full fiber cocycle plus
    the two quotient cocycles of the double fibration, each re-verified,
    and the fiber transitions are checked to cover both quotient
    transitions.
    """
    require_cocycle(c)
    fiber_vals = {}
    rho_vals = {}
    rho_prime_vals = {}
    for (i, j) in c.nerve.ordered_pairs():
        g = c.value(i, j)
        if not 0 <= g < fibered.gamma.order:
            raise InvalidInput("transition value outside the structure group",
                               value=g)
        fiber_vals[(i, j)] = fibered.transforms[g]
        rho_vals[(i, j)] = fibered.descend(g, fibered.rho)
        rho_prime_vals[(i, j)] = fibered.descend(g, fibered.rho_prime)
        # the fiber transition covers both quotient transitions
        for x in range(fibered.npoints):
            if fibered.rho[fibered.perms[g][x]] != \
                    rho_vals[(i, j)][fibered.rho[x]]:
                raise InternalInconsistency("fiber map does not cover rho")
            if fibered.rho_prime[fibered.perms[g][x]] != \
                    rho_prime_vals[(i, j)][fibered.rho_prime[x]]:
                raise InternalInconsistency("fiber map does not cover rho'")

    fiber_c = Cocycle(c.nerve, fibered.value_ops, fiber_vals)
    rho_c = Cocycle(c.nerve, PermOps(fibered.rho_classes), rho_vals)
    rho_prime_c = Cocycle(c.nerve, PermOps(fibered.rho_prime_classes),
                          rho_prime_vals)
    for out in (fiber_c, rho_c, rho_prime_c):
        require_cocycle(out)
    return AssociatedBundle(fiber_c, rho_c, rho_prime_c)


def frame_cocycle(dvb, handle):
    """Reinterpret automorphism-valued transition data as a principal
    cocycle in the (enumerated) abstract automorphism group."""
    require_cocycle(dvb)
    vals = {}
    for (i, j) in dvb.nerve.ordered_pairs():
        aut = dvb.value(i, j)
        k = handle.index.get(aut.key())
        if k is None:
            raise InvalidInput("transition value outside the enumerated group",
                               pair=(i, j))
        vals[(i, j)] = k
    out = Cocycle(dvb.nerve, FiniteGroupOps(handle.group), vals)
    require_cocycle(out)
    return out


def standard_fibered_space(handle):
    """The model fiber of an enumerated double-space automorphism group:
    all coordinate tuples over F_p, with the y and y' projections.

    The action is the handle's point permutations, which the enumeration
    computed by evaluating every element on every point; points are
    numbered in ``product(range(p), repeat=m)`` order, as there.
    """
    sig, field = handle.sig, handle.field
    if sig.n != 2:
        raise InvalidInput("standard model needs a double grading")
    points = list(product(range(field.char), repeat=sig.ncoords))

    y_coords = sig.block_coords((1, 0))
    yp_coords = sig.block_coords((0, 1))

    def classes(coords):
        seen = {}
        out = []
        for p in points:
            lab = tuple(p[c] for c in coords)
            if lab not in seen:
                seen[lab] = len(seen)
            out.append(seen[lab])
        return out

    return FiberedSpace(handle.group,
                        handle.gi_subgroup(1), handle.gi_subgroup(2),
                        len(points), handle.perms,
                        classes(y_coords), classes(yp_coords),
                        transforms=handle.elements,
                        value_ops=AutOps(sig, field, handle))


class CohomologyResult:
    __slots__ = ("cohomologous", "witness", "searched")

    def __init__(self, cohomologous, witness, searched):
        self.cohomologous = cohomologous
        self.witness = witness
        self.searched = searched


def are_cohomologous(c1, c2, cap=DEFAULT_SEARCH_CAP):
    """Search for a family (λ_i) with g'_ij = λ_i g_ij λ_j^-1.

    As λ_j = g'_ji λ_i g_ij (g'_ji = g'_ij^-1), λ at the least chart of a
    nerve component fixes the rest, so the search tries |G| roots per
    component, in element order.  The least working roots form the first
    family in ``product`` order: the witness, with ``searched`` its 1-based
    rank, or |G|^charts when a component has none.  The cap still bounds
    |G|^charts, so the grid's refusals stand.
    """
    if c1.nerve.pairs != c2.nerve.pairs or c1.nerve.n != c2.nerve.n:
        raise InvalidInput("cocycles over different nerves")
    require_cocycle(c1)
    require_cocycle(c2)
    ops = c1.ops
    els = ops.elements()
    n = c1.nerve.n
    space = len(els) ** n
    if space > cap:
        try:
            str(space)
        except ValueError:  # more digits than the interpreter will print
            space = "%d**%d" % (len(els), n)
        raise SearchCapExceeded("coboundary search space exceeds cap",
                                space=space, cap=cap)
    index = {ops.key(x): k for k, x in enumerate(els)}
    nbrs = [[] for _ in range(n)]
    for (i, j) in c1.nerve.ordered_pairs():
        nbrs[i].append(j)

    def family(root, k):
        """λ on the root's component as element indices, from λ_root = k by
        BFS; None if an ordered pair fails or a value is off the grid."""
        vals, comp = {root: k}, [root]
        for i in comp:
            for j in nbrs[i]:
                v = index.get(ops.key(ops.mul(ops.mul(
                    c2.value(j, i), els[vals[i]]), c1.value(i, j))))
                if j not in vals:
                    comp.append(j)
                if v is None or vals.setdefault(j, v) != v:
                    return None
        return vals

    lam = {}
    for root in range(n):
        if root in lam:
            continue
        tries = (family(root, k) for k in range(len(els)))
        vals = next((v for v in tries if v is not None), None)
        if vals is None:
            return CohomologyResult(False, None, space)
        lam.update(vals)
    rank = sum(lam[i] * len(els) ** (n - 1 - i) for i in range(n))
    return CohomologyResult(True, [els[lam[i]] for i in range(n)], rank + 1)


def t2_transition(chart):
    """The second-order prolongation of a chart change.

    Input: a polynomial self-map of weight-0 coordinates with an invertible
    linear part at the origin.  Output: the graded transition on
    (x, xdot, xddot) with weights (0, 1, 2): velocities transform by the
    Jacobian, accelerations pick up the quadratic velocity correction from
    the second derivative.
    """
    sig0 = chart.sig_in
    if chart.sig_out != sig0 or sig0 != graded.GradedSignature.simple(
            [], base=sig0.ncoords):
        raise InvalidInput("chart change must be a self-map of weight-0 "
                           "coordinates")
    d = sig0.ncoords
    field = chart.field
    jac0 = [[chart.components[a].diff(b).eval((field.zero,) * d)
             for b in range(d)] for a in range(d)]
    if fields.mat_inv(field, jac0) is None:
        raise NotInvertibleChart("Jacobian at the origin is singular")

    sig = graded.GradedSignature.simple([d, d], base=d)
    nv = 3 * d
    x = [poly.Poly.var(field, nv, b) for b in range(nv)]
    lift = x[:d]

    comps = []
    for a in range(d):
        comps.append(chart.components[a].subs(lift))
    for a in range(d):
        acc = poly.Poly.zero(field, nv)
        for b in range(d):
            acc = acc + chart.components[a].diff(b).subs(lift) * x[d + b]
        comps.append(acc)
    for a in range(d):
        acc = poly.Poly.zero(field, nv)
        for b in range(d):
            acc = acc + chart.components[a].diff(b).subs(lift) * x[2 * d + b]
        for b in range(d):
            for cc in range(d):
                acc = acc + chart.components[a].diff(b).diff(cc).subs(lift) * \
                    x[d + b] * x[d + cc]
        comps.append(acc)
    out = graded.PolyMap(sig, sig, field, comps)
    if not graded.is_graded_morphism(out):
        raise InternalInconsistency("prolongation is not weight-graded")
    return out


def t2_has_quadratic_term(pm):
    """Does any acceleration component carry a velocity-quadratic term?"""
    sig = pm.sig_in
    d = sig.ncoords // 3
    for a in range(d):
        comp = pm.components[2 * d + a]
        for exps in comp.terms:
            if sum(exps[d:2 * d]) == 2:
                return True
    return False
