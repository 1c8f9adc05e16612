"""Principal and associated bundles at the level of Čech cocycles.

Covers are abstract nerves (an overlap relation plus consistent triple
overlaps); the constructions only ever consume overlap combinatorics and
transition values.  Every cocycle is valued in one finite group, its values
element indices multiplied through the group's table: the cocycle law is
table[g_ij][g_jk] = g_ik.  Automorphism-valued input is read as a cocycle
in the enumerated automorphism group, whose table[a][b] is a after b.
"""

from collections import namedtuple
from itertools import chain, permutations

from . import actions, fields, graded, groups, poly, signature
from .errors import (ActionIncompatibleWithFibration, InternalInconsistency,
                     InvalidInput, NotInvertibleChart, SearchCapExceeded,
                     all_ints)

DEFAULT_SEARCH_CAP = 10 ** 6


class CoverNerve:
    """Chart indices with a symmetric overlap relation and triple overlaps."""

    __slots__ = ("n", "pairs", "triples")

    def __init__(self, n, pairs, triples=()):
        pairs, triples = list(pairs), list(triples)
        if not all_ints(chain((n,), chain.from_iterable(pairs),
                              chain.from_iterable(triples))):
            raise InvalidInput("nerve entries must be integers")
        self.n = n
        norm = set()
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInput("chart index out of range", pair=(i, j))
            if i != j:
                norm.add(frozenset((i, j)))
        self.pairs = frozenset(norm)
        tri = set()
        for t in triples:
            t = frozenset(t)
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
        """Every ordering of every triple overlap, in index order."""
        return sorted(p for t in self.triples for p in permutations(t))

    @classmethod
    def full(cls, n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        triples = [(i, j, k) for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n)]
        return cls(n, pairs, triples)


class Cocycle:
    """Transition data over a nerve, valued in one finite group.

    Values are element indices of ``group``, stored for every ordered
    overlap pair; if only one orientation is supplied the other is its
    inverse in the group.
    """

    __slots__ = ("nerve", "group", "values")

    def __init__(self, nerve, group, values):
        self.nerve = nerve
        self.group = group
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
                vals[(i, j)] = group.inverse[vals[(j, i)]]
        self.values = vals

    def value(self, i, j):
        if i == j:
            return self.group.identity
        return self.values[(i, j)]


def check_cocycle(c):
    """The inverse and triple laws; returns (ok, witness naming the first
    failure).  The identity law holds by construction: value(i, i) is the
    group's identity."""
    table = c.group.table
    for (i, j) in c.nerve.ordered_pairs():
        if table[c.value(i, j)][c.value(j, i)] != c.group.identity:
            return False, {"law": "inverse", "pair": (i, j)}
    for (i, j, k) in c.nerve.ordered_triples():
        if table[c.value(i, j)][c.value(j, k)] != c.value(i, k):
            return False, {"law": "triple", "triple": (i, j, k)}
    return True, None


def require_cocycle(c):
    ok, witness = check_cocycle(c)
    if not ok:
        raise InvalidInput("transition data violates the cocycle laws",
                           **witness)


# -- fibered spaces -------------------------------------------------------------

class FiberedSpace:
    """A finite model fiber with a structure-group action and one quotient
    per side.

    ``perms[g]`` is the left-action permutation of the fiber points.  Each
    side is a (subgroup, class map) pair, the class map a projection of the
    points: the subgroup must act inside its fibers and every group element
    must descend along it.  The first is proved on the subgroup's product
    generators: the members that keep every fiber form a subgroup, so the
    first member that leaves one is a generator.  ``side_perms[i][g]`` is
    the permutation g induces on the classes of side i, proved a left
    action too.
    """

    __slots__ = ("gamma", "perms", "side_perms")

    def __init__(self, gamma, npoints, perms, sides):
        self.gamma = gamma
        self.perms = [tuple(p) for p in perms]
        actions.FiniteAction(gamma, npoints, self.perms, side="left")
        for i, (H, classes) in enumerate(sides):
            for g in H.generators:
                for x in range(npoints):
                    if classes[self.perms[g][x]] != classes[x]:
                        raise ActionIncompatibleWithFibration(
                            "subgroup of side %d leaves its fibers" % i,
                            element=g, point=x)
        self.side_perms = [self._descend(classes) for _, classes in sides]

    def _descend(self, classes):
        """Every element's induced permutation of the classes, the least
        element that does not descend named."""
        n = max(classes) + 1
        out = []
        for g, perm in enumerate(self.perms):
            row, _ = actions.descend(classes, [classes[y] for y in perm], n)
            if row is None:
                raise ActionIncompatibleWithFibration(
                    "element does not descend to the quotient", element=g)
            out.append(tuple(row))
        # a left action that descends induces a left action on the classes
        groups._built(actions.FiniteAction, self.gamma, n, out, "left")
        return out


def associated_cocycle(c, fibered):
    """The quotient transitions of a principal cocycle, one
    {ordered pair: permutation of the classes} dict per side.

    ``c`` is valued in the structure group of the fibered model itself.
    Its value g on a pair acts on the fiber by ``perms[g]``, so the fiber
    transitions are c's values themselves, and on side i's quotient by
    ``side_perms[i][g]``.  Every quotient map is a left action, proved when
    the fibered space was built, so each side's transitions satisfy the
    cocycle laws with c.
    """
    if c.group is not fibered.gamma:
        raise InvalidInput("cocycle is not valued in the structure group")
    require_cocycle(c)
    pairs = c.nerve.ordered_pairs()
    return [{p: perms[c.value(*p)] for p in pairs}
            for perms in fibered.side_perms]


def standard_fibered_space(handle):
    """The model fiber of an enumerated automorphism group: all coordinate
    tuples over F_p, with one quotient fibration per grading.

    Side i projects onto the coordinates of degree e_{i+1} (the unit
    weight of grading i+1) with subgroup G^{i+1}, which fixes them.  The
    action is the handle's point permutations, which the enumeration
    computed by evaluating every element on the handle's ``points``.
    """
    sig, points = handle.sig, handle.points

    def classes(i):
        """Each point's class: its degree-e_{i+1} coordinates, numbered in
        order of first appearance."""
        coords = sig.block_coords(tuple(int(k == i) for k in range(sig.n)))
        seen = {}
        return [seen.setdefault(tuple(p[c] for c in coords), len(seen))
                for p in points]

    sides = [(handle.gi_subgroup(i + 1), classes(i)) for i in range(sig.n)]
    return groups._built(FiberedSpace, handle.group, len(points),
                         handle.perms, sides)


CohomologyResult = namedtuple("CohomologyResult",
                              "cohomologous witness searched")


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
    if c1.group is not c2.group:
        raise InvalidInput("cocycles valued in different groups")
    require_cocycle(c1)
    require_cocycle(c2)
    table, order = c1.group.table, c1.group.order
    n = c1.nerve.n
    space = order ** n
    if space > cap:
        try:
            str(space)
        except ValueError:  # more digits than the interpreter will print
            space = "%d**%d" % (order, n)
        raise SearchCapExceeded("coboundary search space exceeds cap",
                                space=space, cap=cap)
    nbrs = [[] for _ in range(n)]
    for (i, j) in c1.nerve.ordered_pairs():
        nbrs[i].append(j)

    def family(root, k):
        """λ on the root's component, from λ_root = k by BFS; None if an
        ordered pair fails."""
        vals, comp = {root: k}, [root]
        for i in comp:
            for j in nbrs[i]:
                v = table[table[c2.value(j, i)][vals[i]]][c1.value(i, j)]
                if j not in vals:
                    comp.append(j)
                if vals.setdefault(j, v) != v:
                    return None
        return vals

    lam = {}
    for root in range(n):
        if root in lam:
            continue
        tries = (family(root, k) for k in range(order))
        vals = next((v for v in tries if v is not None), None)
        if vals is None:
            return CohomologyResult(False, None, space)
        lam.update(vals)
    rank = sum(lam[i] * order ** (n - 1 - i) for i in range(n))
    return CohomologyResult(True, [lam[i] for i in range(n)], rank + 1)


def t2_transition(chart):
    """The second-order prolongation of a chart change.

    Input: a polynomial self-map of weight-0 coordinates with an invertible
    linear part at the origin.  Output: the graded transition on
    (x, xdot, xddot) with weights (0, 1, 2): velocities transform by the
    Jacobian, accelerations pick up the quadratic velocity correction from
    the second derivative.
    """
    sig0 = chart.sig_in
    if chart.sig_out != sig0 or sig0 != signature.GradedSignature.simple(
            [], base=sig0.ncoords):
        raise InvalidInput("chart change must be a self-map of weight-0 "
                           "coordinates")
    d = sig0.ncoords
    field = chart.field
    # partials[a][b] is the derivative of component a along coordinate b
    partials = [[f.diff(b) for b in range(d)] for f in chart.components]
    jac0 = [[df.eval((field.zero,) * d) for df in row] for row in partials]
    if fields.mat_inv(field, jac0) is None:
        raise NotInvertibleChart("Jacobian at the origin is singular")

    sig = signature.GradedSignature.simple([d, d], base=d)
    nv = 3 * d
    x = [poly.Poly.var(field, nv, b) for b in range(nv)]
    lift = x[:d]
    jac = [[df.subs(lift) for df in row] for row in partials]

    comps = [f.subs(lift) for f in chart.components]
    for a in range(d):
        acc = poly.Poly.zero(field, nv)
        for b in range(d):
            acc = acc + jac[a][b] * x[d + b]
        comps.append(acc)
    for a in range(d):
        acc = poly.Poly.zero(field, nv)
        for b in range(d):
            acc = acc + jac[a][b] * x[2 * d + b]
        for b in range(d):
            for cc in range(d):
                acc = acc + partials[a][b].diff(cc).subs(lift) * \
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
