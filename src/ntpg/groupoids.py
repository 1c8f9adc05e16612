"""Finite groupoids with a group acting by groupoid automorphisms.

Arrows and objects are dense indices.  Composition follows the function
order: mul(g, h) is defined when src(g) == tgt(h) and the product runs
src(h) -> tgt(g).  The partial multiplication is kept in the row form of
``groups``: rows[g][pos[h]] is g*h, where pos[h] is h's place in
ending[tgt(h)], the arrows ending at tgt(h) in index order, so a product is
two index lookups and every scan over the pairs runs in index order, g
ascending, then h.

Validation is exhaustive at every size without touching every triple:
composability is counted per object, and associativity is proved by
Light's test on a product-generating set of arrows, as for groups and
actions in ``groups``.  A failure still names the first witness a scan
over all pairs or triples would find.

A ``GroupoidAction`` is a groupoid plus an arrow action its builder has
proved; nothing here proves an arrow action again.
"""

from collections import namedtuple
from itertools import chain, repeat

from .actions import FiniteAction, action_check, reduce_action
from .errors import (ActionNotFree, InternalInconsistency, InvalidInput,
                     NotCompatible, NotFree, NotMultiplicative, all_ints)
from .groups import _built, _built_group, _check_associative


class FiniteGroupoid:
    """Objects, arrows, src/tgt/id/inv and a partial multiplication."""

    __slots__ = ("n_objects", "n_arrows", "src", "tgt", "id", "inv", "rows",
                 "pos", "ending")

    def __init__(self, n_objects, src, tgt, id_, inv, mul):
        self.src, self.tgt = tuple(src), tuple(tgt)
        self.id, self.inv = tuple(id_), tuple(inv)
        if not all_ints(chain((n_objects,), self.src, self.tgt, self.id,
                              self.inv, chain.from_iterable(mul),
                              mul.values())):
            raise InvalidInput("groupoid entries must be integers")
        self.n_objects, self.n_arrows = n_objects, len(self.src)
        self._validate(mul)

    def _validate(self, mul):
        """Check every groupoid law, exhaustively, at every size.

        In order: array lengths and ranges, units, the ``mul`` keys, that
        the products are defined exactly on the composable pairs, their
        ranges and endpoints, the unit and inverse laws, then associativity.
        Composability is counted object by object.  Associativity is Light's
        test with the middle factor h taken from a product-generating set
        built from the units: the h with (gh)k = g(hk) for all composable g, k
        hold the units and are closed under products.  Each failure names
        its first witness (pair, arrow or triple) in index order, whatever
        the order of ``mul``.
        """
        n, m = self.n_objects, self.n_arrows
        src, tgt, id_ = self.src, self.tgt, self.id
        if len(tgt) != m or len(self.inv) != m or len(id_) != n:
            raise InvalidInput("groupoid arrays have inconsistent lengths")
        for a in range(m):
            if not (0 <= src[a] < n and 0 <= tgt[a] < n):
                raise InvalidInput("src/tgt out of range", arrow=a)
            if not 0 <= self.inv[a] < m:
                raise InvalidInput("inv out of range", arrow=a)
        for x in range(n):
            u = id_[x]
            if not 0 <= u < m or src[u] != x or tgt[u] != x:
                raise InvalidInput("id[x] is not an arrow at x", object=x)
        outside = [(g, h) for g, h in mul if not (0 <= g < m and 0 <= h < m)]
        if outside:
            raise InvalidInput("mul key out of range", pair=min(outside))
        # multiplication defined exactly on composable pairs: row g lists
        # g*k for the arrows k ending at src[g]
        ending, pos = [[] for _ in range(n)], []
        for k in range(m):
            pos.append(len(ending[tgt[k]]))
            ending[tgt[k]].append(k)
        try:
            rows = [tuple([mul[g, k] for k in ending[src[g]]])
                    for g in range(m)]
        except KeyError:
            rows = None
        if rows is None or len(mul) != sum(map(len, rows)):
            # the first pair in index order on which they disagree
            g, h = pair = min(set(mul).symmetric_difference(
                (g, k) for g in range(m) for k in ending[src[g]]))
            raise InvalidInput("missing product of composable pair"
                               if src[g] == tgt[h] else
                               "product defined on non-composable pair",
                               pair=pair)
        self.rows, self.pos = tuple(rows), tuple(pos)
        self.ending = tuple(map(tuple, ending))
        for (g, h), gh in self.products():
            if not 0 <= gh < m:
                raise InvalidInput("product out of range", pair=(g, h))
            if src[gh] != src[h] or tgt[gh] != tgt[g]:
                raise InvalidInput("product has wrong endpoints", pair=(g, h))
        for g, row in enumerate(rows):
            if row[pos[id_[src[g]]]] != g or rows[id_[tgt[g]]][pos[g]] != g:
                raise InvalidInput("units are not two-sided", arrow=g)
            gi = self.inv[g]
            if src[gi] != tgt[g] or tgt[gi] != src[g]:
                raise InvalidInput("inverse has wrong endpoints", arrow=g)
            if row[pos[gi]] != id_[tgt[g]] or rows[gi][pos[g]] != id_[src[g]]:
                raise InvalidInput("inverse law fails", arrow=g)
        _check_associative(rows, pos, id_, src, tgt, InvalidInput,
                           "associativity fails")

    @property
    def mul(self):
        """The products as a new dict {(g, h): g*h}, keys in index order."""
        return dict(self.products())

    def products(self):
        """((g, h), g*h) for every composable pair, g ascending, then h."""
        return chain.from_iterable(
            zip(zip(repeat(g), self.ending[self.src[g]]), row)
            for g, row in enumerate(self.rows))

    def vertex_group(self, x):
        """The group of arrows x -> x, as (FiniteGroup, arrow list)."""
        if not 0 <= x < self.n_objects:
            raise InvalidInput("object out of range", object=x)
        loop = [a for a in range(self.n_arrows)
                if self.src[a] == x and self.tgt[a] == x]
        index = {a: i for i, a in enumerate(loop)}
        at = [self.pos[b] for b in loop]
        return _built_group(len(loop), index[self.id[x]], lambda i: tuple(
            index[self.rows[loop[i]][p]] for p in at)), loop


def pair_groupoid(n):
    """The pair groupoid on n objects; arrow (p, q): q -> p coded p*n+q."""
    src = [q for p in range(n) for q in range(n)]
    tgt = [p for p in range(n) for q in range(n)]
    id_ = [p * n + p for p in range(n)]
    inv = [q * n + p for p in range(n) for q in range(n)]
    mul = {}
    for p in range(n):
        for q in range(n):
            for r in range(n):
                mul[(p * n + q, q * n + r)] = p * n + r
    return FiniteGroupoid(n, src, tgt, id_, inv, mul)


class GaugeLabels(namedtuple("GaugeLabels", "pair_to_arrow arrow_rep")):
    """Arrow labels of a gauge groupoid: pair (p, q) <-> arrow index."""

    __slots__ = ()

    def arrow(self, p, q):
        return self.pair_to_arrow[(p, q)]


def gauge_groupoid(set_size, action):
    """The quotient of the pair groupoid of P by a free diagonal action.

    Arrows are the orbits <p,q> of the diagonal action on P x P, labeled by
    their lexicographically least representative; objects are the point
    orbits.  src<p,q> = orbit(q), tgt<p,q> = orbit(p) and
    <p,q> . <q,r> = <p,r>.

    In closed form: the action is free, so the least pair of an orbit is
    the one pair <r_X, q> whose first point is r_X, the least point of its
    orbit X, and arrow X*|P| + q is <r_X, q>.  With c the coordinates of
    ``action_check``, r_Y.c[q] = q for the orbit Y of q, so
    <r_X, q> . <r_Y, s> = <r_X, q> . <q, s.c[q]> = arrow X*|P| + s.c[q].
    """
    if action.set_size != set_size:
        raise InvalidInput("action set size mismatch")
    rep = action_check(action)
    if not rep.is_free:
        g, x = rep.fixed
        raise ActionNotFree("point fixed by a non-identity element",
                            element=g, point=x)
    act, n, c = action.act, set_size, rep.coordinate
    point_orbit, object_rep = rep.orbit_of, [o[0] for o in rep.orbits]
    arrow_rep = [(r, q) for r in object_rep for q in range(n)]
    pair_to_arrow = {(row[p], row[q]): a
                     for a, (p, q) in enumerate(arrow_rep) for row in act}
    if len(pair_to_arrow) != n * n:
        raise InternalInconsistency("pair orbits of a free action are not all "
                                    "of size |G|")

    src = [point_orbit[q] for (p, q) in arrow_rep]
    tgt = [point_orbit[p] for (p, q) in arrow_rep]
    id_ = [pair_to_arrow[(r, r)] for r in object_rep]
    inv = [pair_to_arrow[(q, p)] for (p, q) in arrow_rep]
    mul = {(a, point_orbit[q] * n + s): a - q + act[c[q]][s]
           for a, (r, q) in enumerate(arrow_rep) for s in range(n)}
    gpd = _built(FiniteGroupoid, len(object_rep), src, tgt, id_, inv, mul)
    return gpd, GaugeLabels(pair_to_arrow, arrow_rep)


class GroupoidAction(namedtuple("GroupoidAction", "groupoid arrow_action")):
    """A right action of a group on the arrows of a groupoid: the groupoid
    and a proved ``FiniteAction``, which ``group`` and ``act`` read through.
    Building one checks only the action's set size against the arrows."""

    __slots__ = ()

    def __new__(cls, groupoid, arrow_action):
        if arrow_action.set_size != groupoid.n_arrows:
            raise InvalidInput("action set size is not the arrow count",
                               set_size=arrow_action.set_size,
                               arrows=groupoid.n_arrows)
        return super().__new__(cls, groupoid, arrow_action)

    @property
    def group(self):
        return self.arrow_action.group

    @property
    def act(self):
        return self.arrow_action.act


CompatReport = namedtuple("CompatReport",
                          "compatible witness kernel pre_principal "
                          "object_action arrow_report", defaults=(None,))
CompatReport.__doc__ = """``pre_principal``: G/kernel acts freely on the
arrows.  For a compatible action that decides the objects too: a g fixing
an object fixes its unit arrow, and a g fixing an arrow fixes its source.
``arrow_report`` is the ``action_check`` of the arrows."""


def _morphism_failure(source, target, arrow_map, object_map):
    """The first way the two maps fail to form a groupoid morphism, or None.

    Checked in this order: endpoints and inverses arrow by arrow, then
    products pair by pair.  Returns ("endpoints", a), ("inverse", a) or
    ("product", (a, b)).  Units need no check of their own: a map that
    keeps endpoints and products sends the unit at x to an idempotent loop
    at the image of x, and a groupoid's only idempotents are its units.
    """
    for a in range(source.n_arrows):
        fa = arrow_map[a]
        if target.src[fa] != object_map[source.src[a]] or \
                target.tgt[fa] != object_map[source.tgt[a]]:
            return "endpoints", a
        if target.inv[fa] != arrow_map[source.inv[a]]:
            return "inverse", a
    rows, pos = target.rows, target.pos
    for (a, b), ab in source.products():
        if rows[arrow_map[a]][pos[arrow_map[b]]] != arrow_map[ab]:
            return "product", (a, b)
    return None


def check_compatible(ga):
    """Is each act(., g) a groupoid automorphism covering an object map?

    Proved on the group's product generators: the g that pass are closed
    under products (the action law holds and morphisms compose), and every
    element below a generator is a product of earlier ones, so the first
    generator that fails is the first g that fails in index order.  Returns
    a CompatReport with the action kernel K, the induced object action, and
    the pre-principal verdict: G/K acts freely on the arrows (properness is
    automatic at finite scale).  K fixes every arrow, so an arrow's
    stabilizer is K exactly when, by orbit-stabilizer, its orbit has
    |G|/|K| arrows.
    """
    gpd, G = ga.groupoid, ga.group
    # the object map act(., g) covers, read off the units; None: no unit
    unit_of = {u: x for x, u in enumerate(gpd.id)}
    obj_rows = [[unit_of.get(row[u]) for u in gpd.id] for row in ga.act]
    for g in G.generators:
        if None in obj_rows[g]:
            return CompatReport(False, ("unit", g, obj_rows[g].index(None)),
                                None, False, None)
        failure = _morphism_failure(gpd, gpd, ga.act[g], obj_rows[g])
        if failure is not None:
            kind, where = failure
            return CompatReport(False, (kind, g, where), None, False, None)
    object_action = _built(FiniteAction, G, gpd.n_objects, obj_rows)

    arrow_report = action_check(ga.arrow_action)
    kernel = arrow_report.kernel
    pre_principal = all(len(o) * len(kernel) == G.order
                        for o in arrow_report.orbits)
    return CompatReport(True, None, kernel, pre_principal, object_action,
                        arrow_report)


def reduced_action(ga):
    """The induced GroupoidAction of G/K, where K is the kernel of the arrow
    action (the elements that fix every arrow)."""
    reduced = reduce_action(ga.arrow_action,
                            action_check(ga.arrow_action).kernel)
    return GroupoidAction(ga.groupoid, reduced)


QuotientResult = namedtuple("QuotientResult",
                            "groupoid arrow_map object_action object_report")


def quotient_groupoid(ga):
    """Quotient a groupoid by a free compatible action.

    Arrows and objects of the result are the G-orbits; arrow_map and the
    object report's orbit_of form the projection morphism, verified to
    intertwine src, tgt, units, inverses and products.  The induced action
    on objects comes with its ``action_check`` report.
    """
    report = check_compatible(ga)
    if not report.compatible:
        raise NotCompatible("action is not by groupoid automorphisms",
                            witness=report.witness)
    arep = report.arrow_report
    if not arep.is_free:
        raise NotFree("arrow action is not free", element=arep.fixed[0])

    gpd = ga.groupoid
    orep = action_check(report.object_action)
    arrow_map, object_map, c = arep.orbit_of, orep.orbit_of, orep.coordinate
    arrow_reps = [min(o) for o in arep.orbits]
    object_reps = [min(o) for o in orep.orbits]

    src0 = [object_map[gpd.src[a]] for a in arrow_reps]
    tgt0 = [object_map[gpd.tgt[a]] for a in arrow_reps]
    id0 = [arrow_map[gpd.id[x]] for x in object_reps]
    inv0 = [arrow_map[gpd.inv[a]] for a in arrow_reps]

    # g takes tgt b to src a: a g fixing an object fixes its unit arrow
    t, inv = ga.group.table, ga.group.inverse
    mul0 = {}
    for A, a in enumerate(arrow_reps):
        for B, b in enumerate(arrow_reps):
            if src0[A] != tgt0[B]:
                continue
            g = t[inv[c[gpd.tgt[b]]]][c[gpd.src[a]]]
            mul0[(A, B)] = arrow_map[gpd.rows[a][gpd.pos[ga.act[g][b]]]]
    gpd0 = _built(FiniteGroupoid, len(object_reps), src0, tgt0, id0, inv0,
                  mul0)

    # the projection must be a groupoid morphism (theory oracle)
    failure = _morphism_failure(gpd, gpd0, arrow_map, object_map)
    if failure is not None:
        raise InternalInconsistency("projection is not a groupoid morphism",
                                    witness=failure)
    return QuotientResult(gpd0, arrow_map, report.object_action, orep)


SplitPresentation = namedtuple("SplitPresentation",
                               "ga quotient fiber s_map t_action")
SplitPresentation.__doc__ = """The fiber-product presentation of a groupoid
with a free compatible action: its quotient, whose groupoid is the base and
whose object action is the unit bundle, and the extracted t-action."""


def split(ga):
    """Split a free compatible action through the fiber product.

    Verifies that y -> (pi(y), s(y)) is a bijection onto
    {(y0, x) : p(x) = sigma(y0)}, extracts the action y0.x of the base
    groupoid on the units, and asserts its four defining properties.  An
    action that is not compatible or not free raises NotCompatible or
    NotFree from ``quotient_groupoid``; once it has passed, the theory
    guarantees the bijection and the properties, so their failure raises
    InternalInconsistency, a library bug.
    """
    q = quotient_groupoid(ga)
    gpd, G = ga.groupoid, ga.group
    unit_action, object_map, base = (q.object_action,
                                     q.object_report.orbit_of, q.groupoid)

    fiber = [(y0, x) for y0 in range(base.n_arrows)
             for x in range(gpd.n_objects)
             if object_map[x] == base.src[y0]]
    s_map = {y: (q.arrow_map[y], gpd.src[y]) for y in range(gpd.n_arrows)}
    if len(set(s_map.values())) != gpd.n_arrows:
        raise InternalInconsistency("S is not injective")
    if set(s_map.values()) != set(fiber):
        raise InternalInconsistency("S is not onto the fiber product",
                                    expected=len(fiber), got=gpd.n_arrows)
    s_inv = {v: y for y, v in s_map.items()}
    t_action = {pair: gpd.tgt[s_inv[pair]] for pair in fiber}

    for (y0, x) in fiber:
        if object_map[t_action[(y0, x)]] != base.tgt[y0]:
            raise InternalInconsistency("property (i) fails",
                                        witness=(y0, x))
    for (y0, y0p), prod in base.products():
        for x in range(gpd.n_objects):
            if object_map[x] != base.src[y0p]:
                continue
            if t_action[(y0, t_action[(y0p, x)])] != t_action[(prod, x)]:
                raise InternalInconsistency("property (ii) fails",
                                            witness=(y0, y0p, x))
    for x in range(gpd.n_objects):
        if t_action[(base.id[object_map[x]], x)] != x:
            raise InternalInconsistency("property (iii) fails", witness=x)
    for (y0, x) in fiber:
        for g in range(G.order):
            xg = unit_action.act[g][x]
            if t_action[(y0, xg)] != unit_action.act[g][t_action[(y0, x)]]:
                raise InternalInconsistency("property (iv) fails",
                                            witness=(y0, x, g))
    return SplitPresentation(ga, q, fiber, s_map, t_action)


MultiplicativeFunction = namedtuple("MultiplicativeFunction",
                                    "split group b trivialization")
MultiplicativeFunction.__doc__ = """b : base groupoid -> G extracted from a
trivialized split."""


def multiplicative_function(split_):
    """Extract the multiplicative function b of the trivialized unit bundle.

    The units are identified with M0 x G through the least-index point r
    of each orbit, r.g -> (orbit of r, g): the orbit and the coordinate
    the quotient's ``action_check`` gives each unit.  The t-action must
    then take the form (y0, (sigma(y0), g)) -> (tau(y0), b(y0) g); b is
    read off at the section points and the multiplicative law
    b(y0)b(y0') = b(y0 y0') is asserted on all composable pairs.  Both
    follow from the split, so a failure raises InternalInconsistency, a
    library bug.
    """
    q = split_.quotient
    ua, rep, base = q.object_action, q.object_report, q.groupoid
    G = ua.group
    trivialization = list(zip(rep.orbit_of, rep.coordinate))
    section = [o[0] for o in rep.orbits]    # (X, g) is act[g][section[X]]

    b = [None] * base.n_arrows
    for y0 in range(base.n_arrows):
        X, g = trivialization[split_.t_action[(y0, section[base.src[y0]])]]
        if X != base.tgt[y0]:
            raise InternalInconsistency("t-action leaves the target fiber",
                                        arrow=y0)
        b[y0] = g
    # full form of the theorem: t(y0, (sigma(y0), g)) = (tau(y0), b(y0) g)
    for y0 in range(base.n_arrows):
        for g in range(G.order):
            x = ua.act[g][section[base.src[y0]]]
            expect = ua.act[G.table[b[y0]][g]][section[base.tgt[y0]]]
            if split_.t_action[(y0, x)] != expect:
                raise InternalInconsistency(
                    "t-action is not a left translation", witness=(y0, g))
    for (y0, y0p), prod in base.products():
        if G.table[b[y0]][b[y0p]] != b[prod]:
            raise InternalInconsistency("b(y0)b(y0') != b(y0 y0')",
                                        witness=(y0, y0p))
    return MultiplicativeFunction(split_, G, b, trivialization)


def build_from_morphism(base, group, b):
    """Build the G-groupoid base x^b G on objects M0 x G, as the
    GroupoidAction of G on it.

    s(y0, g) = (sigma(y0), g), t(y0, g) = (tau(y0), b(y0) g) and
    (y0, g1)(y0', g2) = (y0 y0', g2); the group acts on the second factor.
    Object (x0, g) is coded x0*|G| + g and arrow (y0, g) is y0*|G| + g.
    """
    if len(b) != base.n_arrows:
        raise InvalidInput("b has wrong length")
    for (y0, y0p), prod in base.products():
        if group.table[b[y0]][b[y0p]] != b[prod]:
            raise NotMultiplicative("b is not a groupoid morphism",
                                    witness=(y0, y0p))
    n = group.order
    n_objects = base.n_objects * n
    src, tgt, inv = [], [], []
    for y0 in range(base.n_arrows):
        for g in range(n):
            src.append(base.src[y0] * n + g)
            tgt.append(base.tgt[y0] * n + group.table[b[y0]][g])
            inv.append(base.inv[y0] * n + group.table[b[y0]][g])
    id_ = [base.id[x0] * n + g for x0 in range(base.n_objects)
           for g in range(n)]
    mul = {}
    for (y0, y0p), prod in base.products():
        for g2 in range(n):
            g1 = group.table[b[y0p]][g2]
            mul[(y0 * n + g1, y0p * n + g2)] = prod * n + g2
    gpd = _built(FiniteGroupoid, n_objects, src, tgt, id_, inv, mul)
    act = [[(a // n) * n + group.table[a % n][h] for a in range(gpd.n_arrows)]
           for h in range(n)]
    return GroupoidAction(gpd, _built(FiniteAction, group, gpd.n_arrows, act))


def reconstruct_and_check(mf):
    """Round trip: rebuild from (base, b) and check the canonical map
    y -> (pi(y), g-part of s(y)) is an equivariant groupoid isomorphism."""
    split_ = mf.split
    built = build_from_morphism(split_.quotient.groupoid, mf.group, mf.b)
    gpd = split_.ga.groupoid
    G = mf.group
    n = G.order
    triv = mf.trivialization

    def psi(y):
        y0 = split_.quotient.arrow_map[y]
        _, g = triv[gpd.src[y]]
        return y0 * n + g

    images = [psi(y) for y in range(gpd.n_arrows)]
    if sorted(images) != list(range(built.groupoid.n_arrows)):
        raise InternalInconsistency("round trip is not a bijection")
    failure = _morphism_failure(gpd, built.groupoid, images,
                                [X * n + g for X, g in triv])
    if failure is not None:
        raise InternalInconsistency("round trip is not a groupoid morphism",
                                    witness=failure)
    for g in range(n):
        for y in range(gpd.n_arrows):
            if images[split_.ga.act[g][y]] != built.act[g][images[y]]:
                raise InternalInconsistency("round trip not equivariant",
                                            element=g, arrow=y)
    return built
