"""Homomorphisms, quotients and the one action toolkit, on ``groups``.

``FiniteAction`` is the only check of the action law, proved on the
group's product generators as ``GroupHom`` proves a homomorphism;
``action_check`` gives the kernel, the orbits, the first fixed point and
the coordinates, deciding freeness from orbit sizes by the
orbit-stabilizer theorem; x = r.c[x] for c the coordinates and r the least
point of the orbit of x, so a free action takes x to y in its orbit by
c[x]^-1 c[y] alone.  ``descend`` gives the map a function induces on
classes, or the first point where it does not pass to them.
"""

from collections import namedtuple
from itertools import chain

from .errors import (InternalInconsistency, InvalidInput, NotAnAction,
                     NotNormal, ParentMismatch, all_ints)
from .groups import Subgroup, _built, _built_group, _reader, normality_witness


class GroupHom:
    """A homomorphism as an image array, validated on construction.

    Cost: |G|*|gens| lookups, map(a*g) = map(a)*map(g) for every a and each
    product generator g of the source: with e -> e, the b that pass for every
    a are closed under products.  On failure every pair is rescanned in
    index order, so the report names the first.  An image that is not an
    integer (``is_int``) is an input error.
    """

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.map = tuple(images)
        if not all_ints(self.map):
            raise InvalidInput("images must be integers")
        self._validate()

    def _validate(self):
        if len(self.map) != self.source.order:
            raise InvalidInput("image array has wrong length")
        for x in self.map:
            if not 0 <= x < self.target.order:
                raise InvalidInput("image out of range", value=x)
        if self.map[self.source.identity] != self.target.identity:
            raise InvalidInput("identity not mapped to identity")
        m, s, t = self.map, self.source.table, self.target.table
        if all(m[row[g]] == t[m[a]][m[g]]
               for a, row in enumerate(s) for g in self.source.generators):
            return
        pair = next((a, b) for a, row in enumerate(s)
                    for b, ab in enumerate(row) if m[ab] != t[m[a]][m[b]])
        raise InvalidInput("map is not a homomorphism", pair=pair)

    def __call__(self, a):
        return self.map[a]

    def kernel(self):
        e = self.target.identity
        return _built(Subgroup, self.source,
                      [a for a, x in enumerate(self.map) if x == e])

    def is_surjective(self):
        return len(set(self.map)) == self.target.order


def quotient(G, N):
    """Quotient by a normal subgroup.

    Cosets are labeled by their least element index; returns the quotient
    group together with the projection homomorphism.
    """
    w = normality_witness(G, N)
    if w is not None:
        raise NotNormal("subgroup is not normal", witness=w)
    coset_of = [None] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] is None:
            members = sorted(G.table[g][n] for n in N.members)
            rep_index = len(reps)
            reps.append(members[0])
            for m in members:
                coset_of[m] = rep_index
    Q = _built_group(len(reps), coset_of[G.identity], lambda i: tuple(
        coset_of[G.table[reps[i]][r]] for r in reps),
        [coset_of[g] for g in G.generators])
    return Q, _built(GroupHom, G, Q, coset_of)


def subgroup_as_group(H):
    """Reify a subgroup as a standalone FiniteGroup.

    Returns (group, to_parent, from_parent): to_parent[i] is the parent
    element index of the subgroup element i (in member order).
    """
    G = H.parent
    to_parent = list(H.members)
    from_parent = {m: i for i, m in enumerate(to_parent)}
    e = from_parent[G.identity]
    group = _built_group(len(to_parent), e, lambda i: tuple(
        from_parent[G.table[to_parent[i]][b]] for b in to_parent),
        [from_parent[g] for g in H.generators])
    return group, to_parent, from_parent


class FiniteAction:
    """An action of a group on {0..set_size-1}, stored right-handed.

    ``act[g][x]`` is x.g.  A left action is accepted with side="left" and
    converted internally through g -> g^-1, so composition always satisfies
    x.(ab) = (x.a).b.

    Validation is exhaustive: every row must be a permutation, the identity
    must act trivially, and the composition law is proved on the group's
    product generators b, which suffices because the b with
    x.(ab) = (x.a).b for all a and x hold the identity and are closed under
    products.  On failure the first violating pair and point in index order
    is reported, as by a scan of every (a, b, x).  A set size or entry that
    is not an integer (``is_int``) raises InvalidInput first.
    """

    __slots__ = ("group", "set_size", "act")

    def __init__(self, group, set_size, act, side="right"):
        if side not in ("right", "left"):
            raise InvalidInput("side must be 'right' or 'left'", side=side)
        rows = [tuple(row) for row in act]
        if not all_ints(chain((set_size,), chain.from_iterable(rows))):
            raise InvalidInput("set size and entries must be integers")
        self.group, self.set_size = group, set_size
        # counted before a left action is relabelled through the inverses
        if len(rows) != group.order:
            raise NotAnAction("action table has %d rows, group has order %d"
                              % (len(rows), group.order))
        if side == "left":
            rows = [rows[group.inverse[g]] for g in range(group.order)]
        self.act = tuple(rows)
        self._validate()

    def _validate(self):
        G, act = self.group, self.act
        for g, row in enumerate(act):
            if len(row) != self.set_size:
                raise NotAnAction("row %d has wrong length" % g, element=g)
            if sorted(row) != list(range(self.set_size)):
                raise NotAnAction("element %d does not act bijectively" % g,
                                  element=g)
        ident = tuple(range(self.set_size))
        if act[G.identity] != ident:
            raise NotAnAction("identity does not act as the identity")
        # row b read through row a is x -> (x.a).b
        through = [_reader(row) for row in act]
        if all(act[row[b]] == through_a(act[b])
               for row, through_a in zip(G.table, through)
               for b in G.generators):
            return
        for a, row in enumerate(G.table):
            for b, ab in enumerate(row):
                left, right = act[ab], through[a](act[b])
                if left != right:
                    x = next(x for x in ident if left[x] != right[x])
                    raise NotAnAction("composition law fails",
                                      pair=(a, b), point=x)
        raise InternalInconsistency("Light's test failed on an action")


class ActionReport(namedtuple("ActionReport",
                              "fixed kernel orbits orbit_of coordinate")):
    """``fixed``, ``kernel``, ``orbits`` with each point's index in
    ``orbit_of``, and ``coordinate``: a g with r.g = x for each point x, r
    the least point of its orbit, the only one when the action is free."""

    __slots__ = ()

    @property
    def is_free(self):
        return self.fixed is None


def action_check(a):
    """Kernel, first fixed point, orbits and coordinates of a validated
    action, as an ``ActionReport``.

    Each orbit is its least unvisited point r, with coordinate e, closed
    under the product generators, so orbits come out sorted and indexed by
    least member.  A point y first reached as z.s, for a generator s, gets
    coordinate[y] = coordinate[z] * s, since r.(c s) = (r.c).s = z.s: one
    table lookup per point.  By the orbit-stabilizer theorem,
    |orbit of x| * |stabilizer of x| = |G|, so orbits of |G| points each on
    a nonempty set mean a free action with kernel {e}.  Only a non-free
    action or an empty point set (kernel G) scans every g.
    """
    G, act, n = a.group, a.act, a.set_size
    gens = [(s, act[s]) for s in G.generators]
    orbit_of, orbits, coordinate = [None] * n, [], [None] * n
    for x in range(n):
        if orbit_of[x] is None:
            orbit_of[x], coordinate[x], orbit = len(orbits), G.identity, [x]
            for z in orbit:
                times = G.table[coordinate[z]]
                for s, row in gens:
                    y = row[z]
                    if orbit_of[y] is None:
                        orbit_of[y], coordinate[y] = len(orbits), times[s]
                        orbit.append(y)
            orbits.append(tuple(sorted(orbit)))
    if n and all(len(o) == G.order for o in orbits):
        fixed, kernel = None, _built(Subgroup, G, [G.identity])
    else:
        ident = tuple(range(n))
        kernel = _built(Subgroup, G, [g for g, row in enumerate(act)
                                      if row == ident])
        fixed = next(((g, x) for g, row in enumerate(act) if g != G.identity
                      for x in ident if row[x] == x), None)
    return ActionReport(fixed, kernel, orbits, tuple(orbit_of),
                        tuple(coordinate))


def descend(classes, values, n):
    """The map on n classes sending classes[k] to values[k]: (out, None),
    or (None, k) for the first k whose value disagrees within its class."""
    out = [None] * n
    for k, (c, v) in enumerate(zip(classes, values)):
        if out[c] is None:
            out[c] = v
        elif out[c] != v:
            return None, k
    return out, None


def reduce_action(a, kernel):
    """The action of G/kernel induced by a FiniteAction; kernel must act
    trivially, so a coset acting by two rows is a library bug."""
    Q, proj = quotient(a.group, kernel)
    rows, g = descend(proj.map, a.act, Q.order)
    if rows is None:
        raise InternalInconsistency("kernel cosets act inconsistently",
                                    element=g)
    return _built(FiniteAction, Q, a.set_size, rows)


def right_translation_action(G, H):
    """H <= G acting on the elements of G by right multiplication."""
    if H.parent is not G:
        raise ParentMismatch("subgroup does not belong to this group")
    Hgrp, to_parent, _ = subgroup_as_group(H)
    act = [[G.table[x][to_parent[h]] for x in range(G.order)]
           for h in range(Hgrp.order)]
    return _built(FiniteAction, Hgrp, G.order, act)


def regular_action(G):
    """G acting on itself by right translation."""
    act = [[G.table[x][g] for x in range(G.order)] for g in range(G.order)]
    return _built(FiniteAction, G, G.order, act)


def trivial_action(G, set_size):
    row = list(range(set_size))
    return FiniteAction(G, set_size, [row for _ in range(G.order)])


def restrict_action(a, H):
    """Restrict an action of G to a subgroup H (reified as its own group)."""
    if H.parent is not a.group:
        raise ParentMismatch("subgroup does not belong to the acting group")
    Hgrp, to_parent, _ = subgroup_as_group(H)
    act = [a.act[to_parent[h]] for h in range(Hgrp.order)]
    return _built(FiniteAction, Hgrp, a.set_size, act)
