"""Exact finite-group arithmetic on index-coded multiplication tables.

Elements of a group of order n are the indices 0..n-1.  The identity is
discovered from the table, never assumed to sit at index 0.  All validation
is exhaustive at every order: ``_proved_group``, the one place a
``FiniteGroup`` is built, proves the identity, inverse and associativity
axioms, the last by Light's test over a generating set, so the rows and
columns are Latin by theorem; a Latin scan only names a failure.
``make_group`` validates tables from outside; ``_built_group`` builds
every table the library derives, and one that is not a group is a bug;
``_perm_group``, on it, is the one builder of permutation groups.
Homomorphisms, quotients and actions are in ``actions``.
"""

from bisect import bisect_left
from collections import defaultdict
from itertools import chain
from operator import itemgetter

from .errors import (DEFAULT_CLOSURE_CAP, AlgebraError, ClosureCapExceeded,
                     InternalInconsistency, InvalidInput, NoIdentity,
                     NoInverse, NonAssociative, NotLatinSquare, ParentMismatch,
                     all_ints, is_int)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Immutable after construction; only ``_proved_group`` constructs one,
    so the axioms are actually verified, the rows and columns are Latin by
    theorem and ``generators`` is always set.
    ``table`` is a tuple of int tuples; ``generators`` is a product-generating
    set, ascending, each the least element that products of the earlier
    ones miss.  A property closed under products holds for the group once
    it holds for each generator.  These run over ``generators``: Light's
    associativity test in ``make_group``, ``is_abelian`` and ``center``,
    ``normality_witness``, ``GroupHom`` validation, the ``FiniteAction``
    law, the orbits of ``action_check``, ``check_compatible`` in
    ``groupoids``, the twist checks of ``automorphism_action`` in
    ``actions``, and a ``FiberedSpace``'s fiber check on a side's subgroup
    in ``cocycles``.
    """

    __slots__ = ("order", "table", "identity", "inverse", "generators")

    def __init__(self, table, identity, inverse, generators):
        self.order = len(table)
        self.table = table
        self.identity = identity
        self.inverse = tuple(inverse)
        self.generators = tuple(generators)

    def whole(self):
        """The group as a Subgroup of itself, a fresh one on each call."""
        return _built(Subgroup, self, range(self.order))

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def elements(self):
        return range(self.order)

    def conjugate(self, g, h):
        """g h g^-1."""
        return self.table[self.table[g][h]][self.inverse[g]]

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def is_abelian(self):
        t, gens = self.table, self.generators
        return all(t[a][b] == t[b][a] for a in gens for b in gens)

    def center(self):
        t, gens = self.table, self.generators
        return _built(Subgroup, self, [a for a, row in enumerate(t) if all(
            row[g] == t[g][a] for g in gens)])

    def fingerprint(self):
        """Cheap report data: order + abelianness (no isomorphism testing)."""
        return {"order": self.order, "abelian": self.is_abelian()}


def _rows(table, n):
    """The rows as tuples that share one int object per value.

    A row of exact ints in 0..n-1 is read in one lookup; any other is read
    entry by entry.  The first short row, or entry that is not an int
    (``is_int``; subclasses are converted with ``int``) or not in 0..n-1,
    raises InvalidInput.  No permutation test: a group's rows and columns
    are Latin by theorem.  Shared entries let tuple comparison stop on
    identity in Light's test.
    """
    ints, rows = tuple(range(n)), []
    for i, row in enumerate(table):
        if len(row) != n:
            raise InvalidInput("table is not square", row=i)
        if set(map(type, row)) == {int} and min(row) >= 0 and max(row) < n:
            rows.append(_reader(row)(ints))
            continue
        for x in row:
            if not is_int(x):
                raise InvalidInput("entry is not an integer", row=i, value=x)
            if not 0 <= x < n:
                raise InvalidInput("entry out of range", row=i, value=x)
        rows.append(tuple(map(int, row)))
    return tuple(rows)


def _check_latin(rows, n):
    """Raise NotLatinSquare for the first row, then the first column, that
    is not a permutation of 0..n-1."""
    for line, lines in (("row", rows), ("column", zip(*rows))):
        for i, values in enumerate(lines):
            if len(set(values)) != n:
                raise NotLatinSquare("%s %d is not a permutation" % (line, i),
                                     **{line: i})


def _reader(keys):
    """row -> tuple(row[k] for k in keys), through itemgetter where it
    returns a tuple (two or more keys)."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda row: tuple(row[k] for k in keys)


def _fill_rows(rows, e, gens):
    """Fill in the row x -> b*x of every b that products of gens reach.

    rows[e] and rows[g] for each g in gens are given; every other reached
    row is a generator's row read through an earlier one,
    rows[g*a] = rows[g] read through rows[a], since (g*a)*x = g*(a*x).
    That is |G| index lookups per row.
    """
    reached, seen = [e], {e}
    for a in reached:
        for g in gens:
            c = rows[g][a]
            if c not in seen:
                seen.add(c)
                reached.append(c)
                if rows[c] is None:
                    rows[c] = _reader(rows[a])(rows[g])


# A partial product in row form: rows[x][pos[s]] is x*s for every s with
# tgt[s] == src[x], where pos[s] is the index of s among the elements with
# target tgt[s], in index order.  A groupoid's arrows take this form and a
# ``FiniteGroupoid`` keeps its products so; a group is the one-object case,
# with its table as rows, pos the identity map and src = tgt = 0
# throughout.  ``_check_associative`` serves both.

def _product_generators(rows, pos, units, src, tgt, candidates):
    """(gens, reached): the elements the units and gens reach by products.

    Greedy: each candidate, in the given order, that products of the units
    and the earlier gens do not reach becomes a generator.  Only products
    are used, never inverses, so this holds for any loop or partial loop,
    associative or not; with every element as a candidate, reached is
    everything.  Each reached element is multiplied by each generator once.
    """
    gens, reached = [], set(units)
    leaving = defaultdict(list)     # object -> reached elements with that src
    ending = defaultdict(list)      # object -> generators with that tgt
    for u in units:
        leaving[src[u]].append(u)
    for g in candidates:
        if g in reached:
            continue
        gens.append(g)
        ending[tgt[g]].append(g)
        # elements reached earlier need only the new generator
        pg = pos[g]
        frontier = [g, *(rows[x][pg] for x in leaving[tgt[g]])]
        while frontier:
            nxt = []
            for y in frontier:
                if y in reached:
                    continue
                reached.add(y)
                leaving[src[y]].append(y)
                row = rows[y]
                nxt.extend(row[pos[s]] for s in ending[src[y]])
            frontier = nxt
    return tuple(gens), reached


def _light_test(rows, pos, leaving, tgt, gens):
    """Light's associativity test on a partial product in row form.

    The set of h with (g*h)*k = g*(h*k) for all composable g, k holds the
    units (by the unit law) and is closed under products, so it is
    everything once it holds a product-generating set.  leaving[x] lists
    the rows of the elements with source x.  Row g*h is k -> (g*h)*k; row g
    read through row h is k -> g*(h*k).  True when every generator passes.
    """
    for h in gens:
        ph = pos[h]
        through_h = _reader([pos[y] for y in rows[h]])
        if any(rows[row[ph]] != through_h(row) for row in leaving[tgt[h]]):
            return False
    return True


def _check_associative(rows, pos, units, src, tgt, error, message,
                       gens=()):
    """Light's associativity test on a product in row form, exhaustive at
    every size, over gens whose products reach every element (default: the
    greedy product generators, which it returns).  units[x] is the unit at
    object x.  On failure the rows are rescanned for the first (g, h, k) in
    index order with (g*h)*k != g*(h*k), raised as error(message,
    triple=(g, h, k))."""
    greedy, _ = _product_generators(rows, pos, units, src, tgt,
                                    range(len(rows)))
    ending, leaving = [[] for _ in units], [[] for _ in units]
    for g, row in enumerate(rows):
        ending[tgt[g]].append(g)
        leaving[src[g]].append(row)
    if _light_test(rows, pos, leaving, tgt, gens or greedy):
        return greedy
    # row g read through row h is k -> g*(h*k), built when first needed
    through = [None] * len(rows)
    for g, row in enumerate(rows):
        for h, gh in zip(ending[src[g]], row):
            if through[h] is None:
                through[h] = _reader([pos[y] for y in rows[h]])
            left, right = rows[gh], through[h](row)
            if left != right:
                c = next(c for c, x in enumerate(left) if x != right[c])
                raise error(message, triple=(g, h, ending[src[h]][c]))
    raise InternalInconsistency("Light's test failed on an associative "
                                "product")


def _proved_group(rows, gens=()):
    """The FiniteGroup of a square table of in-range int rows: the
    identity, the inverses, then Light's test over gens, whose products
    reach every element (default: the greedy product generators).  Raises
    NoIdentity, NoInverse or NonAssociative, naming the first failing
    element or triple in index order."""
    n = len(rows)
    ident = tuple(range(n))
    # a row a equal to the identity row has a = a*e = e for a two-sided
    # identity e, so only the first such row can be one
    e = rows.index(ident) if ident in rows else None
    if e is None or tuple(row[e] for row in rows) != ident:
        raise NoIdentity("no two-sided identity element")
    inverse, zeros = [], [0] * n
    for a, row in enumerate(rows):
        # a row without e fails; in a group, a*b = e has one solution b
        b = row.index(e) if e in row else None
        if b is None or rows[b][a] != e:
            raise NoInverse("element %d has no two-sided inverse" % a, element=a)
        inverse.append(b)
    return FiniteGroup(rows, e, inverse, _check_associative(
        rows, range(n), [e], zeros, zeros, NonAssociative,
        "(a*b)*c != a*(b*c)", gens))


def make_group(table):
    """Validate a multiplication table and return the FiniteGroup.

    ``_rows`` checks the shape and the entries, then ``_proved_group``
    the identity, the inverses and associativity.  A group's rows and
    columns are Latin by theorem, so a table that is not Latin fails a
    proof, and only then are its rows and columns scanned, to name it.
    Raises InvalidInput / NotLatinSquare / NoIdentity / NoInverse /
    NonAssociative as checks in that order would, each naming the first
    violating entry, row, column, element or triple in index order.
    """
    n = len(table)
    if n == 0:
        raise InvalidInput("empty multiplication table")
    rows = _rows(table, n)
    try:
        return _proved_group(rows)
    except (NoIdentity, NoInverse, NonAssociative):
        _check_latin(rows, n)
        raise


def _built_group(n, e, row_of, gens=()):
    """The FiniteGroup of order n and identity e whose row x -> g*x is
    row_of(g), asked for the seeds in gens, then for each least element
    their products miss; ``_fill_rows`` reads off every other row.  It is
    proved over the asked rows; a failure, or an identity other than e,
    raises InternalInconsistency, as the table is the library's.
    """
    rows = [None] * n
    rows[e] = tuple(range(n))
    asked = []
    for g in chain(gens, range(n)):
        if rows[g] is None:
            rows[g] = row_of(g)
            asked.append(g)
            _fill_rows(rows, e, asked)
    group = _built(_proved_group, tuple(rows), asked)
    if group.identity != e:
        raise InternalInconsistency("a table the library built is not a group")
    return group


def _built(make, *args):
    """make(*args) for a structure the theory guarantees: a failed check is
    a library bug, raised as InternalInconsistency.  Every table, subgroup,
    homomorphism and action the library derives is checked through here;
    the validating classes are called bare only on values a caller passed
    in."""
    try:
        return make(*args)
    except AlgebraError as e:
        raise InternalInconsistency("a structure the library built fails "
                                    "its checks", check=e.report()) from e


def _perm_group(perms, keys, gens=()):
    """The FiniteGroup of a closed list of permutations (images tuples)
    with g*k = g after k: x -> perms[g][perms[k][x]].

    keys are points whose images tell the permutations apart.  Row g is
    looked up, not composed: g after k sends the keys to perms[g] read
    through k's key images.  ``_built_group`` asks for the rows of the
    seeds in gens and of each least element their products miss, and runs
    Light's test over them.  Two permutations with one key image, or a
    composite not in the list, raise InternalInconsistency.
    """
    images = list(map(_reader(keys), perms))
    index = dict(zip(images, range(len(perms))))
    if len(index) < len(perms):
        raise InternalInconsistency("keys fail to separate the permutations")
    through = [_reader(image) for image in images]

    def row_of(g):
        row = tuple(index.get(read(perms[g])) for read in through)
        if None in row:
            raise InternalInconsistency("permutations are not closed",
                                        pair=(g, row.index(None)))
        return row

    e = index.get(tuple(keys))
    if e is None:
        raise InternalInconsistency("permutations are not closed")
    return _built_group(len(perms), e, row_of, gens)


def _compose_perm(p, q):
    # (p then q) as images: x -> q[p[x]]
    return tuple(q[i] for i in p)


def _inverse_perm(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def make_group_from_permutations(perms, cap=DEFAULT_CLOSURE_CAP):
    """Close a set of permutations (images lists) into a group.

    Returns (FiniteGroup, elements) where elements[i] is the permutation
    tuple of group element i; elements are sorted lexicographically, which
    puts the identity at index 0.  Multiplication is composition in the
    left-to-right order: (p*q)(x) = q(p(x)).

    Cost: the closure composes each generator with each element once,
    |G|*|gens| compositions, and sorts the elements.  ``_perm_group``
    builds the table from their inverses, as (p*q)^-1 = p^-1 after q^-1,
    with the input permutations as seeds: it looks up their rows and runs
    Light's test over them; at large orders that test, not the build, is
    what bounds a useful ``cap``.
    """
    if not perms:
        raise InvalidInput("need at least one permutation")
    if not all_ints(chain.from_iterable(perms)):
        raise InvalidInput("permutation entries must be integers")
    degree = len(perms[0])
    gens = []
    for p in perms:
        t = tuple(p)
        if sorted(t) != list(range(degree)):
            raise InvalidInput("not a permutation of 0..degree-1", perm=list(p))
        gens.append(t)
    # found lists the elements in order of discovery, and the loop also
    # visits those it appends
    found = [tuple(range(degree))]
    seen = {found[0]}
    for a in found:
        for g in gens:
            c = _compose_perm(g, a)
            if c not in seen:
                seen.add(c)
                found.append(c)
                if len(found) > cap:
                    raise ClosureCapExceeded("permutation closure exceeds cap",
                                             cap=cap)
    elements = sorted(found)
    group = _perm_group(list(map(_inverse_perm, elements)), range(degree),
                        [bisect_left(elements, g) for g in gens])
    return group, elements


class Subgroup:
    """A subgroup as a sorted member set tied to its parent group.

    Every Subgroup is validated when built, by the library too, at
    |H|*|kept| lookups: the members must equal their closure under
    products, and ``generators`` keeps the members that closure picks by the
    greedy rule of ``FiniteGroup.generators``.  Only a subset that is not a
    subgroup gets the scan of every inverse and every pair in index order,
    which names the first failure.  A member that is not an integer
    (``is_int``) is an input error.
    """

    __slots__ = ("parent", "members", "_set", "generators")

    def __init__(self, parent, members):
        members = tuple(members)
        if not all_ints(members):
            raise InvalidInput("subgroup members must be integers")
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        self._set = frozenset(self.members)
        self._validate()

    def _validate(self):
        G = self.parent
        for m in self.members:
            if not 0 <= m < G.order:
                raise InvalidInput("subgroup member out of range", member=m)
        if G.identity not in self._set:
            raise InvalidInput("subgroup misses the identity")
        # the closure holds the members; equal sizes mean they are closed
        self.generators, reached = _closure(G, self.members)
        if len(reached) == len(self.members):
            return
        # otherwise name the first failure in index order
        for a in self.members:
            if G.inverse[a] not in self._set:
                raise InvalidInput("subgroup not closed under inverse", element=a)
            for b in self.members:
                if G.table[a][b] not in self._set:
                    raise InvalidInput("subgroup not closed under product",
                                       pair=(a, b))

    def __contains__(self, x):
        return x in self._set

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other._set == self._set)

    def __hash__(self):
        return hash((id(self.parent), self._set))


def _closure(G, gens):
    """(kept, reached): reached is the set of elements of G that products
    of the in-range ints gens reach, the identity included.

    Cost: |H|*|kept| lookups.  The inputs not yet reached, in index order,
    are kept and extended by right products: in a finite group those hold
    every inverse too.
    """
    zeros = [0] * G.order
    return _product_generators(G.table, range(G.order), [G.identity],
                               zeros, zeros, sorted(set(gens)))


def subgroup_closure(G, generators):
    """Smallest subgroup H of G containing the generators, validated like
    every Subgroup; a generator that is not an integer in 0..|G|-1 is an
    input error."""
    generators = tuple(generators)
    if not all_ints(generators):
        raise InvalidInput("generators must be integers")
    for g in generators:
        if not 0 <= g < G.order:
            raise InvalidInput("generator out of range", generator=g)
    return _built(Subgroup, G, _closure(G, generators)[1])


def is_normal(G, H):
    """gHg^-1 == H as a set, for every g."""
    return normality_witness(G, H) is None


def normality_witness(G, H):
    """First (g, h) in index order with g h g^-1 outside H, or None.

    G is a group, or a Subgroup of H's parent standing for the group of
    its members.  Cost: |gens|*|H| conjugations by G's product generators.
    The g with gHg^-1 inside H are closed under products, and every
    element below a generator is a product of earlier ones, so the first g
    that fails is the first generator that fails.
    """
    parent = G.parent if isinstance(G, Subgroup) else G
    if H.parent is not parent:
        raise ParentMismatch("subgroup does not belong to this group")
    t, inv, members = parent.table, parent.inverse, H._set
    return next(((g, h) for g in G.generators for h in H.members
                 if t[t[g][h]][inv[g]] not in members), None)


def intersect(H1, H2):
    if H1.parent is not H2.parent:
        raise ParentMismatch("subgroups of different parent groups")
    return _built(Subgroup, H1.parent, H1._set & H2._set)


def generates(G, subgroups):
    """Does the union of the given subgroups generate all of G?"""
    gens = set()
    for H in subgroups:
        if H.parent is not G:
            raise ParentMismatch("subgroup does not belong to this group")
        gens |= H._set
    return len(_closure(G, gens)[1]) == G.order
