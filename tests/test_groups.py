import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ntpg import actions, groups, named
from ntpg.actions import (FiniteAction, GroupHom, action_check, descend,
                          quotient, reduce_action, regular_action,
                          restrict_action, right_translation_action,
                          subgroup_as_group, trivial_action)
from ntpg.errors import (ClosureCapExceeded, InternalInconsistency,
                         InvalidInput, NoIdentity, NoInverse, NonAssociative,
                         NotAnAction, NotLatinSquare, NotNormal,
                         ParentMismatch)
from ntpg.groups import (Subgroup, _check_associative, _compose_perm,
                         generates, intersect, is_normal, make_group,
                         make_group_from_permutations, normality_witness,
                         subgroup_closure)
from ntpg.named import (Q8_I, Q8_J, Q8_K, Q8_MINUS_ONE, Q8_ONE, cyclic,
                        dihedral, direct_product, klein_four,
                        quaternion_group, symmetric)
from ntpg.ntuple import verify_ntuple
from ntpg.principal import dpg_morphism_check, verify_double
from test_validation_oracles import assert_same_group


# -- oracle: quaternions as integer 4-vectors under the Hamilton product ----

def _hamilton(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


_Q8_VECTORS = [
    (1, 0, 0, 0), (-1, 0, 0, 0),
    (0, 1, 0, 0), (0, -1, 0, 0),
    (0, 0, 1, 0), (0, 0, -1, 0),
    (0, 0, 0, 1), (0, 0, 0, -1),
]


def test_quaternion_table_matches_hamilton_product():
    G = quaternion_group()
    idx = {v: i for i, v in enumerate(_Q8_VECTORS)}
    for a in range(8):
        for b in range(8):
            expected = idx[_hamilton(_Q8_VECTORS[a], _Q8_VECTORS[b])]
            assert G.table[a][b] == expected, (a, b)


def test_quaternion_center_has_order_two():
    G = quaternion_group()
    assert G.order == 8
    assert G.center().members == (Q8_ONE, Q8_MINUS_ONE)


# -- make_group --------------------------------------------------------------

def test_trivial_group():
    G = make_group([[0]])
    assert G.order == 1 and G.identity == 0 and G.inverse == (0,)


def test_z2_table():
    G = make_group([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.identity == 0
    assert G.mul(1, 1) == 0


def test_identity_is_discovered_not_assumed():
    # Z3 written with the identity at index 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    G = make_group(table)
    assert G.identity == 2


def test_not_latin_square():
    with pytest.raises(NotLatinSquare) as e:
        make_group([[0, 0], [1, 1]])
    assert e.value.details["row"] == 0


def test_no_identity():
    # Latin square (cyclic shift of rows) without a two-sided unit
    with pytest.raises(NoIdentity):
        make_group([[1, 0, 2], [2, 1, 0], [0, 2, 1]])


def test_non_associative():
    # 5x5 Latin square with identity 0 that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises((NonAssociative, NoInverse)) as e:
        make_group(table)
    if isinstance(e.value, NonAssociative):
        a, b, c = e.value.details["triple"]
        assert table[table[a][b]][c] != table[a][table[b][c]]


def test_entry_out_of_range():
    with pytest.raises(InvalidInput):
        make_group([[0, 1], [1, 7]])


@pytest.mark.parametrize("bad", [1.0, "1", None, [1], -1, 2, True])
def test_non_integer_or_out_of_range_entry_is_named(bad):
    with pytest.raises(InvalidInput) as e:
        make_group([[0, 1], [bad, 0]])
    assert e.value.details == {"row": 1, "value": bad}
    # only -1 and 2 are integers; a bool is not one
    assert str(e.value) == ("entry out of range" if type(bad) is int
                            else "entry is not an integer")


class _Int(int):
    """An int subclass other than bool."""


def test_int_subclass_entries_are_accepted_as_ints():
    table = [[_Int(0), _Int(1)], [_Int(1), _Int(0)]]
    G = make_group(table)
    assert G.table == ((0, 1), (1, 0))
    assert all(type(x) is int for row in G.table for x in row)
    assert assert_same_group(table) is None


# -- make_group against the check order it replaced -----------------------

_NOT_GROUPS = [
    # the tables above
    [[0, 0], [1, 1]],
    [[1, 0, 2], [2, 1, 0], [0, 2, 1]],
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
     [4, 3, 1, 2, 0]],
    [[0, 1], [1, 7]],
    *([[0, 1], [bad, 0]] for bad in [1.0, "1", None, [1], -1, 2, True]),
    # rows Latin, a column not: before a missing identity, a failing
    # inverse and a failing associativity
    [[0, 1, 2], [1, 2, 0], [1, 2, 0]],
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]],
    [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [3, 1, 2, 0]],
    # a row that is not a permutation before a later bad entry or short row
    [[0, 0], [True, 0]],
    [[0, 0], [1, 1.0]],
    [[0, 1, 2], [1, 1, 0], [2, 0, -1]],
    [[0, 0], [1]],
    [[0, 1], [1]],
    # int-subclass entries
    [[_Int(0), _Int(0)], [1, 0]],
    [[0, 1, 2], [_Int(1), 2, 0], [2, 0, _Int(3)]],
    [[_Int(0), _Int(1), 2], [1, 2, 0], [2, 1, 0]],
]


@pytest.mark.parametrize("table", _NOT_GROUPS)
def test_make_group_gives_the_reference_error(table):
    assert assert_same_group(table) is not None


def _kind(error):
    return error and error[0]


def test_make_group_matches_the_reference_on_every_small_table():
    # every 3 x 3 table of permutation rows, and every 4 x 4 one whose row
    # and column 0 are the identity
    perms = list(itertools.permutations(range(3)))
    kinds = {_kind(assert_same_group([list(r) for r in rows]))
             for rows in itertools.product(perms, repeat=3)}
    rows4 = [[p for p in itertools.permutations(range(4)) if p[0] == a]
             for a in range(1, 4)]
    kinds |= {_kind(assert_same_group([[0, 1, 2, 3], *map(list, rows)]))
              for rows in itertools.product(*rows4)}
    # a Latin square of order at most 4 with an identity is a group, so a
    # failing inverse or associativity always meets a column that is not
    # a permutation first
    assert kinds == {None, "NotLatinSquare", "NoIdentity"}


# -- associativity: Light's test against a brute-force oracle ------------------

def _first_non_associative(table):
    """Oracle: the first (a, b, c) in index order with (ab)c != a(bc)."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def _light_verdict(table, e):
    try:
        n = len(table)
        _check_associative(tuple(map(tuple, table)), range(n), [e], [0] * n,
                           [0] * n, NonAssociative, "(a*b)*c != a*(b*c)")
    except NonAssociative as err:
        return err.details["triple"]
    return None


def _latin_squares_with_identity(n, e):
    """Every n x n Latin square whose row e and column e are the identity."""
    grid = [[None] * n for _ in range(n)]
    for x in range(n):
        grid[e][x] = grid[x][e] = x
    cells = [(i, j) for i in range(n) for j in range(n) if i != e and j != e]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in grid]
            return
        i, j = cells[k]
        used = set(grid[i]) | {grid[r][j] for r in range(n)}
        for x in range(n):
            if x not in used:
                grid[i][j] = x
                yield from fill(k + 1)
                grid[i][j] = None
    return fill(0)


def test_light_matches_oracle_on_every_small_latin_square_with_identity():
    checked = failures = 0
    for n in range(1, 6):
        for e in range(n):
            for table in _latin_squares_with_identity(n, e):
                expected = _first_non_associative(table)
                assert _light_verdict(table, e) == expected, (table, e)
                assert_same_group(table)
                checked += 1
                failures += expected is not None
    # 56 reduced Latin squares of order 5, of which 6 are groups (Z5)
    assert checked == 1 + 2 + 3 + 4 * 4 + 5 * 56
    assert failures == 5 * 50


def _intercalates(table, e):
    """(a, b, c, d): rows a, b and columns c, d hold x, y / y, x, off row
    and column e, so swapping x and y keeps a Latin square with identity e."""
    n = len(table)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                for d in range(c + 1, n):
                    if e in (a, b, c, d):
                        continue
                    if table[a][c] == table[b][d] and \
                            table[a][d] == table[b][c]:
                        yield a, b, c, d


def _swap(table, a, b, c, d):
    t = [list(row) for row in table]
    t[a][c], t[a][d] = t[a][d], t[a][c]
    t[b][c], t[b][d] = t[b][d], t[b][c]
    return t


def _elementary_abelian(k):
    return make_group([[a ^ b for b in range(2 ** k)] for a in range(2 ** k)])


_SMALL_GROUPS = {
    "Z2^2": lambda: _elementary_abelian(2),
    "Z2^3": lambda: _elementary_abelian(3),
    "Z2^4": lambda: _elementary_abelian(4),
    "Z8": lambda: cyclic(8),
    "D4": lambda: dihedral(4),
    "Q8": quaternion_group,
    "Z4xZ2": lambda: direct_product(cyclic(4), cyclic(2)),
    "D8": lambda: dihedral(8),
    "Q8xZ2": lambda: direct_product(quaternion_group(), cyclic(2)),
}


@pytest.mark.parametrize("name", sorted(_SMALL_GROUPS))
def test_light_matches_oracle_on_intercalate_swapped_groups(name):
    G = _SMALL_GROUPS[name]()
    assert _light_verdict(G.table, G.identity) is None
    swaps = list(_intercalates(G.table, G.identity))
    assert swaps
    verdicts = []
    for a, b, c, d in swaps[::max(1, len(swaps) // 40)]:
        table = _swap(G.table, a, b, c, d)
        expected = _first_non_associative(table)
        assert _light_verdict(table, G.identity) == expected
        # a group again below order 8, with the reference's fields
        assert (assert_same_group(table) is None) == (expected is None)
        verdicts.append(expected)
    # every loop of order 4 is a group; from order 8 on swaps break it
    assert any(verdicts) == (G.order > 4)


def test_non_associative_above_old_sampling_limit_is_caught():
    # Z2^9 with one intercalate swapped: a loop of order 512 whose only
    # defects sit in rows 1, 3 and columns 4, 6
    n = 512
    table = _swap([[a ^ b for b in range(n)] for a in range(n)], 1, 3, 4, 6)
    with pytest.raises(NonAssociative) as e:
        make_group(table)
    assert e.value.details["triple"] == _first_non_associative(table) \
        == (1, 1, 4)
    assert_same_group(table)


# Z2^3 by three disjoint transpositions: abelian, with three orbits
_NON_TRANSITIVE = [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]
_S4_PERMS = [(1, 0, 2, 3), (1, 2, 3, 0)]
_S5_PERMS = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]


@pytest.mark.parametrize("build, abelian", [
    (named.trivial_group, True), (klein_four, True), (lambda: cyclic(6), True),
    (lambda: _elementary_abelian(4), True), (quaternion_group, False),
    (lambda: symmetric(3), False), (lambda: dihedral(4), False),
    (lambda: symmetric(4), False),
    (lambda: direct_product(dihedral(4), cyclic(2)), False),
    (lambda: make_group_from_permutations(_S5_PERMS)[0], False),
    (lambda: make_group_from_permutations(_NON_TRANSITIVE)[0], True)])
def test_is_abelian(build, abelian):
    G = build()
    t = G.table
    assert all(t[a][b] == t[b][a] for a in range(G.order)
               for b in range(G.order)) == abelian
    assert G.is_abelian() is abelian
    # oracle: the centre by the n^2 loop over every pair
    assert G.center().members == tuple(
        a for a in range(G.order)
        if all(t[a][b] == t[b][a] for b in range(G.order)))


def test_s1_is_the_trivial_group():
    assert symmetric(1).table == named.trivial_group().table == ((0,),)


def test_permutation_input_builds_regular_group():
    # Z4 generated by the 4-cycle
    G, els = make_group_from_permutations([[1, 2, 3, 0]])
    assert G.order == 4
    assert els[0] == (0, 1, 2, 3)
    assert G.is_abelian()


def test_s3_from_permutations_is_nonabelian_order_6():
    G = symmetric(3)
    assert G.order == 6
    assert not G.is_abelian()


# -- make_group_from_permutations against the per-cell construction ----------

def _per_cell(perms):
    """Oracle: close by breadth-first search, sort, then compose every pair
    of elements, one composition per table cell."""
    gens = [tuple(p) for p in perms]
    ident = tuple(range(len(gens[0])))
    els, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = _compose_perm(a, g)
                if c not in els:
                    els.add(c)
                    nxt.append(c)
        frontier = nxt
    elements = sorted(els)
    index = {p: i for i, p in enumerate(elements)}
    table = tuple(tuple(index[_compose_perm(a, b)] for b in elements)
                  for a in elements)
    return table, elements


@pytest.mark.parametrize("perms", [
    _S4_PERMS, _S5_PERMS, _NON_TRANSITIVE,
    [(1, 2, 0, 4, 3)],                          # one generator, order 6
    [(1, 2, 3, 0), (1, 2, 3, 0), (1, 0, 2, 3)],  # a repeated generator
    [(0, 1, 2), (1, 2, 0)],                     # the identity as a generator
    [(0, 1, 2)], [()], [(0,)]],                 # trivial, degree 0 and 1
    ids=["S4", "S5", "non-transitive", "single", "repeated", "identity",
         "trivial", "degree-0", "degree-1"])
def test_permutation_table_matches_per_cell_construction(perms):
    G, elements = make_group_from_permutations([list(p) for p in perms])
    assert (G.table, elements) == _per_cell(perms)


@pytest.mark.parametrize("perms", [
    _S5_PERMS, _NON_TRANSITIVE, [(1, 2, 3, 0), (1, 2, 3, 0), (1, 0, 2, 3)]],
    ids=["S5", "non-transitive", "repeated"])
def test_permutation_closure_composes_each_element_with_each_generator_once(
        monkeypatch, perms):
    calls = []

    def counted(p, q):
        calls.append(None)
        return _compose_perm(p, q)

    monkeypatch.setattr(groups, "_compose_perm", counted)
    G, _ = make_group_from_permutations([list(p) for p in perms])
    assert len(calls) == G.order * len(perms)


def test_perm_group_composes_as_maps_and_refuses_a_bad_list():
    s3 = sorted(itertools.permutations(range(3)))
    G = groups._perm_group(s3, range(3))
    assert all(s3[G.table[g][k]] == tuple(s3[g][x] for x in s3[k])
               for g in range(6) for k in range(6))
    # (0 1 2) without its square; a transposition without the identity
    for perms in ([(0, 1, 2), (1, 2, 0)], [(1, 0, 2)]):
        with pytest.raises(InternalInconsistency, match="not closed"):
            groups._perm_group(perms, range(3))
    # three pairs of S3 agree on the point 0
    with pytest.raises(InternalInconsistency, match="fail to separate"):
        groups._perm_group(s3, [0])


def test_permutation_closure_cap_boundary():
    with pytest.raises(ClosureCapExceeded) as e:
        make_group_from_permutations(_S5_PERMS, cap=119)
    assert e.value.details == {"cap": 119}
    assert make_group_from_permutations(_S5_PERMS, cap=120)[0].order == 120


# -- subgroup_closure --------------------------------------------------------

def test_closure_of_i_in_q8():
    G = quaternion_group()
    H = subgroup_closure(G, {Q8_I})
    # oracle: powers of i are 1, i, -1, -i
    powers = set()
    x = G.identity
    for _ in range(4):
        powers.add(x)
        x = G.mul(x, Q8_I)
    assert set(H.members) == powers
    assert len(H) == 4


def test_closure_of_empty_set_is_identity():
    G = quaternion_group()
    assert subgroup_closure(G, set()).members == (G.identity,)


def test_closure_of_i_and_j_is_everything():
    G = quaternion_group()
    # oracle: exhaustive saturation over sets
    closure = {Q8_I, Q8_J, G.identity}
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure):
                for c in (G.mul(a, b), G.inv(a)):
                    if c not in closure:
                        closure.add(c)
                        changed = True
    assert closure == set(range(8))
    assert len(subgroup_closure(G, {Q8_I, Q8_J})) == 8


def test_every_subgroup_the_library_builds_is_validated(monkeypatch):
    from inspect import signature
    from ntpg.autgroups import enumerate_aut
    from ntpg.fields import GF
    from ntpg.signature import GradedSignature
    assert list(signature(Subgroup.__init__).parameters) == \
        ["self", "parent", "members"]
    validated = []
    validate = Subgroup._validate

    def counting(self):
        validated.append(self)
        validate(self)

    monkeypatch.setattr(Subgroup, "_validate", counting)
    G = quaternion_group()
    H1, H2 = subgroup_closure(G, {Q8_I}), subgroup_closure(G, {Q8_J})
    Q, proj = quotient(G, H1)
    handle = enumerate_aut(GradedSignature.double_vector(1, 1, 1), GF(2))
    built = {"center": G.center(),
             "intersect": intersect(H1, H2),
             "kernel": proj.kernel(),
             "action kernel": action_check(trivial_action(G, 3)).kernel,
             "closure": subgroup_closure(G, {Q8_K}),
             "gi_subgroup": handle.gi_subgroup(1)}
    for name, H in built.items():
        assert any(v is H for v in validated), name


# -- normality / intersection / generation -----------------------------------

def test_span_i_is_normal_in_q8():
    G = quaternion_group()
    H = subgroup_closure(G, {Q8_I})
    # oracle: conjugation table scan
    assert all(G.conjugate(g, h) in H for g in range(8) for h in H.members)
    assert is_normal(G, H)
    # a subgroup of another copy of Q8 is foreign to G
    with pytest.raises(ParentMismatch):
        normality_witness(quaternion_group(), H)


def test_intersection_of_i_and_j_spans():
    G = quaternion_group()
    Hi = subgroup_closure(G, {Q8_I})
    Hj = subgroup_closure(G, {Q8_J})
    core = intersect(Hi, Hj)
    assert set(core.members) == set(Hi.members) & set(Hj.members)
    assert core.members == (Q8_ONE, Q8_MINUS_ONE)


def test_single_factor_does_not_generate_klein():
    G = klein_four()
    first = Subgroup(G, [0, 2])  # (a, e) elements under the g*|H|+h coding
    assert not generates(G, [first])


def _foreign_dpg_morphism(G1, G2):
    dpg = verify_double(G1, G1.whole(), G1.whole()).dpg
    return dpg_morphism_check(GroupHom(G2, G1, range(G1.order)), dpg, dpg)


# (call on two copies of Z4, error class, message)
@pytest.mark.parametrize("call, error, message", [
    (lambda G1, G2: intersect(G1.whole(), G2.whole()), ParentMismatch,
     "subgroups of different parent groups"),
    (lambda G1, G2: generates(G1, [G2.whole()]), ParentMismatch,
     "subgroup does not belong to this group"),
    (lambda G1, G2: restrict_action(regular_action(G1), G2.whole()),
     ParentMismatch, "subgroup does not belong to the acting group"),
    (lambda G1, G2: right_translation_action(G1, G2.whole()),
     ParentMismatch, "subgroup does not belong to this group"),
    (lambda G1, G2: verify_double(G1, G1.whole(), G2.whole()),
     ParentMismatch, "subgroups of a different parent group"),
    (lambda G1, G2: verify_ntuple(G1, [G1.whole(), G2.whole()]),
     ParentMismatch, "subgroups of a different parent group"),
    (_foreign_dpg_morphism, ParentMismatch,
     "homomorphism endpoints do not match"),
    (lambda G1, G2: GroupHom(G1, G2, [0, 1, 2]), InvalidInput,
     "image array has wrong length"),
    (lambda G1, G2: GroupHom(G1, G2, [0, 1, 2, 4]), InvalidInput,
     "image out of range")],
    ids=["intersect", "generates", "restrict_action",
         "right_translation_action", "verify_double",
         "verify_ntuple", "dpg_morphism_check", "hom-length", "hom-range"])
def test_parent_mismatch(call, error, message):
    with pytest.raises(error) as e:
        call(cyclic(4), cyclic(4))
    assert str(e.value) == message


# -- derived structures: a failed check is a library bug ---------------------

def _unchecked(H, members):
    """H made to hold members, as if it had skipped its closure check."""
    H.members, H._set = tuple(sorted(members)), frozenset(members)
    return H


def _intersect_unclosed():
    # <i> ∪ {j} meets <j> in {1, -1, j}, which misses -j = j^-1
    G = quaternion_group()
    hi, hj = subgroup_closure(G, {Q8_I}), subgroup_closure(G, {Q8_J})
    return intersect(_unchecked(hi, hi._set | {Q8_J}), hj)


def _kernel_unclosed():
    # the generator 1 of Z4 made to act trivially: the rows that fix every
    # point are those of {0, 1}, which misses 1 + 1 = 2
    a = regular_action(cyclic(4))
    a.act = tuple(a.act[0] if g == 1 else row for g, row in enumerate(a.act))
    return action_check(a)


def _quotient_unclosed():
    # {0, 1} in Z4: its cosets give a group of order 2, but x -> coset of x
    # is not a homomorphism
    G = cyclic(4)
    return quotient(G, _unchecked(Subgroup(G, [0, 2]), {0, 1}))


@pytest.mark.parametrize("derive", [_intersect_unclosed, _kernel_unclosed,
                                    _quotient_unclosed],
                         ids=["intersect", "action_check", "quotient"])
def test_derived_structure_failing_its_check_is_a_library_bug(derive):
    with pytest.raises(InternalInconsistency) as e:
        derive()
    assert str(e.value) == "a structure the library built fails its checks"
    assert e.value.details["check"]["error"] == "InvalidInput"


# -- quotient -----------------------------------------------------------------

def test_q8_mod_center_is_klein():
    G = quaternion_group()
    N = Subgroup(G, [Q8_ONE, Q8_MINUS_ONE])
    Q, proj = quotient(G, N)
    # oracle: coset multiplication table
    assert Q.order == 4
    assert Q.is_abelian()
    assert all(Q.mul(a, a) == Q.identity for a in range(4))
    assert proj.kernel() == N
    assert proj.is_surjective()


def test_quotient_by_trivial_is_identity_projection():
    G = dihedral(4)
    Q, proj = quotient(G, Subgroup(G, [G.identity]))
    assert Q.order == G.order
    assert proj.map == tuple(range(G.order))


def test_quotient_by_whole_group_is_trivial():
    G = dihedral(3)
    Q, proj = quotient(G, Subgroup(G, range(G.order)))
    assert Q.order == 1
    assert set(proj.map) == {0}


def test_quotient_requires_normal():
    G = symmetric(3)
    # a transposition generates a non-normal order-2 subgroup
    H = next(subgroup_closure(G, {a}) for a in range(6)
             if G.element_order(a) == 2)
    assert not is_normal(G, H)
    with pytest.raises(NotNormal):
        quotient(G, H)


# -- actions -------------------------------------------------------------------

def test_regular_action_is_free_and_transitive():
    G = quaternion_group()
    rep = action_check(regular_action(G))
    assert rep.is_free
    assert rep.kernel.members == (G.identity,)
    assert len(rep.orbits) == 1


def test_trivial_action_kernel_is_whole_group():
    G = cyclic(2)
    rep = action_check(trivial_action(G, 3))
    assert not rep.is_free
    assert len(rep.kernel) == 2
    assert len(rep.orbits) == 3


def test_subgroup_translation_orbits_are_cosets():
    G = quaternion_group()
    H = subgroup_closure(G, {Q8_I})
    rep = action_check(right_translation_action(G, H))
    assert rep.is_free
    # oracle: left cosets gH partition Q8 into two sets of four
    cosets = {tuple(sorted(G.mul(g, h) for h in H.members)) for g in range(8)}
    assert {tuple(sorted(o)) for o in rep.orbits} == cosets
    assert sorted(len(o) for o in rep.orbits) == [4, 4]


def test_not_an_action_names_pair():
    G = cyclic(2)
    # the involution row is a 3-cycle, so act[1]∘act[1] != act[1*1]
    with pytest.raises(NotAnAction) as e:
        FiniteAction(G, 3, [[0, 1, 2], [1, 2, 0]])
    assert e.value.details.get("pair") == (1, 1)


@pytest.mark.parametrize("side", ["right", "left"])
def test_row_count_is_checked_on_both_sides(side):
    with pytest.raises(NotAnAction) as e:
        FiniteAction(cyclic(2), 2, [[0, 1]], side=side)
    assert str(e.value) == "action table has 1 rows, group has order 2"


def test_left_action_is_converted():
    G = symmetric(3)
    # left action x.g := g*x on the group itself
    act = [[G.mul(g, x) for x in range(6)] for g in range(6)]
    a = FiniteAction(G, 6, act, side="left")
    # after conversion the right law holds; freeness as for translations
    assert action_check(a).is_free


def test_action_check_names_the_first_fixed_point():
    # Z4 on 4 points through Z4 -> Z2: 2 fixes everything, 1 and 3 swap
    a = FiniteAction(cyclic(4), 4, [[0, 1, 2, 3], [1, 0, 3, 2]] * 2)
    rep = action_check(a)
    assert rep.fixed == (2, 0) and not rep.is_free
    assert action_check(regular_action(cyclic(4))).fixed is None


def test_descend_builds_the_class_map_or_names_the_first_conflict():
    assert descend([0, 0, 1, 1], [5, 5, 7, 7], 2) == ([5, 7], None)
    assert descend([0, 1, 0, 1], [5, 7, 5, 8], 2) == (None, 3)


def test_reduce_action_outside_the_kernel_is_a_library_bug():
    G = cyclic(2)
    with pytest.raises(InternalInconsistency) as e:
        reduce_action(regular_action(G), Subgroup(G, [0, 1]))
    assert e.value.details == {"element": 1}


def test_reduce_action_that_fails_its_checks_is_a_library_bug(monkeypatch):
    real = actions.descend

    def rotated(classes, values, n):
        # the identity coset takes the next coset's row
        rows, k = real(classes, values, n)
        return rows[1:] + rows[:1], k

    monkeypatch.setattr(actions, "descend", rotated)
    # Z4 on 4 points through Z4 -> Z2: the kernel {0, 2} acts trivially
    a = FiniteAction(cyclic(4), 4, [[0, 1, 2, 3], [1, 0, 3, 2]] * 2)
    with pytest.raises(InternalInconsistency) as e:
        reduce_action(a, Subgroup(a.group, [0, 2]))
    assert e.value.details["check"]["error"] == "NotAnAction"


@pytest.mark.parametrize("build", [
    lambda: FiniteAction(cyclic(2), 2, [[0, 1], [1.9, False]]),
    lambda: FiniteAction(cyclic(2), 2.0, [[0, 1], [1, 0]]),
    lambda: Subgroup(cyclic(2), [0.5, True]),
    lambda: GroupHom(cyclic(2), cyclic(2), ["0", 1.2]),
    lambda: subgroup_closure(cyclic(4), [2.7]),
    lambda: make_group_from_permutations([[1, 2, 0], [1.0, 0, 2]])],
    ids=["action-entries", "set-size", "subgroup", "hom", "closure",
         "permutations"])
def test_library_inputs_must_be_integers(build):
    # int() would read each of these as an index
    with pytest.raises(InvalidInput, match="integer"):
        build()


def test_int_subclasses_are_integers():
    class Index(int):
        pass

    one, two = Index(1), Index(2)
    swap = FiniteAction(cyclic(2), two, [[0, one], [one, 0]])
    assert swap.set_size == 2 and swap.act == ((0, 1), (1, 0))
    assert Subgroup(cyclic(2), [0, one]).members == (0, 1)
    assert GroupHom(cyclic(2), cyclic(2), [0, one]).map == (0, 1)
    assert subgroup_closure(cyclic(4), [two]).members == (0, 2)


# -- property tests ------------------------------------------------------------

_CATALOG = [named.trivial_group, named.klein_four, named.quaternion_group,
            lambda: named.cyclic(6), lambda: named.dihedral(4),
            lambda: named.symmetric(3)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_CATALOG) - 1), st.data())
def test_closure_and_intersection_monotone(gi, data):
    G = _CATALOG[gi]()
    m1 = data.draw(st.sets(st.integers(0, G.order - 1), max_size=3))
    m2 = data.draw(st.sets(st.integers(0, G.order - 1), max_size=3))
    H1 = subgroup_closure(G, m1)
    H2 = subgroup_closure(G, m2)
    core = intersect(H1, H2)
    union = subgroup_closure(G, set(H1.members) | set(H2.members))
    assert set(core.members) <= set(H1.members) <= set(union.members)
    assert set(core.members) <= set(H2.members) <= set(union.members)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(_CATALOG) - 1), st.data())
def test_quotient_projection_kernel_is_n(gi, data):
    G = _CATALOG[gi]()
    gens = data.draw(st.sets(st.integers(0, G.order - 1), max_size=2))
    N = subgroup_closure(G, gens)
    if not is_normal(G, N):
        return
    Q, proj = quotient(G, N)
    assert Q.order * len(N) == G.order
    assert proj.kernel() == N
    assert proj.is_surjective()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(_CATALOG) - 1), st.data())
def test_normality_criterion_is_conjugate_set_equality(gi, data):
    G = _CATALOG[gi]()
    gens = data.draw(st.sets(st.integers(0, G.order - 1), max_size=2))
    H = subgroup_closure(G, gens)
    expected = all(
        {G.conjugate(g, h) for h in H.members} == set(H.members)
        for g in range(G.order))
    assert is_normal(G, H) == expected


def test_subgroup_as_group_roundtrip():
    G = quaternion_group()
    H = subgroup_closure(G, {Q8_K})
    Hg, to_parent, from_parent = subgroup_as_group(H)
    assert Hg.order == 4
    for a in range(4):
        for b in range(4):
            assert to_parent[Hg.table[a][b]] == G.mul(to_parent[a], to_parent[b])


def test_subgroup_reads_as_its_reified_group():
    # a subgroup keeps the generators its reified group picks, and
    # normality inside it reads the same through the order-keeping relabel
    G = symmetric(4)
    subs = {subgroup_closure(G, {a, b}) for a in range(24) for b in range(a)}
    for H in subs:
        Hg, to_parent, from_parent = subgroup_as_group(H)
        assert tuple(to_parent[g] for g in Hg.generators) == H.generators
        for K in subs:
            if set(K.members) <= set(H.members):
                inner = Subgroup(Hg, [from_parent[m] for m in K.members])
                w = normality_witness(Hg, inner)
                assert normality_witness(H, K) == (
                    w and (to_parent[w[0]], to_parent[w[1]]))


def test_subgroup_as_group_reuses_the_whole_group():
    # the restricted table of the whole group is the parent's table, and
    # the group rebuilt from it equals the parent field by field
    for G in (quaternion_group(), cyclic(6), symmetric(3), klein_four()):
        whole = Subgroup(G, range(G.order))
        Hg, to_parent, from_parent = subgroup_as_group(whole)
        assert to_parent == list(range(G.order))
        assert from_parent == {m: m for m in range(G.order)}
        assert (Hg.order, Hg.table, Hg.identity, Hg.inverse,
                Hg.generators) == (G.order, G.table, G.identity, G.inverse,
                                   G.generators)
        assert whole.generators == G.generators
    G = quaternion_group()
    Hg, _, _ = subgroup_as_group(subgroup_closure(G, {Q8_K}))
    assert Hg is not G


def test_group_hom_validation():
    G = cyclic(4)
    H = cyclic(2)
    GroupHom(G, H, [0, 1, 0, 1])
    with pytest.raises(InvalidInput):
        GroupHom(G, H, [0, 1, 1, 0])
