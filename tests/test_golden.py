"""Golden CLI reports: every case's report, apart from ``timing_ms``, must
match the file under tests/golden/ byte for byte.

The cases cover the docs/examples command lines, reports carrying F_p
coefficients (``cocycle associate``/``frame``, ``graded weights`` and
``cocycle t2`` over F_5), one with Q coefficients (``cocycle t2``), the
field-spec errors, and the commands that validate actions and groupoids
(``groupoid gauge``/``quotient``/``split``/``mult-function`` and ``dpg
gamma-from-actions`` on S3 shapes), with the first failing witness of a
broken action and of a groupoid with a swapped, a missing and an extra
product, and the coboundary search of ``cocycle cohomologous`` (a late
witness, an exhausted search, a cap overflow, an isolated chart and a full
nerve with triple overlaps), ``group validate`` on a table, on
permutation inputs (S5, and an abelian set that is not transitive) and on a
closure over ``--max-order``, ``dpg dressing`` (Q8, and two non-normal S4
subgroups that do not generate, naming the first conjugator and the least
missing element), ``ntuple verify`` on Q8 (each child failing) and on a
Z6 four-tuple failing two levels down, witnesses named by their rank in the
level, and ``graded check-morphism``/``check-compat`` (a
passing and a failing map, a shear-conjugated and a multi-signature pair of
structures, and the input errors whose details spell a weight: a singular
conjugating map, an axis beyond a simple signature, a negative and a
duplicate block), and ``aut verify-p54`` on a one-grading model whose G^1
does not generate, and ``cocycle associate``/``frame`` on their
docs/examples inputs, on inferred orientations and an element outside the
group, and on frame inputs that break the inverse or triple law, hold an
illegal slot or a singular linear block, or miss an orientation, and on
models of three gradings and of one, which they refuse.  Further
cases pin each verdict error a command reports
as a failure (a non-associative table, a fixed point, two actions that are
not compatible or not free, a singular chart), the other failures of ``dpg
gamma-from-actions`` (an induced Γ-action that is not free, a twist that
fails at a point, and a pair compatible in one direction only), a passing
``ntuple verify`` (Z2^3 and its coordinate hyperplanes), ``dpg verify`` on
subgroups spelled ``{"members": [...]}``, and a group-axiom error under
``dpg verify``, which stays an input error.  Every subcommand has a
case.
Regenerate the files only for an intended change of report content:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import json
import os
import sys

import pytest

from ntpg.cli import build_parser, main
from ntpg.named import cyclic, quaternion_group, symmetric

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "docs", "examples")
GOLDEN = os.path.join(ROOT, "tests", "golden")

D111 = {"mode": "multi", "n": 2,
        "blocks": [{"sigma": [1, 0], "dim": 1},
                   {"sigma": [0, 1], "dim": 1},
                   {"sigma": [1, 1], "dim": 1}]}
LINE = {"mode": "simple", "dims": [], "base": 1}
# one coordinate of each degree e_i, for three and for one grading
E3 = {"mode": "multi", "n": 3,
      "blocks": [{"sigma": [1, 0, 0], "dim": 1},
                 {"sigma": [0, 1, 0], "dim": 1},
                 {"sigma": [0, 0, 1], "dim": 1}]}
E1 = {"mode": "multi", "n": 1, "blocks": [{"sigma": [1], "dim": 1}]}
S3 = [list(row) for row in symmetric(3).table]
Z2 = [list(row) for row in cyclic(2).table]
Z6 = [list(row) for row in cyclic(6).table]
S4 = [list(row) for row in symmetric(4).table]
Q8 = [list(row) for row in quaternion_group().table]
# S5 from a 5-cycle and a transposition
S5_PERMS = {"permutations": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]}
# Z2^3 by three disjoint transpositions: abelian, with three orbits
Z2CUBED_PERMS = {"permutations": [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5],
                                  [0, 1, 2, 3, 5, 4]]}


def _group(table):
    return {"order": len(table), "table": table}


def _free_action(t, copies):
    """t acting on copies of itself by right multiplication."""
    n = len(t)
    return {"group": _group(t), "points": n * copies,
            "act": [[i * n + t[x][h] for i in range(copies) for x in range(n)]
                    for h in range(n)]}


def _built_groupoid(t, k, c):
    """The pair groupoid on k objects times^b the group t, with
    b(p, q) = c[p] c[q]^-1 and t acting on the second factor.  Base arrow
    (p, q) runs q -> p; arrow (y0, g) is coded y0 * n + g."""
    n = len(t)
    inv = [row.index(t.index(list(range(n)))) for row in t]
    base = [(p, q) for p in range(k) for q in range(k)]
    b = [t[c[p]][inv[c[q]]] for p, q in base]
    src = [q * n + g for p, q in base for g in range(n)]
    tgt = [p * n + t[b[y0]][g] for y0, (p, q) in enumerate(base)
           for g in range(n)]
    inv_arrow = [(q * k + p) * n + t[b[y0]][g]
                 for y0, (p, q) in enumerate(base) for g in range(n)]
    ids = [(x * k + x) * n + g for x in range(k) for g in range(n)]
    mul = [[y0 * n + t[b[q * k + r]][g2], (q * k + r) * n + g2,
            (p * k + r) * n + g2]
           for y0, (p, q) in enumerate(base) for r in range(k)
           for g2 in range(n)]
    return {"groupoid": {"objects": k * n, "src": src, "tgt": tgt,
                         "id": ids, "inv": inv_arrow, "mul": mul},
            "group": _group(t),
            "act": [[(a // n) * n + t[a % n][h] for a in range(k * k * n)]
                    for h in range(n)]}


def _group_pair_groupoid(t, k):
    """The pair groupoid on k objects times the group t, under the trivial
    group: arrow (p, q, g) runs q -> p, is coded (p * k + q) * n + g and
    (p, q, g)(q, r, h) = (p, r, gh)."""
    n = len(t)
    e = t.index(list(range(n)))
    inv = [row.index(e) for row in t]
    arrows = [(p, q, g) for p in range(k) for q in range(k) for g in range(n)]
    mul = [[(p * k + q) * n + g, (q * k + r) * n + h,
            (p * k + r) * n + t[g][h]]
           for p, q, g in arrows for r in range(k) for h in range(n)]
    return {"groupoid": {"objects": k,
                         "src": [q for p, q, g in arrows],
                         "tgt": [p for p, q, g in arrows],
                         "id": [(x * k + x) * n + e for x in range(k)],
                         "inv": [(q * k + p) * n + inv[g]
                                 for p, q, g in arrows],
                         "mul": mul},
            "group": _group([[0]]),
            "act": [list(range(k * k * n))]}


def _broken_groupoid(kind):
    """An S3 groupoid with one product swapped, dropped or added."""
    if kind == "swapped":
        # products 145 and 146 share their endpoints and neither is a unit
        # or inverse law, so only associativity fails
        obj = _group_pair_groupoid(S3, 2)
        mul = obj["groupoid"]["mul"]
        mul[145][2], mul[146][2] = mul[146][2], mul[145][2]
        return obj
    obj = _built_groupoid(S3, 2, [0, 4])
    mul = obj["groupoid"]["mul"]
    if kind == "missing":
        del mul[30]
    else:
        mul.append([0, 6, 0])
    return obj


def _broken_action():
    obj = _free_action(S3, 2)
    row = obj["act"][3]
    row[1], row[2] = row[2], row[1]
    return {"action": obj}


def _cohomologous(t, overlaps, c1, lam=None, c2=None, charts=None,
                  triples=()):
    """A ``cocycle cohomologous`` input with c1 and c2 given on the overlaps
    in order; unless c2 is given it is c1 twisted by the family lam,
    c2_ij = lam_i c1_ij lam_j^-1."""
    if c2 is None:
        e = t.index(list(range(len(t))))
        c2 = [t[t[lam[i]][v]][t[lam[j]].index(e)]
              for (i, j), v in zip(overlaps, c1)]
    return {"group": _group(t),
            "charts": len(lam) if charts is None else charts,
            "overlaps": overlaps, "triples": list(triples),
            "c1": [{"pair": p, "element": v} for p, v in zip(overlaps, c1)],
            "c2": [{"pair": p, "element": v} for p, v in zip(overlaps, c2)]}


CIRCLE4 = [[0, 1], [1, 2], [2, 3], [0, 3]]
TRIANGLE = [[0, 1], [1, 2], [0, 2]]
# S3 on three charts without triple overlaps: holonomy 1 against holonomy
# of order 2, so no family exists
UNTWISTED = _cohomologous(S3, TRIANGLE, [0, 0, 0], c2=[1, 0, 0], charts=3)
SIMPLE_11 = {"mode": "simple", "dims": [1, 1]}


def _map(terms):
    """A ``graded`` polymap over Q on (x, y) of weights (1, 2); each term is
    (target, exponents)."""
    return {"field": "Q", "sig_in": SIMPLE_11, "sig_out": SIMPLE_11,
            "terms": [{"target": t, "exponents": e, "num": "1"}
                      for t, e in terms]}


# (x, y) -> (x, y + x^2)
SHEAR = [(0, [1, 0]), (1, [0, 1]), (1, [2, 0])]


# the smallest loop that is not a group: a Latin square with identity 0
# and inverses, not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _pair_of_actions(rho, rho_prime):
    """A ``dpg gamma-from-actions`` input: Z2 by rho and Z3 by rho_prime on
    six points."""
    Z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    return {"points": 6,
            "rho": {"group": _group(Z2), "points": 6, "act": rho},
            "rho_prime": {"group": _group(Z3), "points": 6,
                          "act": rho_prime}}


def _cyclic_pair(act_prime):
    """A ``dpg gamma-from-actions`` input on four points: Z4 by the cycle
    (0 1 2 3) and a cyclic group by the rows act_prime."""
    def cyc(n):
        return [[(a + b) % n for b in range(n)] for a in range(n)]
    return {"points": 4,
            "rho": {"group": _group(cyc(4)), "points": 4, "act": cyc(4)},
            "rho_prime": {"group": _group(cyc(len(act_prime))), "points": 4,
                          "act": act_prime}}


def _z2_on_pairs(kind):
    """Z2 on the pair groupoid of two objects: trivially (compatible, not
    free), or by swapping the unit 0 with the arrow 1 (not compatible)."""
    obj = _group_pair_groupoid([[0]], 2)
    obj["group"] = _group(Z2)
    obj["act"] = [[0, 1, 2, 3],
                  [0, 1, 2, 3] if kind == "not_free" else [1, 0, 2, 3]]
    return obj


def _associate(charts, overlaps, values, sig=D111):
    """A ``cocycle associate`` input on a model over F3, D111 unless ``sig``
    is given; values are (pair, element index)."""
    return {"model": {"sig": sig, "field": {"Fp": 3}},
            "cocycle": {"charts": charts, "overlaps": overlaps,
                        "values": [{"pair": p, "element": k}
                                   for p, k in values]}}


def _frame(charts, overlaps, values, triples=(), sig=D111):
    """A ``cocycle frame`` input on a model over F3, D111 unless ``sig`` is
    given; values are (pair, [(target, exponents, num)])."""
    return {"model": {"sig": sig, "field": {"Fp": 3}},
            "cocycle": {"charts": charts, "overlaps": overlaps,
                        "triples": list(triples),
                        "values": [{"pair": p, "terms": [
                            {"target": t, "exponents": e, "num": num}
                            for t, e, num in terms]} for p, terms in values]}}


IDENTITY = [(0, [1, 0, 0], "1"), (1, [0, 1, 0], "1"), (2, [0, 0, 1], "1")]
AUT_A = [(0, [1, 0, 0], "2"), (1, [0, 1, 0], "1"), (2, [1, 1, 0], "1"),
         (2, [0, 0, 1], "1")]


def _example(name):
    return os.path.join(EXAMPLES, name)


# name -> (argv, {placeholder: input object}); "{x}" in argv stands for the
# path of input x, written to a temporary file
CASES = {
    "group_validate_q8": (["group", "validate", "{grp}"], {
        "grp": _group(Q8)}),
    "group_validate_s5_perms": (["group", "validate", "{grp}"], {
        "grp": S5_PERMS}),
    "group_validate_z2cubed_perms": (["group", "validate", "{grp}"], {
        "grp": Z2CUBED_PERMS}),
    "group_validate_s5_over_max_order": (
        ["group", "validate", "{grp}", "--max-order", "119"], {
            "grp": S5_PERMS}),
    "dpg_verify_q8": (["dpg", "verify", _example("q8_dpg.json")], {}),
    "dpg_dressing_q8": (["dpg", "dressing", _example("q8_dpg.json")], {}),
    # S4 in lexicographic order: 1 and 2 are the transpositions (2 3) and
    # (1 2), which generate the S3 on {1, 2, 3}
    "dpg_dressing_not_normal_s4": (["dpg", "dressing", "{dpg}", "--subgroups",
                                    "1;2"], {"dpg": {"gamma": _group(S4)}}),
    "ntuple_verify_q8": (["ntuple", "verify", _example("q8_dpg.json"),
                          "--subgroups", "2;4;6"], {}),
    # (Z6; <3>, <2>, Z6, 1) fails only two levels down, where the missing
    # element is named by its rank in that level: 1 in {0, 3} and {0, 2, 4}
    "ntuple_verify_z6_depth_2": (["ntuple", "verify", "{nt}"], {
        "nt": {"gamma": _group(Z6),
               "subgroups": [[0, 3], [0, 2, 4], list(range(6)), [0]]}}),
    "aut_verify_p54_d111_f3": (["aut", "verify-p54", "--sig",
                                _example("d111_sig.json"), "--field",
                                "Fp:3"], {}),
    # one grading: Aut is Z2 and G^1 is trivial, so G^1 does not generate
    "aut_verify_p54_one_grading_f3": (["aut", "verify-p54", "--sig", "{sig}",
                                       "--field", "Fp:3"], {"sig": {
        "mode": "multi", "n": 1, "blocks": [{"sigma": [1], "dim": 1}]}}),
    "aut_enumerate_d111_f2": (["aut", "enumerate", "--sig",
                               _example("d111_sig.json"), "--field",
                               "Fp:2"], {}),
    "aut_enumerate_f4": (["aut", "enumerate", "--sig",
                          _example("d111_sig.json"), "--field", "Fp:4"], {}),
    "aut_enumerate_f101": (["aut", "enumerate", "--sig",
                            _example("d111_sig.json"), "--field",
                            "Fp:101"], {}),
    "cocycle_check_z3": (["cocycle", "check", _example("z3_cocycle.json")],
                         {}),
    "cocycle_t2_q": (["cocycle", "t2", _example("t2_chart.json")], {}),
    "cocycle_t2_f5": (["cocycle", "t2", "{chart}"], {"chart": {
        "field": {"Fp": 5}, "sig_in": LINE, "sig_out": LINE,
        "terms": [{"target": 0, "exponents": [1], "num": "1"},
                  {"target": 0, "exponents": [2], "num": "3"},
                  {"target": 0, "exponents": [3], "num": "7", "den": "2"}]}}),
    "cocycle_associate_d111_f3": (["cocycle", "associate",
                                   _example("d111_assoc.json")], {}),
    # values given on (1, 0) and (2, 1) only: (0, 1) and (1, 2) are inferred
    "cocycle_associate_inferred_orientations": (
        ["cocycle", "associate", "{assoc}"], {"assoc": _associate(
            3, [[0, 1], [1, 2]], [([1, 0], 10), ([2, 1], 17)])}),
    "cocycle_associate_out_of_range": (["cocycle", "associate", "{assoc}"], {
        "assoc": _associate(2, [[0, 1]], [([0, 1], 24)])}),
    # the CLI builds the standard model of double gradings only
    "cocycle_associate_three_gradings": (["cocycle", "associate", "{assoc}"], {
        "assoc": _associate(2, [[0, 1]], [([0, 1], 0)], sig=E3)}),
    "cocycle_associate_one_grading": (["cocycle", "associate", "{assoc}"], {
        "assoc": _associate(2, [[0, 1]], [([0, 1], 0)], sig=E1)}),
    "cocycle_frame_three_gradings": (["cocycle", "frame", "{frame}"], {
        "frame": _frame(2, [[0, 1]], [([0, 1], IDENTITY)], sig=E3)}),
    "cocycle_frame_d111_f3": (["cocycle", "frame", _example("d111_frame.json")],
                              {}),
    # A = (y, y', z) -> (2y, y', yy' + z) is an involution over F3
    "cocycle_frame_inverse_law": (["cocycle", "frame", "{frame}"], {
        "frame": _frame(2, [[0, 1]], [([0, 1], IDENTITY), ([1, 0], AUT_A)])}),
    "cocycle_frame_triple_law": (["cocycle", "frame", "{frame}"], {
        "frame": _frame(3, TRIANGLE, [([0, 1], AUT_A), ([1, 2], AUT_A),
                                      ([0, 2], AUT_A)], triples=[[0, 1, 2]])}),
    # y' in the slot of y
    "cocycle_frame_illegal_monomial": (["cocycle", "frame", "{frame}"], {
        "frame": _frame(2, [[0, 1]], [([0, 1], [(0, [0, 1, 0], "1"),
                                                (1, [0, 1, 0], "1"),
                                                (2, [0, 0, 1], "1")])])}),
    # no y term: the linear block of y is singular
    "cocycle_frame_singular_block": (["cocycle", "frame", "{frame}"], {
        "frame": _frame(2, [[0, 1]], [([0, 1], IDENTITY[1:])])}),
    "cocycle_frame_missing_orientation": (["cocycle", "frame", "{frame}"], {
        "frame": _frame(3, [[0, 1], [1, 2]], [([0, 1], AUT_A)])}),
    "graded_weights_f5": (["graded", "weights",
                           _example("f5_polynomial.json")], {}),
    "graded_check_morphism_shear_q": (["graded", "check-morphism", "{map}"], {
        "map": _map(SHEAR)}),
    "graded_check_morphism_swap_q": (["graded", "check-morphism", "{map}"], {
        "map": _map([(0, [0, 1]), (1, [1, 0])])}),
    "graded_check_compat_shear_q": (["graded", "check-compat", "{st}"], {
        "st": {"field": "Q", "structures": [
            {"kind": "diagonal", "sig": SIMPLE_11},
            {"kind": "conjugated", "sig": SIMPLE_11,
             "phi": _map(SHEAR)["terms"]}]}}),
    "graded_check_compat_d111_f3": (["graded", "check-compat", "{st}"], {
        "st": {"field": {"Fp": 3}, "structures": [
            {"sig": D111, "axis": 0}, {"sig": D111, "axis": 1}]}}),
    # the error details below spell a weight the way the input did: an
    # integer for a simple signature, a list for a multi one
    "graded_check_compat_singular_phi_q": (
        ["graded", "check-compat", "{st}"], {
            "st": {"field": "Q", "structures": [
                {"kind": "diagonal", "sig": SIMPLE_11},
                {"kind": "conjugated", "sig": SIMPLE_11,
                 "phi": _map([(1, [0, 1])])["terms"]}]}}),
    "graded_check_compat_simple_axis_1": (
        ["graded", "check-compat", "{st}"], {
            "st": {"field": "Q", "structures": [
                {"sig": SIMPLE_11, "axis": 1}]}}),
    "graded_check_morphism_negative_dim": (
        ["graded", "check-morphism", "{map}"], {
            "map": {"field": "Q", "sig_in": {"mode": "simple",
                                             "dims": [1, -1]},
                    "sig_out": SIMPLE_11, "terms": []}}),
    "graded_check_compat_duplicate_base_block": (
        ["graded", "check-compat", "{st}"], {
            "st": {"field": "Q", "structures": [
                {"sig": {"mode": "multi", "n": 2, "base": 1,
                         "blocks": [{"sigma": [0, 0], "dim": 1},
                                    {"sigma": [1, 0], "dim": 1}]}}]}}),
    "groupoid_gauge_s3": (["groupoid", "gauge", "{gauge}"], {
        "gauge": {"action": _free_action(S3, 2)}}),
    "groupoid_gauge_not_an_action": (["groupoid", "gauge", "{gauge}"], {
        "gauge": _broken_action()}),
    # docs/examples/s3_groupoid_action.json is _built_groupoid(S3, 2, [0, 4])
    "groupoid_quotient_s3": (["groupoid", "quotient",
                              _example("s3_groupoid_action.json")], {}),
    "groupoid_split_s3": (["groupoid", "split", "{ga}"], {
        "ga": _built_groupoid(S3, 3, [1, 0, 5])}),
    "groupoid_mult_function_s3": (["groupoid", "mult-function", "{ga}"], {
        "ga": _built_groupoid(S3, 3, [1, 0, 5])}),
    "groupoid_quotient_swapped_product": (["groupoid", "quotient", "{ga}"], {
        "ga": _broken_groupoid("swapped")}),
    "groupoid_quotient_missing_product": (["groupoid", "quotient", "{ga}"], {
        "ga": _broken_groupoid("missing")}),
    "groupoid_quotient_extra_product": (["groupoid", "quotient", "{ga}"], {
        "ga": _broken_groupoid("extra")}),
    "dpg_gamma_from_actions_s3xz2": (["dpg", "gamma-from-actions", "{pair}"], {
        "pair": {"points": 12,
                 # S3 x 1 and 1 x Z2 acting on S3 x Z2, coded a * 2 + b
                 "rho": {"group": _group(S3), "points": 12,
                         "act": [[S3[x // 2][a] * 2 + x % 2
                                  for x in range(12)] for a in range(6)]},
                 "rho_prime": {"group": _group(Z2), "points": 12,
                               "act": [[x // 2 * 2 + Z2[x % 2][b]
                                        for x in range(12)]
                                       for b in range(2)]}}}),
    "cocycle_cohomologous_late_s4": (["cocycle", "cohomologous", "{coh}"], {
        "coh": _cohomologous(S4, CIRCLE4, [5, 11, 17, 11],
                             lam=[23, 13, 7, 3])}),
    "cocycle_cohomologous_exhausted_s3": (
        ["cocycle", "cohomologous", "{coh}"], {"coh": UNTWISTED}),
    "cocycle_cohomologous_over_cap": (
        ["cocycle", "cohomologous", "{coh}", "--max-candidates", "10"],
        {"coh": UNTWISTED}),
    "cocycle_cohomologous_isolated_chart_s3": (
        ["cocycle", "cohomologous", "{coh}"], {
            "coh": _cohomologous(S3, [[0, 1]], [3], lam=[2, 5, 4])}),
    "cocycle_cohomologous_full_q8": (["cocycle", "cohomologous", "{coh}"], {
        # c1 = (a, b, ab) on (01, 12, 02)
        "coh": _cohomologous(Q8, TRIANGLE, [2, 4, Q8[2][4]], lam=[6, 3, 5],
                             triples=[[0, 1, 2]])}),
    # a verdict error raised inside a handler is a failure with its witness
    "group_validate_nonassociative": (["group", "validate", "{grp}"], {
        "grp": _group(LOOP5)}),
    "groupoid_gauge_fixed_point": (["groupoid", "gauge", "{gauge}"], {
        "gauge": {"action": {"group": _group(Z2), "points": 3,
                             "act": [[0, 1, 2], [1, 0, 2]]}}}),
    "dpg_gamma_from_actions_not_compatible": (
        ["dpg", "gamma-from-actions", "{pair}"], {"pair": _pair_of_actions(
            [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4]],
            [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4]])}),
    "dpg_gamma_from_actions_not_free": (
        ["dpg", "gamma-from-actions", "{pair}"], {"pair": _pair_of_actions(
            [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 4, 5]],
            [[0, 1, 2, 3, 4, 5], [2, 3, 4, 5, 0, 1], [4, 5, 0, 1, 2, 3]])}),
    # the induced action of (Z2 ⋉ Z4)/G0 fixes a point
    "dpg_gamma_from_actions_gamma_not_free": (
        ["dpg", "gamma-from-actions", "{pair}"], {"pair": _cyclic_pair(
            [[0, 1, 2, 3], [3, 2, 1, 0]])}),
    # a twist candidate exists for every pair but fails at a point
    "dpg_gamma_from_actions_twist_fails": (
        ["dpg", "gamma-from-actions", "{pair}"], {"pair": _cyclic_pair(
            [[0, 1, 2, 3], [2, 0, 3, 1], [3, 2, 1, 0], [1, 3, 0, 2]])}),
    # pgg' = pg'g_{g'} holds but pg'g = pgg'_g does not: Z3 by
    # (0 1 2)(3 4 5) and Z2 by (0 3)(1 5)(2 4)
    "dpg_gamma_from_actions_reverse_not_compatible": (
        ["dpg", "gamma-from-actions", "{pair}"], {"pair": {
            "points": 6,
            "rho": {"group": _group([[(a + b) % 3 for b in range(3)]
                                     for a in range(3)]),
                    "points": 6, "act": [[0, 1, 2, 3, 4, 5],
                                         [1, 2, 0, 4, 5, 3],
                                         [2, 0, 1, 5, 3, 4]]},
            "rho_prime": {"group": _group(Z2), "points": 6,
                          "act": [[0, 1, 2, 3, 4, 5],
                                  [3, 5, 4, 0, 2, 1]]}}}),
    # Z2^3 with its three coordinate hyperplanes is 3-tuple principal
    "ntuple_verify_z2cubed_hyperplanes": (["ntuple", "verify", "{nt}"], {
        "nt": {"gamma": _group([[a ^ b for b in range(8)] for a in range(8)]),
               "subgroups": [[x for x in range(8) if not x >> i & 1]
                             for i in range(3)]}}),
    # the README's {"members": [...]} spelling of dpg_verify_q8's subgroups
    "dpg_verify_q8_members": (["dpg", "verify", "{dpg}"], {
        "dpg": {"gamma": _group(Q8),
                "subgroups": [{"members": [0, 1, 2, 3]},
                              {"members": [0, 1, 4, 5]}]}}),
    "cocycle_t2_singular_q": (["cocycle", "t2", "{chart}"], {"chart": {
        "field": "Q", "sig_in": LINE, "sig_out": LINE,
        "terms": [{"target": 0, "exponents": [2], "num": "1"}]}}),
    # a group-axiom error outside group validate is an input error
    "dpg_verify_not_latin": (["dpg", "verify", "{dpg}"], {
        "dpg": {"gamma": _group([[0, 0], [1, 1]]),
                "subgroups": [[0], [0]]}}),
    "groupoid_quotient_not_free": (["groupoid", "quotient", "{ga}"], {
        "ga": _z2_on_pairs("not_free")}),
    "groupoid_split_not_compatible": (["groupoid", "split", "{ga}"], {
        "ga": _z2_on_pairs("not_compatible")}),
    "groupoid_split_not_free": (["groupoid", "split", "{ga}"], {
        "ga": _z2_on_pairs("not_free")}),
    "groupoid_mult_function_not_compatible": (
        ["groupoid", "mult-function", "{ga}"], {
            "ga": _z2_on_pairs("not_compatible")}),
    "groupoid_mult_function_not_free": (
        ["groupoid", "mult-function", "{ga}"], {
            "ga": _z2_on_pairs("not_free")}),
}


def render(name, workdir):
    """The case's exit code and its report text without ``timing_ms``."""
    argv, inputs = CASES[name]
    paths = {}
    for key, obj in inputs.items():
        paths[key] = os.path.join(workdir, key + ".json")
        with open(paths[key], "w") as fh:
            json.dump(obj, fh)
    out = os.path.join(workdir, "report.json")
    code = main([a.format(**paths) if a.startswith("{") else a
                 for a in argv] + ["--out", out])
    with open(out) as fh:
        written = fh.read()
    report = json.loads(written)
    # the CLI writes json's own indent-2 dump, byte for byte
    assert written == json.dumps(report, sort_keys=True, indent=2) + "\n"
    del report["timing_ms"]
    return code, json.dumps(report, sort_keys=True, indent=2) + "\n"


RC = {"pass": 0, "fail": 1, "error": 2}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(tmp_path, capsys, name):
    code, text = render(name, str(tmp_path))
    capsys.readouterr()
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert text == fh.read()
    assert code == RC[json.loads(text)["verdict"]]


def test_every_subcommand_has_a_golden_case():
    def choices(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    commands = {(group, name) for group, p in choices(build_parser()).items()
                for name in choices(p)}
    assert len(commands) == 19
    assert commands <= {tuple(argv[:2]) for argv, _ in CASES.values()}


def test_members_spelling_gives_the_bare_list_report(tmp_path):
    with open(_example("q8_dpg.json")) as fh:
        subgroups = json.load(fh)["subgroups"]
    assert CASES["dpg_verify_q8_members"][1]["dpg"]["subgroups"] == [
        {"members": m} for m in subgroups]
    assert (render("dpg_verify_q8_members", str(tmp_path))
            == render("dpg_verify_q8", str(tmp_path)))


def test_groupoid_action_example_is_the_built_groupoid():
    with open(_example("s3_groupoid_action.json")) as fh:
        assert json.load(fh) == _built_groupoid(S3, 2, [0, 4])


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            _, report = render(case, tmp)
            with open(os.path.join(GOLDEN, case + ".json"), "w") as fh:
                fh.write(report)
            print(case, file=sys.stderr)
