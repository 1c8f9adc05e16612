"""The fixed job lists of the three workloads, generated from a seed.

A job is one ``ntpg`` command line with its input files and known answer.
The seed changes element labels, chosen elements and mutation sites; it
never changes the number of jobs, the subcommand mix or the input sizes.
Known answers come from ``algebra`` (which does not import ``ntpg``) or
from the construction of the input itself.
"""

import copy
import json
import os
import random

import algebra as A
from check import (all_of, details_equal, error_kind, fails, malformed,
                   nonassociative, passes, principal_failures)


class Job:
    __slots__ = ("name", "argv", "files", "expect", "shape")

    def __init__(self, name, argv, files, expect, shape):
        self.name = name        # label used in failure listings
        self.argv = argv        # arguments after the program name
        self.files = files      # {file name: text} written before the run
        self.expect = expect    # check.Expect
        self.shape = shape      # sizes that must not depend on the seed

    @property
    def subcommand(self):
        return " ".join(self.argv[:2])


def _dump(obj):
    return json.dumps(obj, separators=(",", ":"))


def _gj(table):
    return {"order": len(table), "table": table}


def _perm(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return p


def _file_job(name, command, obj, expect, shape):
    fname = name.replace("/", "_") + ".json"
    argv = command.split() + [fname, "--out", fname[:-5] + ".report.json"]
    return Job(name, argv, {fname: _dump(obj)}, expect, shape)


def _relabelled(table, rng):
    perm = _perm(len(table), rng)
    return A.relabel(table, perm), perm


# -- shared constructions -------------------------------------------------------

def group_validate(name, table, rng):
    t, _ = _relabelled(table, rng)
    fp = {"order": len(t), "abelian": A.is_abelian(t)}
    return _file_job(name, "group validate", _gj(t),
                     passes(details_equal({"fingerprint": fp})),
                     ("group", len(t)))


def perm_group_validate(name, gens, rng):
    s = _perm(len(gens[0]), rng)
    gens = [A.conjugate_perm(g, s) for g in gens]
    els = A.perm_closure(gens)
    fp = {"order": len(els), "abelian": all(
        A.perm_mul(a, b) == A.perm_mul(b, a) for a in gens for b in gens)}
    obj = {"permutations": [list(g) for g in gens], "degree": len(s)}
    return _file_job(name, "group validate", obj,
                     passes(details_equal({"fingerprint": fp})),
                     ("perms", len(els)))


def intercalate_validate(name, table, rng):
    t, _ = _relabelled(table, rng)
    cells = A.find_intercalate(t, rng)
    bad = A.swap_intercalate(t, cells)
    if A.nonassociative_triple(bad, cells[0], cells[2]) is None:
        raise AssertionError("intercalate swap left the table associative")
    return _file_job(name, "group validate", _gj(bad),
                     fails(nonassociative(bad)), ("latin", len(t)))


def _dpg_input(factors, rng, members_of):
    """Relabelled direct product with the subgroups members_of(orders)."""
    t, perm = _relabelled(A.direct_product(*factors), rng)
    subs = [sorted(perm[x] for x in m)
            for m in members_of([len(f) for f in factors])]
    return t, subs


def _non_normal(rng, factors):
    """<s> x 1 for an s of the first factor whose cyclic subgroup is not
    normal in it (a reflection of a dihedral factor)."""
    first = factors[0]
    cands = [s for s in range(len(first))
             if not A.is_normal(first, A.closure(first, [s]))]
    stride = 1
    for f in factors[1:]:
        stride *= len(f)
    return sorted(x * stride for x in A.closure(first, [rng.choice(cands)]))


def dpg_jobs(prefix, factors, rng):
    """dpg verify (factor subgroups), dpg verify (a non-normal subgroup of
    the first factor, which must be dihedral) and dpg dressing on a
    relabelled A x B."""
    orders = [len(f) for f in factors]
    t, subs = _dpg_input(factors, rng, lambda o: [
        A.factor_members(o, 0), A.factor_members(o, 1)])
    n = len(t)
    jobs = []
    core = set(subs[0]) & set(subs[1])
    want = {"gamma_order": n, "g1_order": len(subs[0]),
            "g2_order": len(subs[1]), "core_order": len(core),
            "quotients": [len(subs[0]) // len(core),
                          len(subs[1]) // len(core)],
            "vacant": len(core) == 1, "product_fiber_size": len(core)}
    shape = ("dpg", n, tuple(orders))
    jobs.append(_file_job(prefix + "/verify", "dpg verify",
                          {"gamma": _gj(t), "subgroups": subs},
                          passes(details_equal(want)), shape))

    # a non-normal <s> x 1 in place of the first factor
    table = A.direct_product(*factors)
    bad_members = _non_normal(rng, factors)
    perm = _perm(n, rng)
    t2 = A.relabel(table, perm)
    bad = [sorted(perm[x] for x in bad_members),
           sorted(perm[x] for x in A.factor_members(orders, 1))]
    kinds = ["NotNormal"]
    if len(A.closure(t2, set(bad[0]) | set(bad[1]))) != n:
        kinds.append("NotGenerating")
    jobs.append(_file_job(prefix + "/verify-nonnormal", "dpg verify",
                          {"gamma": _gj(t2), "subgroups": bad},
                          fails(principal_failures(t2, bad, kinds)), shape))
    jobs.append(_file_job(prefix + "/dressing", "dpg dressing",
                          {"gamma": _gj(t), "subgroups": subs},
                          passes(dressing_check(t, subs)), shape))
    return jobs


def dressing_check(table, subs):
    inv = A.inverses(table)
    size = len(subs[0]) * len(subs[1])

    def check(report):
        d = report["details"]
        problems = []
        if len(d["g_on_gprime"]) != size or len(d["gprime_on_g"]) != size:
            problems.append("dressing tables have the wrong size")
        for g, gp, v in d["g_on_gprime"]:
            if v != table[table[inv[gp]][g]][gp]:
                problems.append("g_{g'} wrong at %r" % ([g, gp],))
                break
        for gp, g, v in d["gprime_on_g"]:
            if v != table[table[inv[g]][gp]][g]:
                problems.append("g'_g wrong at %r" % ([gp, g],))
                break
        return problems
    return check


def ntuple_jobs(prefix, factors, rng):
    """ntuple verify with the co-factor subgroups (pass) and with the first
    replaced by a non-normal subgroup of the first factor, which must be
    dihedral (top-level failure)."""
    orders = [len(f) for f in factors]
    k = len(factors)
    t, subs = _dpg_input(factors, rng, lambda o: [
        A.cofactor_members(o, i) for i in range(k)])
    n = len(t)
    shape = ("ntuple", n, tuple(orders))
    want = {"gamma_order": n, "n": k,
            "subgroup_orders": [len(s) for s in subs]}

    def ok(report):
        problems = details_equal(want)(report)
        stack = [report["details"]["trace"]]
        while stack:
            node = stack.pop()
            if node["failures"]:
                problems.append("failure at %r" % (node["path"],))
            stack.extend(node["children"])
        if len(report["details"]["trace"]["children"]) != k:
            problems.append("recursion trace missing")
        return problems
    jobs = [_file_job(prefix + "/ntuple", "ntuple verify",
                      {"gamma": _gj(t), "subgroups": subs}, passes(ok), shape)]

    table = A.direct_product(*factors)
    bad_members = _non_normal(rng, factors)
    perm = _perm(n, rng)
    t2 = A.relabel(table, perm)
    bad = [sorted(perm[x] for x in (bad_members if i == 0 else
                                   A.cofactor_members(orders, i)))
           for i in range(k)]
    kinds = ["NotNormal"]
    if len(A.closure(t2, set().union(*map(set, bad)))) != n:
        kinds.append("NotGenerating")
    jobs.append(_file_job(prefix + "/ntuple-nonnormal", "ntuple verify",
                          {"gamma": _gj(t2), "subgroups": bad},
                          fails(principal_failures(t2, bad, kinds)), shape))
    return jobs


def pipeline_job(name, fa, fb, rng):
    """dpg gamma-from-actions for A x 1 and 1 x B acting on A x B by right
    multiplication, with points, A and B relabelled."""
    na, nb = len(fa), len(fb)
    prod = A.direct_product(fa, fb)
    n = na * nb
    pts = _perm(n, rng)
    pa, pb = _perm(na, rng), _perm(nb, rng)
    act_a = [None] * na
    for a in range(na):
        row = [0] * n
        for x in range(n):
            row[pts[x]] = pts[prod[x][a * nb]]
        act_a[pa[a]] = row
    act_b = [None] * nb
    for b in range(nb):
        row = [0] * n
        for x in range(n):
            row[pts[x]] = pts[prod[x][b]]
        act_b[pb[b]] = row
    obj = {"points": n,
           "rho": {"group": _gj(A.relabel(fa, pa)), "points": n, "act": act_a},
           "rho_prime": {"group": _gj(A.relabel(fb, pb)), "points": n,
                         "act": act_b}}
    want = {"gamma_order": n, "kernel_order": 1, "m_size": nb,
            "m_prime_size": na, "m0_size": 1}

    def check(report):
        problems = details_equal(want)(report)
        if report["details"]["gamma"]["order"] != n:
            problems.append("gamma table has the wrong order")
        return problems
    return _file_job(name, "dpg gamma-from-actions", obj, passes(check),
                     ("pipeline", n))


def free_action(group, copies, rng):
    """group acting on copies of itself by right multiplication."""
    g = len(group)
    n = g * copies
    pts = _perm(n, rng)
    act = []
    for h in range(g):
        row = [0] * n
        for i in range(copies):
            for x in range(g):
                row[pts[i * g + x]] = pts[i * g + group[x][h]]
        act.append(row)
    return n, act


def gauge_job(name, group, copies, rng):
    t, _ = _relabelled(group, rng)
    n, act = free_action(t, copies, rng)
    g = len(t)
    want = {"objects": copies, "arrows": copies * copies * g}

    def check(report):
        d = report["details"]
        gpd = d["groupoid"]
        problems = details_equal(want)(
            {"details": {k: gpd[k] for k in want}})
        if len(gpd["mul"]) != copies ** 3 * g * g:
            problems.append("composable pairs %d" % len(gpd["mul"]))
        reps = [tuple(r) for r in d["arrow_reps"]]
        if len(set(reps)) != len(reps):
            problems.append("arrow representatives repeat")
        for p, q in reps:
            if min((act[h][p], act[h][q]) for h in range(g)) != (p, q):
                problems.append("representative %r is not least" % ((p, q),))
                break
        return problems
    obj = {"points": n, "action": {"group": _gj(t), "points": n, "act": act}}
    return _file_job(name, "groupoid gauge", obj, passes(check),
                     ("gauge", n, g))


def built_groupoid(group, k, rng):
    """The G-groupoid (pair groupoid on k objects) x^b G with
    b(p, q) = c(p) c(q)^-1, G acting on the second factor.  Arrow (p, q)
    of the base runs q -> p and is coded p*k + q."""
    t, _ = _relabelled(group, rng)
    n = len(t)
    inv = A.inverses(t)
    c = [rng.randrange(n) for _ in range(k)]
    base = [(p, q) for p in range(k) for q in range(k)]
    b = [t[c[p]][inv[c[q]]] for p, q in base]
    src, tgt, inv_arrow = [], [], []
    for y0, (p, q) in enumerate(base):
        for g in range(n):
            src.append(q * n + g)
            tgt.append(p * n + t[b[y0]][g])
            inv_arrow.append((q * k + p) * n + t[b[y0]][g])
    ids = [(x * k + x) * n + g for x in range(k) for g in range(n)]
    mul = []
    for y0, (p, q) in enumerate(base):
        for r in range(k):
            y1 = q * k + r
            for g2 in range(n):
                g1 = t[b[y1]][g2]
                mul.append([y0 * n + g1, y1 * n + g2, (p * k + r) * n + g2])
    act = [[(a // n) * n + t[a % n][h] for a in range(k * k * n)]
           for h in range(n)]
    obj = {"groupoid": {"objects": k * n, "src": src, "tgt": tgt, "id": ids,
                        "inv": inv_arrow, "mul": mul},
           "group": _gj(t), "act": act}
    return obj, t, act


def groupoid_jobs(prefix, group, k, rng, commands):
    obj, t, act = built_groupoid(group, k, rng)
    arrows = k * k * len(t)

    def base_ok(base):
        out = []
        if base["objects"] != k or base["arrows"] != k * k:
            out.append("base has %d objects, %d arrows" %
                       (base["objects"], base["arrows"]))
        return out

    def split_check(report):
        d = report["details"]
        out = base_ok(d["base"])
        if d["fiber_product_size"] != arrows:
            out.append("fiber product size %d" % d["fiber_product_size"])
        return out

    def mult_check(report):
        d = report["details"]
        out = base_ok(d["base"])
        b = d["b"]
        for y0, y1, prod in d["base"]["mul"]:
            if t[b[y0]][b[y1]] != b[prod]:
                out.append("b is not multiplicative at %r" % ([y0, y1],))
                break
        return out

    def quotient_check(report):
        d = report["details"]
        out = base_ok(d["groupoid"])
        amap = d["arrow_map"]
        if any(amap[row[a]] != amap[a] for row in act for a in range(arrows)):
            out.append("arrow map is not constant on orbits")
        if len(set(amap)) != k * k:
            out.append("arrow map has %d values" % len(set(amap)))
        return out
    checks = {"groupoid split": split_check,
              "groupoid mult-function": mult_check,
              "groupoid quotient": quotient_check}
    shape = ("groupoid", arrows, len(t))
    return [_file_job("%s/%s" % (prefix, cmd.split()[1]), cmd, obj,
                      passes(checks[cmd]), shape) for cmd in commands]


def circle_cocycles(group, charts, late_labels, rng, exhausted):
    """Cocycles c1, c2 on a circle nerve, relabelled so that the first
    coboundary family of the grid search sits at the digits late_labels
    (or, when exhausted, so that none exists).

    On a circle the solutions for c2 = lam*.c1 are lam* z with z_0 in the
    centralizer of the holonomy h; labels are assigned so that lam*_0 has
    the smallest label of its coset lam*_0 C(h).
    """
    g = len(group)
    inv = A.inverses(group)
    pairs = [(i, i + 1) for i in range(charts - 1)] + [(0, charts - 1)]
    c1 = {p: rng.randrange(g) for p in pairs[:-1]}
    walk = A.identity(group)
    for p in pairs[:-1]:
        walk = group[walk][c1[p]]
    # h = c1_01 ... c1_(n-2,n-1) c1_(n-1,0): pick h of the largest order
    orders = {}
    for x in range(g):
        k, y = 1, x
        while y != A.identity(group):
            y, k = group[y][x], k + 1
        orders[x] = k
    top = max(orders.values())
    h = rng.choice([x for x in range(g) if orders[x] == top])
    if exhausted:
        h2 = rng.choice([x for x in range(g) if orders[x] != top])
    # c1_(0,n-1) = (c1_(n-1,0))^-1 and walk * c1_(n-1,0) = h
    c1[pairs[-1]] = inv[group[inv[walk]][h]]
    cent = [z for z in range(g) if group[z][h] == group[h][z]]
    lam0 = rng.randrange(g)
    coset = {group[lam0][z] for z in cent}
    label = [None] * g
    top_labels = list(range(late_labels[0] + 1,
                            late_labels[0] + len(coset)))
    label[lam0] = late_labels[0]
    rest_coset = sorted(coset - {lam0})
    rng.shuffle(top_labels)
    for x, lab in zip(rest_coset, top_labels):
        label[x] = lab
    free = [lab for lab in range(g) if lab not in label]
    rng.shuffle(free)
    for x in range(g):
        if label[x] is None:
            label[x] = free.pop()
    by_label = {lab: x for x, lab in enumerate(label)}
    lam = [lam0] + [by_label[lab] for lab in late_labels[1:]]
    src = dict(c1)
    if exhausted:
        src[pairs[-1]] = inv[group[inv[walk]][h2]]
    c2 = {(i, j): group[group[lam[i]][src[(i, j)]]][inv[lam[j]]]
          for (i, j) in pairs}
    t = A.relabel(group, label)
    c1l = {p: label[v] for p, v in c1.items()}
    c2l = {p: label[v] for p, v in c2.items()}
    return t, pairs, c1l, c2l


def cohomologous_job(name, group, charts, late_labels, rng, exhausted):
    t, pairs, c1, c2 = circle_cocycles(group, charts, late_labels, rng,
                                       exhausted)
    fam, searched = A.coboundary_first(t, charts, pairs, c1, c2)
    inv = A.inverses(t)
    if exhausted != (fam is None):
        raise AssertionError("cocycle construction missed its target")
    if not exhausted:
        pos = 0
        for lab in late_labels:
            pos = pos * len(t) + lab
        if searched != pos + 1:
            raise AssertionError("coboundary found at %d, not %d"
                                 % (searched, pos + 1))
    obj = {"group": _gj(t), "charts": charts,
           "overlaps": [list(p) for p in pairs],
           "c1": [{"pair": list(p), "element": v} for p, v in c1.items()],
           "c2": [{"pair": list(p), "element": v} for p, v in c2.items()]}

    def check(report):
        d = report["details"]
        out = []
        if d["searched"] != searched:
            out.append("searched %d, expected %d" % (d["searched"], searched))
        if not exhausted:
            lam = d["lambda"]
            for (i, j) in pairs:
                if t[t[lam[i]][c1[(i, j)]]][inv[lam[j]]] != c2[(i, j)]:
                    out.append("lambda fails on %r" % ((i, j),))
        return out
    expect = fails(check) if exhausted else passes(check)
    return _file_job(name, "cocycle cohomologous", obj, expect,
                     ("cohomologous", len(t), charts))


# -- aut-p54 --------------------------------------------------------------------

D111 = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
K3 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (1, 1, 0): 1, (1, 0, 1): 1,
      (0, 1, 1): 1, (1, 1, 1): 1}


def signature(n, blocks, rng):
    """The signature with its grading axes and block order permuted."""
    axes = _perm(n, rng)
    items = [(tuple(w[axes[k]] for k in range(n)), d)
             for w, d in sorted(blocks.items())]
    rng.shuffle(items)
    return dict(items), {"mode": "multi", "n": n,
                         "blocks": [{"sigma": list(w), "dim": d}
                                    for w, d in items]}


def aut_job(name, command, n, blocks, p, rng):
    blocks, sig = signature(n, blocks, rng)
    want = A.aut_orders(n, blocks, p)
    fname = name.replace("/", "_") + ".sig.json"

    def p54(report):
        d = report["details"]
        out = []
        orders = {k: want[k] for k in ("gamma", "gi", "intersections")}
        if d["orders"] != orders:
            out.append("orders %r, expected %r" % (d["orders"], orders))
        tr = d["trace"]
        if tr["group_order"] != want["gamma"] or \
                tr["subgroup_orders"] != want["gi"]:
            out.append("trace root %r" % ({k: tr[k] for k in (
                "group_order", "subgroup_orders")},))
        if len(tr["children"]) != (n if n >= 3 else 0):
            out.append("recursion has %d children" % len(tr["children"]))
        stack = [tr]
        while stack:
            node = stack.pop()
            if node["failures"]:
                out.append("failure at %r" % (node["path"],))
            stack.extend(node["children"])
        return out

    enum = details_equal({"order": want["gamma"], "gi_orders": want["gi"],
                          "statomorphisms": want["statomorphisms"]})
    check = p54 if command == "verify-p54" else enum
    argv = ["aut", command, "--sig", fname, "--field", "Fp:%d" % p,
            "--out", fname[:-9] + ".report.json"]
    return Job(name, argv, {fname: _dump(sig)}, passes(check),
               ("aut", command, n, p, want["gamma"]))


def aut_p54(rng):
    return [aut_job("p54/D111-F5", "verify-p54", 2, D111, 5, rng),
            aut_job("p54/k3-F2", "verify-p54", 3, K3, 2, rng)]


# -- group-tables -----------------------------------------------------------------

S6_GENS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]


def group_tables(rng):
    D, C, Q = A.dihedral, A.cyclic, A.quaternion
    jobs = [
        group_validate("tables/validate-256",
                       A.direct_product(D(8), Q(), C(2)), rng),
        group_validate("tables/validate-320",
                       A.direct_product(D(10), Q(), C(2)), rng),
        group_validate("tables/validate-720",
                       A.direct_product(D(3), D(5), C(12)), rng),
        group_validate("tables/validate-1000",
                       A.direct_product(C(10), D(25), C(2)), rng),
        perm_group_validate("tables/S6-perms", S6_GENS, rng),
        intercalate_validate("tables/latin-256",
                             A.direct_product(D(8), C(16)), rng),
    ]
    jobs += dpg_jobs("tables/dpg-240", [D(6), D(10)], rng)
    jobs += ntuple_jobs("tables/ntuple-240", [D(5), Q(), C(3)], rng)
    jobs.append(pipeline_job("tables/gamma-from-actions", D(6), D(9), rng))
    s4 = A.perm_table(A.perm_closure([(1, 0, 2, 3), (1, 2, 3, 0)]))
    jobs.append(gauge_job("tables/gauge", s4, 4, rng))
    jobs += groupoid_jobs("tables/groupoid", A.direct_product(D(4), C(6)), 4,
                          rng, ["groupoid split", "groupoid mult-function"])
    jobs.append(cohomologous_job("tables/cohomologous-late", s4, 4,
                                 (20, 13, 7, 3), rng, exhausted=False))
    jobs.append(cohomologous_job("tables/cohomologous-exhausted", s4, 4,
                                 (20, 13, 7, 3), rng, exhausted=True))
    return jobs


# -- cli-small ---------------------------------------------------------------------

EXAMPLES = ("q8_dpg.json", "z3_cocycle.json", "t2_chart.json", "d111_sig.json")


def read_examples(root):
    out = {}
    for name in EXAMPLES:
        with open(os.path.join(root, "docs", "examples", name)) as fh:
            out[name] = fh.read()
    return out


def _resolve(obj, path, rng):
    """Walk path; '*' picks a seeded index of the list met there."""
    keys = []
    cur = obj
    for k in path:
        if k == "*":
            k = rng.randrange(len(cur))
        keys.append(k)
        cur = cur[k]
    return keys


def _mutate(obj, op, path, rng, value=None):
    obj = copy.deepcopy(obj)
    keys = _resolve(obj, path, rng)
    parent = obj
    for k in keys[:-1]:
        parent = parent[k]
    last = keys[-1]
    if op == "drop":
        del parent[last]
    elif op == "set":
        parent[last] = value
    elif op == "truncate":
        parent[last] = parent[last][:-1]
    elif op == "nest":
        parent[last] = [parent[last]]
    return obj


# Per example: the command it feeds and, per mutation kind, the candidate
# sites.  Every candidate leaves the input invalid, so the only right
# answer is rc 2 with verdict "error".
MUTATIONS = {
    "q8_dpg.json": ("dpg verify", {
        "dropped-key": [("drop", ["gamma"]), ("drop", ["subgroups"]),
                        ("drop", ["gamma", "table"])],
        "wrong-type": [("set", ["gamma", "table"], "table"),
                       ("set", ["subgroups"], 5),
                       ("set", ["gamma", "table", "*"], {"row": 1})],
        "out-of-range": [("set", ["gamma", "table", "*", "*"], 8),
                         ("set", ["gamma", "table", "*", "*"], -1),
                         ("set", ["subgroups", "*", "*"], 8)],
        "truncated-array": [("truncate", ["gamma", "table", "*"]),
                            ("truncate", ["gamma", "table"]),
                            ("truncate", ["subgroups", "*"])],
        "wrong-nesting": [("nest", ["gamma"]), ("nest", ["gamma", "table"]),
                          ("nest", ["subgroups", "*", "*"])],
    }),
    "z3_cocycle.json": ("cocycle check", {
        "dropped-key": [("drop", ["charts"]), ("drop", ["group"]),
                        ("drop", ["values"]), ("drop", ["overlaps"]),
                        ("drop", ["values", "*", "element"])],
        "wrong-type": [("set", ["charts"], "3"),
                       ("set", ["values", "*", "element"], "1"),
                       ("set", ["group", "table"], 3)],
        "out-of-range": [("set", ["values", "*", "element"], 3),
                         ("set", ["values", "*", "element"], -4),
                         ("set", ["overlaps", "*", "*"], 5)],
        "truncated-array": [("truncate", ["values", "*", "pair"]),
                            ("truncate", ["overlaps"]),
                            ("truncate", ["values"])],
        "wrong-nesting": [("nest", ["values", "*", "element"]),
                          ("nest", ["group"]),
                          ("nest", ["values", "*"])],
    }),
    "t2_chart.json": ("cocycle t2", {
        "dropped-key": [("drop", ["sig_in"]), ("drop", ["terms"]),
                        ("drop", ["terms", "*", "exponents"]),
                        ("drop", ["terms", "*", "num"])],
        "wrong-type": [("set", ["terms"], "x"),
                       ("set", ["terms", "*", "exponents"], 1),
                       ("set", ["sig_in"], [])],
        "out-of-range": [("set", ["terms", "*", "target"], 3),
                         ("set", ["terms", "*", "target"], -2)],
        "truncated-array": [("truncate", ["terms", "*", "exponents"])],
        "wrong-nesting": [("nest", ["terms", "*", "exponents"]),
                          ("nest", ["terms", "*"]),
                          ("nest", ["sig_in"])],
    }),
    "d111_sig.json": ("aut enumerate", {
        "dropped-key": [("drop", ["mode"]), ("drop", ["n"]),
                        ("drop", ["blocks"]),
                        ("drop", ["blocks", "*", "sigma"]),
                        ("drop", ["blocks", "*", "dim"])],
        "wrong-type": [("set", ["n"], "2"), ("set", ["blocks"], 3),
                       ("set", ["blocks", "*", "dim"], "1")],
        "out-of-range": [("set", ["blocks", "*", "dim"], -1),
                         ("set", ["n"], -2)],
        "truncated-array": [("truncate", ["blocks", "*", "sigma"])],
        "wrong-nesting": [("nest", ["blocks", "*", "sigma"]),
                          ("nest", ["blocks", "*"])],
    }),
}


def mutation_jobs(examples, rng):
    jobs = []
    for name in EXAMPLES:
        command, kinds = MUTATIONS[name]
        obj = json.loads(examples[name])
        stem = name[:-5]
        for kind, sites in kinds.items():
            op, path, *value = rng.choice(sites)
            bad = _mutate(obj, op, path, rng, value[0] if value else None)
            jobs.append(_mutant(stem, kind, command, _dump(bad)))
        text = examples[name]
        cut = rng.randrange(1, len(text) - 1)
        jobs.append(_mutant(stem, "truncated-file", command, text[:cut]))
    return jobs


def _mutant(stem, kind, command, text):
    fname = "mut_%s_%s.json" % (stem, kind)
    out = fname[:-5] + ".report.json"
    if command == "aut enumerate":
        argv = ["aut", "enumerate", "--sig", fname, "--field", "Fp:3",
                "--out", out]
    else:
        argv = command.split() + [fname, "--out", out]
    return Job("mutate/%s/%s" % (stem, kind), argv, {fname: text},
               malformed(), ("malformed", command, kind))


def example_jobs(examples, root):
    """The docs/examples inputs as shipped."""
    q8 = json.loads(examples["q8_dpg.json"])
    t = q8["gamma"]["table"]
    subs = q8["subgroups"]
    core = set(subs[0]) & set(subs[1])
    want = {"gamma_order": 8, "g1_order": 4, "g2_order": 4,
            "core_order": len(core), "quotients": [2, 2], "vacant": False,
            "product_fiber_size": len(core)}

    def ex(name, argv, expect, shape):
        return Job("example/" + name, argv, {}, expect, shape)
    q8_path, z3_path, t2_path, sig_path = (
        os.path.join(root, "docs", "examples", name) for name in EXAMPLES)
    d3 = A.aut_orders(2, D111, 3)
    nt_subs = [sorted(A.closure(t, [x])) for x in (2, 4, 6)]
    return [
        ex("q8-dpg-verify", ["dpg", "verify", q8_path],
           passes(details_equal(want)), ("dpg", 8)),
        ex("q8-dpg-dressing", ["dpg", "dressing", q8_path, "--out",
                               "ex_dressing.report.json"],
           passes(dressing_check(t, subs)), ("dpg", 8)),
        ex("q8-ntuple", ["ntuple", "verify", q8_path, "--out",
                         "ex_ntuple.report.json"],
           passes(details_equal({"gamma_order": 8, "n": 2,
                                 "subgroup_orders": [4, 4]})), ("ntuple", 8)),
        ex("q8-ntuple-ijk", ["ntuple", "verify", q8_path, "--subgroups",
                             "2;4;6", "--out", "ex_ntuple3.report.json"],
           fails(ntuple_nested(t, nt_subs)), ("ntuple", 8)),
        ex("z3-cocycle-check", ["cocycle", "check", z3_path],
           passes(details_equal({"charts": 3, "pairs": [[0, 1], [0, 2],
                                                        [1, 2]]})),
           ("cocycle", 3)),
        ex("t2-chart", ["cocycle", "t2", t2_path, "--out",
                        "ex_t2.report.json"],
           passes(details_equal({"graded": True,
                                 "quadratic_velocity_term": True})),
           ("t2", 1)),
        ex("t2-check-morphism", ["graded", "check-morphism", t2_path],
           passes(details_equal({"weight_preserving": True})), ("graded", 1)),
        ex("d111-enumerate-F3", ["aut", "enumerate", "--sig", sig_path,
                                 "--field", "Fp:3"],
           passes(details_equal({"order": d3["gamma"], "gi_orders": d3["gi"],
                                 "statomorphisms": d3["statomorphisms"]})),
           ("aut", 24)),
        ex("d111-p54-F3", ["aut", "verify-p54", "--sig", sig_path, "--field",
                           "Fp:3", "--out", "ex_p54.report.json"],
           passes(details_equal({"orders": {k: d3[k] for k in (
               "gamma", "gi", "intersections")}})), ("aut", 24)),
    ]


def ntuple_nested(table, subs):
    """Failures one level down: at path [i] the group is H_i (labelled by
    position among its sorted members) with the subgroups H_i & H_j."""
    def check(report):
        out = []
        for w in report["witnesses"]:
            path = w.get("path", [])
            if len(path) != 1:
                out.append("unexpected failure path %r" % (path,))
                continue
            i = path[0]
            members = sorted(subs[i])
            level = [set(subs[i]) & set(s) for j, s in enumerate(subs)
                     if j != i]
            if w["kind"] == "NotGenerating":
                if members[w["missing"]] in A.closure(table,
                                                      set().union(*level)):
                    out.append("missing element is generated at %r" % path)
            else:
                out.append("unexpected failure kind %s" % w["kind"])
        if not report["witnesses"]:
            out.append("no failures")
        return out
    return check


def cli_small(rng, root):
    examples = read_examples(root)
    D, C, Q = A.dihedral, A.cyclic, A.quaternion
    jobs = example_jobs(examples, root)

    # seeded variants: passes and verified failures of every subcommand
    jobs.append(group_validate("small/validate-Q8xZ3",
                               A.direct_product(Q(), C(3)), rng))
    jobs.append(perm_group_validate("small/perms-S4", [(1, 0, 2, 3),
                                                       (1, 2, 3, 0)], rng))
    jobs.append(intercalate_validate("small/latin-16",
                                     A.direct_product(D(4), C(2)), rng))
    jobs.append(not_latin_job(rng))
    jobs.append(no_identity_job(rng))
    jobs += dpg_jobs("small/dpg-S3xZ2", [D(3), C(2)], rng)
    jobs += ntuple_jobs("small/ntuple-S3xZ2xZ2", [D(3), C(2), C(2)], rng)
    jobs.append(pipeline_job("small/gamma-Z4xZ2", C(4), C(2), rng))
    jobs.append(gauge_job("small/gauge-S3", D(3), 3, rng))
    jobs.append(not_free_job(rng))
    jobs += groupoid_jobs("small/groupoid-S3", D(3), 3, rng,
                          ["groupoid quotient", "groupoid split",
                           "groupoid mult-function"])
    jobs.append(morphism_job("small/morphism-shear", rng, True))
    jobs.append(morphism_job("small/morphism-swap", rng, False))
    jobs.append(compat_job("small/compat", rng))
    jobs.append(weights_job("small/weights-homogeneous", rng, False))
    jobs.append(weights_job("small/weights-mixed", rng, True))
    jobs.append(aut_job("small/enumerate-F2", "enumerate", 2, D111, 2, rng))
    jobs.append(aut_job("small/p54-F2", "verify-p54", 2, D111, 2, rng))
    jobs.append(associate_job("small/associate", rng))
    jobs.append(frame_job("small/frame", rng))
    jobs.append(cocycle_check_job("small/cocycle-S3", D(3), rng, False))
    jobs.append(cocycle_check_job("small/cocycle-bad-Q8", Q(), rng, True))
    jobs.append(cohomologous_job("small/cohomologous-Q8", Q(), 3, (4, 1, 6),
                                 rng, exhausted=False))
    jobs.append(cohomologous_job("small/cohomologous-none-S3", D(3), 3,
                                 (3, 2, 4), rng, exhausted=True))
    jobs.append(t2_job("small/t2", rng, True, True))
    jobs.append(t2_job("small/t2-linear", rng, True, False))
    jobs.append(t2_job("small/t2-singular", rng, False, True))

    # the two CLI-contract breaks reproduced at the parent commit
    q8 = json.loads(examples["q8_dpg.json"])
    one_sub = dict(q8, subgroups=q8["subgroups"][:1])
    jobs.append(_file_job("contract/dpg-one-subgroup", "dpg verify", one_sub,
                          malformed(), ("malformed", "dpg verify", "repro")))
    z2 = {"charts": 2, "overlaps": [[0, 1]], "group": _gj(C(2)),
          "values": [{"pair": [0, 1], "element": 7}]}
    jobs.append(_file_job("contract/cocycle-element-7", "cocycle check", z2,
                          malformed(), ("malformed", "cocycle check",
                                        "repro")))
    jobs += mutation_jobs(examples, rng)
    return jobs


def not_latin_job(rng):
    t = [list(r) for r in _relabelled(A.cyclic(9), rng)[0]]
    r = rng.randrange(9)
    a, b = rng.sample(range(9), 2)
    t[r][a] = t[r][b]

    def bad_line(d):
        if "row" in d:
            return len(set(t[d["row"]])) != 9
        return len({t[i][d["column"]] for i in range(9)}) != 9
    return _file_job("small/not-latin", "group validate", _gj(t),
                     fails(error_kind("NotLatinSquare", bad_line)),
                     ("latin", 9))


def no_identity_job(rng):
    """a*b = a - b (mod n): a Latin square with no two-sided identity."""
    n = 7
    perm = _perm(n, rng)
    t = A.relabel([[(a - b) % n for b in range(n)] for a in range(n)], perm)
    if A.identity(t) is not None:
        raise AssertionError("a - b has an identity")
    return _file_job("small/no-identity", "group validate", _gj(t),
                     fails(error_kind("NoIdentity", lambda d: True)),
                     ("latin", n))


def not_free_job(rng):
    """Z2 swapping two of three points fixes the third."""
    pts = _perm(3, rng)
    row = [0] * 3
    row[pts[0]], row[pts[1]], row[pts[2]] = pts[1], pts[0], pts[2]
    act = [[0, 1, 2], row]
    obj = {"points": 3, "action": {"group": _gj(A.cyclic(2)), "points": 3,
                                   "act": act}}
    return _file_job("small/gauge-not-free", "groupoid gauge", obj,
                     fails(error_kind("ActionNotFree", lambda d: d[
                         "element"] == 1 and act[1][d["point"]] ==
                         d["point"])), ("gauge", 3, 2))


SIMPLE_11 = {"mode": "simple", "dims": [1, 1]}   # x of weight 1, y of weight 2


def _term(target, exps, num):
    return {"target": target, "exponents": list(exps), "num": str(num)}


def morphism_job(name, rng, graded):
    a, b, c = (rng.choice([1, 2, 3, -1]) for _ in range(3))
    if graded:
        terms = [_term(0, (1, 0), a), _term(1, (0, 1), b),
                 _term(1, (2, 0), c)]
    else:
        terms = [_term(0, (0, 1), a), _term(1, (1, 0), b)]
    weights = [1, 2]

    def violation(report):
        out = []
        for w in report["witnesses"]:
            e = w["exponents"]
            if sum(k * x for k, x in zip(weights, e)) == weights[w["target"]]:
                out.append("monomial %r has the target's weight" % (e,))
        return out
    obj = {"field": "Q", "sig_in": SIMPLE_11, "sig_out": SIMPLE_11,
           "terms": terms}
    expect = passes(details_equal({"weight_preserving": True})) if graded \
        else fails(all_of(details_equal({"weight_preserving": False}),
                          violation))
    return _file_job(name, "graded check-morphism", obj, expect,
                     ("graded", graded))


def compat_job(name, rng):
    a, b = rng.choice([1, 2, -1]), rng.choice([1, 3, -2])
    c = rng.choice([1, 2, 5])
    phi = [_term(0, (1, 0), a), _term(1, (0, 1), b), _term(1, (2, 0), c)]
    obj = {"field": "Q", "structures": [
        {"kind": "diagonal", "sig": SIMPLE_11},
        {"kind": "conjugated", "sig": SIMPLE_11, "phi": phi}]}
    return _file_job(name, "graded check-compat", obj,
                     passes(details_equal({"commute": True})), ("compat",))


def weights_job(name, rng, mixed):
    """A polynomial in x (weight 1), y (weight 2): homogeneous of weight w,
    or with a second weight added."""
    w = rng.choice([2, 4])
    monos = [(i, (w - i) // 2) for i in range(w + 1) if (w - i) % 2 == 0]
    picks = rng.sample(monos, 2)
    if mixed:
        picks.append((w + 1, 0))
    terms = [{"exponents": list(e), "num": str(rng.choice([1, 2, -3]))}
             for e in picks]
    keys = sorted({str(e[0] + 2 * e[1]) for e in picks})
    obj = {"field": "Q", "sig": SIMPLE_11, "terms": terms}

    def check(report):
        d = report["details"]
        out = []
        if sorted(d["components"]) != keys:
            out.append("weights %r, expected %r" % (sorted(d["components"]),
                                                    keys))
        if d["homogeneous"] != (len(keys) == 1):
            out.append("homogeneous flag wrong")
        return out
    return _file_job(name, "graded weights", obj, passes(check),
                     ("weights", mixed))


def _d111_model():
    return {"sig": {"mode": "multi", "n": 2, "blocks": [
        {"sigma": [1, 0], "dim": 1}, {"sigma": [0, 1], "dim": 1},
        {"sigma": [1, 1], "dim": 1}]}, "field": {"Fp": 3}}


def associate_job(name, rng):
    order = A.aut_orders(2, D111, 3)["gamma"]
    obj = {"model": _d111_model(),
           "cocycle": {"charts": 2, "overlaps": [[0, 1]],
                       "values": [{"pair": [0, 1],
                                   "element": rng.randrange(order)}]}}

    def check(report):
        d = report["details"]
        out = []
        for key in ("fiber_transitions", "rho_transitions",
                    "rho_prime_transitions"):
            if [e["pair"] for e in d[key]] != [[0, 1], [1, 0]]:
                out.append("%s pairs wrong" % key)
        for key in ("rho_transitions", "rho_prime_transitions"):
            for e in d[key]:
                if sorted(e["perm"]) != list(range(len(e["perm"]))):
                    out.append("%s is not a permutation" % key)
        return out
    return _file_job(name, "cocycle associate", obj, passes(check),
                     ("associate", order))


def frame_job(name, rng):
    a, b, c = (rng.choice([1, 2]) for _ in range(3))
    d = rng.choice([0, 1, 2])
    terms = [_term(0, (1, 0, 0), a), _term(1, (0, 1, 0), b),
             _term(2, (0, 0, 1), c)]
    if d:
        terms.append(_term(2, (1, 1, 0), d))
    obj = {"model": _d111_model(),
           "cocycle": {"charts": 2, "overlaps": [[0, 1]],
                       "values": [{"pair": [0, 1], "terms": terms}]}}
    order = A.aut_orders(2, D111, 3)["gamma"]

    def check(report):
        det = report["details"]
        out = details_equal({"group_order": order,
                             "theory_checks": {"round_trip_exact": True}})(
                                 report)
        if len(det["values"]) != 2:
            out.append("frame values for %d pairs" % len(det["values"]))
        return out
    return _file_job(name, "cocycle frame", obj, passes(check),
                     ("frame", order))


def cocycle_check_job(name, group, rng, broken):
    """Full nerve on 3 charts with g_ij = f_i f_j^-1 (a coboundary, so a
    cocycle); broken moves g_02 off the triple law."""
    t, _ = _relabelled(group, rng)
    n = len(t)
    inv = A.inverses(t)
    f = [rng.randrange(n) for _ in range(3)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    val = {(i, j): t[f[i]][inv[f[j]]] for i, j in pairs}
    if broken:
        val[(0, 2)] = rng.choice([x for x in range(n) if x != val[(0, 2)]])
    obj = {"charts": 3, "overlaps": [list(p) for p in pairs],
           "triples": [[0, 1, 2]], "group": _gj(t),
           "values": [{"pair": list(p), "element": v} for p, v in val.items()]}
    full = dict(val)
    for (i, j), v in val.items():
        full[(j, i)] = inv[v]

    def triple_fails(report):
        w = report["witnesses"][0]
        if w.get("law") != "triple":
            return ["witness law %r" % w.get("law")]
        i, j, k = w["triple"]
        if t[full[(i, j)]][full[(j, k)]] == full[(i, k)]:
            return ["triple %r satisfies the law" % ([i, j, k],)]
        return []
    expect = fails(triple_fails) if broken else passes(details_equal({
        "charts": 3, "pairs": [[0, 1], [0, 2], [1, 2]]}))
    return _file_job(name, "cocycle check", obj, expect, ("cocycle", n,
                                                          broken))


def t2_job(name, rng, invertible, quadratic):
    a = rng.choice([1, 2, -3]) if invertible else 0
    b = rng.choice([1, -1, 4]) if quadratic else 0
    sig0 = {"mode": "simple", "dims": [], "base": 1}
    terms = [_term(0, (2,), b)] if b else []
    if a:
        terms.insert(0, _term(0, (1,), a))
    obj = {"field": "Q", "sig_in": sig0, "sig_out": sig0, "terms": terms}
    if invertible:
        expect = passes(details_equal({"graded": True,
                                       "quadratic_velocity_term": quadratic}))
    else:
        expect = fails(error_kind("NotInvertibleChart", lambda d: True))
    return _file_job(name, "cocycle t2", obj, expect, ("t2", invertible,
                                                       quadratic))


WORKLOADS = {
    "aut-p54": lambda rng, root: aut_p54(rng),
    "group-tables": lambda rng, root: group_tables(rng),
    "cli-small": cli_small,
}


def build(workload, seed, root):
    """The workload's job list for this seed; root is the checkout."""
    return WORKLOADS[workload](random.Random(seed), root)
