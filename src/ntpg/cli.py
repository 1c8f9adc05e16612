"""Command-line front end.

Exit codes: 0 = verified pass, 1 = verified fail (the verdict is "fail"
exactly when the report has a witness), 2 = input or usage error.  A failed
theory assertion (a consequence of the theory that must always hold) also
exits 2, its report marking a library bug rather than an input verdict; so
does any other exception.  One guard stands around the report, the verdict
line and the help: what cannot be built or written exits 2 with one stderr
line and no traceback, after a library-bug report where one can be written.

The NTPG_WORKERS environment variable is accepted for compatibility with
parallel runners; it never changes results (the current implementation is
sequential).

Start-up: importing this module defers every module of the library but
``errors`` (actions, autgroups, cocycles, fields, graded, groupoids, groups,
jsonio, ntuple, poly, principal, signature) through ``importlib.util``'s
``LazyLoader``: each runs on the first access to one of its names, so
``--help`` and usage errors load none of them, ``group validate`` only
groups and jsonio, the graded commands and ``cocycle t2`` no groups, and
the aut commands none of actions, graded, poly and principal.
``python -X importtime`` lists what start-up still imports, not a deferred
module, which runs outside the import system.  A module imported before
this one is used as it is; importing one directly still loads it at once.
"""

import argparse
import errno
import importlib.util
import os
import sys
import time

from .errors import (DEFAULT_CLOSURE_CAP, ActionNotFree, AlgebraError,
                     InternalInconsistency, InvalidInput, NoIdentity,
                     NoInverse, NonAssociative, NotCompatible, NotFree,
                     NotInvertibleChart, NotLatinSquare, is_int)


def _defer(name):
    """Register ntpg.<name> to run its body on first attribute access.

    A module imported already is left as it is.  A new one is bound on the
    package too, so that ``from . import <name>`` finds it without loading
    it."""
    full = __package__ + "." + name
    # pinned in a fresh process by tests/test_cli.py's
    # test_cli_runs_only_the_structure_modules_a_command_uses
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)


# jsonio and cocycles read groups, and autgroups graded, ntuple and poly, at
# call time, so a command never runs one of them that it does not call
for _name in ("actions autgroups cocycles fields graded groupoids groups "
              "jsonio ntuple poly principal signature").split():
    _defer(_name)
from . import (autgroups, cocycles, fields, graded, groupoids, groups, jsonio,
               ntuple, principal)


def _parse_field(text):
    if text == "Q":
        return fields.field_from_json("Q")
    if text.startswith("Fp:"):
        p = text[3:]
        try:
            p = int(p)
        except ValueError:
            pass  # field_from_json rejects the non-integer
        return fields.field_from_json({"Fp": p})
    raise InvalidInput("field must be 'Q' or 'Fp:<p>'", field=text)


def _parse_subgroup_spec(G, spec):
    """'2,3;4' -> subgroups generated by {2,3} and by {4}."""
    subs = []
    for part in spec.split(";"):
        try:
            gens = [int(x) for x in part.split(",") if x.strip() != ""]
        except ValueError:
            raise InvalidInput("--subgroups entries must be integers",
                               subgroups=spec) from None
        subs.append(groups.subgroup_closure(G, gens))
    return subs


def _nested(data, key):
    """data[key] when the input nests the object under key, else data."""
    return data[key] if isinstance(data, dict) and key in data else data


def _input_subgroups(args, data, G):
    if args.subgroups:
        return _parse_subgroup_spec(G, args.subgroups)
    if "subgroups" not in data:
        raise InvalidInput("no subgroups given (file field or --subgroups)")
    if not isinstance(data["subgroups"], list):
        raise InvalidInput("subgroups must be a list")
    return [jsonio.load_subgroup(G, s) for s in data["subgroups"]]


def _points(data, action):
    """The input's point count, the action's when the input gives none."""
    points = data.get("points", action.set_size)
    if not is_int(points):
        raise InvalidInput("points must be an integer", points=points)
    return points


def _subgroup_pair(args, data, G):
    """The first two input subgroups; fewer than two is an input error."""
    subs = _input_subgroups(args, data, G)
    if len(subs) < 2:
        raise InvalidInput("a double principal group needs two subgroups",
                           given=len(subs))
    return subs[0], subs[1]


# -- command handlers: (args, data) -> (details, witnesses), where data is
# the parsed input file; the verdict is "fail" exactly when there is a
# witness, and a verdict error that a command's row in build_parser names
# is reported as a failure with its witness ----------------------------------

def cmd_group_validate(args, data):
    G = jsonio.load_group(data, cap=args.max_order)
    return {"fingerprint": G.fingerprint()}, []


def cmd_dpg_verify(args, data):
    G = jsonio.load_group(_nested(data, "gamma"), cap=args.max_order)
    g1, g2 = _subgroup_pair(args, data, G)
    res = principal.verify_double(G, g1, g2)
    if not res.ok:
        return {"gamma_order": G.order}, res.failures
    dpg = res.dpg
    vac = principal.vacancy(dpg)
    if not principal.exact_sequence_check(dpg):
        raise InternalInconsistency("1 -> G0 -> Gamma -> [G] x [G'] is not "
                                    "exact")
    theory = {"exact_sequence": True,
              "vacant_iff_product_bijective": vac.vacant == vac.product_bijective}
    details = dpg.report()
    details.update({"vacant": vac.vacant, "product_fiber_size": vac.fiber_size,
                    "theory_checks": theory})
    return details, []


def cmd_dpg_dressing(args, data):
    G = jsonio.load_group(_nested(data, "gamma"), cap=args.max_order)
    g1, g2 = _subgroup_pair(args, data, G)
    res = principal.verify_double(G, g1, g2)
    if not res.ok:
        return {}, res.failures
    dr = principal.dressing(res.dpg)
    details = {"g_on_gprime": sorted([g, gp, v] for (g, gp), v in dr.g_on.items()),
               "gprime_on_g": sorted([gp, g, v] for (gp, g), v in dr.gp_on.items()),
               "theory_checks": {"dressing_laws": True}}
    return details, []


def cmd_dpg_pipeline(args, data):
    rho = jsonio.load_action(jsonio._need(data, "rho", "pipeline"),
                             cap=args.max_order)
    rho_prime = jsonio.load_action(
        jsonio._need(data, "rho_prime", "pipeline"), cap=args.max_order)
    points = _points(data, rho)
    res = principal.gamma_from_actions(points, rho, rho_prime)
    details = res.report()
    details["gamma"] = jsonio.dump_group(res.gamma)
    return details, []


def cmd_ntuple_verify(args, data):
    G = jsonio.load_group(_nested(data, "gamma"), cap=args.max_order)
    subs = _input_subgroups(args, data, G)
    w = ntuple.verify_ntuple(G, subs)
    details = {"gamma_order": G.order, "n": len(subs),
               "subgroup_orders": [len(s) for s in subs],
               "trace": w.trace}
    return details, _trace_failures(w.trace)


def _trace_failures(node):
    return [{"path": node["path"], **f} for f in node["failures"]] + [
        f for child in node["children"] for f in _trace_failures(child)]


def cmd_groupoid_gauge(args, data):
    action = jsonio.load_action(jsonio._need(data, "action", "gauge"),
                                cap=args.max_order)
    points = _points(data, action)
    gpd, labels = groupoids.gauge_groupoid(points, action)
    details = {"groupoid": jsonio.dump_groupoid(gpd),
               "arrow_reps": [list(pq) for pq in labels.arrow_rep]}
    return details, []


def cmd_groupoid_quotient(args, data):
    ga = jsonio.load_groupoid_action(data, cap=args.max_order)
    q = groupoids.quotient_groupoid(ga)
    details = {"groupoid": jsonio.dump_groupoid(q.groupoid),
               "arrow_map": list(q.arrow_map),
               "object_map": list(q.object_report.orbit_of)}
    return details, []


def cmd_groupoid_split(args, data):
    ga = jsonio.load_groupoid_action(data, cap=args.max_order)
    sp = groupoids.split(ga)
    details = {"base": jsonio.dump_groupoid(sp.quotient.groupoid),
               "fiber_product_size": len(sp.fiber),
               "properties": ["bijection", "i", "ii", "iii", "iv"]}
    return details, []


def cmd_groupoid_multfunction(args, data):
    ga = jsonio.load_groupoid_action(data, cap=args.max_order)
    sp = groupoids.split(ga)
    mf = groupoids.multiplicative_function(sp)
    groupoids.reconstruct_and_check(mf)
    details = {"b": list(mf.b),
               "base": jsonio.dump_groupoid(sp.quotient.groupoid),
               "theory_checks": {"multiplicative_law": True,
                                 "reconstruction_isomorphic": True}}
    return details, []


def cmd_graded_check_morphism(args, data):
    pm, _ = jsonio.load_polymap(data)
    if graded.is_graded_morphism(pm):
        return {"weight_preserving": True}, []
    c, exps = graded.graded_violation(pm)
    return {"weight_preserving": False}, [{"target": c,
                                           "exponents": list(exps)}]


def cmd_graded_check_compat(args, data):
    field_spec = jsonio._object(data, "structures input").get("field", "Q")
    field = fields.field_from_json(field_spec)
    structures = []
    for s in jsonio._array(jsonio._need(data, "structures",
                                        "structures input"), "structures"):
        sig = jsonio.load_signature(jsonio._need(s, "sig", "structure"))
        kind = s.get("kind", "diagonal")
        if kind not in ("diagonal", "conjugated"):
            raise InvalidInput("unknown structure kind", kind=kind)
        h = graded.dilation(sig, field, axis=s.get("axis", 0))
        if kind == "conjugated":
            phi = graded.PolyMap.from_terms(
                sig, sig, field, jsonio.load_terms(
                    field, jsonio._need(s, "phi", "structure"), sig.ncoords))
            h = graded.conjugate_structure(h, phi)
        structures.append(h)
    rep = graded.check_compatible_structures(structures)
    details = {"commute": rep.commute,
               "bracket_commute": rep.bracket_commute,
               "agreement_enforced": rep.agreement_enforced}
    # parked: invert accepts only weight-preserving maps, which intertwine
    # the dilations, so accepted structures commute; tests/test_cli.py's
    # test_check_compat_conjugates_to_the_dilation_itself pins that
    if not rep.commute:  # pragma: no cover — accepted structures commute
        return details, [{"reason": "structures do not commute"}]
    return details, []


def cmd_graded_weights(args, data):
    f, sig, field = jsonio.load_polynomial(data)
    comps = graded.weight_components(f, sig)
    out = {}
    for w, p in comps.items():
        out[str(w)] = [{"exponents": list(e),
                        "num": field.unparse(c)[0],
                        "den": field.unparse(c)[1]}
                       for e, c in sorted(p.terms.items())]
    return {"components": out, "homogeneous": len(comps) <= 1}, []


def cmd_aut_enumerate(args, data):
    sig = jsonio.load_signature(data)
    field = _parse_field(args.field)
    handle = autgroups.enumerate_aut(sig, field, cap=args.max_candidates)
    details = {"order": handle.group.order,
               "gi_orders": [len(handle.gi_subgroup(i))
                             for i in range(1, sig.n + 1)],
               "statomorphisms": len(handle.statomorphism_subgroup())}
    return details, []


def cmd_aut_verify_p54(args, data):
    sig = jsonio.load_signature(data)
    field = _parse_field(args.field)
    rep = autgroups.verify_p54(sig, field, cap=args.max_candidates)
    details = {"orders": rep.orders, "trace": rep.witness.trace}
    return details, _trace_failures(rep.witness.trace)


def cmd_cocycle_check(args, data):
    c, _ = jsonio.load_group_cocycle(data, cap=args.max_order)
    ok, witness = cocycles.check_cocycle(c)
    if not ok:
        return {}, [witness]
    return {"charts": c.nerve.n,
            "pairs": sorted(sorted(p) for p in c.nerve.pairs)}, []


def _model(args, data):
    """The enumerated automorphism group of the input's model."""
    model = jsonio._need(data, "model", "cocycle input")
    sig = jsonio.load_signature(jsonio._need(model, "sig", "model"))
    field = fields.field_from_json(model.get("field", {"Fp": 3}))
    return autgroups.enumerate_aut(sig, field, cap=args.max_candidates)


def _double_model(handle):
    """The standard fibered space of a double model, its sides y and y'."""
    if handle.sig.n != 2:
        raise InvalidInput("standard model needs a double grading")
    return cocycles.standard_fibered_space(handle)


def cmd_cocycle_associate(args, data):
    handle = _model(args, data)
    c, _ = jsonio.load_group_cocycle(
        jsonio._need(data, "cocycle", "cocycle input"), group=handle.group)
    rho, rho_prime = cocycles.associated_cocycle(c, _double_model(handle))
    pairs = c.nerve.ordered_pairs()
    details = {
        "fiber_transitions": [
            {"pair": list(p),
             "terms": jsonio.dump_terms(handle.field,
                                        handle.map_of(c.value(*p)))}
            for p in pairs],
        "rho_transitions": [{"pair": list(p), "perm": list(rho[p])}
                            for p in pairs],
        "rho_prime_transitions": [{"pair": list(p), "perm": list(rho_prime[p])}
                                  for p in pairs],
    }
    return details, []


def cmd_cocycle_frame(args, data):
    handle = _model(args, data)
    c, auts = jsonio.load_aut_cocycle(
        jsonio._need(data, "cocycle", "cocycle input"), handle)
    cocycles.require_cocycle(c)
    # the frame bundle lives on the standard double model
    _double_model(handle)
    if any(handle.map_of(c.value(*p)) != aut for p, aut in auts.items()):
        raise InternalInconsistency("frame/associated round trip failed")
    details = {"values": [{"pair": list(p), "element": c.value(*p)}
                          for p in c.nerve.ordered_pairs()],
               "group_order": handle.group.order,
               "theory_checks": {"round_trip_exact": True}}
    return details, []


def cmd_cocycle_cohomologous(args, data):
    G = jsonio.load_group(jsonio._need(data, "group", "cohomologous input"),
                          cap=args.max_order)
    base = {"charts": jsonio._need(data, "charts", "cohomologous input"),
            "overlaps": data.get("overlaps", []),
            "triples": data.get("triples", [])}
    c1, _ = jsonio.load_group_cocycle(
        {**base, "values": jsonio._need(data, "c1", "cohomologous input")},
        group=G)
    c2, _ = jsonio.load_group_cocycle(
        {**base, "values": jsonio._need(data, "c2", "cohomologous input")},
        group=G)
    res = cocycles.are_cohomologous(c1, c2, cap=args.max_candidates)
    if res.cohomologous:
        return {"searched": res.searched, "lambda": res.witness}, []
    return {"searched": res.searched}, [
        {"reason": "exhausted the coboundary family grid",
         "searched": res.searched}]


def cmd_cocycle_t2(args, data):
    chart, _ = jsonio.load_polymap(_nested(data, "chart"))
    out = cocycles.t2_transition(chart)
    details = {"transition": jsonio.dump_polymap(out),
               "graded": graded.is_graded_morphism(out),
               "quadratic_velocity_term": cocycles.t2_has_quadratic_term(out)}
    return details, []


# -- dispatcher ----------------------------------------------------------------

def build_parser():
    """The parser, built from one row per command: its group and name, its
    handler, the verdict errors that main reports as a failure, and the
    argument that names its input file.  The rows are read at call time, so
    a handler rebound on this module is the one that runs."""
    axioms = (NotLatinSquare, NonAssociative, NoIdentity, NoInverse)
    free = (NotCompatible, NotFree)
    commands = [
        ("group", "validate", cmd_group_validate, axioms, "file"),
        ("dpg", "verify", cmd_dpg_verify, (), "file"),
        ("dpg", "dressing", cmd_dpg_dressing, (), "file"),
        ("dpg", "gamma-from-actions", cmd_dpg_pipeline, free, "file"),
        ("ntuple", "verify", cmd_ntuple_verify, (), "file"),
        ("groupoid", "gauge", cmd_groupoid_gauge, (ActionNotFree,), "file"),
        ("groupoid", "quotient", cmd_groupoid_quotient, free, "file"),
        ("groupoid", "split", cmd_groupoid_split, free, "file"),
        ("groupoid", "mult-function", cmd_groupoid_multfunction, free,
         "file"),
        ("graded", "check-morphism", cmd_graded_check_morphism, (), "file"),
        ("graded", "check-compat", cmd_graded_check_compat, (), "file"),
        ("graded", "weights", cmd_graded_weights, (), "file"),
        ("aut", "enumerate", cmd_aut_enumerate, (), "sig"),
        ("aut", "verify-p54", cmd_aut_verify_p54, (), "sig"),
        ("cocycle", "check", cmd_cocycle_check, (), "file"),
        ("cocycle", "associate", cmd_cocycle_associate, (), "file"),
        ("cocycle", "frame", cmd_cocycle_frame, (), "file"),
        ("cocycle", "cohomologous", cmd_cocycle_cohomologous, (), "file"),
        ("cocycle", "t2", cmd_cocycle_t2, (NotInvertibleChart,), "file"),
    ]
    # the options every command takes, declared once and shared
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="write the JSON report here")
    common.add_argument("--seed", type=int, default=0,
                        help="accepted for compatibility; has no effect "
                             "(every check is exhaustive)")
    common.add_argument("--max-order", type=int, default=DEFAULT_CLOSURE_CAP,
                        help="cap for permutation closures of every input "
                             "group")
    common.add_argument("--max-candidates", type=int, default=10 ** 6,
                        help="cap for enumeration and coboundary search "
                             "grids")
    common.add_argument("--subgroups", default=None,
                        help="generator spec 'a,b;c,...' overriding the file")
    ap = argparse.ArgumentParser(
        prog="ntpg",
        description="Exact finite models of multi-principal structures: "
                    "verification reports with witnesses.")
    sub = ap.add_subparsers(dest="command", required=True)
    menus = {}
    for group, name, handler, verdicts, source in commands:
        if group not in menus:
            menus[group] = sub.add_parser(group).add_subparsers(
                dest="action", required=True)
        p = menus[group].add_parser(name, parents=[common])
        if source == "file":
            p.add_argument("file", help="JSON input file")
        if source == "sig":
            p.add_argument("--sig", required=True, help="signature JSON file")
            p.add_argument("--field", required=True, help="'Q' or 'Fp:<p>'")
        p.set_defaults(handler=handler, verdicts=verdicts, source=source)
    return ap


def _bug(e):
    """The outcome of a library bug, naming the innermost frame of e."""
    import traceback
    f = traceback.extract_tb(e.__traceback__)[-1]
    where = "%s:%d in %s" % (os.path.basename(f.filename), f.lineno, f.name)
    return ({"error": type(e).__name__, "message": str(e),
             "details": {"where": where}}, [], {"library_bug": True},
            "unexpected exception at %s; this is a library bug: %r"
            % (where, e))


def _outcome(args):
    """The run as (details, witnesses, flags, error text or None)."""
    try:
        data = jsonio.read_json(getattr(args, args.source))
        try:
            return (*args.handler(args, data), {}, None)
        except args.verdicts as e:
            return {}, [e.report()], {}, None
    except InternalInconsistency as e:
        return (e.report(), [], {"theory_failure": True},
                "theory assertion failed; this is a library bug: %s" % e)
    except AlgebraError as e:
        return e.report(), [], {}, str(e)
    except Exception as e:
        # last resort: an escaped exception is a library bug, never rc 1
        return _bug(e)


def _stdout_error(wrote=False):
    """The OSError of flushing stdout, or None; on one, fd 1 is pointed at
    os.devnull ("Note on SIGPIPE", Python's signal docs), or buffered bytes
    fail again at exit (rc 120).  A stdout closed at start-up (None) fails
    only if print wrote to it."""
    if sys.stdout is None:
        return OSError(errno.EBADF, "stdout is closed") if wrote else None
    try:
        sys.stdout.flush()
    except OSError as e:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return e


def main(argv=None):
    workers = os.environ.get("NTPG_WORKERS")
    if workers is not None and (not workers.isdecimal() or int(workers) < 1):
        print("NTPG_WORKERS must be a positive integer", file=sys.stderr)
        return 2
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:  # a full or closed stdout fails here, not at exit
        failed = _stdout_error()
        if failed:
            print("ERROR: cannot write the help: %s" % failed, file=sys.stderr)
        return 2 if failed or e.code not in (0, None) else 0
    started = time.monotonic()
    command = [args.command, getattr(args, "action", None)]
    name = " ".join(filter(None, command))

    def finish(details, witnesses, flags, error):
        """Write the report, then the stderr error or stdout verdict line."""
        verdict = "fail" if witnesses else "pass" if error is None else "error"
        report = {"command": command, "verdict": verdict, **flags,
                  "details": details, "witnesses": witnesses,
                  "timing_ms": round(1000 * (time.monotonic() - started), 3)}
        jsonio.write_report(report, args.out)
        if verdict != "error" and args.out not in (None, "-"):
            print("%s %s" % (verdict.upper(), name)
                  + (" (witnesses: %d)" % len(witnesses) if witnesses else ""))
        # a full or closed stdout fails here, under the guard, not at exit
        failed = _stdout_error(verdict != "error" or args.out in (None, "-"))
        if failed:
            raise failed
        if verdict == "error":
            print("ERROR %s: %s" % (name, error), file=sys.stderr)
        return {"pass": 0, "fail": 1, "error": 2}[verdict]

    # the one guard: an unwritable --out path or stdout is a usage error;
    # any other failure is a library bug, reported through finish in turn
    try:
        return finish(*_outcome(args))
    except OSError as e:
        print("ERROR %s: cannot write the report: %s" % (name, e),
              file=sys.stderr)
    except Exception as e:
        try:
            return finish(*_bug(e))
        except Exception as again:
            print("ERROR %s: cannot write the report: %r" % (name, again),
                  file=sys.stderr)
    _stdout_error()
    return 2


# run by ``python -m ntpg.cli``, as in tests/test_cli.py's
# test_input_is_read_as_utf8_whatever_the_locale
if __name__ == "__main__":  # pragma: no cover — fresh process only
    sys.exit(main())
