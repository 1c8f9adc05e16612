import argparse
import errno
import io
import json
import os
import subprocess
import sys

import pytest

import ntpg
# imported before ntpg.cli, which must reuse the module and not define its
# classes a second time
from ntpg.graded import PolyMap
from ntpg.cli import build_parser, main
from ntpg.groups import DEFAULT_CLOSURE_CAP
from ntpg.named import quaternion_group
from test_cli_fuzz import FAILING, RELISTINGS

Q8 = quaternion_group()


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def run(argv):
    return main(argv)


def q8_json():
    return {"order": 8, "table": [list(r) for r in Q8.table]}


def test_group_validate_trivial(tmp_path, capsys):
    f = write(tmp_path, "trivial.json", {"order": 1, "table": [[0]]})
    assert run(["group", "validate", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "pass"


def test_stdout_report_is_jsons_indent_2_dump(capsys):
    gauge = os.path.join(EXAMPLES, "z3_gauge.json")
    assert run(["groupoid", "gauge", gauge, "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=2) + "\n"


def test_group_validate_bad_table_exits_1(tmp_path):
    f = write(tmp_path, "bad.json", {"order": 2, "table": [[0, 0], [1, 1]]})
    out = str(tmp_path / "rep.json")
    assert run(["group", "validate", f, "--out", out]) == 1
    rep = read_report(out)
    assert rep["verdict"] == "fail"
    assert rep["witnesses"]


def test_group_validate_malformed_exits_2(tmp_path):
    f = write(tmp_path, "bad.json", {"order": 2})
    assert run(["group", "validate", f]) == 2


def test_bad_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(["group", "validate", str(p)]) == 2


def test_usage_error_exits_2(capsys):
    assert run(["group"]) == 2
    capsys.readouterr()


def _subparsers(parser):
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _leaf_parser_the_long_way(prog, source):
    """A command's parser with each shared option added to it directly."""
    p = argparse.ArgumentParser(prog=prog)
    if source == "file":
        p.add_argument("file", help="JSON input file")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; has no effect "
                        "(every check is exhaustive)")
    p.add_argument("--max-order", type=int, default=DEFAULT_CLOSURE_CAP,
                   help="cap for permutation closures of every input group")
    p.add_argument("--max-candidates", type=int, default=10 ** 6,
                   help="cap for enumeration and coboundary search grids")
    p.add_argument("--subgroups", default=None,
                   help="generator spec 'a,b;c,...' overriding the file")
    if source == "sig":
        p.add_argument("--sig", required=True, help="signature JSON file")
        p.add_argument("--field", required=True, help="'Q' or 'Fp:<p>'")
    return p


def test_shared_options_keep_every_help_and_usage():
    # the options declared once on a parent parser print as if each command
    # declared them itself
    leaves = [p for g in _subparsers(build_parser()).values()
              for p in _subparsers(g).values()]
    assert len(leaves) == 19
    for p in leaves:
        q = _leaf_parser_the_long_way(p.prog, p.get_default("source"))
        assert p.format_help() == q.format_help(), p.prog
        assert p.format_usage() == q.format_usage(), p.prog
        # the shared options come first in p._actions; the order in which
        # argparse stores them changes neither parsing nor its messages
        assert {a.dest: (a.default, a.type, a.required) for a in p._actions} \
            == {a.dest: (a.default, a.type, a.required) for a in q._actions}


def test_max_candidates_default_is_one_constant():
    # the parser's default and the library's enumeration and coboundary
    # search caps are one object
    import inspect
    from ntpg import autgroups, cocycles
    from ntpg.errors import DEFAULT_CANDIDATE_CAP
    args = build_parser().parse_args(["cocycle", "cohomologous", "in.json"])
    defaults = [args.max_candidates] + [
        inspect.signature(f).parameters["cap"].default
        for f in (autgroups.enumerate_aut, autgroups.verify_p54,
                  cocycles.are_cohomologous)]
    assert [d is DEFAULT_CANDIDATE_CAP for d in defaults] == [True] * 4


def test_dpg_verify_q8(tmp_path):
    f = write(tmp_path, "q8.json",
              {"gamma": q8_json(), "subgroups": [[0, 1, 2, 3], [0, 1, 4, 5]]})
    out = str(tmp_path / "rep.json")
    assert run(["dpg", "verify", f, "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["core_order"] == 2
    assert rep["details"]["quotients"] == [2, 2]
    assert rep["details"]["theory_checks"]["exact_sequence"] is True


def test_ntuple_verify_q8_triple_exits_1(tmp_path):
    f = write(tmp_path, "q8.json", {"gamma": q8_json()})
    out = str(tmp_path / "rep.json")
    code = run(["ntuple", "verify", f, "--subgroups", "2;4;6", "--out", out])
    assert code == 1
    rep = read_report(out)
    assert rep["verdict"] == "fail"
    # the trace names the failing sub-system at path [0] with orders (4;2,2)
    failing = [w for w in rep["witnesses"] if w["kind"] == "NotGenerating"]
    assert failing and failing[0]["path"] == [0]
    child = rep["details"]["trace"]["children"][0]
    assert child["group_order"] == 4
    assert child["subgroup_orders"] == [2, 2]


def test_dpg_gamma_from_actions(tmp_path):
    act_i = [[Q8.mul(x, g) for x in range(8)] for g in (0, 2, 1, 3)]
    act_j = [[Q8.mul(x, g) for x in range(8)] for g in (0, 4, 1, 5)]
    z4 = {"order": 4, "table": [[(a + b) % 4 for b in range(4)]
                                for a in range(4)]}
    f = write(tmp_path, "pipe.json", {
        "points": 8,
        "rho": {"group": z4, "points": 8, "act": act_i},
        "rho_prime": {"group": z4, "points": 8, "act": act_j}})
    out = str(tmp_path / "rep.json")
    assert run(["dpg", "gamma-from-actions", f, "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["gamma_order"] == 8
    assert rep["details"]["m0_size"] == 1


def test_groupoid_gauge_and_quotient(tmp_path):
    z2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    f = write(tmp_path, "gauge.json", {
        "points": 4,
        "action": {"group": z2, "points": 4, "act": [[0, 1, 2, 3],
                                                     [1, 0, 3, 2]]}})
    out = str(tmp_path / "rep.json")
    assert run(["groupoid", "gauge", f, "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["groupoid"]["arrows"] == 8
    assert rep["details"]["groupoid"]["objects"] == 2


def test_groupoid_split_and_multfunction(tmp_path):
    # pair groupoid of 2 objects as a Z2-groupoid via b(x,y) = c(x) - c(y)
    from ntpg.groupoids import build_from_morphism, pair_groupoid
    from ntpg.jsonio import dump_groupoid
    from ntpg.named import cyclic
    built = build_from_morphism(pair_groupoid(2), cyclic(2), [0, 1, 1, 0])
    gpd = built.groupoid
    data = {"groupoid": dump_groupoid(gpd),
            "group": {"order": 2, "table": [[0, 1], [1, 0]]},
            "act": [list(r) for r in built.act]}
    f = write(tmp_path, "split.json", data)
    out = str(tmp_path / "rep.json")
    assert run(["groupoid", "split", f, "--out", out]) == 0
    assert run(["groupoid", "mult-function", f, "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["theory_checks"]["reconstruction_isomorphic"]


def test_graded_check_morphism(tmp_path):
    sig = {"mode": "simple", "dims": [1, 1]}
    good = {"field": "Q", "sig_in": sig, "sig_out": sig,
            "terms": [{"target": 0, "exponents": [1, 0], "num": "1"},
                      {"target": 1, "exponents": [0, 1], "num": "1"},
                      {"target": 1, "exponents": [2, 0], "num": "1"}]}
    f = write(tmp_path, "shear.json", good)
    assert run(["graded", "check-morphism", f]) == 0
    bad = {"field": "Q", "sig_in": sig, "sig_out": sig,
           "terms": [{"target": 0, "exponents": [0, 1], "num": "1"},
                     {"target": 1, "exponents": [1, 0], "num": "1"}]}
    f2 = write(tmp_path, "swap.json", bad)
    out = str(tmp_path / "rep.json")
    assert run(["graded", "check-morphism", f2, "--out", out]) == 1
    assert read_report(out)["witnesses"]


def test_graded_check_compat(tmp_path):
    sig = {"mode": "simple", "dims": [1, 1]}
    data = {"field": "Q",
            "structures": [{"kind": "diagonal", "sig": sig},
                           {"kind": "conjugated", "sig": sig,
                            "phi": [{"target": 0, "exponents": [1, 0],
                                     "num": "1"},
                                    {"target": 1, "exponents": [0, 1],
                                     "num": "1"},
                                    {"target": 1, "exponents": [2, 0],
                                     "num": "1"}]}]}
    f = write(tmp_path, "compat.json", data)
    out = str(tmp_path / "rep.json")
    assert run(["graded", "check-compat", f, "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["commute"] and rep["details"]["bracket_commute"]


@pytest.mark.parametrize("kind", ["conjugate", "Diagonal", None, 1])
def test_graded_check_compat_rejects_an_unknown_kind(tmp_path, capsys, kind):
    # once read as "diagonal" with its phi ignored, so the input passed
    sig = {"mode": "simple", "dims": [1, 1]}
    phi = [{"target": 0, "exponents": [1, 0], "num": "1"},
           {"target": 1, "exponents": [0, 1], "num": "1"},
           {"target": 1, "exponents": [2, 0], "num": "1"}]
    data = {"field": "Q",
            "structures": [{"kind": "diagonal", "sig": sig},
                           {"kind": kind, "sig": sig, "phi": phi}]}
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["graded", "check-compat",
                             write(tmp_path, "compat.json", data),
                             "--out", out]), out, capsys)
    assert read_report(out)["details"] == {
        "error": "InvalidInput", "message": "unknown structure kind",
        "details": {"kind": kind}}


def test_check_compat_reads_each_structure_once(tmp_path, monkeypatch):
    # d111_structures.json has two structures, one conjugated: its phi is
    # built on the signature already read, in the field already read
    import ntpg.jsonio
    from ntpg import fields
    reads = []

    def counting(read, what):
        def spy(*args):
            reads.append(what)
            return read(*args)
        return spy

    monkeypatch.setattr(ntpg.jsonio, "load_signature", counting(
        ntpg.jsonio.load_signature, "signature"))
    monkeypatch.setattr(fields, "field_from_json", counting(
        fields.field_from_json, "field"))
    out = str(tmp_path / "rep.json")
    assert run(["graded", "check-compat",
                os.path.join(EXAMPLES, "d111_structures.json"),
                "--out", out]) == 0
    assert sorted(reads) == ["field", "signature", "signature"]


def test_check_compat_names_sig_then_kind_then_axis_then_phi(tmp_path,
                                                            capsys):
    # every part of the conjugated structure is bad; mending them one at
    # a time names the next
    sig = {"mode": "simple", "dims": [1, 1]}
    phi = [{"target": 0, "exponents": [1, 0], "num": "1"},
           {"target": 1, "exponents": [0, 1], "num": "1"}]
    structure = {"sig": {"mode": "affine"}, "kind": "conjugate", "axis": 1,
                 "phi": [{"target": 0, "exponents": [1], "num": "1"}]}
    out = str(tmp_path / "rep.json")
    for key, mended, message in [
            ("sig", sig, "unknown signature mode"),
            ("kind", "conjugated", "unknown structure kind"),
            ("axis", 0, "simple signatures have a single grading"),
            ("phi", phi, "exponent tuple has wrong length")]:
        data = {"field": "Q", "structures": [{"sig": sig}, structure]}
        _assert_input_error(run(["graded", "check-compat",
                                 write(tmp_path, "compat.json", data),
                                 "--out", out]), out, capsys)
        assert read_report(out)["details"]["message"] == message
        structure[key] = mended
    assert run(["graded", "check-compat", write(tmp_path, "compat.json", {
        "field": "Q", "structures": [{"sig": sig}, structure]})]) == 0


def _conjugated_structures():
    """(field spec, structure) for each conjugated structure of the
    check-compat inputs in docs/examples and in the golden cases."""
    from test_golden import CASES
    with open(os.path.join(EXAMPLES, "d111_structures.json")) as fh:
        inputs = [json.load(fh)]
    inputs += [files["st"] for argv, files in CASES.values()
               if argv[:2] == ["graded", "check-compat"]]
    return [(st.get("field", "Q"), s) for st in inputs
            for s in st["structures"] if s.get("kind") == "conjugated"]


def test_check_compat_conjugates_to_the_dilation_itself():
    # invert accepts only a weight-preserving phi, which intertwines every
    # dilation of its signature: phi ∘ h_t ∘ phi^-1 is h_t, so check-compat
    # only ever compares diagonal families, and its fail verdict is never
    # reached through the CLI
    from ntpg.errors import AlgebraError
    from ntpg.fields import field_from_json
    from ntpg.graded import conjugate_structure, dilation
    from ntpg.jsonio import load_polymap, load_signature
    kept = refused = 0
    for spec, s in _conjugated_structures():
        h = dilation(load_signature(s["sig"]), field_from_json(spec),
                     axis=s.get("axis", 0))
        phi, _ = load_polymap({"field": spec, "sig_in": s["sig"],
                               "sig_out": s["sig"], "terms": s["phi"]})
        try:
            conjugate = conjugate_structure(h, phi)
        except AlgebraError:
            refused += 1
            continue
        assert conjugate.components == h.components
        kept += 1
    assert (kept, refused) == (2, 1)


def test_graded_weights(tmp_path):
    data = {"field": "Q", "sig": {"mode": "simple", "dims": [1, 1]},
            "terms": [{"exponents": [2, 0], "num": "1"},
                      {"exponents": [0, 1], "num": "1"}]}
    f = write(tmp_path, "w.json", data)
    out = str(tmp_path / "rep.json")
    assert run(["graded", "weights", f, "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["homogeneous"] is True
    assert list(rep["details"]["components"]) == ["2"]


D111 = {"mode": "multi", "n": 2,
        "blocks": [{"sigma": [1, 0], "dim": 1},
                   {"sigma": [0, 1], "dim": 1},
                   {"sigma": [1, 1], "dim": 1}]}


def test_aut_enumerate_and_p54(tmp_path):
    sig_file = write(tmp_path, "d111.json", D111)
    out = str(tmp_path / "rep.json")
    assert run(["aut", "enumerate", "--sig", sig_file, "--field", "Fp:3",
                "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["order"] == 24
    assert rep["details"]["statomorphisms"] == 3
    assert run(["aut", "verify-p54", "--sig", sig_file, "--field", "Fp:3",
                "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["orders"]["gamma"] == 24
    assert rep["details"]["orders"]["gi"] == [12, 12]
    assert rep["details"]["orders"]["intersections"]["1,2"] == 6


def test_cocycle_check_and_cohomologous(tmp_path):
    z3 = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    data = {"charts": 3, "overlaps": [[0, 1], [1, 2], [0, 2]],
            "triples": [[0, 1, 2]], "group": z3,
            "values": [{"pair": [0, 1], "element": 1},
                       {"pair": [1, 2], "element": 1},
                       {"pair": [0, 2], "element": 2}]}
    f = write(tmp_path, "c.json", data)
    assert run(["cocycle", "check", f]) == 0
    bad = dict(data)
    bad["values"] = [{"pair": [0, 1], "element": 1},
                     {"pair": [1, 2], "element": 1},
                     {"pair": [0, 2], "element": 0}]
    f2 = write(tmp_path, "cbad.json", bad)
    out = str(tmp_path / "rep.json")
    assert run(["cocycle", "check", f2, "--out", out]) == 1
    assert read_report(out)["witnesses"][0]["law"] == "triple"

    coh = {"group": z3, "charts": 2, "overlaps": [[0, 1]],
           "c1": [{"pair": [0, 1], "element": 1}],
           "c2": [{"pair": [0, 1], "element": 2}]}
    f3 = write(tmp_path, "coh.json", coh)
    assert run(["cocycle", "cohomologous", f3, "--out", out]) == 0
    assert "lambda" in read_report(out)["details"]


def test_cocycle_frame_roundtrip(tmp_path):
    data = {"model": {"sig": D111, "field": {"Fp": 3}},
            "cocycle": {"charts": 2, "overlaps": [[0, 1]],
                        "values": [{"pair": [0, 1], "terms": [
                            {"target": 0, "exponents": [1, 0, 0], "num": "2"},
                            {"target": 1, "exponents": [0, 1, 0], "num": "1"},
                            {"target": 2, "exponents": [1, 1, 0], "num": "1"},
                            {"target": 2, "exponents": [0, 0, 1], "num": "1"},
                        ]}]}}
    f = write(tmp_path, "frame.json", data)
    out = str(tmp_path / "rep.json")
    assert run(["cocycle", "frame", f, "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["theory_checks"]["round_trip_exact"]


def test_cocycle_frame_proves_no_action_and_no_subgroup(tmp_path,
                                                        monkeypatch):
    # frame reads only the model's grading count: it builds no standard
    # fibered space, whose sides it would never read
    from ntpg.actions import FiniteAction
    from ntpg.groups import Subgroup
    proofs = []
    for cls in (FiniteAction, Subgroup):
        def counting(self, validate=cls._validate):
            proofs.append(type(self).__name__)
            validate(self)
        monkeypatch.setattr(cls, "_validate", counting)
    out = str(tmp_path / "rep.json")
    assert run(["cocycle", "frame", os.path.join(EXAMPLES, "d111_frame.json"),
                "--out", out]) == 0
    assert proofs == []


def test_cocycle_associate(tmp_path):
    data = {"model": {"sig": D111, "field": {"Fp": 3}},
            "cocycle": {"charts": 2, "overlaps": [[0, 1]],
                        "values": [{"pair": [0, 1], "element": 0}]}}
    f = write(tmp_path, "assoc.json", data)
    out = str(tmp_path / "rep.json")
    assert run(["cocycle", "associate", f, "--out", out]) == 0


def test_cocycle_t2(tmp_path):
    sig0 = {"mode": "simple", "dims": [], "base": 1}
    data = {"field": "Q", "sig_in": sig0, "sig_out": sig0,
            "terms": [{"target": 0, "exponents": [1], "num": "1"},
                      {"target": 0, "exponents": [2], "num": "1"}]}
    f = write(tmp_path, "t2.json", data)
    out = str(tmp_path / "rep.json")
    assert run(["cocycle", "t2", f, "--out", out]) == 0
    rep = read_report(out)
    assert rep["details"]["quadratic_velocity_term"] is True
    assert rep["details"]["graded"] is True


def test_workers_env_never_changes_results(tmp_path, monkeypatch, capsys):
    f = write(tmp_path, "q8.json",
              {"gamma": q8_json(), "subgroups": [[0, 1, 2, 3], [0, 1, 4, 5]]})
    out1 = str(tmp_path / "rep1.json")
    out2 = str(tmp_path / "rep2.json")
    assert run(["dpg", "verify", f, "--out", out1]) == 0
    monkeypatch.setenv("NTPG_WORKERS", "4")
    assert run(["dpg", "verify", f, "--out", out2]) == 0
    r1, r2 = read_report(out1), read_report(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2
    capsys.readouterr()
    # "²" is a digit that int() refuses: an input error, not a crash
    for bad in ("zero", " 4", "²"):
        monkeypatch.setenv("NTPG_WORKERS", bad)
        assert run(["dpg", "verify", f]) == 2
        assert capsys.readouterr().err == \
            "NTPG_WORKERS must be a positive integer\n"


def test_reports_are_deterministic(tmp_path):
    f = write(tmp_path, "q8.json",
              {"gamma": q8_json(), "subgroups": [[0, 1, 2, 3], [0, 1, 4, 5]]})
    out1 = str(tmp_path / "rep1.json")
    out2 = str(tmp_path / "rep2.json")
    assert run(["dpg", "verify", f, "--out", out1]) == 0
    # --seed is kept for old command lines and changes nothing
    assert run(["dpg", "verify", f, "--out", out2, "--seed", "7"]) == 0
    r1, r2 = read_report(out1), read_report(out2)
    r1.pop("timing_ms")
    r2.pop("timing_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def _assert_error_report(code, out, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert read_report(out)["verdict"] == "error"
    assert "Traceback" not in err
    return err


def test_dpg_verify_one_subgroup_exits_2(tmp_path, capsys):
    f = write(tmp_path, "q8.json",
              {"gamma": q8_json(), "subgroups": [[0, 1, 2, 3]]})
    out = str(tmp_path / "rep.json")
    _assert_error_report(run(["dpg", "verify", f, "--out", out]), out, capsys)


def test_cocycle_check_element_out_of_range_exits_2(tmp_path, capsys):
    z2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    f = write(tmp_path, "c.json", {"charts": 2, "overlaps": [[0, 1]],
                                   "group": z2,
                                   "values": [{"pair": [0, 1],
                                               "element": 7}]})
    out = str(tmp_path / "rep.json")
    _assert_error_report(run(["cocycle", "check", f, "--out", out]), out,
                        capsys)


def test_negative_block_dimension_exits_2(tmp_path, capsys):
    sig = {"mode": "multi", "n": 2,
           "blocks": [{"sigma": [1, 0], "dim": 1},
                      {"sigma": [0, 1], "dim": -1}]}
    sig_file = write(tmp_path, "sig.json", sig)
    out = str(tmp_path / "rep.json")
    code = run(["aut", "enumerate", "--sig", sig_file, "--field", "Fp:3",
                "--out", out])
    _assert_error_report(code, out, capsys)
    assert read_report(out)["details"]["message"] == \
        "negative block dimension"


def test_escaped_exception_is_reported_as_library_bug(tmp_path, capsys,
                                                      monkeypatch):
    import ntpg.cli

    def broken(ctx, data):
        raise RuntimeError("boom")

    monkeypatch.setattr(ntpg.cli, "cmd_group_validate", broken)
    f = write(tmp_path, "trivial.json", {"order": 1, "table": [[0]]})
    out = str(tmp_path / "rep.json")
    err = _assert_error_report(run(["group", "validate", f, "--out", out]),
                              out, capsys)
    assert len(err.splitlines()) == 1 and "library bug" in err
    rep = read_report(out)
    assert rep["library_bug"] is True
    assert rep["details"]["error"] == "RuntimeError"
    assert rep["details"]["details"]["where"].startswith("test_cli.py:")


def test_out_in_missing_directory_exits_2_without_traceback(tmp_path,
                                                           capsys):
    f = write(tmp_path, "q8.json", {"gamma": q8_json(),
                                    "subgroups": [[0, 1, 2, 3],
                                                  [0, 1, 4, 5]]})
    one = write(tmp_path, "q8_one.json", {"gamma": q8_json(),
                                          "subgroups": [[0, 1, 2, 3]]})
    out = str(tmp_path / "no" / "such" / "dir" / "rep.json")
    # a verdict, then an input error: the report is lost either way, and
    # the one stderr line says so
    for argv in (["dpg", "verify", f], ["dpg", "verify", one]):
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "cannot write the report" in err
        assert "Traceback" not in err


# -- nothing escapes main: a fault at any stage ends in rc 2 and one line ----

# one command per command group, on its docs/examples input
INJECTED_COMMANDS = [
    ["group", "validate", "s4_perms.json"],
    ["dpg", "verify", "q8_dpg.json"],
    ["ntuple", "verify", "q8_dpg.json"],
    ["groupoid", "gauge", "z3_gauge.json"],
    ["graded", "weights", "f5_polynomial.json"],
    ["aut", "verify-p54", "--field", "Fp:2", "--sig", "d111_sig.json"],
    ["cocycle", "cohomologous", "s3_coh.json"],
]
INJECTED = (MemoryError, RecursionError, RuntimeError, OSError)


def _fault(exc, real, when=None):
    """real, raising exc("injected") on its first call that when accepts."""
    fired = []

    def faulty(*args, **kwargs):
        if not fired and (when is None or when(*args, **kwargs)):
            fired.append(exc)
            raise exc("injected")
        return real(*args, **kwargs)
    return faulty


def _stages(argv):
    """stage -> (object, attribute, fault filter) for the stages of a run:
    the input read, the handler, the report text, the report file's open
    and the stdout verdict line."""
    import builtins
    import ntpg.cli
    import ntpg.jsonio
    handler = build_parser().parse_args(argv).handler.__name__
    return {"read_json": (ntpg.jsonio, "read_json", None),
            "handler": (ntpg.cli, handler, None),
            "_report_text": (ntpg.jsonio, "_report_text", None),
            # the input is opened for reading first
            "open": (builtins, "open",
                     lambda path, mode="r", **kwargs: mode == "w"),
            "stdout": (sys.stdout, "write", None)}


@pytest.mark.parametrize("command", INJECTED_COMMANDS,
                         ids=[" ".join(c[:2]) for c in INJECTED_COMMANDS])
def test_injected_fault_exits_2_with_one_stderr_line(command, tmp_path,
                                                     capsys, monkeypatch):
    out = str(tmp_path / "rep.json")
    argv = [a if not a.endswith(".json") else os.path.join(EXAMPLES, a)
            for a in command] + ["--out", out]
    broken = []
    for stage, (obj, attr, when) in _stages(argv).items():
        for exc in INJECTED:
            if os.path.exists(out):
                os.remove(out)
            with monkeypatch.context() as m:
                m.setattr(obj, attr, _fault(exc, getattr(obj, attr), when))
                code = run(argv)
            err = capsys.readouterr().err
            # an OSError while the report is written is a usage error; any
            # other fault is a library bug, and its report is written
            bug = stage in ("read_json", "handler") or exc is not OSError
            if (code, len(err.splitlines())) != (2, 1) or "Traceback" in err \
                    or bug and read_report(out).get("library_bug") is not True:
                broken.append((stage, exc.__name__, code, err))
    assert broken == []


def test_library_bug_report_that_cannot_be_written_exits_2(tmp_path, capsys,
                                                           monkeypatch):
    import ntpg.jsonio

    def no_memory(report):
        raise MemoryError

    monkeypatch.setattr(ntpg.jsonio, "_report_text", no_memory)
    out = str(tmp_path / "rep.json")
    assert run(["group", "validate", os.path.join(EXAMPLES, "s4_perms.json"),
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "cannot write the report" in err
    assert "Traceback" not in err and not os.path.exists(out)


def test_string_block_dimension_exits_2(tmp_path, capsys):
    sig = {"mode": "multi", "n": 2,
           "blocks": [{"sigma": [1, 0], "dim": 1},
                      {"sigma": [0, 1], "dim": "1"}]}
    sig_file = write(tmp_path, "sig.json", sig)
    out = str(tmp_path / "rep.json")
    code = run(["aut", "enumerate", "--sig", sig_file, "--field", "Fp:3",
                "--out", out])
    _assert_error_report(code, out, capsys)
    assert read_report(out)["details"]["message"] == \
        "block dimension must be an integer"


def test_cli_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(ntpg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ntpg.cli, sys; assert 'numpy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_input_is_read_as_utf8_whatever_the_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259): a non-ASCII string in the input must not
    # depend on the locale's encoding, which is ASCII under LC_ALL=C
    f = tmp_path / "z2.json"
    f.write_bytes(json.dumps({"comment": "Γ", "table": [[0, 1], [1, 0]]},
                             ensure_ascii=False).encode("utf-8"))
    src = os.path.dirname(os.path.dirname(ntpg.__file__))
    reports = []
    for extra in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0",
                       "PYTHONCOERCECLOCALE": "0"}):
        proc = subprocess.run(
            [sys.executable, "-m", "ntpg.cli", "group", "validate", str(f),
             "--out", "-"], env=dict(os.environ, PYTHONPATH=src, **extra),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout
        report = json.loads(proc.stdout)
        del report["timing_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["verdict"] == "pass"


EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "docs", "examples")

# print the ntpg modules whose bodies ran, as opposed to those still
# waiting for their first attribute access
_RUN_AND_LIST_MODULES = """
import sys, types
from ntpg.cli import main
rc = main(sys.argv[1:])
print(rc, *sorted(name[5:] for name, m in sys.modules.items()
                  if name.startswith("ntpg.") and type(m) is types.ModuleType))
"""


def _modules_ran(argv):
    """main's rc and the ntpg modules whose bodies ran, in a fresh
    process."""
    src = os.path.dirname(os.path.dirname(ntpg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, *ran = proc.stdout.splitlines()[-1].split()
    return rc, ran


@pytest.mark.parametrize("argv,used", [
    (["group", "validate", "s4_perms.json"], ["groups", "jsonio"]),
    (["dpg", "verify", "q8_dpg.json"], ["actions", "groups", "jsonio",
                                        "ntuple", "principal"]),
    (["dpg", "dressing", "q8_dpg.json"], ["actions", "groups", "jsonio",
                                          "ntuple", "principal"]),
    (["dpg", "gamma-from-actions", "z2z3_pipeline.json"],
     ["actions", "groups", "jsonio", "ntuple", "principal"]),
    # the n-tuple recursion, without principal's pipeline or its actions
    (["ntuple", "verify", "q8_dpg.json"], ["groups", "jsonio", "ntuple"]),
    (["groupoid", "gauge", "z3_gauge.json"], ["actions", "groupoids",
                                              "groups", "jsonio"]),
    (["groupoid", "quotient", "s3_groupoid_action.json"],
     ["actions", "groupoids", "groups", "jsonio"]),
    (["groupoid", "split", "s3_groupoid_action.json"],
     ["actions", "groupoids", "groups", "jsonio"]),
    (["groupoid", "mult-function", "s3_groupoid_action.json"],
     ["actions", "groupoids", "groups", "jsonio"]),
    # the graded commands and t2 read no group, and t2 no cocycle
    (["graded", "check-morphism", "d111_morphism.json"],
     ["fields", "graded", "jsonio", "poly", "signature"]),
    (["graded", "check-compat", "d111_structures.json"],
     ["fields", "graded", "jsonio", "poly", "signature"]),
    (["graded", "weights", "f5_polynomial.json"],
     ["fields", "graded", "jsonio", "poly", "signature"]),
    # the enumeration builds no polynomial map and no action
    (["aut", "enumerate", "--sig", "d111_sig.json", "--field", "Fp:2"],
     ["autgroups", "fields", "groups", "jsonio", "signature"]),
    (["aut", "verify-p54", "--sig", "d111_sig.json", "--field", "Fp:2"],
     ["autgroups", "fields", "groups", "jsonio", "ntuple", "signature"]),
    (["cocycle", "check", "z3_cocycle.json"], ["cocycles", "groups",
                                               "jsonio"]),
    (["cocycle", "associate", "d111_assoc.json"],
     ["actions", "autgroups", "cocycles", "fields", "graded", "groups",
      "jsonio", "poly", "signature"]),
    # frame refuses a model that is not double, and builds no fibered space
    (["cocycle", "frame", "d111_frame.json"],
     ["autgroups", "cocycles", "fields", "graded", "groups", "jsonio", "poly",
      "signature"]),
    (["cocycle", "cohomologous", "s3_coh.json"], ["cocycles", "groups",
                                                  "jsonio"]),
    (["cocycle", "t2", "t2_chart.json"], ["fields", "graded", "jsonio",
                                          "poly", "signature"]),
])
def test_cli_runs_only_the_structure_modules_a_command_uses(tmp_path, argv,
                                                            used):
    argv = [os.path.join(EXAMPLES, a) if a.endswith(".json") else a
            for a in argv]
    assert _modules_ran([*argv, "--out", str(tmp_path / "rep.json")]) == \
        ("0", sorted(["cli", "errors", *used]))


@pytest.mark.parametrize("argv,rc", [(["--help"], "0"),
                                     (["dpg", "--help"], "0"),
                                     (["group"], "2")])
def test_help_and_usage_errors_run_no_module_but_cli_and_errors(argv, rc):
    assert _modules_ran(argv) == (rc, ["cli", "errors"])


@pytest.mark.parametrize("group", ["group", "dpg", "ntuple", "groupoid",
                                   "graded", "aut", "cocycle", None])
def test_help_in_a_fresh_process_is_the_parser_text(group, monkeypatch,
                                                    capsys):
    # deferring the library leaves each --help as build_parser writes it in
    # process, at one terminal width
    monkeypatch.setenv("COLUMNS", "80")
    argv = [group, "--help"] if group else ["--help"]
    src = os.path.dirname(os.path.dirname(ntpg.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ntpg.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, capsys.readouterr().out, "")


# a buffered stdout: a full device or a closed pipe fails at the flush, and
# the bytes still buffered must not fail again at the interpreter's exit;
# with --out FILE the report is complete and only the verdict line is lost
@pytest.mark.parametrize("argv, lost", [
    (["--help"], "the help"), (["dpg", "--help"], "the help"),
    (["group", "validate", "s4_perms.json", "--out", "rep.json"],
     "the verdict line"),
    (["group", "validate", "s4_perms.json", "--out", "-"], "the report"),
], ids=["help", "dpg help", "out file", "out stdout"])
@pytest.mark.parametrize("sink", [
    pytest.param("/dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full here")),
    "closed pipe"])
def test_unwritable_buffered_stdout_exits_2_with_one_line(argv, lost, sink,
                                                         tmp_path):
    argv = [os.path.join(EXAMPLES, a) if a == "s4_perms.json"
            else str(tmp_path / a) if a == "rep.json" else a for a in argv]
    src = os.path.dirname(os.path.dirname(ntpg.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if sink == "closed pipe":
        read, stdout = os.pipe()
        os.close(read)
    else:
        stdout = os.open(sink, os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ntpg.cli", *argv], stdout=stdout,
            stderr=subprocess.PIPE, env=dict(env, PYTHONPATH=src), text=True,
            timeout=60)
    finally:
        os.close(stdout)
    assert (proc.returncode, len(proc.stderr.splitlines())) == (2, 1), \
        proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.stderr.startswith("ERROR") and \
        ": cannot write %s: " % lost in proc.stderr
    if lost == "the verdict line":
        _assert_complete_validate_report(tmp_path / "rep.json")


def _assert_complete_validate_report(path):
    """path holds the whole pass report of ``group validate`` on S4."""
    report = read_report(path)
    assert (report["command"], report["verdict"], report["witnesses"]) == \
        (["group", "validate"], "pass", [])
    assert report["details"] == {"fingerprint": {"order": 24,
                                                 "abelian": False}}


@pytest.mark.parametrize("argv, rc, first", [
    (["--help"], 0, "usage: ntpg [-h]"),
    (["group"], 2, "usage: ntpg group"),
    (["group", "validate", "s4_perms.json", "--out", "rep.json"], 2,
     "ERROR group validate: cannot write the verdict line: [Errno 9]"),
    (["group", "validate", "s4_perms.json"], 2,
     "ERROR group validate: cannot write the report: [Errno 9]"),
    (["group", "validate", "missing.json", "--out", "rep.json"], 2,
     "ERROR group validate: input file not found"),
], ids=["help", "usage error", "out file", "out stdout", "error out file"])
def test_stdout_closed_at_start_up_exits_without_a_traceback(argv, rc, first,
                                                              tmp_path):
    # with fd 1 closed the interpreter sets sys.stdout to None: argparse
    # writes its help to stderr, and a report or verdict line that print
    # dropped is a closed stdout, rc 2 with one line
    argv = [os.path.join(EXAMPLES, a) if a == "s4_perms.json"
            else str(tmp_path / a) if a == "rep.json" else a for a in argv]
    src = os.path.dirname(os.path.dirname(ntpg.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "ntpg.cli",
         *argv], stderr=subprocess.PIPE, env=dict(env, PYTHONPATH=src),
        text=True, timeout=60)
    assert proc.returncode == rc, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.stderr.startswith(first)
    if rc and first.startswith("ERROR"):
        assert len(proc.stderr.splitlines()) == 1
    if "verdict line" in first:
        _assert_complete_validate_report(tmp_path / "rep.json")


class _FullStdout(io.StringIO):
    """A stdout whose flush fails as a full device's does; its file
    descriptor is a file of the test's own."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [["--help"], ["group", "validate",
                                               "s4_perms.json", "--out", "-"]],
                         ids=["help", "report"])
def test_failed_stdout_flush_points_stdout_at_devnull(argv, tmp_path, capsys,
                                                       monkeypatch):
    # in process, the same path as the fresh-process runs above: one
    # stderr line, rc 2, and stdout's descriptor now on os.devnull, where
    # the interpreter's final flush cannot fail
    argv = [os.path.join(EXAMPLES, a) if a.endswith(".json") else a
            for a in argv]
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _FullStdout(fd))
        assert main(argv) == 2
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "No space left on device" in err


@pytest.mark.parametrize("argv, rc, first", [
    (["--help"], 0, "usage: ntpg [-h]"),
    (["group", "validate", "s4_perms.json"], 2,
     "ERROR group validate: cannot write the report: [Errno 9]")],
    ids=["help", "report"])
def test_stdout_none_is_a_closed_stdout_in_process(argv, rc, first, capsys,
                                                   monkeypatch):
    # in process, the path of a stdout closed at start-up above
    argv = [os.path.join(EXAMPLES, a) if a.endswith(".json") else a
            for a in argv]
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == rc
    assert capsys.readouterr().err.startswith(first)


_RUN_AND_CHECK_FRACTIONS = """
import sys
from ntpg.cli import main
rc = main(sys.argv[1:])
print(rc, "fractions" in sys.modules)
"""


@pytest.mark.parametrize("argv,loaded", [
    (["aut", "verify-p54", "--sig", "d111_sig.json", "--field", "Fp:5"],
     "False"),
    (["cocycle", "t2", "t2_chart.json"], "True"),
])
def test_only_runs_over_q_load_fractions(tmp_path, argv, loaded):
    argv = [os.path.join(EXAMPLES, a) if a.endswith(".json") else a
            for a in argv]
    src = os.path.dirname(os.path.dirname(ntpg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_CHECK_FRACTIONS, *argv,
         "--out", str(tmp_path / "rep.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.stdout.splitlines()[-1].split()[1] == loaded, proc.stderr


def test_cli_reuses_structure_modules_imported_before_it():
    import ntpg.cli
    import ntpg.jsonio
    assert ntpg.cli.graded is sys.modules["ntpg.graded"] is ntpg.graded
    assert ntpg.cli.graded.PolyMap is ntpg.jsonio.graded.PolyMap is PolyMap


def _assert_input_error(code, out, capsys):
    err = _assert_error_report(code, out, capsys)
    assert len(err.splitlines()) == 1
    assert "library_bug" not in read_report(out)


_UNDECODABLE = [
    pytest.param(b'{"order": 1, "table": [[0]]}\xff', id="non-utf8"),
    pytest.param(b"[" * 100_000, id="nested-100000-deep"),
    pytest.param(b"1" * 5000, id="5000-digit-integer",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="no int-to-string digit limit")),
]


@pytest.mark.parametrize("content", _UNDECODABLE)
def test_undecodable_input_exits_2(tmp_path, capsys, content):
    f = tmp_path / "in.json"
    f.write_bytes(content)
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["group", "validate", str(f), "--out", out]), out,
                        capsys)
    assert read_report(out)["details"]["message"] == "invalid JSON input"


@pytest.mark.parametrize("argv", [
    ["group", "validate", "{}"],
    ["aut", "enumerate", "--sig", "{}", "--field", "Fp:2"]])
def test_directory_as_input_exits_2(tmp_path, capsys, argv):
    out = str(tmp_path / "rep.json")
    code = run([str(tmp_path) if a == "{}" else a for a in argv]
               + ["--out", out])
    _assert_input_error(code, out, capsys)
    assert read_report(out)["details"]["message"] == \
        "cannot read the input file"


def test_subgroups_not_a_list_exits_2(tmp_path, capsys):
    f = write(tmp_path, "q8.json", {"gamma": q8_json(), "subgroups": 5})
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["dpg", "verify", f, "--out", out]), out, capsys)


def test_nested_subgroup_member_exits_2(tmp_path, capsys):
    f = write(tmp_path, "q8.json", {"gamma": q8_json(),
                                    "subgroups": [[[0], 1, 2, 3],
                                                  [0, 1, 4, 5]]})
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["dpg", "verify", f, "--out", out]), out, capsys)


def test_nested_exponent_exits_2(tmp_path, capsys):
    f = write(tmp_path, "t2.json", {
        "field": "Q",
        "sig_in": {"mode": "simple", "dims": [], "base": 1},
        "sig_out": {"mode": "simple", "dims": [], "base": 1},
        "terms": [{"target": 0, "exponents": [[1]], "num": "1"}]})
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["cocycle", "t2", f, "--out", out]), out, capsys)


EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "docs", "examples")

# (example, path to the mutated node, new value): one per loader check that
# a mutation of the shipped examples once escaped as an exception or hang
# (oversized signatures: test_graded.py)
_MALFORMED = [
    ("q8_dpg.json", ["gamma", "table"], 1),
    ("q8_dpg.json", ["gamma", "table", 0], 1),
    ("d111_sig.json", ["blocks"], 1),
    ("d111_sig.json", ["blocks", 0, "sigma"], [[1, 0]]),
    ("t2_chart.json", ["sig_in", "dims"], 1),
    ("t2_chart.json", ["terms"], 1),
    ("t2_chart.json", ["terms", 0, "target"], "1"),
    ("t2_chart.json", ["terms", 0, "num"], None),
    ("t2_chart.json", ["terms", 0, "num"], "1.5"),
    ("t2_chart.json", ["terms", 0, "exponents", 0], 1001),
    ("z3_cocycle.json", ["charts"], "1"),
    ("z3_cocycle.json", ["charts"], 10_001),
    ("z3_cocycle.json", ["overlaps"], 1),
    ("z3_cocycle.json", ["overlaps"], [[[0, 1], [1, 2], [0, 2]]]),
    ("z3_cocycle.json", ["triples"], [[[0, 1, 2]]]),
    ("z3_cocycle.json", ["values"], 1),
]
_COMMANDS = {"q8_dpg.json": ["dpg", "verify"],
             "z3_cocycle.json": ["cocycle", "check"],
             "t2_chart.json": ["cocycle", "t2"]}


@pytest.mark.parametrize("name,path,value", _MALFORMED)
def test_malformed_example_exits_2(tmp_path, capsys, name, path, value):
    with open(os.path.join(EXAMPLES, name)) as fh:
        obj = json.load(fh)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    f = write(tmp_path, name, obj)
    out = str(tmp_path / "rep.json")
    if name == "d111_sig.json":
        argv = ["aut", "enumerate", "--sig", f, "--field", "Fp:2"]
    else:
        argv = _COMMANDS[name] + [f]
    _assert_input_error(run(argv + ["--out", out]), out, capsys)


def test_permutation_entries_must_be_integers(tmp_path, capsys):
    f = write(tmp_path, "g.json", {"permutations": [[[1], 0]]})
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["group", "validate", f, "--out", out]), out,
                        capsys)


Z2 = {"order": 2, "table": [[0, 1], [1, 0]]}
GAUGE = {"points": 4, "action": {"group": Z2, "points": 4,
                                 "act": [[0, 1, 2, 3], [1, 0, 3, 2]]}}
# the Z2-groupoid built from the pair groupoid on 2 objects by
# b(x, y) = c(x) - c(y), as in test_groupoid_split_and_multfunction
GROUPOID_ACTION = {
    "groupoid": {"objects": 4, "src": [0, 1, 2, 3, 0, 1, 2, 3],
                 "tgt": [0, 1, 1, 0, 3, 2, 2, 3], "id": [0, 1, 6, 7],
                 "inv": [0, 1, 5, 4, 3, 2, 6, 7],
                 "mul": [[0, 0, 0], [0, 3, 3], [1, 1, 1], [1, 2, 2],
                         [2, 5, 1], [2, 6, 2], [3, 4, 0], [3, 7, 3],
                         [4, 0, 4], [4, 3, 7], [5, 1, 5], [5, 2, 6],
                         [6, 5, 5], [6, 6, 6], [7, 4, 4], [7, 7, 7]]},
    "group": Z2,
    "act": [[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6]]}


def _mutated(base, path, value):
    obj = json.loads(json.dumps(base))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


# a one-arrow groupoid whose mul has a second key outside the arrows: 5 once
# ended as an IndexError, -1 wrapped around and was accepted with rc 0
_ONE_ARROW = {"groupoid": {"objects": 1, "src": [0], "tgt": [0], "id": [0],
                           "inv": [0], "mul": [[0, 0, 0]]},
              "group": {"table": [[0]]}, "act": [[0]]}


@pytest.mark.parametrize("listing", ["sorted", "reverse", "rotate"])
@pytest.mark.parametrize("name,code,witness", [
    ("loop5", 2, {"triple": [1, 1, 2]}),
    ("z5-swap", 1, {"witness": ["product", 1, [1, 1]]})])
def test_groupoid_witnesses_follow_index_order(tmp_path, listing, name, code,
                                               witness):
    data = json.loads(json.dumps(FAILING[name]))
    data["groupoid"]["mul"] = RELISTINGS.get(listing, list)(
        data["groupoid"]["mul"])
    out = str(tmp_path / "rep.json")
    assert run(["groupoid", "quotient", write(tmp_path, "in.json", data),
                "--out", out]) == code
    rep = read_report(out)
    got = rep["witnesses"][0] if code == 1 else rep["details"]
    assert got["details"] == witness


def test_unmutated_loader_inputs_pass(tmp_path):
    out = str(tmp_path / "rep.json")
    assert run(["groupoid", "gauge", write(tmp_path, "g.json", GAUGE),
                "--out", out]) == 0
    assert run(["groupoid", "split",
                write(tmp_path, "s.json", GROUPOID_ACTION),
                "--out", out]) == 0
    assert run(["groupoid", "quotient",
                write(tmp_path, "q.json", _ONE_ARROW), "--out", out]) == 0


# (command, base input, path to the mutated node, new value): inputs that
# once ended as library bugs or were accepted with rc 0
_LOADER_CASES = [
    ("gauge", GAUGE, ["action", "act", 0, 0], [0]),
    ("gauge", GAUGE, ["action", "points"], "4"),
    ("split", GROUPOID_ACTION, ["groupoid", "mul", 0], [0, 0]),
    ("split", GROUPOID_ACTION, ["groupoid", "src", 0], [0]),
    ("split", GROUPOID_ACTION, ["act", 1, 0], "1"),
]


@pytest.mark.parametrize("command,base,path,value", _LOADER_CASES)
def test_malformed_loader_input_exits_2(tmp_path, capsys, command, base,
                                        path, value):
    f = write(tmp_path, "in.json", _mutated(base, path, value))
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["groupoid", command, f, "--out", out]), out,
                        capsys)


@pytest.mark.parametrize("command,name", [
    ("groupoid gauge", "z3_gauge.json"),
    ("dpg gamma-from-actions", "z2z3_pipeline.json")])
def test_non_integer_point_count_exits_2(tmp_path, capsys, command, name):
    # 6.0 == 6 passed the set-size check and ended as a TypeError
    with open(os.path.join(EXAMPLES, name)) as fh:
        data = json.load(fh)
    data["points"] = 6.0
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(command.split() + [
        write(tmp_path, "in.json", data), "--out", out]), out, capsys)


def _example_with(name, path, value):
    with open(os.path.join(EXAMPLES, name)) as fh:
        return _mutated(json.load(fh), path, value)


def _s3_groupoid_with(key, change):
    """s3_groupoid_action.json with groupoid[key] replaced by change(it)."""
    with open(os.path.join(EXAMPLES, "s3_groupoid_action.json")) as fh:
        data = json.load(fh)
    data["groupoid"][key] = change(data["groupoid"][key])
    return data


# (command, input): a JSON boolean where an integer belongs, one per kind
# of integer field; each was once read as 0 or 1 and accepted
_TRIVIAL = {"table": [[0]]}
_BOOLEANS = [
    ("group validate", {"table": [[False, True, 2], [True, 2, False],
                                  [2, False, True]]}),
    ("group validate", {"order": True, "table": [[0]]}),
    ("group validate", {"permutations": [[True, False]]}),
    ("group validate", {"permutations": [[0]], "degree": True}),
    ("dpg verify", _example_with("q8_dpg.json", ["subgroups", 1, 0], False)),
    ("groupoid gauge", _mutated(GAUGE, ["action", "act", 0, 1], True)),
    ("groupoid gauge", {"points": 1, "action": {
        "group": _TRIVIAL, "points": True, "act": [[0]]}}),
    ("groupoid gauge", {"points": True, "action": {
        "group": _TRIVIAL, "points": 1, "act": [[0]]}}),
    ("groupoid quotient", _mutated(_ONE_ARROW, ["groupoid", "objects"],
                                   True)),
    ("groupoid quotient", _mutated(_ONE_ARROW, ["groupoid", "src"],
                                   [False])),
    ("groupoid quotient", _mutated(_ONE_ARROW, ["groupoid", "mul"],
                                   [[False, 0, 0]])),
    ("cocycle check", {"charts": True, "group": _TRIVIAL, "values": []}),
    ("cocycle check", _example_with("z3_cocycle.json", ["overlaps", 0],
                                    [False, True])),
    ("cocycle check", _example_with("z3_cocycle.json", ["triples", 0],
                                    [False, True, 2])),
    ("cocycle t2", _example_with("t2_chart.json", ["terms", 0, "exponents"],
                                 [True])),
    ("cocycle t2", _example_with("t2_chart.json", ["terms", 1, "target"],
                                 False)),
    ("cocycle t2", _example_with("t2_chart.json", ["terms", 0, "num"],
                                 True)),
    # appended, not inserted, so earlier cases keep their ids
    ("groupoid quotient", _mutated(_ONE_ARROW, ["groupoid", "arrows"],
                                   True)),
]


@pytest.mark.parametrize("command,data", _BOOLEANS)
def test_boolean_for_an_integer_exits_2(tmp_path, capsys, command, data):
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(command.split() + [
        write(tmp_path, "in.json", data), "--out", out]), out, capsys)


def test_declared_arrow_count_must_be_an_integer(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    data = _mutated(_ONE_ARROW, ["groupoid", "arrows"], 1.0)
    _assert_input_error(run(["groupoid", "quotient",
                             write(tmp_path, "in.json", data),
                             "--out", out]), out, capsys)
    assert read_report(out)["details"]["message"] == \
        "declared arrow count disagrees with src array"
    data["groupoid"]["arrows"] = 1
    assert run(["groupoid", "quotient", write(tmp_path, "in.json", data),
                "--out", out]) == 0


@pytest.mark.parametrize("bad,message", [
    (False, "entry is not an integer"), ("1", "entry is not an integer"),
    (1.5, "entry is not an integer"), (3, "entry out of range")])
def test_bad_table_entry_is_named_by_its_check(tmp_path, capsys, bad,
                                               message):
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table[1][2] = bad
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["group", "validate",
                             write(tmp_path, "in.json", {"table": table}),
                             "--out", out]), out, capsys)
    details = read_report(out)["details"]
    assert details["message"] == message
    assert details["details"] == {"row": 1, "value": bad}


@pytest.mark.parametrize("entry", [[5, 0, 0], [-1, 0, 0], [0, -1, 0]])
def test_mul_key_outside_the_arrows_exits_2(tmp_path, capsys, entry):
    data = _mutated(_ONE_ARROW, ["groupoid", "mul"], [[0, 0, 0], entry])
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["groupoid", "quotient",
                             write(tmp_path, "in.json", data),
                             "--out", out]), out, capsys)
    details = read_report(out)["details"]
    assert details["message"] == "mul key out of range"
    assert details["details"]["pair"] == entry[:2]


# (command, example, path to a keyed list, entries appended to it or None
# for a copy of its first, the least pair they repeat): the loaders kept the
# last entry of a repeated pair, so the verdict hung on the listing order
_REPEATED = [
    ("groupoid quotient", "s3_groupoid_action.json", ["groupoid", "mul"],
     [[4, 4, 0], [1, 1, 4]], [1, 1]),
    ("cocycle check", "z3_cocycle.json", ["values"],
     [{"pair": [1, 2], "element": 0}, {"pair": [0, 1], "element": 0}],
     [0, 1]),
    ("cocycle cohomologous", "s3_coh.json", ["c2"],
     [{"pair": [1, 2], "element": 0}, {"pair": [0, 2], "element": 0}],
     [0, 2]),
    ("cocycle associate", "d111_assoc.json", ["cocycle", "values"],
     [{"pair": [1, 2], "element": 0}], [1, 2]),
    ("cocycle frame", "d111_frame.json", ["cocycle", "values"], None,
     [0, 1]),
]


@pytest.mark.parametrize("command,name,path,extra,pair", _REPEATED)
def test_repeated_pair_exits_2_in_either_listing(tmp_path, capsys, command,
                                                  name, path, extra, pair):
    with open(os.path.join(EXAMPLES, name)) as fh:
        obj = json.load(fh)
    node = obj
    for key in path:
        node = node[key]
    node += extra or node[:1]
    out = str(tmp_path / "rep.json")
    reports = []
    for listing in (list, lambda entries: entries[::-1]):
        data = _mutated(obj, path, listing(node))
        _assert_input_error(run(command.split() + [
            write(tmp_path, "in.json", data), "--out", out]), out, capsys)
        report = read_report(out)
        del report["timing_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["details"]["message"].startswith("repeated ")
    assert reports[0]["details"]["details"] == {"pair": pair}


# (blocks, the error message, its details): a dict keyed by sigma kept the
# last of a repeated block, so on F2 one listing gave order 24 and the other
# 2; the negative dimension and the non-integer weight were named in listing
# order
_BAD_BLOCKS = [
    ([{"sigma": [1, 0], "dim": 1}, {"sigma": [0, 1], "dim": 1},
      {"sigma": [1, 1], "dim": 1}, {"sigma": [1, 0], "dim": 2}],
     "duplicate weight block", {"weight": [1, 0]}),
    ([{"sigma": [0, 1], "dim": -1}, {"sigma": [1, 1], "dim": 1},
      {"sigma": [1, 0], "dim": -2}],
     "negative block dimension", {"weight": [1, 0]}),
    ([{"sigma": [1, "a"], "dim": 1}, {"sigma": ["b", 1], "dim": 1}],
     "weight must be an integer", {"value": "b"}),
]


@pytest.mark.parametrize("blocks,message,details", _BAD_BLOCKS)
def test_bad_signature_blocks_exit_2_in_either_listing(tmp_path, capsys,
                                                        blocks, message,
                                                        details):
    out = str(tmp_path / "rep.json")
    reports = []
    for listing in (blocks, blocks[::-1]):
        sig = write(tmp_path, "sig.json",
                    {"mode": "multi", "n": 2, "blocks": listing})
        _assert_input_error(run(["aut", "enumerate", "--sig", sig, "--field",
                                 "Fp:2", "--out", out]), out, capsys)
        report = read_report(out)
        del report["timing_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["details"]["message"] == message
    assert reports[0]["details"]["details"] == details


@pytest.mark.parametrize("command,name", [("cocycle frame", "d111_frame.json"),
                                          ("cocycle associate",
                                           "d111_assoc.json")])
def test_cocycle_commands_build_a_map_only_per_value_and_pair(
        tmp_path, monkeypatch, command, name):
    # over F5 the group has 320 elements; the maps read and written are
    # built one by one, never the whole group's
    with open(os.path.join(EXAMPLES, name)) as fh:
        data = json.load(fh)
    data["model"]["field"] = {"Fp": 5}
    built = []
    from_terms = PolyMap.from_terms.__func__

    def counting(cls, *args):
        built.append(args)
        return from_terms(cls, *args)

    monkeypatch.setattr(PolyMap, "from_terms", classmethod(counting))
    out = str(tmp_path / "rep.json")
    assert run(command.split() + [write(tmp_path, "in.json", data),
                                  "--out", out]) == 0
    values = data["cocycle"]["values"]
    pairs = 2 * len(data["cocycle"]["overlaps"])
    assert 0 < len(built) <= len(values) + pairs


@pytest.mark.parametrize("spec", ["a;1", "2,x", "1.5"])
def test_non_integer_subgroup_generator_exits_2(tmp_path, capsys, spec):
    out = str(tmp_path / "rep.json")
    code = run(["dpg", "verify", os.path.join(EXAMPLES, "q8_dpg.json"),
                "--subgroups", spec, "--out", out])
    _assert_input_error(code, out, capsys)
    assert read_report(out)["details"]["details"] == {"subgroups": spec}


def test_aut_cocycle_pair_of_three_charts_exits_2(tmp_path, capsys):
    data = {"model": {"sig": D111, "field": {"Fp": 3}},
            "cocycle": {"charts": 3, "overlaps": [[0, 1]],
                        "values": [{"pair": [0, 1, 2], "terms": [
                            {"target": c, "exponents": e, "num": "1"}
                            for c, e in enumerate([[1, 0, 0], [0, 1, 0],
                                                   [0, 0, 1]])]}]}}
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["cocycle", "frame",
                             write(tmp_path, "frame.json", data),
                             "--out", out]), out, capsys)


@pytest.mark.parametrize("spec", ["x", "3.0", ""])
def test_non_integer_characteristic_on_the_command_line_exits_2(
        tmp_path, capsys, spec):
    out = str(tmp_path / "rep.json")
    code = run(["aut", "enumerate", "--sig", write(tmp_path, "s.json", D111),
                "--field", "Fp:" + spec, "--out", out])
    _assert_input_error(code, out, capsys)


@pytest.mark.parametrize("p", ["x", "3", 3.0, True, None, [3]])
def test_non_integer_characteristic_in_a_file_exits_2(tmp_path, capsys, p):
    chart = json.load(open(os.path.join(EXAMPLES, "t2_chart.json")))
    chart["field"] = {"Fp": p}
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["cocycle", "t2",
                             write(tmp_path, "t2.json", chart),
                             "--out", out]), out, capsys)


def test_composite_characteristic_over_the_cap_reports_the_cap(
        tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    code = run(["aut", "enumerate", "--sig", write(tmp_path, "s.json", D111),
                "--field", "Fp:100", "--out", out])
    _assert_input_error(code, out, capsys)
    assert read_report(out)["details"] == {
        "details": {"cap": 97, "p": 100}, "error": "InvalidInput",
        "message": "prime exceeds configured cap"}


@pytest.mark.parametrize("where", ["flag", "file"])
def test_large_prime_characteristic_exits_2_at_once(tmp_path, where):
    # 2^61 - 1 is prime: trial division up to its square root would not end
    p = 2 ** 61 - 1
    out = str(tmp_path / "rep.json")
    if where == "flag":
        argv = ["aut", "enumerate", "--sig", write(tmp_path, "s.json", D111),
                "--field", "Fp:%d" % p]
    else:
        chart = json.load(open(os.path.join(EXAMPLES, "t2_chart.json")))
        chart["field"] = {"Fp": p}
        argv = ["cocycle", "t2", write(tmp_path, "t2.json", chart)]
    src = os.path.dirname(os.path.dirname(ntpg.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ntpg.cli", *argv, "--out", out],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert read_report(out)["details"]["message"] == \
        "prime exceeds configured cap"


Z3 = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
_MULTI_COMPAT = {"structures": [{"sig": D111, "axis": 0},
                                {"sig": D111, "axis": 1}]}

# (command, input): inputs a handler once read without checking its shape,
# each ending as a library bug
_UNCHECKED_HANDLER_INPUTS = [
    ("groupoid gauge", {"nope": 1}),
    ("groupoid gauge", {"action": {"group": Z2, "points": 2, "act": [[0, 1]],
                                   "side": "left"}}),
    ("cocycle associate", {"model": 5}),
    ("cocycle frame", {"model": 5}),
    ("dpg gamma-from-actions", {"rho_prime": GAUGE["action"]}),
    ("cocycle cohomologous", {"charts": 2, "overlaps": [[0, 1]],
                              "c1": [], "c2": []}),
    ("graded check-compat", {"field": "Q"}),
    ("graded check-compat", _mutated(_MULTI_COMPAT, ["structures", 1, "axis"],
                                     "x")),
    ("cocycle t2", [1, 2]),
    ("graded weights", [1, 2]),
]


def test_multi_signature_compat_input_passes(tmp_path):
    out = str(tmp_path / "rep.json")
    assert run(["graded", "check-compat",
                write(tmp_path, "in.json", _MULTI_COMPAT),
                "--out", out]) == 0


@pytest.mark.parametrize("command,data", _UNCHECKED_HANDLER_INPUTS)
def test_unchecked_handler_input_exits_2(tmp_path, capsys, command, data):
    f = write(tmp_path, "in.json", data)
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(command.split() + [f, "--out", out]), out, capsys)


def test_unprintable_search_space_exits_2(tmp_path, capsys):
    # |G|**charts = 3**10000 has more digits than json.dumps prints
    data = {"group": Z3, "charts": 10_000, "overlaps": [], "c1": [], "c2": []}
    out = str(tmp_path / "rep.json")
    _assert_input_error(run(["cocycle", "cohomologous",
                             write(tmp_path, "coh.json", data),
                             "--out", out]), out, capsys)
    assert read_report(out)["details"]["error"] == "SearchCapExceeded"


# the dihedral group of order 8, closed from a rotation and a reflection
D4_PERMS = {"permutations": [[1, 2, 3, 0], [3, 2, 1, 0]], "degree": 4}
_CAPPED = [
    ("dpg verify", {"gamma": D4_PERMS, "subgroups": [[0], [0]]}),
    ("dpg dressing", {"gamma": D4_PERMS, "subgroups": [[0], [0]]}),
    ("ntuple verify", {"gamma": D4_PERMS, "subgroups": [[0]]}),
    ("dpg gamma-from-actions", {"rho": {"group": D4_PERMS, "points": 1,
                                        "act": [[0]] * 8},
                                "rho_prime": {"group": Z2, "points": 1,
                                              "act": [[0], [0]]}}),
    ("groupoid gauge", {"action": {"group": D4_PERMS, "points": 1,
                                   "act": [[0]] * 8}}),
    ("groupoid quotient", {**_ONE_ARROW, "group": D4_PERMS,
                           "act": [[0]] * 8}),
    ("cocycle check", {"charts": 2, "overlaps": [[0, 1]], "group": D4_PERMS,
                       "values": [{"pair": [0, 1], "element": 1}]}),
    ("cocycle cohomologous", {"group": D4_PERMS, "charts": 1, "c1": [],
                              "c2": []}),
]


@pytest.mark.parametrize("command,data", _CAPPED)
def test_max_order_caps_every_input_group(tmp_path, capsys, command, data):
    f = write(tmp_path, "in.json", data)
    out = str(tmp_path / "rep.json")
    argv = command.split() + [f, "--out", out]
    _assert_input_error(run(argv + ["--max-order", "4"]), out, capsys)
    assert read_report(out)["details"]["error"] == "ClosureCapExceeded"
    run(argv + ["--max-order", "8"])
    assert read_report(out)["details"].get("error") != "ClosureCapExceeded"


_EMPTY_PIPELINE = {"points": 0,
                   "rho": {"group": Z2, "points": 0, "act": [[], []]},
                   "rho_prime": {"group": Z3, "points": 0,
                                 "act": [[], [], []]}}

# (argv, input, error class, message): input errors that only this test
# reaches; IN is the input file, never written when the input is None
_INPUT_ERRORS = [
    pytest.param("aut enumerate --sig IN --field F5", D111, "InvalidInput",
                 "field must be 'Q' or 'Fp:<p>'", id="field-spelling"),
    pytest.param("aut enumerate --sig IN --field Q", D111, "InvalidInput",
                 "enumeration needs a finite field", id="infinite-field"),
    pytest.param("aut enumerate --sig IN --field Fp:3",
                 {"mode": "simple", "dims": [1]}, "InvalidInput",
                 "model signature must be multi-graded", id="simple-model"),
    pytest.param("aut enumerate --sig IN --field Fp:3", {**D111, "base": 1},
                 "InvalidInput",
                 "model signature must have no base coordinates",
                 id="model-base"),
    pytest.param("aut enumerate --sig IN --field Fp:3",
                 {"mode": "simple", "dims": []}, "InvalidInput",
                 "signature has no coordinates", id="no-coordinates"),
    pytest.param("aut enumerate --sig IN --field Fp:3",
                 {"mode": "simple", "dims": [0] * 6 + [1]}, "InvalidInput",
                 "weight exceeds cap", id="seven-weights"),
    pytest.param("aut enumerate --sig IN --field Fp:3", {"mode": "other"},
                 "InvalidInput", "unknown signature mode", id="mode"),
    pytest.param("group validate IN", None, "InvalidInput",
                 "input file not found", id="missing-file"),
    pytest.param("group validate IN", {"permutations": [], "degree": 3},
                 "InvalidInput", "need at least one permutation",
                 id="no-permutations"),
    pytest.param("groupoid gauge IN",
                 _example_with("z3_gauge.json", ["action", "side"], "up"),
                 "InvalidInput", "side must be 'right' or 'left'",
                 id="side"),
    pytest.param("dpg verify IN", {"gamma": q8_json()}, "InvalidInput",
                 "no subgroups given (file field or --subgroups)",
                 id="no-subgroups"),
    pytest.param("dpg verify IN --subgroups 99;0", {"gamma": q8_json()},
                 "InvalidInput", "generator out of range",
                 id="subgroup-generator"),
    pytest.param("cocycle check IN",
                 _example_with("z3_cocycle.json", ["values", 0, "pair"],
                               [0, 0]),
                 "InvalidInput", "diagonal values are implicitly identity",
                 id="diagonal-value"),
    pytest.param("cocycle check IN",
                 {**_example_with("z3_cocycle.json", ["triples"], []),
                  "overlaps": [[0, 1], [1, 2]]},
                 "InvalidInput", "value on a non-overlapping pair",
                 id="value-off-overlaps"),
    pytest.param("cocycle check IN",
                 _example_with("z3_cocycle.json", ["triples", 0], [0, 0, 1]),
                 "InvalidInput", "triple must have three distinct charts",
                 id="repeated-chart-triple"),
    # a fourth entry repeating a chart once read as the triple {0, 1, 2}
    pytest.param("cocycle check IN",
                 _example_with("z3_cocycle.json", ["triples", 0],
                               [0, 1, 2, 2]),
                 "InvalidInput", "triple must have three distinct charts",
                 id="four-entry-triple"),
    pytest.param("graded check-compat IN",
                 _mutated(_MULTI_COMPAT, ["structures", 1, "axis"], 5),
                 "InvalidInput", "grading axis out of range", id="axis"),
    pytest.param("dpg gamma-from-actions IN", _EMPTY_PIPELINE,
                 "NotAnAction", "empty point set", id="no-points"),
    pytest.param("dpg gamma-from-actions IN",
                 _example_with("z2z3_pipeline.json", ["points"], 5),
                 "NotAnAction", "action on wrong point set",
                 id="pipeline-points"),
    pytest.param("dpg gamma-from-actions IN",
                 _example_with("z2z3_pipeline.json", ["rho", "act", 1],
                               [3, 4, 5, 0, 1]),
                 "NotAnAction", "row 1 has wrong length", id="short-row"),
    pytest.param("group validate IN", {"table": []}, "InvalidInput",
                 "empty multiplication table", id="empty-table"),
    pytest.param("dpg verify IN",
                 _example_with("q8_dpg.json", ["subgroups", 0], [1, 2]),
                 "InvalidInput", "subgroup misses the identity",
                 id="subgroup-identity"),
    pytest.param("dpg verify IN",
                 _example_with("q8_dpg.json", ["subgroups", 0], [0, 9]),
                 "InvalidInput", "subgroup member out of range",
                 id="subgroup-member"),
    pytest.param("groupoid quotient IN",
                 _example_with("s3_groupoid_action.json",
                               ["groupoid", "src", 0], 99),
                 "InvalidInput", "src/tgt out of range", id="groupoid-src"),
    pytest.param("groupoid quotient IN",
                 _example_with("s3_groupoid_action.json",
                               ["groupoid", "inv", 0], 99),
                 "InvalidInput", "inv out of range", id="groupoid-inv"),
    pytest.param("groupoid quotient IN",
                 _s3_groupoid_with("src", lambda src: src[:-1]),
                 "InvalidInput", "groupoid arrays have inconsistent lengths",
                 id="groupoid-lengths"),
    pytest.param("groupoid quotient IN",
                 _s3_groupoid_with("id", lambda ids: ids[1:] + ids[:1]),
                 "InvalidInput", "id[x] is not an arrow at x",
                 id="groupoid-unit"),
    pytest.param("groupoid quotient IN",
                 _example_with("s3_groupoid_action.json",
                               ["groupoid", "mul", 0, 2], 999),
                 "InvalidInput", "product out of range",
                 id="groupoid-product"),
    pytest.param("groupoid quotient IN",
                 _s3_groupoid_with("inv", lambda inv: list(range(len(inv)))),
                 "InvalidInput", "inverse has wrong endpoints",
                 id="groupoid-inverse"),
    pytest.param("groupoid gauge IN",
                 _example_with("z3_gauge.json", ["points"], 9),
                 "InvalidInput", "action set size mismatch",
                 id="gauge-points"),
    pytest.param("aut enumerate --sig IN --field Fp:0", D111, "InvalidInput",
                 "characteristic must be prime", id="characteristic-0"),
    pytest.param("aut enumerate --sig IN --field Fp:1", D111, "InvalidInput",
                 "characteristic must be prime", id="characteristic-1"),
    pytest.param("graded weights IN",
                 _example_with("f5_polynomial.json", ["terms", 0, "den"], "5"),
                 "NotInvertible", "division by zero in F5",
                 id="zero-denominator"),
]


@pytest.mark.parametrize("argv,data,error,message", _INPUT_ERRORS)
def test_input_error_is_named(tmp_path, capsys, argv, data, error, message):
    f = str(tmp_path / "in.json")
    if data is not None:
        write(tmp_path, "in.json", data)
    out = str(tmp_path / "rep.json")
    code = run([f if a == "IN" else a for a in argv.split()] + ["--out", out])
    _assert_input_error(code, out, capsys)
    details = read_report(out)["details"]
    assert (details["error"], details["message"]) == (error, message)


# -- checks the theory guarantees: a failure is a library bug, exit 2 ---------

def _assert_theory_failure(argv, tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    err = _assert_error_report(run(argv + ["--out", out]), out, capsys)
    assert "library bug" in err
    assert read_report(out)["theory_failure"] is True


def test_split_bijection_failure_is_a_theory_failure(tmp_path, capsys,
                                                     monkeypatch):
    import ntpg.groupoids
    quotient_groupoid = ntpg.groupoids.quotient_groupoid

    def collapsed(ga):
        # every arrow projected to one base arrow: S is not injective
        q = quotient_groupoid(ga)
        return q._replace(arrow_map=[0] * len(q.arrow_map))

    monkeypatch.setattr(ntpg.groupoids, "quotient_groupoid", collapsed)
    _assert_theory_failure(
        ["groupoid", "split", os.path.join(EXAMPLES, "s3_groupoid_action.json")],
        tmp_path, capsys)


def test_mult_function_law_failure_is_a_theory_failure(tmp_path, capsys,
                                                       monkeypatch):
    import ntpg.groupoids
    split = ntpg.groupoids.split

    def twisted(ga):
        # move one unit off a section point within its fiber: the t-action
        # is no longer a left translation
        sp = split(ga)
        ua, object_map = sp.quotient.object_action, \
            sp.quotient.object_report.orbit_of
        section = {min(x for x in range(ua.set_size) if object_map[x] == X)
                   for X in set(object_map)}
        pair = next(p for p in sp.fiber if p[1] not in section)
        h = next(g for g in range(ua.group.order) if g != ua.group.identity)
        sp.t_action[pair] = ua.act[h][sp.t_action[pair]]
        return sp

    monkeypatch.setattr(ntpg.groupoids, "split", twisted)
    _assert_theory_failure(
        ["groupoid", "mult-function",
         os.path.join(EXAMPLES, "s3_groupoid_action.json")],
        tmp_path, capsys)


def test_pipeline_square_failure_is_a_theory_failure(tmp_path, capsys,
                                                     monkeypatch):
    import ntpg.principal
    from ntpg.actions import action_check
    calls = []

    def split_gamma_orbits(a):
        # the third check is the induced gamma action's: give every point
        # its own orbit, so pi' no longer descends to M
        calls.append(a)
        rep = action_check(a)
        if len(calls) == 3:
            rep = rep._replace(orbit_of=tuple(range(a.set_size)))
        return rep

    monkeypatch.setattr(ntpg.principal, "action_check", split_gamma_orbits)
    _assert_theory_failure(
        ["dpg", "gamma-from-actions",
         os.path.join(EXAMPLES, "z2z3_pipeline.json")],
        tmp_path, capsys)


def test_bad_derived_groupoid_is_a_theory_failure(tmp_path, capsys,
                                                  monkeypatch):
    import ntpg.groupoids
    action_check = ntpg.groupoids.action_check

    def swapped(action):
        # the coordinates of points 0 and 1 swapped: the gauge groupoid's
        # products no longer fit its units
        rep = action_check(action)
        c = list(rep.coordinate)
        c[0], c[1] = c[1], c[0]
        return rep._replace(coordinate=c)

    monkeypatch.setattr(ntpg.groupoids, "action_check", swapped)
    _assert_theory_failure(
        ["groupoid", "gauge", os.path.join(EXAMPLES, "z3_gauge.json")],
        tmp_path, capsys)


def test_inexact_sequence_is_a_theory_failure(tmp_path, capsys, monkeypatch):
    import ntpg.principal
    monkeypatch.setattr(ntpg.principal, "exact_sequence_check",
                        lambda dpg: False)
    _assert_theory_failure(
        ["dpg", "verify", os.path.join(EXAMPLES, "q8_dpg.json")],
        tmp_path, capsys)


def test_derived_subgroup_failure_is_a_theory_failure(tmp_path, capsys,
                                                     monkeypatch):
    import ntpg.cli
    subgroup_pair = ntpg.cli._subgroup_pair

    def widened(args, data, G):
        # G's member set made to hold an element of G' outside the core:
        # the normality and generation checks still pass, and G ∩ G' is
        # the core with that one element, not closed under inverses
        g1, g2 = subgroup_pair(args, data, G)
        g1._set |= {next(x for x in g2.members if x not in g1)}
        return g1, g2

    monkeypatch.setattr(ntpg.cli, "_subgroup_pair", widened)
    _assert_theory_failure(
        ["dpg", "verify", os.path.join(EXAMPLES, "q8_dpg.json")],
        tmp_path, capsys)


def test_bad_gamma_action_is_a_theory_failure(tmp_path, capsys, monkeypatch):
    import ntpg.principal
    perm_group = ntpg.principal._perm_group

    def rotated(perms, keys):
        # Γ's labels shifted by one against the permutations that act
        return perm_group(perms[1:] + perms[:1], keys)

    monkeypatch.setattr(ntpg.principal, "_perm_group", rotated)
    _assert_theory_failure(
        ["dpg", "gamma-from-actions",
         os.path.join(EXAMPLES, "z2z3_pipeline.json")],
        tmp_path, capsys)


def test_bad_object_action_is_a_theory_failure(tmp_path, capsys,
                                               monkeypatch):
    import ntpg.groupoids
    built = ntpg.groupoids._built

    def moved_identity(make, *args):
        # the identity moves the objects: the object rows are no action
        if make is ntpg.groupoids.FiniteAction:
            G, n_objects, rows = args
            e = G.identity
            rows = rows[:e] + [rows[e][1:] + rows[e][:1]] + rows[e + 1:]
            args = G, n_objects, rows
        return built(make, *args)

    monkeypatch.setattr(ntpg.groupoids, "_built", moved_identity)
    _assert_theory_failure(
        ["groupoid", "quotient",
         os.path.join(EXAMPLES, "s3_groupoid_action.json")],
        tmp_path, capsys)


def test_bad_standard_fibered_space_is_a_theory_failure(tmp_path, capsys,
                                                        monkeypatch):
    from ntpg.autgroups import AutGroupHandle

    # the whole group as a side's subgroup leaves that side's fibers
    monkeypatch.setattr(AutGroupHandle, "gi_subgroup",
                        lambda handle, i: handle.group.whole())
    _assert_theory_failure(
        ["cocycle", "associate", os.path.join(EXAMPLES, "d111_assoc.json")],
        tmp_path, capsys)
