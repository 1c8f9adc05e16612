"""Golden CLI reports: every case's report, apart from ``timing_ms``, must
match the file under tests/golden/ byte for byte.

The cases cover the docs/examples command lines, reports carrying F_p
coefficients (``cocycle associate``/``frame``, ``graded weights`` and
``cocycle t2`` over F_5), one with Q coefficients (``cocycle t2``) and the
field-spec errors.  Regenerate the files only for an intended change of
report content:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys

import pytest

from ntpg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "docs", "examples")
GOLDEN = os.path.join(ROOT, "tests", "golden")

D111 = {"mode": "multi", "n": 2,
        "blocks": [{"sigma": [1, 0], "dim": 1},
                   {"sigma": [0, 1], "dim": 1},
                   {"sigma": [1, 1], "dim": 1}]}
LINE = {"mode": "simple", "dims": [], "base": 1}


def _example(name):
    return os.path.join(EXAMPLES, name)


# name -> (argv, {placeholder: input object}); "{x}" in argv stands for the
# path of input x, written to a temporary file
CASES = {
    "dpg_verify_q8": (["dpg", "verify", _example("q8_dpg.json")], {}),
    "ntuple_verify_q8": (["ntuple", "verify", _example("q8_dpg.json"),
                          "--subgroups", "2;4;6"], {}),
    "aut_verify_p54_d111_f3": (["aut", "verify-p54", "--sig",
                                _example("d111_sig.json"), "--field",
                                "Fp:3"], {}),
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
    "cocycle_associate_d111_f3": (["cocycle", "associate", "{assoc}"], {
        "assoc": {"model": {"sig": D111, "field": {"Fp": 3}},
                  "cocycle": {"charts": 3, "overlaps": [[0, 1], [1, 2]],
                              "values": [{"pair": [0, 1], "element": 5},
                                         {"pair": [1, 2], "element": 23}]}}}),
    "cocycle_frame_d111_f3": (["cocycle", "frame", "{frame}"], {"frame": {
        "model": {"sig": D111, "field": {"Fp": 3}},
        "cocycle": {"charts": 2, "overlaps": [[0, 1]],
                    "values": [{"pair": [0, 1], "terms": [
                        {"target": 0, "exponents": [1, 0, 0], "num": "2"},
                        {"target": 1, "exponents": [0, 1, 0], "num": "1"},
                        {"target": 2, "exponents": [1, 1, 0], "num": "1"},
                        {"target": 2, "exponents": [0, 0, 1], "num": "1"},
                    ]}]}}}),
    "graded_weights_f5": (["graded", "weights", "{poly}"], {"poly": {
        "field": {"Fp": 5}, "sig": {"mode": "simple", "dims": [1, 1]},
        "terms": [{"exponents": [2, 0], "num": "7", "den": "3"},
                  {"exponents": [0, 1], "num": "4"},
                  {"exponents": [1, 0], "num": "-1"},
                  {"exponents": [1, 0], "num": "6"}]}}),
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
        report = json.load(fh)
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


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            _, report = render(case, tmp)
            with open(os.path.join(GOLDEN, case + ".json"), "w") as fh:
                fh.write(report)
            print(case, file=sys.stderr)
