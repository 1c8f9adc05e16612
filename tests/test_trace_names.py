"""The names ``perfbench/trace_driver.py`` wraps or calls still exist.

The driver wraps every ``FUNCTIONS`` entry (the ``LOADERS`` among them)
and ``METHODS`` entry in the ``ntpg`` module that defines it, wraps
``jsonio.write_report`` and calls ``autgroups._slot_list`` for its grid
counter.  Its counters read fields of their call's arguments and result
(``searched``, ``group.order``, a groupoid's ``mul``, a polynomial's
``terms``), so each runs once here on a real call.  A refactor that renames
one breaks the trace; this fails at once instead of in the minute-long
``perfbench/tests`` trace check.  The driver is compiled from its source and
run in a fresh namespace, so nothing is written under ``perfbench``.
"""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = os.path.join(ROOT, "perfbench", "trace_driver.py")


def _driver():
    module = types.ModuleType("trace_driver")
    module.__file__ = DRIVER
    with open(DRIVER, encoding="utf-8") as fh:
        exec(compile(fh.read(), DRIVER, "exec"), module.__dict__)
    return module


def _bound(mod, *path):
    """The object at ntpg.<mod>.<path...>, or None."""
    obj = importlib.import_module("ntpg." + mod)
    for name in path:
        obj = getattr(obj, name, None)
    return obj


def test_every_traced_name_exists():
    driver = _driver()
    names = [(mod, attr) for mod, attr, _, _ in driver.FUNCTIONS]
    names += [("jsonio", name) for name in driver.LOADERS]
    names += [("jsonio", "write_report"), ("autgroups", "_slot_list")]
    names += [(mod, cls, attr) for mod, cls, attr, _, _ in driver.METHODS]
    assert driver.FUNCTIONS and driver.LOADERS and driver.METHODS
    assert [name for name in names if not callable(_bound(*name))] == []


def _example(name):
    with open(os.path.join(ROOT, "docs", "examples", name),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_every_counter_reads_a_real_call():
    # each counter reads the fields of its call's arguments or result; a
    # renamed field fails here, and not only in the perfbench trace check
    from ntpg import autgroups, cocycles, groups
    from ntpg.fields import field_from_json
    from ntpg.signature import GradedSignature
    from ntpg.groupoids import FiniteGroupoid
    from ntpg.jsonio import load_group, load_group_cocycle
    from ntpg.poly import Poly
    driver = _driver()
    rec = driver.Recorder()

    def call(counter, fn, *args):
        return rec.wrap(counter.__name__, fn, counter)(*args)

    call(driver._make_group, groups.make_group, [[0, 1, 2], [1, 2, 0],
                                                 [2, 0, 1]])
    call(driver._enumerate, autgroups.enumerate_aut,
         GradedSignature.double_vector(1, 1, 1), field_from_json({"Fp": 3}))
    data = _example("s3_coh.json")
    base = {k: data[k] for k in ("charts", "overlaps", "triples")}
    group = load_group(data["group"])
    c1, c2 = (load_group_cocycle({**base, "values": data[k]}, group=group)[0]
              for k in ("c1", "c2"))
    call(driver._searched, cocycles.are_cohomologous, c1, c2)
    gpd = _example("s3_groupoid_action.json")["groupoid"]
    call(driver._groupoid, FiniteGroupoid.__init__,
         FiniteGroupoid.__new__(FiniteGroupoid), gpd["objects"], gpd["src"],
         gpd["tgt"], gpd["id"], gpd["inv"],
         {(g, h): gh for g, h, gh in gpd["mul"]})
    field = field_from_json("Q")
    x, y = (Poly.var(field, 2, i) for i in range(2))
    call(driver._mul_pairs, Poly.__mul__, x + y, x + y * y + field.one)
    call(driver._mul_pairs, Poly.__mul__, x + y, field.one)
    assert rec.counts == {
        "groups.make_group.elements": 3,
        "autgroups.enumerate_aut.grid": 3 ** 4,
        "autgroups.enumerate_aut.kept": 24,
        "cocycles.are_cohomologous.searched": 33,
        "groupoids.composable_pairs": len(gpd["mul"]),
        "poly.mul.term_pairs": 2 * 3 + 2,
    }


# runs the driver's main, compiled from its source, in a fresh process:
# python -c _RUN_DRIVER DRIVER TRACE_JSON ARG...
_RUN_DRIVER = """
import sys, types
driver = types.ModuleType("trace_driver")
driver.__file__ = sys.argv[1]
with open(sys.argv[1], encoding="utf-8") as fh:
    exec(compile(fh.read(), sys.argv[1], "exec"), driver.__dict__)
sys.argv = sys.argv[1:]
driver.main()
"""

# Z2^3 with its three coordinate hyperplanes, 3-tuple principal, and a model
# with three gradings; the n-tuple recursion reads normality_witness at
# every level of both
Z2_3 = {"gamma": {"order": 8, "table": [[i ^ j for j in range(8)]
                                        for i in range(8)]},
        "subgroups": [[x for x in range(8) if not x >> k & 1]
                      for k in range(3)]}
K3 = {"mode": "multi", "n": 3, "blocks": [
    {"sigma": sigma, "dim": 1} for sigma in
    ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1])]}


@pytest.mark.parametrize("argv,data", [
    (["ntuple", "verify"], Z2_3),
    (["aut", "verify-p54", "--field", "Fp:2", "--sig"], K3),
], ids=["ntuple verify", "aut verify-p54"])
def test_traced_counts_reach_the_recursion_in_its_own_module(argv, data,
                                                             tmp_path):
    # the driver wraps only the modules registered when it installs, so the
    # deferred ntuple module must be one of them: its calls of
    # normality_witness count as they did while the recursion lived in
    # principal
    src = os.path.join(ROOT, "src")
    path, trace = tmp_path / "input.json", tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_DRIVER, DRIVER, str(trace), *argv,
         str(path), "--out", str(tmp_path / "rep.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert {name: spans[name][0] for name in (
        "principal.verify_ntuple", "groups.normality_witness")} == {
        "principal.verify_ntuple": 1, "groups.normality_witness": 9}
