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
import types

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
    from ntpg.graded import GradedSignature
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
