"""The names ``perfbench/trace_driver.py`` wraps or calls still exist.

The driver wraps every ``FUNCTIONS`` entry (the ``LOADERS`` among them)
and ``METHODS`` entry in the ``ntpg`` module that defines it, wraps
``jsonio.write_report`` and calls ``autgroups._slot_list`` for its grid
counter.  A refactor that renames one breaks the trace; this fails at once
instead of in the minute-long ``perfbench/tests`` trace check.  The driver
is compiled from its source and run in a fresh namespace, so nothing is
written under ``perfbench``.
"""

import importlib
import os
import types

DRIVER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "trace_driver.py")


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
