"""The report writer against ``json``: ``jsonio._report_text`` must give the
bytes of ``json.dumps(report, sort_keys=True, indent=2, default=str)`` for
every tree, and raise what ``json`` raises where it raises.

Plain trees hold only what the writer formats itself; the others also hold
what it leaves to ``json``: int subclasses, NaN and infinities, objects
that need ``default=str`` and keys that are not strings.  Tier-1 draws a
hundred trees of each; a longer run draws as many as asked:

    PYTHONPATH=src python tests/test_report_writer.py 20000
"""

import json
import math
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ntpg.jsonio import _indented, _report_text


class _Int(int):
    """An int subclass, which json writes through ``int.__repr__``."""


class _Opaque:
    """An object json writes only through ``default=str``."""

    def __str__(self):
        return "opaque"


def _json(report):
    return json.dumps(report, sort_keys=True, indent=2, default=str)


def _outcome(write, report):
    """The text written, or the type and message of what was raised."""
    try:
        return write(report)
    except Exception as e:
        return type(e), str(e)


INTS = st.integers(-10 ** 20, 10 ** 20)
STRINGS = st.one_of(st.text(max_size=6),
                    st.sampled_from(['"\\\n\t\x00\x7f', "é€", "\U0001f600",
                                     "\ud800", "</script>"]))
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 0.1]))


def _rows(cell):
    """Lists of rows of cells, as lists or tuples: some of one length from
    0 to 4, as mul triples and gamma tables are, some ragged."""
    row = st.one_of(st.lists(cell, max_size=4),
                    st.lists(cell, max_size=4).map(tuple))
    even = st.integers(0, 4).flatmap(lambda k: st.lists(
        st.lists(cell, min_size=k, max_size=k), max_size=5))
    return st.one_of(even, st.lists(row, max_size=5))


def _leaves(scalar, odd_cell):
    """scalar, or a list or rows of ints, of ints and odd_cell, or of
    odd_cell."""
    cells = [INTS, st.one_of(INTS, odd_cell), odd_cell]
    return st.one_of([scalar] + [st.lists(c, max_size=6) for c in cells]
                     + [_rows(c) for c in cells])


PLAIN = _leaves(st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS),
                st.booleans())
# everything the writer leaves to json, alone and among plain values
ODD_SCALARS = st.one_of(INTS.map(_Int), st.just(_Opaque()),
                        st.sampled_from([math.nan, math.inf, -math.inf]))
ODD = _leaves(st.one_of(ODD_SCALARS, PLAIN), ODD_SCALARS)
ODD_KEYS = st.one_of(INTS, FLOATS, st.booleans(), st.none(),
                     st.sampled_from([math.nan, math.inf]))


def _trees(leaves, keys):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4)), max_leaves=12)


def _writes_plain_trees_itself(tree):
    assert _indented(tree, "\n") == _json(tree)


def _writes_every_tree_as_json_does(tree):
    assert _outcome(_report_text, tree) == _outcome(_json, tree)


PROPERTIES = [
    (_writes_plain_trees_itself, _trees(PLAIN, STRINGS)),
    (_writes_every_tree_as_json_does,
     _trees(st.one_of(PLAIN, ODD), st.one_of(STRINGS, ODD_KEYS))),
]


def _property(check, strategy, examples, derandomize=True):
    return settings(max_examples=examples, deadline=None,
                    derandomize=derandomize,
                    suppress_health_check=[HealthCheck.too_slow])(
        given(strategy)(check))


test_writes_plain_trees_itself = _property(*PROPERTIES[0], 100)
test_writes_every_tree_as_json_does = _property(*PROPERTIES[1], 100)


def test_deep_and_unwritable_reports_go_as_json_goes():
    # an input error's details echo the input, which JSON lets nest deeper
    # than _indented recurses, though not deeper than json writes
    deep = 0
    for _ in range(700):
        deep = [deep]
    huge = 10 ** 5000
    for report in ({"members": deep}, {"a": [huge]}, {"b": [[1, huge]]},
                   [huge, math.nan], {1: "x", "y": 2}):
        assert _outcome(_report_text, report) == _outcome(_json, report)


if __name__ == "__main__":
    examples = int(sys.argv[1])
    for check, strategy in PROPERTIES:
        _property(check, strategy, examples, derandomize=False)()
        print("%s: %d examples" % (check.__name__, examples), flush=True)
