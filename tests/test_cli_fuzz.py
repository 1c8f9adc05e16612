"""Mutation fuzz of the CLI exit-code contract on the docs/examples inputs.

Each draw mutates one node of one example (drop a key, swap a type, push an
integer out of range, truncate an array, nest wrongly) and runs one of the
example's commands in process through ``ntpg.cli.main``, twice.  Whatever
the mutation, the exit code is 0, 1 or 2, no traceback reaches stderr, a
failure carries witnesses, an error carries verdict "error" and is never a
library bug, and both runs give the same report apart from ``timing_ms``.

The listing-order mode reverses, or rotates by one, each keyed list of
every example and of the FAILING inputs (groupoid ``mul``, nerve
``overlaps`` and ``triples``, cocycle ``values``, ``c1`` and ``c2``,
polynomial ``terms``, signature ``blocks``): the exit code, the report
apart from ``timing_ms`` and stderr must be those of the input as listed,
since every witness is the first in index order.

The repeat mode copies the first entry of each keyed list that carries a
value under its key, changes the value (``dim`` + 1, another arrow as the
product, another element or terms, another coefficient) and places the
copy once at the end and once at the front: both runs must give the same
exit code, report and stderr, as repeated terms are summed and every other
repeat is refused.

Run as a script, it checks every single-node mutation (every path, op and
value) of every example under every command once, each run given 10 s,
then every relisting and repeat, and prints each break and the totals; it
exits 1 if any run broke the contract, timed out or depended on the
listing order, or if a mode ran other than its pinned number of runs:

    PYTHONPATH=src python tests/test_cli_fuzz.py
"""

import contextlib
import copy
import io
import json
import os
import signal
import sys
import tempfile
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ntpg.cli import main

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "docs", "examples")

# example file -> the command lines that read it, "{}" standing for the
# input path
COMMANDS = {
    "q8_dpg.json": [["dpg", "verify", "{}"], ["dpg", "dressing", "{}"],
                    ["ntuple", "verify", "{}"]],
    "z3_cocycle.json": [["cocycle", "check", "{}"]],
    "t2_chart.json": [["cocycle", "t2", "{}"]],
    "s3_coh.json": [["cocycle", "cohomologous", "{}"]],
    "z3_gauge.json": [["groupoid", "gauge", "{}"]],
    "z2z3_pipeline.json": [["dpg", "gamma-from-actions", "{}"]],
    "s4_perms.json": [["group", "validate", "{}"]],
    "s3_groupoid_action.json": [["groupoid", "quotient", "{}"],
                                ["groupoid", "split", "{}"],
                                ["groupoid", "mult-function", "{}"]],
    "f5_polynomial.json": [["graded", "weights", "{}"]],
    "d111_morphism.json": [["graded", "check-morphism", "{}"]],
    "d111_structures.json": [["graded", "check-compat", "{}"]],
    "d111_sig.json": [["aut", "enumerate", "--sig", "{}", "--field", "Fp:2"],
                      ["aut", "verify-p54", "--sig", "{}", "--field",
                       "Fp:2"]],
    "d111_assoc.json": [["cocycle", "associate", "{}"]],
    "d111_frame.json": [["cocycle", "frame", "{}"]],
}


def _one_object(table, row):
    """A group or loop table as a one-object groupoid, acted on by Z2 with
    the given non-identity row; mul is listed in index order."""
    n = len(table)
    return {"groupoid": {"objects": 1, "src": [0] * n, "tgt": [0] * n,
                         "id": [0], "inv": [r.index(0) for r in table],
                         "mul": [[a, b, ab] for a, r in enumerate(table)
                                 for b, ab in enumerate(r)]},
            "group": {"order": 2, "table": [[0, 1], [1, 0]]},
            "act": [list(range(n)), row]}


# the non-associative loop of order 5: identity 0, each element its own
# inverse, (1*1)*2 != 1*(1*2) first
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
# inputs whose first failing check has several witnesses, so that a scan
# in listing order would name another: the loop (first triple (1, 1, 2))
# and Z5 under a swap that breaks products at several pairs (first pair
# (1, 1))
FAILING = {
    "loop5": _one_object(LOOP5, list(range(5))),
    "z5-swap": _one_object([[(a + b) % 5 for b in range(5)]
                            for a in range(5)], [0, 2, 1, 4, 3]),
}

# lists whose entries carry their own keys, so their order carries nothing
KEYED = ("mul", "overlaps", "triples", "values", "c1", "c2", "terms",
         "blocks")
RELISTINGS = {"reverse": lambda entries: entries[::-1],
              "rotate": lambda entries: entries[1:] + entries[:1]}
# the pinned runs of the listing-order and repeat modes
RELISTED_RUNS, REPEATED_RUNS = 48, 44

# one value of each JSON type; a swap picks one of a different type
SWAPS = ["1", 1, 1.5, True, None, [], {}]
OUT_OF_RANGE = [-1, -9, 9, 100, 10 ** 9]


def _load(name):
    with open(os.path.join(EXAMPLES, name)) as fh:
        return json.load(fh)


def _paths(node, path=()):
    """Every non-root node, as the key/index path from the root."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _ops(node):
    ops = ["drop", "swap", "nest"]
    if isinstance(node, int) and not isinstance(node, bool):
        ops.append("range")
    if isinstance(node, list) and node:
        ops.append("truncate")
    return ops


def _values(op, node):
    """The choices of one op on node: a replacement value, or a length."""
    if op == "swap":
        return [v for v in SWAPS if type(v) is not type(node)]
    if op == "range":
        return OUT_OF_RANGE
    if op == "truncate":
        return list(range(len(node)))
    return [None]


def _mutate(obj, path, op, value):
    """A copy of obj with the node at path mutated."""
    obj = copy.deepcopy(obj)
    parent = _at(obj, path[:-1])
    key = path[-1]
    node = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "truncate":
        parent[key] = node[:value]
    elif op == "nest":
        parent[key] = [node]
    else:
        parent[key] = value
    return obj


@st.composite
def mutations(draw):
    """(example name, command line, mutated JSON object)."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = draw(st.sampled_from(COMMANDS[name]))
    obj = _load(name)
    path = draw(st.sampled_from(list(_paths(obj))))
    node = _at(obj, path)
    op = draw(st.sampled_from(_ops(node)))
    return name, command, _mutate(obj, path, op,
                                  draw(st.sampled_from(_values(op, node))))


def _run(argv, out):
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv + ["--out", out])
    with open(out) as fh:
        report = json.load(fh)
    return rc, report, err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations())
def test_mutated_examples_keep_the_exit_code_contract(tmp_path, case):
    name, command, obj = case
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    argv = [str(path) if a == "{}" else a for a in command]
    out = str(tmp_path / "report.json")
    rc, report, err = _run(argv, out)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc == 1:
        assert report["witnesses"]
    if rc == 2:
        assert report["verdict"] == "error"
    # malformed input is an input error, never an escaped exception
    assert "library_bug" not in report
    rc2, report2, _ = _run(argv, out)
    report.pop("timing_ms")
    report2.pop("timing_ms")
    assert (rc2, report2) == (rc, report)


def _keyed_lists():
    """(input name, its command lines, input, path, list) for every
    non-empty keyed list in every example and every FAILING input."""
    inputs = [(name, _load(name), COMMANDS[name]) for name in sorted(COMMANDS)]
    inputs += [(name, obj, [["groupoid", "quotient", "{}"]])
               for name, obj in sorted(FAILING.items())]
    for name, obj, commands in inputs:
        for path in _paths(obj):
            node = _at(obj, path)
            if path[-1] in KEYED and isinstance(node, list) and node:
                yield name, commands, obj, path, node


def relistings():
    """(input name, command line, input, where, the input with one keyed
    list reversed or rotated by one) for every keyed list of two or more
    entries."""
    for name, commands, obj, path, node in _keyed_lists():
        if len(node) < 2:
            continue
        for op, relist in RELISTINGS.items():
            relisted = _mutate(obj, path, op, relist(node))
            for command in commands:
                yield (name, command, obj, "%s %s" % (list(path), op),
                       relisted)


def _repeat(key, entries):
    """A copy of the first entry, under its key, with another value."""
    entry = copy.deepcopy(entries[0])
    if key == "blocks":
        entry["dim"] += 1
    elif key == "mul":
        entry[2] = next(e[2] for e in entries if e[2] != entry[2])
    elif key == "terms":
        entry["num"] = str(int(entry["num"]) + 1)
    elif "element" in entry:
        entry["element"] = 0 if entry["element"] else 1
    else:
        # the first term twice: its coefficient doubled
        entry["terms"] += entry["terms"][:1]
    return entry


def repeats():
    """(input name, command line, where, the input with one keyed list's
    first entry repeated with another value at its end, and at its front)
    for every keyed list whose entries carry a value."""
    for name, commands, obj, path, node in _keyed_lists():
        if path[-1] in ("overlaps", "triples"):
            continue
        copied = _repeat(path[-1], node)
        ends = [_mutate(obj, path, "repeat", entries) for entries in
                (node + [copied], [copied] + node)]
        for command in commands:
            yield (name, command, "%s repeat" % list(path), *ends)


def _report(command, obj, tmp):
    """(exit code, report without timing_ms, stderr) of one run on obj."""
    path, out = os.path.join(tmp, "input.json"), os.path.join(tmp, "out")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    rc, report, err = _run([path if a == "{}" else a for a in command], out)
    report.pop("timing_ms")
    return rc, report, err


def relisting_breaks(tmp):
    """(runs, labels of the relisted inputs whose exit code, report or
    stderr differ from the input's as listed)."""
    listed, runs, breaks = {}, 0, []
    for name, command, obj, where, relisted in relistings():
        key = name, tuple(command)
        if key not in listed:
            listed[key] = _report(command, obj, tmp)
        runs += 1
        if _report(command, relisted, tmp) != listed[key]:
            breaks.append("%s %s %s" % (name, " ".join(command[:2]), where))
    return runs, breaks


def repeat_breaks(tmp):
    """(runs, labels of the keyed lists whose repeated entry gives another
    exit code, report or stderr at the front than at the end)."""
    runs, breaks = 0, []
    for name, command, where, at_end, at_front in repeats():
        runs += 2
        if _report(command, at_end, tmp) != _report(command, at_front, tmp):
            breaks.append("%s %s %s" % (name, " ".join(command[:2]), where))
    return runs, breaks


def test_listing_order_leaves_reports_alone(tmp_path):
    assert relisting_breaks(str(tmp_path)) == (RELISTED_RUNS, [])


def test_repeated_entries_give_one_report_wherever_placed(tmp_path):
    assert repeat_breaks(str(tmp_path)) == (REPEATED_RUNS, [])


class Timeout(BaseException):
    """Raised by the alarm; not an Exception, so main cannot catch it."""


def _alarm(signum, frame):
    raise Timeout()


def _breaks(argv, out):
    """How one run breaks the exit-code contract, or None."""
    signal.alarm(10)
    try:
        rc, report, err = _run(argv, out)
    except Timeout:
        return "timeout"
    except FileNotFoundError:
        return "no report"
    finally:
        signal.alarm(0)
    if rc not in (0, 1, 2):
        return "exit code %r" % (rc,)
    if "Traceback" in err:
        return "traceback"
    if rc == 1 and not report["witnesses"]:
        return "exit 1 without witnesses"
    if rc == 2 and report["verdict"] != "error":
        return "exit 2 with verdict %r" % report["verdict"]
    if "library_bug" in report:
        return "library bug: %s" % report["details"]
    return None


def scan():
    """Run every single-node mutation of every example, then every
    relisting; the number of breaks."""
    signal.signal(signal.SIGALRM, _alarm)
    runs = broken = 0
    slowest = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "input.json"), os.path.join(tmp, "out")
        for name in sorted(COMMANDS):
            obj = _load(name)
            for node_path in _paths(obj):
                node = _at(obj, node_path)
                for op in _ops(node):
                    for value in _values(op, node):
                        with open(path, "w") as fh:
                            json.dump(_mutate(obj, node_path, op, value), fh)
                        for command in COMMANDS[name]:
                            argv = [path if a == "{}" else a for a in command]
                            start = time.monotonic()
                            why = _breaks(argv, out)
                            slowest = max(slowest, time.monotonic() - start)
                            runs += 1
                            if why is not None:
                                broken += 1
                                print("BREAK %s %s %s %s %r: %s" % (
                                    name, " ".join(command[:2]),
                                    list(node_path), op, value, why))
        relisted, breaks = relisting_breaks(tmp)
        repeated, moved = repeat_breaks(tmp)
    for label in breaks:
        print("BREAK %s: the report depends on the listing order" % label)
    for label in moved:
        print("BREAK %s: the report depends on where the repeat is" % label)
    print("%d runs, %d breaks, slowest run %.2f s" % (runs, broken, slowest))
    print("%d relisted runs, %d breaks" % (relisted, len(breaks)))
    print("%d repeated runs, %d breaks" % (repeated, len(moved)))
    pinned = (relisted, repeated) == (RELISTED_RUNS, REPEATED_RUNS)
    if not pinned:
        print("expected %d relisted and %d repeated runs"
              % (RELISTED_RUNS, REPEATED_RUNS))
    return broken + len(breaks) + len(moved) + (not pinned)


if __name__ == "__main__":
    sys.exit(1 if scan() else 0)
