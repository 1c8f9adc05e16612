"""Line audit: every executable line of src/ntpg runs in tier-1, or says why not.

Runs tier-1 in this process under a ``sys.settrace`` line tracer, installed
again at the start of each test's setup, call and teardown (hypothesis
replaces the tracer while it runs).  The executable lines of each module are
those its code objects name in ``co_lines()``.  A line that no test runs is
allowed when it is

* part of an oracle ``raise InternalInconsistency(...)`` or
  ``raise InternalDisagreement(...)`` statement, found by ``ast``: the theory
  rules these out, so no input reaches them; or
* inside a statement whose first line carries
  ``# pragma: no cover — <reason>``.  On a compound statement the pragma
  covers the statement's whole body.

The audit exits 1 on any other unrun line, on a pragma that gives no reason,
on a marked line that now runs (the pragma is stale), and when tier-1 fails.
Run it from the repository root; extra arguments go to pytest:

    PYTHONPATH=src python tests/line_audit.py
"""

import ast
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "ntpg")
ORACLES = {"InternalInconsistency", "InternalDisagreement"}
PRAGMA = "# pragma: no cover"

_ran = set()


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(SRC) else None


class _Retrace:
    """Installs the tracer again before each phase of each test."""

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_calls)
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_calls)
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(self, item):
        sys.settrace(_calls)
        yield


def executable_lines(code):
    found = set()
    stack = [code]
    while stack:
        co = stack.pop()
        found.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return found


def _span(node):
    return set(range(node.lineno, node.end_lineno + 1))


def allowed_lines(tree, source_lines):
    """(oracle lines, {pragma line: (marked lines, checked lines)}, errors).

    The checked lines of a pragma are those that must not run: the body of a
    marked compound statement, or the whole of a marked simple one."""
    oracle, marked, errors = set(), {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ORACLES:
                oracle |= _span(node)
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        text = source_lines[node.lineno - 1]
        if PRAGMA not in text or node.lineno in marked:
            continue
        reason = text.split(PRAGMA, 1)[1].lstrip(" —-:").strip()
        if not reason:
            errors.append((node.lineno, "pragma gives no reason"))
        body = getattr(node, "body", None)
        checked = (set(range(body[0].lineno, node.end_lineno + 1))
                   if isinstance(body, list) and body else _span(node))
        marked[node.lineno] = (_span(node), checked)
    return oracle, marked, errors


def file_findings(source, path, ran):
    """((executable, unrun, oracle, marked), findings) for one module;
    ``ran`` holds its line numbers that ran, a finding is (line, what)."""
    source_lines = source.splitlines()
    executable = executable_lines(compile(source, path, "exec"))
    unrun = executable - ran
    oracle, marked, bad = allowed_lines(ast.parse(source), source_lines)
    covered = set().union(*(m for m, _ in marked.values()))
    bad += [(line, "never runs") for line in unrun - oracle - covered]
    bad += [(start, "marked, but runs")
            for start, (_, checked) in marked.items()
            if (checked & executable) - unrun]
    counts = (len(executable), len(unrun), len(unrun & oracle),
              len((unrun & covered) - oracle))
    return counts, sorted(bad)


def audit(ran):
    """Print the findings; return (executable, unrun, oracle, marked, bad)."""
    totals = [0] * 5
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        counts, bad = file_findings(
            source, path, {line for p, line in ran if p == path})
        source_lines = source.splitlines()
        for line, what in bad:
            print("src/ntpg/%s:%d: %s: %s"
                  % (name, line, what, source_lines[line - 1].strip()))
        for k, n in enumerate((*counts, len(bad))):
            totals[k] += n
    return totals


def main(argv):
    os.chdir(ROOT)
    sys.settrace(_calls)
    try:
        rc = pytest.main(["-q", "--continue-on-collection-errors", *argv],
                         plugins=[_Retrace()])
    finally:
        sys.settrace(None)
    executable, unrun, oracle, marked, bad = audit(_ran)
    print("%d executable lines, %d unrun: %d oracle raises, %d marked, "
          "%d findings" % (executable, unrun, oracle, marked, bad))
    if rc != 0:
        print("tier-1 did not pass (pytest exit code %d)" % rc)
    return 1 if bad or rc != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
