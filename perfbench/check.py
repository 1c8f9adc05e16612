"""Judging one finished ``ntpg`` job against its known answer.

Every job counts as attempted.  A job fails when its exit code differs from
the known answer or its verdict contradicts it, when it exits 1 without
witnesses, exits 2 without verdict "error", prints a traceback, or when a
witness or detail does not hold up when recomputed on the input.
"""

import json

import algebra

TRACEBACK = "Traceback (most recent call last)"


class Expect:
    """A job's known answer: exit code, verdict and a semantic check.

    ``check(report)`` returns a list of problems (empty when the report
    holds up).  ``malformed`` marks input that is invalid on purpose, whose
    only right answer is rc 2 with verdict "error".
    """

    __slots__ = ("rc", "verdict", "check", "malformed")

    def __init__(self, rc, verdict, check=None, malformed=False):
        self.rc = rc
        self.verdict = verdict
        self.check = check
        self.malformed = malformed


def passes(check=None):
    return Expect(0, "pass", check)


def fails(check=None):
    return Expect(1, "fail", check)


def malformed():
    return Expect(2, "error", malformed=True)


def judge(expect, rc, report_text, stderr):
    """Problems with one job's outcome; an empty list means it is right."""
    problems = []
    if TRACEBACK in stderr:
        lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
        problems.append("traceback: %s" % (lines[-1] if lines else "?"))
    if rc != expect.rc:
        problems.append("rc %s, expected %d" % (rc, expect.rc))
    try:
        report = json.loads(report_text) if report_text.strip() else None
    except ValueError:
        report = None
    if report is None:
        if rc in (0, 1, 2):
            problems.append("no JSON report")
        return problems
    verdict = report.get("verdict")
    if rc == 1 and not report.get("witnesses"):
        problems.append("rc 1 without witnesses")
    if rc == 2 and verdict != "error":
        problems.append("rc 2 without verdict 'error'")
    if verdict != expect.verdict:
        problems.append("verdict %r, expected %r" % (verdict, expect.verdict))
    if not problems and expect.check is not None:
        try:
            problems.extend(expect.check(report))
        except (KeyError, IndexError, TypeError, ValueError) as e:
            problems.append("report shape: %s: %s" % (type(e).__name__, e))
    return problems


def explain(expect, problems, stderr):
    """The known defect behind a failure, or None when it is unexplained.

    When this benchmark was written the CLI let malformed input escape as a
    Python exception (exit 1 with a traceback) or accepted it: the loaders
    did not check types and ranges and ``main`` had no last-resort guard.
    """
    if not expect.malformed:
        return None
    if TRACEBACK in stderr:
        lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
        where = "?"
        for ln in lines:
            if "/ntpg/" in ln and ln.lstrip().startswith("File"):
                parts = ln.split('"')
                path = parts[1] if len(parts) > 1 else ln
                func = ln.rsplit(" in ", 1)[-1].strip()
                where = "%s:%s" % (path.rsplit("/", 1)[-1], func)
        exc = lines[-1].split(":", 1)[0] if lines else "?"
        return "malformed input escapes as uncaught %s in %s" % (exc, where)
    return "malformed input not rejected (%s)" % "; ".join(problems)


# -- semantic witness checks -------------------------------------------------

def nonassociative(table):
    """The report's NonAssociative triple really fails on the input table."""
    def check(report):
        w = report["witnesses"][0]
        if w["error"] != "NonAssociative":
            return ["witness %s, expected NonAssociative" % w["error"]]
        a, b, c = w["details"]["triple"]
        if table[table[a][b]][c] == table[a][table[b][c]]:
            return ["triple %r is associative" % ([a, b, c],)]
        return []
    return check


def error_kind(kind, holds):
    """The first witness is a ``kind`` error whose details satisfy holds."""
    def check(report):
        w = report["witnesses"][0]
        if w["error"] != kind:
            return ["witness %s, expected %s" % (w["error"], kind)]
        if not holds(w["details"]):
            return ["%s witness does not hold: %r" % (kind, w["details"])]
        return []
    return check


def principal_failures(table, subgroups, kinds):
    """NotNormal / NotGenerating witnesses of dpg or n-tuple verification,
    recomputed: the conjugate lies outside the subgroup, the missing
    element lies outside the subgroup the union generates."""
    inv = algebra.inverses(table)
    sets = [set(s) for s in subgroups]
    generated = algebra.closure(table, set().union(*sets))

    def check(report):
        problems = []
        got = sorted(w["kind"] for w in report["witnesses"])
        if got != sorted(kinds):
            problems.append("failure kinds %r, expected %r" % (got, kinds))
        names = {"g1": 0, "g2": 1}
        for w in report["witnesses"]:
            if w.get("path"):
                problems.append("unexpected nested failure %r" % (w,))
            elif w["kind"] == "NotNormal":
                i = names.get(w["subgroup"], w["subgroup"])
                g, h = w["witness"]["conjugator"], w["witness"]["element"]
                if h not in sets[i] or \
                        algebra.conjugate(table, inv, g, h) in sets[i]:
                    problems.append("NotNormal witness does not hold")
            elif w["kind"] == "NotGenerating":
                if w["missing"] in generated:
                    problems.append("missing element is generated")
        return problems
    return check


def details_equal(expected):
    """Each given detail matches exactly."""
    def check(report):
        d = report["details"]
        return ["%s = %r, expected %r" % (k, d.get(k), v)
                for k, v in expected.items() if d.get(k) != v]
    return check


def all_of(*checks):
    def check(report):
        out = []
        for c in checks:
            out.extend(c(report))
        return out
    return check
