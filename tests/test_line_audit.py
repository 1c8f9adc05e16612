"""The line audit's rules, on a module small enough to read."""

from line_audit import file_findings

SOURCE = '''\
def f(x):
    if x < 0:
        raise InternalInconsistency("x is a size",
                                    x=x)
    if x > 9:  # pragma: no cover — reason
        x = 9
        return x
    if x > 5:  # pragma: no cover
        return 5
    return x
'''
# what f(0) runs: the def at import, then the three tests and the return
RAN = {1, 2, 5, 8, 10}


def test_oracle_raises_and_marked_bodies_may_stay_unrun():
    counts, findings = file_findings(SOURCE, "m.py", RAN)
    # unrun: the raise (lines 3-4), both marked bodies (6, 7 and 9)
    assert counts == (10, 5, 2, 3)
    assert findings == [(8, "pragma gives no reason")]


def test_an_unmarked_line_and_a_marked_line_that_runs_are_findings():
    source = SOURCE.replace("  # pragma: no cover\n", "\n")
    counts, findings = file_findings(source, "m.py", RAN | {6})
    assert counts == (10, 4, 2, 1)
    assert findings == [(5, "marked, but runs"), (9, "never runs")]
