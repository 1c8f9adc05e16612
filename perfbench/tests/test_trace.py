"""Trace self-check: two traced runs of the same jobs give identical counts.

Runs a slice of cli-small through the trace driver twice (about a minute).
Run from the checkout root: python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
ROOT = os.path.dirname(os.path.dirname(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".elements", "term_pairs", ".grid", "kept_ratio",
                  "searched", "composable_pairs")


def _is_count(name):
    return name.endswith(COUNT_SUFFIXES) or name.startswith("jsonio.bytes_")


def _traced(jobs, work):
    runner = run.Runner(ROOT, str(work))
    runner.prepare(jobs)
    rcs, _, _, _ = runner.run_all(jobs, traced=True)
    assert not [f for f in runner.judge(jobs, rcs) if f[2] is None]
    return run.layer_metrics(runner, len(jobs), 0.0)


def test_counts_repeat_exactly(tmp_path):
    jobs = workloads.build("cli-small", 11, ROOT)
    # one job of each subcommand, plus the malformed-input jobs
    seen, picked = set(), []
    for job in jobs:
        if job.subcommand not in seen or job.expect.malformed:
            seen.add(job.subcommand)
            picked.append(job)
    first = _traced(picked, tmp_path / "a")
    second = _traced(picked, tmp_path / "b")
    assert set(first) == {name for name, _ in run.PER_LAYER}
    counts = [name for name in first if _is_count(name)]
    assert len(counts) >= 15
    for name in counts:
        assert first[name] == second[name], name
    for name in ("poly.mul.calls", "groups.make_group.elements",
                 "groupoids.composable_pairs",
                 "cocycles.are_cohomologous.searched", "jsonio.bytes_out"):
        assert first[name]["value"] > 0, name
    assert first["cli.import_s"]["value"] > 0
