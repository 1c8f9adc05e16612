"""Fixed-work CLI benchmark for ntpg.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run builds the workload's fixed job list from the seed, writes the
inputs under .perfbench_work/, and runs every job as a fresh
``python -m ntpg.cli`` process, one at a time (a closed loop with a single
client), so interpreter start-up and imports are paid as users pay them.
The job list is run PASSES[workload] times.
Nothing is scheduled by elapsed time: ``--seconds`` is accepted for the
harness and every run does the same jobs.  Outputs are checked against
known answers after the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the same jobs run once untraced and once through
trace_driver.py, and the last line reports the per-layer metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# Passes over the job list per measured run; wall_s is their median.  On a
# shared machine pass times drift by 10-20% within seconds, so the short-job
# workloads run twice; one pass of aut-p54 already lasts about 20 s.
PASSES = {"aut-p54": 1, "group-tables": 2, "cli-small": 2}

PER_LAYER = [
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("jsonio.read_json.self_s", "s"), ("jsonio.load.self_s", "s"),
    ("jsonio.write_report.self_s", "s"), ("jsonio.bytes_in", "bytes"),
    ("jsonio.bytes_out", "bytes"),
    ("fields.mat_inv.calls", "count"), ("fields.mat_inv.self_s", "s"),
    ("poly.subs.calls", "count"), ("poly.subs.self_s", "s"),
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.mul.term_pairs", "count"), ("poly.pow.self_s", "s"),
    ("graded.compose.calls", "count"), ("graded.compose.self_s", "s"),
    ("graded.triangular_inverse.self_s", "s"),
    ("groups.make_group.calls", "count"), ("groups.make_group.self_s", "s"),
    ("groups.make_group.elements", "count"),
    ("groups.make_group_from_permutations.self_s", "s"),
    ("groups.subgroup_closure.self_s", "s"),
    ("groups.normality_witness.calls", "count"),
    ("groups.normality_witness.self_s", "s"),
    ("principal.verify_double.calls", "count"),
    ("principal.verify_double.self_s", "s"),
    ("principal.verify_ntuple.self_s", "s"),
    ("principal.dressing.self_s", "s"),
    ("groupoids.FiniteGroupoid.init_s", "s"),
    ("groupoids.composable_pairs", "count"),
    ("groupoids.gauge_groupoid.self_s", "s"),
    ("groupoids.check_compatible.calls", "count"),
    ("groupoids.split.self_s", "s"),
    ("autgroups.enumerate_aut.self_s", "s"),
    ("autgroups.enumerate_aut.grid", "count"),
    ("autgroups.enumerate_aut.kept_ratio", "ratio"),
    ("autgroups.verify_p54.self_s", "s"),
    ("cocycles.are_cohomologous.self_s", "s"),
    ("cocycles.are_cohomologous.searched", "count"),
    ("cocycles.standard_fibered_space.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Runner:
    """Writes a job list into a work directory and runs it."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def prepare(self, jobs):
        if os.path.isdir(self.work):
            shutil.rmtree(self.work)
        os.makedirs(self.work)
        for job in jobs:
            for name, text in job.files.items():
                with open(os.path.join(self.work, name), "w") as fh:
                    fh.write(text)

    def spawn(self, argv, tag):
        """Run one process; (rc, wall seconds, max RSS in MB)."""
        out = open(os.path.join(self.work, tag + ".stdout"), "w")
        err = open(os.path.join(self.work, tag + ".stderr"), "w")
        with out, err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def run_all(self, jobs, traced):
        """Every job in order; (rcs, per-job seconds, peak RSS, wall)."""
        rcs, times, peak = [], [], 0.0
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            if traced:
                argv = [sys.executable, os.path.join(HERE, "trace_driver.py"),
                        "job%03d.trace.json" % i] + job.argv
            else:
                argv = [sys.executable, "-m", "ntpg.cli"] + job.argv
            rc, wall, rss = self.spawn(argv, "job%03d" % i)
            rcs.append(rc)
            times.append(wall)
            peak = max(peak, rss)
        return rcs, times, peak, time.perf_counter() - start

    def read(self, name):
        try:
            with open(os.path.join(self.work, name)) as fh:
                return fh.read()
        except FileNotFoundError:
            return ""

    def judge(self, jobs, rcs):
        """(job, problems, cause) for each failed job; cause names the
        known defect behind the failure, or is None when none explains it."""
        failures = []
        for i, (job, rc) in enumerate(zip(jobs, rcs)):
            out = job.argv[job.argv.index("--out") + 1] \
                if "--out" in job.argv else None
            report = self.read(out) if out else self.read("job%03d.stdout" % i)
            stderr = self.read("job%03d.stderr" % i)
            problems = check.judge(job.expect, rc, report, stderr)
            if problems:
                failures.append((job, problems,
                                 check.explain(job.expect, problems, stderr)))
        return failures


def setup(workload, seed, runner):
    """Seeded inputs, known answers, input files, one warm-up run."""
    start = time.perf_counter()
    jobs = workloads.build(workload, seed, runner.root)
    runner.prepare(jobs)
    rc, _, _ = runner.spawn([sys.executable, "-m", "ntpg.cli", "--help"],
                            "warmup")
    if rc != 0:
        raise SystemExit("warm-up run of ntpg failed with rc %d" % rc)
    return jobs, time.perf_counter() - start


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(runner, count, overhead):
    spans, counts, import_s = {}, {}, 0.0
    for i in range(count):
        text = runner.read("job%03d.trace.json" % i)
        if not text:
            continue
        data = json.loads(text)
        import_s += data["import_s"]
        for name, (calls, self_s) in data["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, k in data["counts"].items():
            counts[name] = counts.get(name, 0) + k
    values = {"cli.import_s": import_s, "trace.overhead_s": overhead}
    for name, (calls, self_s) in spans.items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
    values.update(counts)
    values["groupoids.FiniteGroupoid.init_s"] = values.get(
        "groupoids.FiniteGroupoid.init.self_s", 0.0)
    grid = counts.get("autgroups.enumerate_aut.grid", 0)
    values["autgroups.enumerate_aut.kept_ratio"] = (
        counts.get("autgroups.enumerate_aut.kept", 0) / grid if grid else 0.0)
    return {name: {"value": values.get(name, 0.0 if unit == "s" else 0),
                   "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="accepted for the harness; the job list is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ntpg", "cli.py")):
        print("no ntpg sources under %s/src: run from a checkout root" % root,
              file=sys.stderr)
        return 2
    runner = Runner(root, os.path.join(root, ".perfbench_work",
                                       args.workload))

    setups = []
    for _ in range(SETUP_REPEATS):
        jobs, seconds = setup(args.workload, args.seed, runner)
        setups.append(seconds)

    walls, times, peak, failures = [], [], 0.0, []
    for _ in range(1 if args.trace else PASSES[args.workload]):
        rcs, pass_times, pass_peak, wall = runner.run_all(jobs, traced=False)
        failures += runner.judge(jobs, rcs)
        walls.append(wall)
        times += pass_times
        peak = max(peak, pass_peak)
    if args.trace:
        rcs, _, _, traced_wall = runner.run_all(jobs, traced=True)
        failures += runner.judge(jobs, rcs)
        metrics = layer_metrics(runner, len(jobs), traced_wall - walls[0])
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "job_p90_s": {"value": quantile(times, 90), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    attempted = len(jobs) * (len(walls) + args.trace)
    unexplained = [f for f in failures if f[2] is None]
    listed = {}
    for job, problems, cause in failures:
        line = "FAILED %s (%s): %s -- %s" % (
            job.name, job.subcommand, "; ".join(problems),
            "known defect: " + cause if cause else "UNEXPLAINED")
        listed[line] = listed.get(line, 0) + 1
    for line, k in listed.items():
        print("%s [%d run%s]" % (line, k, "" if k == 1 else "s"))
    print("%s seed %d: %d jobs x %d passes = %d job runs (the job_p50_s and "
          "job_p90_s samples), %d failed, %d unexplained; pass walls %s s"
          % (args.workload, args.seed, len(jobs), len(walls) + args.trace,
             attempted, len(failures), len(unexplained),
             " ".join("%.3f" % w for w in walls)))
    print(json.dumps({"correct": not unexplained, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
