"""ruledict benchmark: seeded CLI jobs, checked against independent references.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

With ``--trace 0`` one closed-loop client runs the workload's job list
pass after pass, each job in a fresh ``python3 -m ruledict.cli``
process, until ``--seconds`` have passed, and reports the end-to-end
metrics. With ``--trace 1`` the same jobs run in-process under spans
placed around the public calls of each module, and the per-layer
metrics are reported instead. Every output is checked; the last line of
stdout is one JSON object with the result.
"""

from __future__ import annotations

import sys

# The benchmark writes nothing into the checkout but its own scratch dir.
sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import statistics
import tempfile
import time

import jobs
import selftest
import trace_run
import workloads

SETUP_SAMPLES = 7
JOB_TIMEOUT_S = 120.0
SCRATCH_DIR = ".perfbench"


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def openblas_threads():
    """Threads OpenBLAS starts in a process with this environment, or None if unknown."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup(launcher, env: dict, workdir: str) -> tuple[list[float], list[str]]:
    """Wall times of fresh ``import ruledict.cli`` processes, and any failures."""
    times, problems = [], []
    for _ in range(SETUP_SAMPLES):
        done = launcher.run([sys.executable, "-c", "import ruledict.cli"], env, workdir, JOB_TIMEOUT_S)
        if done.code != 0 or done.stderr or done.timed_out:
            problems.append("import ruledict.cli failed: " + done.stderr.decode(errors="replace")[-300:])
        times.append(done.wall_s)
    return times, problems


def run_jobs(launcher, job_list, env: dict, workdir: str, seconds: float):
    """Closed loop: whole passes over the job list until ``seconds`` have passed.

    Returns the completed runs as (job, Completed) and the problems found.
    A job's stdout must match its reference the first time and be
    byte-identical to that first output on every later pass.
    """
    cli = [sys.executable, "-m", "ruledict.cli"]
    runs, problems, digests = [], [], {}
    start = time.perf_counter()
    while True:
        for job in job_list:
            done = launcher.run(cli + job.argv, env, workdir, JOB_TIMEOUT_S)
            digest = workloads.digest(done.stdout)
            if done.timed_out:
                problem = f"timed out after {JOB_TIMEOUT_S} s"
            elif job.name not in digests:
                problem = job.verify(done.code, done.stdout, done.stderr)
                digests[job.name] = digest
            elif digest != digests[job.name]:
                problem = "stdout differs from this job's first run"
            else:
                problem = job.verify_status(done.code, done.stderr)
            runs.append((job, done, problem))
            if problem:
                problems.append(f"{job.name}: {problem}")
        if time.perf_counter() - start >= seconds:
            return runs, problems


def end_to_end(job_list, env, workdir, seconds):
    with jobs.Launcher() as launcher:
        setup, problems = measure_setup(launcher, env, workdir)
        runs, job_problems = run_jobs(launcher, job_list, env, workdir, seconds)
    problems += job_problems
    failed = sum(1 for _, _, problem in runs if problem)
    # The job list is fixed per seed, so the median job is the same job in
    # every run. Each job's time is its median over the passes, and the
    # rates are those of a pass made of these medians, so that one job
    # stalled by the host does not move a whole run.
    per_job = {job.name: statistics.median(done.wall_s for j, done, _ in runs if j is job)
               for job in job_list}
    pass_s = sum(per_job.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(per_job.values()), "s"),
        "jobs_per_s": (len(job_list) / pass_s, "1/s"),
        "entries_per_s": (sum(job.entries for job in job_list) / pass_s, "1/s"),
        "peak_rss_mb": (max(done.peak_rss_kb for _, done, _ in runs) / 1024, "MB"),
        "ok_share": ((len(runs) - failed) / len(runs), "ratio"),
    }
    # Shown for reading only: fits_per_s is zero outside select and
    # fail_share is zero on correct code, so neither can carry a bound.
    extra = {
        "fits_per_s": (sum(job.fits for job in job_list) / pass_s, "1/s"),
        "fail_share": (failed / len(runs), "ratio"),
    }
    print(f"jobs: {len(runs)} runs of {len(job_list)} jobs, median pass {pass_s:.2f} s, "
          f"OpenBLAS threads: {openblas_threads()}")
    for job in job_list:
        rss = max(done.peak_rss_kb for j, done, _ in runs if j is job) / 1024
        print(f"  {job.name:<22} median {per_job[job.name]:8.3f} s  "
              f"peak {rss:7.1f} MB  entries {job.entries}")
    return metrics, extra, len(runs), failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ruledict", "cli.py")):
        print("error: no ruledict sources at ./src; run from the repository root",
              file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        for p in problems:
            print("error: checker self-test: " + p, file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, SCRATCH_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, SCRATCH_DIR))
    try:
        job_list = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            spans_path = os.path.join(
                root, SCRATCH_DIR, f"spans-{args.workload}-{args.seed}.jsonl"
            )
            metrics, attempted, failed, problems = trace_run.run(
                job_list, src, args.seconds, spans_path
            )
            extra = {}
        else:
            metrics, extra, attempted, failed, problems = end_to_end(
                job_list, child_env(src), workdir, args.seconds
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:<10} {name:<28} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
