"""spincat benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload revival_sweeps --seed 1 --seconds 34 --trace 0

Each run is one process with one client.  The seed draws the physical
parameters (see ``workloads.py``); the jobs are in-process
``spincat.cli.main(argv)`` calls on generated ``--config`` files with
``--out`` set, run in a closed loop, one after another.  A run

1. writes the configs under ``perfbench/_work/<workload>/``;
2. with ``--trace 0``, times ``SETUP_PROBES`` fresh interpreters from spawn
   until they have imported spincat, loaded the configs and run each job's
   warm-up twin (``setup_s`` is their median).  The probes are spread over
   the run, one before the first pass and the others between passes, so
   that their median does not rest on one stretch of the host's load;
3. warms up in-process and then runs passes over the job list until the
   next pass would take the timed job time past ``--seconds`` (at least one
   pass).  Every job's output is checked after it ends, outside the timed
   region.  BLAS runs single-threaded unless the caller sets the thread
   variables (see ``BLAS_THREADS``);
4. with ``--trace 1``, runs one untraced pass and then traced passes, and
   reports per-layer numbers instead of the end-to-end ones.

The human-readable summary and a ``report`` line (seed, generated configs and
argv, environment, per-pass samples, checks) come first; the last line is
the JSON result.  The process exits 2 if spincat's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
PROBE = os.path.join(ROOT, "perfbench", "probe.py")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

#: BLAS thread counts the benchmark runs with unless the caller sets them.
#: On a small shared machine a second BLAS thread on 8x8 matrices makes a
#: pass take as long as the sibling core is busy elsewhere, up to twice as
#: long, so the runs would measure the host's load, not the program.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "io.bytes":
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def tail(samples) -> tuple:
    """The highest percentile of ``samples`` with at least ten samples above
    it, as (value, percentile, sample count).  With fewer than eleven
    samples no percentile qualifies and the maximum is returned."""
    xs = sorted(samples)
    n = len(xs)
    j = n - 11 if n >= 11 else n - 1
    return xs[j], 100.0 * (j + 1) / n, n


class Runner:
    """Runs the jobs of one workload in this process and checks their output."""

    def __init__(self, workload, config_paths: dict, work: str):
        from perfbench.checks import Checker

        self.workload = workload
        self.config_paths = config_paths
        self.work = work
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst = (0.0, "")
        self.job_s = {job.name: [] for job in workload.jobs}

    def argv(self, job, out_root: str) -> list:
        argv = [*job.argv, "--config", self.config_paths[job.name]]
        if job.writes_output:
            argv += ["--out", os.path.join(self.work, out_root, job.name)]
        return argv

    def run_job(self, job) -> tuple:
        """Run and check one job; returns (wall seconds, CPU seconds)."""
        import spincat.cli

        argv = self.argv(job, "out")
        out_dir = argv[-1]
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = spincat.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code, error = exc.code, stderr.getvalue().strip()
        except Exception:  # a job that raises is a failed job, not a crashed benchmark
            code, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.attempted += 1
        failures = []
        if code != 0:
            failures.append(f"{job.name}: exit {code}: {error or stderr.getvalue().strip()}")
        else:
            for check in self.checker.check(job, out_dir, stdout.getvalue()):
                if not check.ok:
                    failures.append(f"{job.name}: {check.name}: err {check.err:.3e} > tol {check.tol:.3e}")
                if check.ratio >= self.worst[0]:
                    self.worst = (check.ratio, f"{job.name}: {check.name}")
        self.failed += bool(failures)
        self.failures += failures
        self.job_s[job.name].append(t1 - t0)
        return t1 - t0, c1 - c0

    def run_pass(self) -> tuple:
        """One pass over the job list: (wall seconds, CPU seconds), summed over jobs."""
        wall = cpu = 0.0
        for job in self.workload.jobs:
            w, c = self.run_job(job)
            wall += w
            cpu += c
        return wall, cpu


def setup_probe(plan_path: str) -> float:
    """Seconds from spawning a fresh interpreter until it reports ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, PROBE, plan_path],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return t1 - t0


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "spincat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    uname = platform.uname()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": f"{uname.system} {uname.release} {uname.machine}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=34.0, help="timed job time to aim for")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    for name, value in BLAS_THREADS.items():  # before numpy is imported; probes inherit it
        os.environ.setdefault(name, value)
    sys.path[:0] = [ROOT]
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spincat", "__init__.py")):
        print(f"perfbench: error: spincat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC]

    from perfbench import probe, trace, workloads

    wl = workloads.build(args.workload, args.seed)
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    config_paths = workloads.write_configs(wl, os.path.join(work, "configs"))
    runner = Runner(wl, config_paths, work)
    plan = {
        "src": SRC,
        "configs": [config_paths[j.name] for j in wl.jobs],
        "warmup": [runner.argv(j, "warmup") for j in wl.warmup],
    }
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh, indent=1)

    setup = []

    def probe_until(timed_s: float) -> None:
        """Run the set-up probes due once ``timed_s`` of passes have run."""
        while not args.trace and len(setup) < SETUP_PROBES and len(setup) * args.seconds / SETUP_PROBES <= timed_s:
            setup.append(setup_probe(plan_path))

    probe_until(0.0)

    import spincat

    if not os.path.abspath(spincat.__file__).startswith(SRC + os.sep):
        print(f"perfbench: error: imported spincat from {spincat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    probe.warm_up(plan)

    walls, cpus = [], []
    while True:
        wall, cpu = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
        if args.trace or sum(walls) + statistics.median(walls) > args.seconds:
            break
        probe_until(sum(walls))
    probe_until(math.inf)

    traced, tracers = [], []
    while args.trace:
        tracer = trace.Tracer()
        with tracer:
            wall, _ = runner.run_pass()
        traced.append((wall, trace.layer_metrics(tracer, wall)))
        tracers.append(tracer)
        done = sum(walls) + sum(w for w, _ in traced)
        if done + statistics.median(w for w, _ in traced) > args.seconds:
            break

    if args.trace:
        metrics = {}
        for name in traced[0][1]:
            values = [m[name] for _, m in traced]
            # counts repeat exactly from pass to pass; report one of them, not a mean
            pick = statistics.median_low if all(isinstance(v, int) for v in values) else statistics.median
            metrics[name] = pick(values)
        metrics["trace.overhead_frac"] = statistics.median(w for w, _ in traced) / statistics.median(walls) - 1.0
        metrics["check.worst_err_ratio"] = runner.worst[0]
        trace.save_spans(os.path.join(work, "spans.npz"), tracers)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        tail_value, tail_pct, n = tail(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(walls),
            "pass_tail_s": tail_value,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    report = {
        **wl.record(),
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "setup_s_samples": setup,
        "pass_s_samples": walls,
        "cpu_s_samples": cpus,
        "traced_pass_s_samples": [w for w, _ in traced],
        "job_s_samples": runner.job_s,
        "worst_check": {"ratio": runner.worst[0], "check": runner.worst[1]},
        "failures": runner.failures,
    }
    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} jobs, {len(walls)} untraced + {len(traced)} traced passes")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'pass_tail_s is':42s} p{tail_pct:.0f} of {n} passes"
              + (" (fewer than 11: the maximum)" if n < 11 else ""))
    failed = runner.failed
    print(f"  {'fail_frac':42s} {failed / runner.attempted:.6g} ratio ({failed} of {runner.attempted} jobs)")
    print(f"  {'worst check':42s} {runner.worst[0]:.3g} of tolerance ({runner.worst[1]})")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
