"""The nmesolve benchmark: one workload per run, planted solutions, checked outputs.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process, one client, a closed loop: each job starts when the previous
one has ended.  BLAS is pinned to one thread before numpy is imported.  The
run makes round(seconds / pass_seconds) passes over the workload's job list
(see count_passes) and checks every output against its planted solution.
Each job's time is its best over the passes, and the timings are taken
over the jobs (see summary.end_to_end).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it holds the per-layer metrics, while the spans are written to
``.bench_out/``.  See bench/README.md for the metrics and workloads.
"""

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-ups measured per run, each in a fresh process and spread over the
#: run's passes; setup_s is their median.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown'
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas(module) -> str:
    blas = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
    }


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def set_up(workload, seed: int, jobs):
    """Generate the job list and run one warm-up job, as a user's process would."""
    job_list = workload.build(seed)
    jobs.execute(job_list[0])
    return job_list


def probe_schedule(pass_count: int, probes: int) -> list:
    """How many set-up probes follow each pass, spread evenly over the run."""
    return [(p + 1) * probes // pass_count - p * probes // pass_count
            for p in range(pass_count)]


def run_passes(job_list, count: int, jobs, tracer=None, after_pass=None) -> tuple:
    """Run ``count`` passes; with a tracer, every second pass is traced.
    ``after_pass(p)``, if given, runs after pass p, outside its timing.
    Returns (passes of (seconds, Outcome), traced flag per pass)."""
    passes, traced_flags = [], []
    for p in range(count):
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append([jobs.execute(job, tracer if traced else None, p * len(job_list) + i)
                           for i, job in enumerate(job_list)])
        finally:
            if traced:
                tracer.restore()
        traced_flags.append(traced)
        if after_pass is not None:
            after_pass(p)
    return passes, traced_flags


def count_passes(seconds: float, pass_seconds: float) -> int:
    """round(seconds / pass_seconds), but at least two passes: the traced run
    alternates untraced and traced ones."""
    return max(2, round(seconds / pass_seconds))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "nmesolve" / "__init__.py").is_file():
        print(f"bench: nmesolve sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy is imported only now, after the thread variables are pinned
    import jobs
    import summary
    import tracing
    from nmesolve.exceptions import ReciprocalPairingWarning

    # shift targets 0.9*lambda are deliberately not reciprocal-closed
    warnings.simplefilter("ignore", ReciprocalPairingWarning)
    if args.workload not in jobs.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {list(jobs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = jobs.WORKLOADS[args.workload]

    if args.setup_probe:
        set_up(workload, args.seed, jobs)
        print("ready", flush=True)
        return 0

    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    problems = []

    tracer = tracing.Tracer() if args.trace else None
    pass_count = count_passes(args.seconds, workload.pass_seconds)
    setup_samples, after_pass = [], None
    if tracer:
        tracer.install()
        try:
            job_list = workload.build(args.seed)
        finally:
            tracer.restore()
        jobs.execute(job_list[0])
    else:
        job_list = set_up(workload, args.seed, jobs)
        schedule = probe_schedule(pass_count, SETUP_PROBES)

        def after_pass(p):
            setup_samples.extend(probe_setup(args) for _ in range(schedule[p]))

    passes, traced_flags = run_passes(job_list, pass_count, jobs, tracer, after_pass)

    outcomes = [outcome for one_pass in passes for _, outcome in one_pass]
    failed = sum(outcome.failed for outcome in outcomes)
    unexpected = [o for o in outcomes if o.failed and not jobs.is_known_defect(workload.name, o)]
    if unexpected:
        problems.append(f"{len(unexpected)} jobs failed outside the known defects")
    reasons = collections.Counter(r for o in outcomes for r in o.reasons)
    print(f"{workload.name}: {pass_count} passes x {len(job_list)} jobs; "
          f"failures by reason {dict(reasons) or '{}'}")
    for job, (_, outcome) in zip(job_list, passes[0]):
        if outcome.failed:
            print(f"  failed in pass 1: {job.label}: {', '.join(outcome.reasons)} "
                  f"(forward error {outcome.fwd_err:.3g})")

    if tracer:
        own = tracing.self_times(tracer.spans)
        unrestored = tracer.unrestored()
        if unrestored:
            problems.append(f"wrappers not restored: {unrestored}")
        mismatched = tracing.job_self_time_mismatches(tracer.spans, own, tracer.names)
        if mismatched:
            problems.append(f"{len(mismatched)} jobs whose self times do not sum to their time")
        pass_s = collections.defaultdict(list)
        for one_pass, traced in zip(passes, traced_flags):
            pass_s[traced].append(sum(seconds for seconds, _ in one_pass))
        overhead = statistics.mean(pass_s[True]) / statistics.mean(pass_s[False]) - 1.0
        values = tracing.per_layer_metrics(
            tracer.spans, own, tracer.names, tracer.groups,
            jobs_traced=len(job_list) * len(pass_s[True]), overhead_frac=overhead)
        units = tracing.PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.dump(dump, {"env": env})
        print(f"{len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values, percentile, beyond = summary.end_to_end(passes, setup_samples, peak_kb)
        units = summary.END_TO_END_UNITS
        print(f"job times are each job's best of {pass_count} passes; job_s_tail is "
              f"the p{percentile:.0f} of the {len(job_list)} jobs: {beyond} jobs beyond it")

    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
