"""Workloads of the nmesolve benchmark: planted-solution jobs and their checks.

A job is one unit of user work, timed from outside: one solver call, or one
critical-case pipeline from solvability check to shifted spectrum.  Every job
is built from ``harness.generate_problem`` (or, for scalar jobs, from a seeded
draw), so its exact answer X+ is known and every output is checked against it.

The program is called through module attributes (``solvers.solve_newton``,
``shifting.shift_multi``, ...) looked up at call time, so the traced run's
wrappers see every call.  Solver calls pass only ``tol`` and ``max_iter``;
every other ``SolverConfig`` field keeps its default, so that a change of a
default shows up as the user would see it.
"""

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from nmesolve import harness, problem, shifting, solvers

TOL = 1e-12

#: A job fails when the relative forward error of its X exceeds this.
FWD_ERR_LIMIT = 1e-8

#: A shifted target must have a computed eigenvalue within this distance.
TARGET_TOL = 1e-6

#: Each detected unimodular eigenvalue lambda is moved to this times lambda.
SHIFT_FACTOR = 0.9

#: At rho = 1 a residual of tol leaves an error of order sqrt(tol) in X, and
#: solve_sda still reports converged=True.  Errors up to this bound on the
#: critical-shift workload are that known defect; larger ones are not.
CRITICAL_ERR_BAND = 1e-5

#: Failures of the seed program that the benchmark counts but expects.
KNOWN_DEFECT_REASONS = {
    "critical-shift": ("inaccurate", "raised:RepeatedEigenvalue"),
}

DIGITS_CAP = 16.0


@dataclass(frozen=True)
class Outcome:
    """Checked result of one job; ``reasons`` is empty when it passed."""

    iterations: int
    fwd_err: float
    reasons: tuple = ()

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


@dataclass(frozen=True)
class Job:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, BaseException | None], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Time of one pass over the job list on the reference machine (2-core
    #: Xeon, one BLAS thread); a run makes round(seconds / pass_seconds)
    #: passes, so both sides of a comparison time the same jobs.
    pass_seconds: float
    build: Callable[[int], list]


def forward_error(X, x_plus) -> float:
    """||X - X+||_F / ||X+||_F; NaN when X is not finite."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        return math.nan
    return float(np.linalg.norm(X - x_plus) / np.linalg.norm(x_plus))


def error_digits(err: float) -> float:
    """-log10 of a relative error, capped at 16; 0 for NaN or errors >= 1."""
    if math.isnan(err):
        return 0.0
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def check_report(report, x_plus) -> Outcome:
    """Classify a SolveReport against the planted solution."""
    reasons = []
    err = forward_error(report.X, x_plus)
    if not report.converged:
        reasons.append("not-converged")
    if math.isnan(err):
        reasons.append("non-finite")
    elif err > FWD_ERR_LIMIT:
        reasons.append("inaccurate")
    return Outcome(int(report.iterations), err, tuple(reasons))


def raised(exc: BaseException, x_plus=None) -> Outcome:
    """Outcome of a call that raised; a partial report, if any, gives the error."""
    report = getattr(exc, "report", None)
    reason = f"raised:{type(exc).__name__}"
    if report is None or x_plus is None:
        return Outcome(0, math.nan, (reason,))
    partial = check_report(report, x_plus)
    return Outcome(partial.iterations, partial.fwd_err, (reason,) + partial.reasons)


def is_known_defect(workload: str, outcome: Outcome) -> bool:
    """True when every reason a job failed is a documented defect of the seed."""
    known = KNOWN_DEFECT_REASONS.get(workload, ())
    if not outcome.reasons:
        return False
    for reason in outcome.reasons:
        if reason not in known:
            return False
        if reason == "inaccurate" and not outcome.fwd_err <= CRITICAL_ERR_BAND:
            return False
    return True


def execute(job: Job, tracer=None, job_id=None) -> tuple:
    """Run one job; returns (wall seconds, Outcome).  Never raises for a
    failure of the program: that is a counted result."""
    if tracer is not None:
        tracer.open_job(job_id)
    t0 = time.perf_counter()
    try:
        result, exc = job.call(), None
    except Exception as err:  # noqa: BLE001 - every program failure is counted
        result, exc = None, err
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close_job()
    try:
        return elapsed, job.check(result, exc)
    finally:
        # the traceback holds this frame, which holds exc: a reference cycle
        # that would keep the failed job's arrays alive until the next
        # garbage collection and so inflate peak_rss_mb
        exc = None


# ---------------------------------------------------------------------------
# job constructors


def _planted(seed: int, index: int, n: int, rho: float):
    spec = harness.GeneratorSpec(n=n, rho_target=rho, seed=1000 * seed + index)
    record = harness.generate_problem(spec)
    return record.problem, record.known_solution


def solve_job(solver: str, prob, x_plus, max_iter: int, label: str) -> Job:
    config = solvers.SolverConfig(tol=TOL, max_iter=max_iter)

    def call():
        return getattr(solvers, solver)(prob, config)

    def check(report, exc):
        return raised(exc, x_plus) if exc is not None else check_report(report, x_plus)

    return Job(label, call, check)


@dataclass
class CriticalTrial:
    """What one critical-case pipeline produced before it stopped."""

    verdict: Any = None
    report: Any = None
    targets: Any = None
    spectrum: Any = None
    #: Class name of what the pipeline raised.  Not the exception itself:
    #: its traceback holds the frame that holds this trial.
    error: str | None = None


def critical_job(prob, x_plus, label: str) -> Job:
    """solvability_check -> solve_sda -> build_pencil -> detect_unimodular ->
    build_shift_factors -> shift_multi -> generalized_eigenvalues."""
    config = solvers.SolverConfig(tol=TOL, max_iter=200)

    def call():
        trial = CriticalTrial()
        try:
            trial.verdict = problem.solvability_check(prob).verdict
            trial.report = solvers.solve_sda(prob, config)
            pencil = problem.build_pencil(prob)
            found = shifting.detect_unimodular(pencil)
            spec = shifting.build_shift_factors(
                found.eigenvectors, found.eigenvalues, SHIFT_FACTOR * found.eigenvalues)
            shifted = shifting.shift_multi(pencil, spec)
            trial.targets = spec.lam_hat
            trial.spectrum = shifting.generalized_eigenvalues(shifted)
        except Exception as err:  # noqa: BLE001 - every program failure is counted
            trial.error = type(err).__name__
        return trial

    def check(trial, exc):
        if exc is not None:
            return raised(exc, x_plus)
        return check_critical(trial, x_plus)

    return Job(label, call, check)


def check_critical(trial: CriticalTrial, x_plus) -> Outcome:
    reasons = []
    iterations, err = 0, math.nan
    if trial.verdict is not None and trial.verdict is not problem.Verdict.SOLVABLE:
        reasons.append("verdict-not-solvable")
    if trial.report is not None:
        solved = check_report(trial.report, x_plus)
        iterations, err = solved.iterations, solved.fwd_err
        reasons.extend(solved.reasons)
    if trial.error is not None:
        reasons.append(f"raised:{trial.error}")
    elif any(not np.min(np.abs(trial.spectrum - t)) <= TARGET_TOL for t in trial.targets):
        reasons.append("target-missing")
    return Outcome(iterations, err, tuple(reasons))


def scalar_job(a: float, label: str) -> Job:
    """solve_scalar_shifted on the critical scalar equation x + a^2/x = 2|a|."""
    def call():
        return shifting.solve_scalar_shifted(a, 2.0 * abs(a))

    def check(result, exc):
        if exc is not None:
            return raised(exc)
        iterations = sum(step.iterations for step in result.per_r)
        x = result.x_plus
        if not math.isfinite(x):
            return Outcome(iterations, math.nan, ("non-finite",))
        err = abs(x - abs(a)) / abs(a)
        return Outcome(iterations, err, ("inaccurate",) if err > FWD_ERR_LIMIT else ())

    return Job(label, call, check)


# ---------------------------------------------------------------------------
# workloads


def _solver_grid(seed: int, cells, max_iter: int) -> list:
    return [
        solve_job(solver, *_planted(seed, i, n, rho), max_iter,
                  f"{solver} n={n} rho={rho}")
        for i, (solver, n, rho) in enumerate(cells)
    ]


def build_newton_stein(seed: int) -> list:
    cells = [("solve_newton", n, rho) for n in (16, 24, 32) for rho in (0.5, 0.9, 0.999)]
    return _solver_grid(seed, cells, max_iter=200)


def build_sda_dense(seed: int) -> list:
    cells = [("solve_sda", n, rho) for n in (128, 256) for rho in (0.5, 0.9, 0.999)]
    return _solver_grid(seed, cells, max_iter=200)


#: Problems per size: a run's timings then rest on more than one draw of
#: each size, so they depend less on the seed.
CRITICAL_PER_SIZE = 2

#: Two scalar jobs keep the median job on a matrix pipeline.
SCALAR_JOBS = 2


def build_critical_shift(seed: int) -> list:
    cells = [(n, k) for k in range(CRITICAL_PER_SIZE) for n in (8, 32, 64)]
    out = [critical_job(*_planted(seed, i, n, 1.0), f"critical n={n} #{k + 1}")
           for i, (n, k) in enumerate(cells)]
    rng = np.random.default_rng(1000 * seed + len(out))
    for _ in range(SCALAR_JOBS):
        a = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 2.0))
        out.append(scalar_job(a, f"scalar a={a:.6g}"))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("newton-stein", 1.45, build_newton_stein),
        Workload("sda-dense", 1.05, build_sda_dense),
        Workload("critical-shift", 0.9, build_critical_shift),
    )
}
