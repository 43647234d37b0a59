"""Command-line front end.

Subcommands: ``solve`` (problem JSON in, report JSON and optional history CSV
out), ``generate`` (seeded problem factory), ``bench`` (solver grid over
spectral ratios, summary CSV), ``verify-shift`` (pencil + shift spec JSON in,
before/after spectra CSV out), ``scalar-critical`` (plain vs shift-accelerated
doubling on a critical scalar equation).

Exit codes: 0 success, 1 numerical failure, 2 bad input or I/O.  Diagnostics
go to stderr.  The environment variable NME_LOG={error|info|debug} controls
log verbosity.
"""

import argparse
import logging
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import serialize
from .exceptions import (
    DimensionMismatch,
    MaxIterationsExceeded,
    NmeError,
    NonFiniteInput,
    NotCriticalCase,
    NotPositiveDefinite,
    NotSymmetric,
    ProblemFileError,
    SolverFailure,
    ZeroLambda,
)
from .harness import ExperimentRecord, GeneratorSpec, generate_problem, run_experiment
from .problem import load_problem, problem_payload, residual
from .shifting import (
    generalized_eigenvalues,
    load_pencil,
    load_shift_spec,
    shift_multi,
    solve_scalar_shifted,
    write_spectra_csv,
)
from .solvers import (
    Algorithm,
    SolverConfig,
    solve_sda_scalar,
    write_history_csv,
)

logger = logging.getLogger(__name__)

_INPUT_ERRORS = (ProblemFileError, OSError, ValueError, DimensionMismatch, NonFiniteInput,
                 NotSymmetric, NotPositiveDefinite, ZeroLambda)

#: Error threshold reported by scalar-critical for the plain doubling run.
SCALAR_ERROR_TARGET = 1e-12


@contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as fh:
            yield fh


def _num(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _algorithm(name: str) -> Algorithm:
    try:
        return Algorithm(name)
    except ValueError:
        raise ValueError(f"unknown algorithm {name!r}; choose from "
                         + ", ".join(a.value for a in Algorithm)) from None


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _final_residual(problem, X):
    """Relative residual of X, or None when X is not an SPD candidate."""
    try:
        return _num(residual(problem, X).rel_norm)
    except NmeError:
        return None


def _report_payload(report, algorithm, problem):
    rate = report.estimated_rate
    return {
        "algorithm": algorithm.value,
        "n": problem.n,
        "converged": report.converged,
        "iterations": report.iterations,
        "rel_residual": _final_residual(problem, report.X),
        "rho_ratio": _num(report.rho_ratio),
        "rate_kind": rate.kind if rate else None,
        "rate": _num(rate.rate) if rate else None,
        "failure": report.failure,
        "X": [float(v) for v in report.X.ravel()],
    }


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    algorithm = _algorithm(args.algorithm)
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, record_history=True)
    report = run_experiment(ExperimentRecord(problem), [algorithm], cfg).reports[algorithm]
    if report.failure:
        print(f"error: {report.failure}", file=sys.stderr)
    if args.history:
        write_history_csv(report, args.history)
    with _open_out(args.out) as fh:
        fh.write(serialize.dumps_json(_report_payload(report, algorithm, problem)))
    return 1 if report.failure else 0


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(n=args.n, rho_target=args.rho, seed=args.seed,
                         conditioning=args.conditioning)
    record = generate_problem(spec)
    with _open_out(args.out) as fh:
        fh.write(serialize.dumps_json(problem_payload(record.problem)))
    return 0


def _cmd_bench(args) -> int:
    algorithms = [_algorithm(name) for name in args.algorithms.split(",")] \
        if args.algorithms else list(Algorithm)
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, record_history=True)
    rows = []
    cells = [(n, rho) for n in sorted(args.n) for rho in sorted(args.rho)]
    for index, (n, rho) in enumerate(cells):
        record = generate_problem(GeneratorSpec(n=n, rho_target=rho,
                                                seed=args.seed + index))
        run_experiment(record, algorithms, cfg)
        for algorithm in algorithms:
            report = record.reports[algorithm]
            rate = report.estimated_rate
            rate_val = rate.rate if (rate and rate.kind == "linear") else None
            rows.append((algorithm.value, n, rho, report.iterations,
                         _final_residual(record.problem, report.X), _num(rate_val),
                         "true" if report.converged else "false"))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    with _open_out(args.out) as fh:
        serialize.write_csv(
            fh, ["algorithm", "n", "rho", "iterations", "final_residual", "estimated_rate",
                 "converged"], rows)
    return 0


def _cmd_verify_shift(args) -> int:
    pencil = load_pencil(args.pencil)
    spec = load_shift_spec(args.spec, pencil.dim)
    before = generalized_eigenvalues(pencil)
    shifted = shift_multi(pencil, spec)
    after = generalized_eigenvalues(shifted)
    with _open_out(args.out) as fh:
        write_spectra_csv(fh, before, after, spec)
    return 0


def _scalar_error_iteration(report, x_ref: float, target: float):
    """First k with |q_k - x_ref| <= target, scanning the recorded iterates."""
    for k, q_mat in enumerate(report.iterates):
        if abs(float(np.ravel(q_mat)[0]) - x_ref) <= target:
            return k
    return None


def _cmd_scalar_critical(args) -> int:
    a, q = args.a, args.q
    if not (math.isfinite(a) and math.isfinite(q)):
        raise NonFiniteInput(f"a = {a!r}, q = {q!r}")
    print(f"scalar-critical a={serialize.format_float(a)} q={serialize.format_float(q)}")
    # x+ = (q + sqrt(q^2 - 4a^2)) / 2, with a and q divided by s first so
    # that the squares neither overflow nor underflow
    s = max(abs(a), abs(q)) or 1.0
    disc = (q / s) ** 2 - 4.0 * (a / s) ** 2
    x_ref = s * (q / s + math.sqrt(disc)) / 2.0 if disc >= 0 else None

    # run plain doubling past convergence so the error history reaches the
    # reporting target even in the critical case (error 2^-k needs ~40 steps)
    plain_cfg = SolverConfig(tol=args.tol, max_iter=max(args.max_iter, 46), min_iter=45,
                             record_history=True)
    try:
        plain = solve_sda_scalar(a, q, plain_cfg)
    except MaxIterationsExceeded as exc:
        plain = exc.report
    except SolverFailure as exc:
        print(f"error: plain doubling failed: {exc}", file=sys.stderr)
        return 1
    plain_x = float(plain.X[0, 0])
    if x_ref is not None:
        target = SCALAR_ERROR_TARGET * abs(x_ref)
        hit = _scalar_error_iteration(plain, x_ref, target)
        hit_text = "not-reached" if hit is None else str(hit)
        print(f"plain-sda iterations-to-error-{SCALAR_ERROR_TARGET:g}={hit_text} "
              f"final-error={serialize.format_float(abs(plain_x - x_ref))} "
              f"stopped-at={plain.iterations} converged={int(plain.converged)}")
    else:
        print(f"plain-sda stopped-at={plain.iterations} converged={int(plain.converged)} "
              f"(no real solution: q^2 - 4a^2 < 0)")

    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    try:
        result = solve_scalar_shifted(a, q, cfg)
    except NotCriticalCase as exc:
        print(f"shifted not-applicable reason={exc}")
        return 0
    for step in result.per_r:
        print(f"shifted r={serialize.format_float(step.r)} "
              f"x-hat={serialize.format_float(step.x_hat)} iterations={step.iterations}")
    err = abs(result.x_plus - abs(a))
    print(f"shifted x-plus={serialize.format_float(result.x_plus)} "
          f"error={serialize.format_float(err)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nme",
        description="Solvers and eigenvalue-shifting tools for X + A^T X^-1 A = Q.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("--algorithm", default="sda",
                   choices=[a.value for a in Algorithm])
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--history", help="write per-iteration history CSV here")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("generate", help="generate a problem with a known solution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conditioning", type=float, default=10.0)
    p.add_argument("--out", help="problem JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("bench", help="iteration-count grid over spectral ratios")
    p.add_argument("--rho", type=_float_list, default=[0.5, 0.9, 0.99, 0.999],
                   help="comma-separated rho targets")
    p.add_argument("--n", type=_int_list, default=[2, 8, 32],
                   help="comma-separated dimensions")
    p.add_argument("--algorithms", help="comma-separated subset (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--out", help="summary CSV path (default: stdout)")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("verify-shift", help="apply a shift spec and emit spectra")
    p.add_argument("pencil", help="pencil JSON path")
    p.add_argument("spec", help="shift spec JSON path")
    p.add_argument("--out", help="spectra CSV path (default: stdout)")
    p.set_defaults(handler=_cmd_verify_shift)

    p = sub.add_parser("scalar-critical",
                       help="plain vs shift-accelerated doubling on x + a^2/x = q")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(handler=_cmd_scalar_critical)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("NME_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def cli_main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code not in (0,) else 0
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return cli_main(sys.argv[1:])
