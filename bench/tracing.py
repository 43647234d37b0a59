"""Span tracing for the traced benchmark run, from outside the program.

Each traced function is replaced, for the duration of a traced pass, at the
name its caller looks up (``nmesolve.solvers.solve_stein``,
``nmesolve.problem.cho_solve``, ``numpy.linalg.solve``, ...).  The wrapper
records a span [name, start_ns, end_ns, parent, job, extra] in memory; spans
of one job share its id and hang below the job's root span.  ``restore``
puts every original back, and ``unrestored`` checks that by identity.
"""

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, JOB, EXTRA = range(6)

JOB_SPAN = "job"


def solver_extra(args, result, exc):
    """(iterations, history bytes) of a SolveReport, or None without one."""
    report = result if exc is None else getattr(exc, "report", None)
    if report is None:
        return None
    arrays = list(report.iterates)
    for seq in report.aux_iterates.values():
        arrays.extend(seq)
    return report.iterations, sum(np.asarray(a).nbytes for a in arrays)


def _shape(a):
    return np.shape(a) or (1,)


def _rhs_columns(b) -> int:
    shape = np.shape(b)
    return shape[1] if len(shape) > 1 else 1


def _complex_factor(*arrays) -> int:
    return 4 if any(np.iscomplexobj(a) for a in arrays) else 1


def solve_flops(args, result, exc):
    """LU factor plus two triangular solves: 2/3 n^3 + 2 n^2 k."""
    a, b = args[0], args[1]
    n = _shape(a)[0]
    return _complex_factor(a, b) * (2.0 * n ** 3 / 3.0 + 2.0 * n * n * _rhs_columns(b))


def factor_flops(args, result, exc):
    """LU factorization: 2/3 n^3."""
    a = args[0]
    n = _shape(a)[0]
    return _complex_factor(a) * 2.0 * n ** 3 / 3.0


def triangular_flops(args, result, exc):
    """Two triangular solves with a given factor: 2 n^2 k."""
    factor, b = args[0][0], args[1]
    n = _shape(factor)[0]
    return _complex_factor(factor, b) * 2.0 * n * n * _rhs_columns(b)


def found_count(args, result, exc):
    return None if result is None else len(result.eigenvalues)


def succeeded(args, result, exc):
    return exc is None


#: (module, attribute, metric group, extra) for every wrapped name.  The
#: attribute is the one the caller looks up at call time.
TARGETS = (
    ("nmesolve.harness", "generate_problem", "harness.generate_problem", None),
    ("nmesolve.solvers", "solve_newton", "solvers.newton", solver_extra),
    ("nmesolve.solvers", "solve_sda", "solvers.sda", solver_extra),
    ("nmesolve.shifting", "solve_sda_scalar", "solvers.sda_scalar", solver_extra),
    ("nmesolve.solvers", "solve_stein", "solvers.solve_stein", None),
    ("nmesolve.solvers", "estimate_rate", "solvers.estimate_rate", None),
    ("nmesolve.problem", "solvability_check", "problem.solvability_check", None),
    ("nmesolve.problem", "build_pencil", "problem.build_pencil", None),
    ("nmesolve.shifting", "detect_unimodular", "shifting.detect_unimodular", found_count),
    ("nmesolve.shifting", "build_shift_factors", "shifting.build_shift_factors", None),
    ("nmesolve.shifting", "shift_multi", "shifting.shift_multi", succeeded),
    ("nmesolve.shifting", "generalized_eigenvalues", "shifting.generalized_eigenvalues", None),
    ("nmesolve.shifting", "solve_scalar_shifted", "shifting.solve_scalar_shifted", None),
    ("numpy.linalg", "solve", "lapack.solve", solve_flops),
    ("scipy.linalg", "lu_factor", "lapack.solve", factor_flops),
    ("scipy.linalg", "lu_solve", "lapack.solve", triangular_flops),
    ("scipy.linalg", "cho_solve", "lapack.solve", triangular_flops),
    ("nmesolve.problem", "cho_solve", "lapack.solve", triangular_flops),
    ("numpy.linalg", "cholesky", "lapack.cholesky", None),
    ("numpy.linalg", "eigvals", "lapack.eig", None),
    ("numpy.linalg", "eigvalsh", "lapack.eig", None),
    ("scipy.linalg", "eigvals", "lapack.eig", None),
    ("numpy.linalg", "svd", "lapack.eig", None),
)

SOLVER_ALGS = ("newton", "sda", "sda_scalar")
CALL_GROUPS = (
    "solvers.solve_stein", "solvers.estimate_rate",
    "problem.solvability_check", "problem.build_pencil",
    "shifting.detect_unimodular", "shifting.build_shift_factors", "shifting.shift_multi",
    "shifting.generalized_eigenvalues", "shifting.solve_scalar_shifted",
    "lapack.solve", "lapack.cholesky", "lapack.eig",
)


def _catalogue():
    units = {"harness.generate_problem.calls": "count/setup",
             "harness.generate_problem.s": "s/setup"}
    for alg in SOLVER_ALGS:
        units.update({f"solvers.{alg}.calls": "count/job", f"solvers.{alg}.s": "s/job",
                      f"solvers.{alg}.self_s": "s/job", f"solvers.{alg}.iters": "count/job",
                      f"solvers.{alg}.us_per_iter": "us"})
    for group in CALL_GROUPS:
        units.update({f"{group}.calls": "count/job", f"{group}.s": "s/job"})
    units.update({
        "solvers.solve_stein.share_of_newton": "ratio",
        "solvers.history_bytes": "B",
        "solvers.history_bytes_max": "B",
        "shifting.detect_unimodular.found": "count/call",
        "shifting.shift_multi.ok_ratio": "ratio",
        "lapack.solve.flops": "flop/job",
        "trace.overhead_frac": "ratio",
    })
    return units


#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = _catalogue()


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names = [JOB_SPAN]
        self.groups = {JOB_SPAN: JOB_SPAN}
        self.spans = []
        self._stack = []
        self._job = None
        self._targets = []
        for module, attr, group, extra in TARGETS:
            owner = importlib.import_module(module)
            name = f"{module}.{attr}"
            self.names.append(name)
            self.groups[name] = group
            original = getattr(owner, attr)
            wrapper = self._wrap(len(self.names) - 1, original, extra)
            self._targets.append((owner, attr, name, original, wrapper))

    def _open(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter_ns(), 0, parent, self._job, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, end_ns: int, extra) -> None:
        span = self.spans[index]
        span[END] = end_ns
        span[EXTRA] = extra
        self._stack.pop()

    def _wrap(self, name_id, original, extra):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end_ns = time.perf_counter_ns()
                tracer._close(index, end_ns, extra(args, result, exc) if extra else None)
                exc = None  # break the cycle through the traceback, as in jobs.execute

        return traced

    def install(self) -> None:
        for owner, attr, _, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, _, original, _ in self._targets:
            setattr(owner, attr, original)

    def unrestored(self) -> list:
        """Names whose current binding is not the original function object."""
        return [name for owner, attr, name, original, _ in self._targets
                if getattr(owner, attr) is not original]

    def open_job(self, job_id) -> None:
        self._job = job_id
        self._open(0)

    def close_job(self) -> None:
        self._close(self._stack[-1], time.perf_counter_ns(), None)
        self._job = None

    def dump(self, path, header: dict) -> None:
        """Write the spans as gzip'd CSV after one JSON header line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "columns": ["name", "start_ns", "end_ns", "parent", "job"]}))
            fh.write("\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},"
                         f"{-1 if s[JOB] is None else s[JOB]}\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, run_lo, run_hi = 0, None, None
        for c in sorted(children.get(index, ()), key=lambda i: spans[i][START]):
            c_lo, c_hi = max(spans[c][START], lo), min(spans[c][END], hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def job_self_time_mismatches(spans, self_ns, names) -> list:
    """Jobs whose spans' self times do not sum to the job span's duration."""
    totals = defaultdict(int)
    roots = {}
    for span, own in zip(spans, self_ns):
        if span[JOB] is None:
            continue
        totals[span[JOB]] += own
        if names[span[NAME]] == JOB_SPAN:
            roots[span[JOB]] = span[END] - span[START]
    return [job for job, total in totals.items() if total != roots.get(job)]


def per_layer_metrics(spans, own, names, groups, jobs_traced: int,
                      overhead_frac: float) -> dict:
    """Per-layer metrics of a traced run as {name: value}; see PER_LAYER_UNITS.

    Counts, seconds and flops are per traced job, so they do not depend on
    how many passes a run makes; the harness ones cover the run's one traced
    set-up.  ``own`` holds the spans' self times from :func:`self_times`.
    """
    calls = defaultdict(int)
    dur = defaultdict(int)
    self_ns = defaultdict(int)
    iters = defaultdict(int)
    flops = 0.0
    history = []
    found = []
    shifts_ok = 0
    for span, span_self in zip(spans, own):
        group = groups[names[span[NAME]]]
        if group == JOB_SPAN:
            continue
        if group.startswith("harness.") != (span[JOB] is None):
            continue
        calls[group] += 1
        dur[group] += span[END] - span[START]
        self_ns[group] += span_self
        extra = span[EXTRA]
        if extra is None:
            continue
        if group.startswith("solvers.") and group[len("solvers."):] in SOLVER_ALGS:
            iters[group] += extra[0]
            history.append(extra[1])
        elif group == "lapack.solve":
            flops += extra
        elif group == "shifting.detect_unimodular":
            found.append(extra)
        elif group == "shifting.shift_multi":
            shifts_ok += bool(extra)

    per_job = 1.0 / max(jobs_traced, 1)
    out = {
        "harness.generate_problem.calls": float(calls["harness.generate_problem"]),
        "harness.generate_problem.s": dur["harness.generate_problem"] * 1e-9,
    }
    for alg in SOLVER_ALGS:
        g = f"solvers.{alg}"
        out[f"{g}.calls"] = calls[g] * per_job
        out[f"{g}.s"] = dur[g] * 1e-9 * per_job
        out[f"{g}.self_s"] = self_ns[g] * 1e-9 * per_job
        out[f"{g}.iters"] = iters[g] * per_job
        out[f"{g}.us_per_iter"] = dur[g] * 1e-3 / iters[g] if iters[g] else 0.0
    for g in CALL_GROUPS:
        out[f"{g}.calls"] = calls[g] * per_job
        out[f"{g}.s"] = dur[g] * 1e-9 * per_job
    newton = dur["solvers.newton"]
    out["solvers.solve_stein.share_of_newton"] = (
        dur["solvers.solve_stein"] / newton if newton else 0.0)
    out["solvers.history_bytes"] = sum(history) / len(history) if history else 0.0
    out["solvers.history_bytes_max"] = float(max(history, default=0))
    out["shifting.detect_unimodular.found"] = sum(found) / len(found) if found else 0.0
    attempts = calls["shifting.shift_multi"]
    out["shifting.shift_multi.ok_ratio"] = shifts_ok / attempts if attempts else 0.0
    out["lapack.solve.flops"] = flops * per_job
    out["trace.overhead_frac"] = overhead_frac
    return out
