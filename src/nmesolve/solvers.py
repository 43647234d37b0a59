"""Iterative solvers for the maximal SPD solution of X + A^T X^{-1} A = Q.

Four algorithms share one reporting contract:

``solve_fixed_point``
    X_{k+1} = Q - A^T X_k^{-1} A from X_0 = Q.  Linear convergence; the
    asymptotic ratio is rho(X+^{-1}A)^2, so the iteration stalls as the
    spectral ratio approaches one.

``solve_inversion_free``
    Couples the fixed-point map with a Schulz update for the inverse:
    Y_{k+1} = Y_k (2I - X_k Y_k),  X_{k+1} = Q - A^T Y_k A  (note that the
    X-update uses Y_k, not Y_{k+1}), from X_0 = Q, Y_0 = I / ||Q||_inf.
    The X-sequence descends and the Y-sequence ascends toward X+^{-1}.

``solve_newton``
    Linearizes R(X) = Q - X - A^T X^{-1} A; each step solves the Stein
    equation X_k - L_k^T X_k L_k = Q - 2 L_k^T A with L_k = X_{k-1}^{-1} A.
    Quadratic when rho(X+^{-1}A) < 1, linear with rate 1/2 in the critical
    case.  Iterates descend monotonically from X_0 = Q.

``solve_sda``
    Structure-preserving doubling: each step squares the effective spectral
    ratio, giving quadratic convergence for rho < 1 and linear rate 1/2 at
    rho = 1.  ``solve_sda_scalar`` is the 1-by-1 specialization used by the
    shifted scalar pipeline.

Each solver supplies only its update; one loop (``_Run.drive``) runs them
all, so the stopping rule is shared, for fair benchmarking: relative residual
||Q - X_k - A^T X_k^{-1} A||_F / ||Q||_F <= tol, and for doubling also
||A_k||_F <= tol * ||A||_F.  Non-convergent runs, and runs whose X is not
finite, raise a :class:`~nmesolve.exceptions.SolverFailure` subclass carrying
the partial report.
"""

import logging
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from . import serialize
from .exceptions import (
    Diverged,
    DoublingBreakdown,
    InsufficientHistory,
    LostPositiveDefiniteness,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    SingularSteinOperator,
)
from .problem import NmeProblem, residual_from, spectral_radius, symmetric_part

__all__ = [
    "Algorithm",
    "SolverConfig",
    "HistoryRecord",
    "RateEstimate",
    "SolveReport",
    "SteinProblem",
    "solve_fixed_point",
    "solve_inversion_free",
    "solve_stein",
    "solve_newton",
    "solve_sda",
    "solve_sda_scalar",
    "solve",
    "estimate_rate",
    "write_history_csv",
]

logger = logging.getLogger(__name__)

#: Residual growth (relative to the running minimum) treated as divergence.
DIVERGENCE_FACTOR = 1e6

#: Mean step ratio at or above which a history is classified as stalled.
STALL_RATIO = 0.999


class Algorithm(Enum):
    FIXED_POINT = "fixed-point"
    INVERSION_FREE = "inversion-free"
    NEWTON = "newton"
    SDA = "sda"


@dataclass
class SolverConfig:
    """Shared solver options."""

    tol: float = 1e-12
    max_iter: int = 200
    record_history: bool = True
    #: Iterations to run before the stopping rule applies; lets closed-form
    #: tests observe a prescribed number of steps even when the residual
    #: reaches exact floating-point zero earlier.
    min_iter: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.min_iter < 0:
            raise ValueError("min_iter must be nonnegative")


@dataclass(frozen=True)
class HistoryRecord:
    """One iteration: aux1/aux2 are algorithm specific (SDA: ||A_k||_F and
    min-eig(Q_k - P_k); Newton: rho(L_k) and 0; others: 0 and 0)."""

    k: int
    rel_residual: float
    step_norm: float
    aux1: float = 0.0
    aux2: float = 0.0


@dataclass(frozen=True)
class RateEstimate:
    kind: str  # "linear" | "quadratic" | "stalled"
    rate: float | None = None


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``history`` has one record per completed iteration.  When history is
    recorded, ``iterates`` holds the full X-sequence including the starting
    value, and ``aux_iterates`` holds algorithm-specific companion sequences
    ("Y" for the inversion-free solver, "A" and "P" for doubling).
    ``estimated_rate`` is fit to the step-size sequence ||X_k - X_{k-1}||_F,
    whose decay tracks the error decay for both linear and quadratic runs.
    """

    X: np.ndarray
    iterations: int
    converged: bool
    history: list = field(default_factory=list)
    estimated_rate: RateEstimate | None = None
    rho_ratio: float = math.nan
    failure: str | None = None
    iterates: list = field(default_factory=list)
    aux_iterates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SteinProblem:
    """Data of the linear equation X - L^T X L = C with symmetric C."""

    L: np.ndarray
    C: np.ndarray


class _Run:
    """One solve: the iteration loop with its stopping rule, history and
    iterate capture, the divergence watch and the failure reports."""

    def __init__(self, A: np.ndarray, Q: np.ndarray, config: SolverConfig | None, name: str):
        self.A = A
        self.Q = Q
        self.q_fro = float(np.linalg.norm(Q))
        self.config = config or SolverConfig()
        self.name = name
        self.history: list[HistoryRecord] = []
        self.iterates: list[np.ndarray] = []
        self.aux_iterates: dict[str, list[np.ndarray]] = {}
        self.best_res = math.inf
        self.k = 0
        self.X = None

    def drive(self, steps, nonfinite_fatal: bool = True) -> SolveReport:
        """Run the update generator ``steps``: it yields (X_0, res_0 or None
        when X_0 is not tested, aux_0, stop_0), then one (X_k, res_k, step_k,
        aux1, aux2, aux_k, stop_k) per iteration, with ``aux`` the companion
        iterates by name (or None) and ``stop`` the solver's own stopping test
        besides res <= tol."""
        cfg = self.config
        self.X, res, aux, stop = next(steps)
        self.capture(aux)
        if res is not None:
            if cfg.min_iter == 0 and (res <= cfg.tol or stop):
                return self.converged()
            self.best_res = min(self.best_res, res)
        for self.k in range(1, cfg.max_iter + 1):
            self.X, res, step, aux1, aux2, aux, stop = next(steps)
            logger.debug("%s k=%d rel_residual=%.3e step=%.3e", self.name, self.k, res, step)
            if cfg.record_history:
                self.history.append(
                    HistoryRecord(self.k, float(res), float(step), float(aux1), float(aux2)))
            self.capture(aux)
            self.best_res = min(self.best_res, res)
            if self.k >= cfg.min_iter and (res <= cfg.tol or stop):
                return self.converged()
            if (nonfinite_fatal and not math.isfinite(res)) or (
                    math.isfinite(res) and 0 < self.best_res < math.inf
                    and res > DIVERGENCE_FACTOR * self.best_res):
                raise self.failure(
                    Diverged,
                    f"residual {res:.3e} grew beyond {DIVERGENCE_FACTOR:g} x "
                    f"minimum {self.best_res:.3e} at iteration {self.k}")
        raise MaxIterationsExceeded(
            f"{self.name}: no convergence within {cfg.max_iter} iterations "
            f"(best relative residual {self.best_res:.3e})",
            report=self.report(cfg.max_iter, False),
            iteration=cfg.max_iter,
        )

    def capture(self, aux: dict | None) -> None:
        if self.config.record_history:
            self.iterates.append(np.array(self.X, dtype=float))
            for key, val in (aux or {}).items():
                self.aux_iterates.setdefault(key, []).append(np.array(val, dtype=float))

    def converged(self) -> SolveReport:
        if not np.all(np.isfinite(self.X)):
            raise self.failure(Diverged, f"iterate {self.k} met the stopping test but is not finite")
        logger.info("%s converged in %d iterations", self.name, self.k)
        return self.report(self.k, True)

    def lu_residual(self, X: np.ndarray) -> float:
        """Relative residual with W by LU; inf when X is singular or it overflows."""
        try:
            W = np.linalg.solve(X, self.A)
        except np.linalg.LinAlgError:
            return math.inf
        res = residual_from(self.A, self.Q, X, W, self.q_fro).rel_norm
        return res if math.isfinite(res) else math.inf

    def solve_spd(self, X: np.ndarray) -> np.ndarray:
        """W = X^{-1} A by Cholesky; X_k must stay positive definite."""
        try:
            chol = np.linalg.cholesky(X)
        except np.linalg.LinAlgError:
            raise self.failure(LostPositiveDefiniteness,
                               f"iterate {self.k} is not positive definite")
        return scipy.linalg.cho_solve((chol, True), self.A)

    def report(self, iterations: int, converged: bool) -> SolveReport:
        X = np.array(self.X, dtype=float)
        try:
            rate = estimate_rate([h.step_norm for h in self.history])
        except InsufficientHistory:
            rate = None
        try:
            rho = spectral_radius(np.linalg.solve(X, self.A))
        except np.linalg.LinAlgError:  # X singular or not finite
            rho = math.nan
        return SolveReport(
            X=X,
            iterations=iterations,
            converged=converged,
            history=list(self.history),
            estimated_rate=rate,
            rho_ratio=rho,
            iterates=list(self.iterates),
            aux_iterates={k: list(v) for k, v in self.aux_iterates.items()},
        )

    def failure(self, exc_cls, detail: str):
        """The exception for iteration k, with the report of the last accepted X."""
        return exc_cls(f"{self.name}: {detail}",
                       report=self.report(len(self.history), False), iteration=self.k)


def solve_fixed_point(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Basic fixed-point iteration X_{k+1} = Q - A^T X_k^{-1} A from X_0 = Q.

    The iterate sequence descends monotonically in the semidefinite order on
    solvable problems.  Raises :class:`LostPositiveDefiniteness` when an
    iterate stops being SPD and :class:`MaxIterationsExceeded` when the
    budget runs out (both carry the partial report).
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "fixed-point")

    def steps():
        X = Q.copy()
        W = scipy.linalg.cho_solve((np.linalg.cholesky(X), True), A)
        yield X, None, None, False
        while True:
            Xn = symmetric_part(Q - A.T @ W)
            W = run.solve_spd(Xn)
            step = float(np.linalg.norm(Xn - X))
            X = Xn
            yield X, residual_from(A, Q, X, W, run.q_fro).rel_norm, step, 0.0, 0.0, None, False

    return run.drive(steps())


def solve_inversion_free(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Inversion-free fixed point with a Schulz inverse update.

    Y_{k+1} = Y_k (2I - X_k Y_k);  X_{k+1} = Q - A^T Y_k A, exactly in this
    form (the X-update consumes the previous Y).  X_0 = Q, Y_0 = I/||Q||_inf.
    On solvable problems X_0 >= X_1 >= ... and Y_0 <= Y_1 <= ... .
    """
    A, Q = problem.A, problem.Q
    n = problem.n
    run = _Run(A, Q, config, "inversion-free")

    def steps():
        X = Q.copy()
        Y = np.eye(n) / float(np.linalg.norm(Q, np.inf))
        yield X, None, {"Y": Y}, False
        two_eye = 2.0 * np.eye(n)
        while True:
            Yn = symmetric_part(Y @ (two_eye - X @ Y))
            Xn = symmetric_part(Q - A.T @ Y @ A)
            step = float(np.linalg.norm(Xn - X))
            X, Y = Xn, Yn
            yield X, run.lu_residual(X), step, 0.0, 0.0, {"Y": Y}, False

    return run.drive(steps())


def solve_stein(stein: SteinProblem) -> np.ndarray:
    """Solve X - L^T X L = C for symmetric X by dense vectorization.

    The n^2-by-n^2 system (I - L^T (x) L^T) vec(X) = vec(C) is factorized
    directly; adequate for the dense desk-scale problems this package
    targets.  Raises :class:`SingularSteinOperator` when the operator is
    rank deficient beyond 1e-10 (some pair of eigenvalues of L has product
    one).
    """
    L = np.asarray(stein.L, dtype=float)
    C = symmetric_part(np.asarray(stein.C, dtype=float))
    n = L.shape[0]
    K = np.eye(n * n) - np.kron(L.T, L.T)
    with warnings.catch_warnings():
        # scipy warns on exactly singular factors; the diagonal test decides
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(K, check_finite=False)
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-10 * max(diag.max(), 1e-300):
        raise SingularSteinOperator(
            "Stein operator is rank deficient (an eigenvalue pair of L has product one)")
    x = scipy.linalg.lu_solve((lu, piv), C.ravel(), check_finite=False)
    return symmetric_part(x.reshape(n, n))


def solve_newton(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Newton's method with a Stein-equation inner solve, from X_0 = Q.

    Each record stores rho(L_k) in aux1; these stay below one while the
    iteration is healthy.  The iterates descend monotonically from Q toward
    the maximal solution.
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "newton")

    def steps():
        X = Q.copy()
        W = scipy.linalg.cho_solve((np.linalg.cholesky(X), True), A)
        yield X, None, None, False
        while True:
            # L_k = X_{k-1}^{-1} A is the W of the previous iterate
            rho_L = spectral_radius(W)
            C = symmetric_part(Q - 2.0 * W.T @ A)
            try:
                Xn = solve_stein(SteinProblem(L=W, C=C))
            except SingularSteinOperator as exc:
                raise run.failure(SingularSteinOperator,
                                  f"Stein operator singular at iteration {run.k}") from exc
            W = run.solve_spd(Xn)
            step = float(np.linalg.norm(Xn - X))
            X = Xn
            yield X, residual_from(A, Q, X, W, run.q_fro).rel_norm, step, rho_L, 0.0, None, False

    return run.drive(steps())


def solve_sda(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Structure-preserving doubling from A_0 = A, Q_0 = Q, P_0 = 0.

        A_{k+1} = A_k (Q_k - P_k)^{-1} A_k
        Q_{k+1} = Q_k - A_k^T (Q_k - P_k)^{-1} A_k
        P_{k+1} = P_k + A_k (Q_k - P_k)^{-1} A_k^T

    The solution is the limit of Q_k.  Each history record stores ||A_k||_F
    (aux1) and the minimum eigenvalue of Q_k - P_k (aux2); the latter stays
    positive whenever a solution exists.  Raises :class:`DoublingBreakdown`
    when Q_k - P_k stops being SPD.
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "sda")

    def steps():
        Ak, Qk, Pk = A.copy(), Q.copy(), np.zeros_like(Q)
        a_scale = float(np.linalg.norm(A))
        yield Qk, run.lu_residual(Qk), {"A": Ak, "P": Pk}, a_scale == 0.0
        while True:
            D = symmetric_part(Qk - Pk)
            try:
                np.linalg.cholesky(D)
            except np.linalg.LinAlgError:
                raise run.failure(DoublingBreakdown,
                                  f"Q_k - P_k lost positive definiteness at iteration {run.k}")
            # LU for the arithmetic: a Cholesky solve routes through sqrt(D),
            # whose rounding gets amplified by 2^k as Q_k - P_k collapses in the
            # critical case (and would break agreement with the scalar recursion)
            WA = np.linalg.solve(D, Ak)
            WAT = np.linalg.solve(D, Ak.T)
            An = Ak @ WA
            Qn = symmetric_part(Qk - Ak.T @ WA)
            Pn = symmetric_part(Pk + Ak @ WAT)
            step = float(np.linalg.norm(Qn - Qk))
            Ak, Qk, Pk = An, Qn, Pn
            res = run.lu_residual(Qk)
            gap_min = float(np.linalg.eigvalsh(symmetric_part(Qk - Pk)).min())
            a_norm = float(np.linalg.norm(Ak))
            yield (Qk, res, step, a_norm, gap_min, {"A": Ak, "P": Pk},
                   a_norm <= run.config.tol * a_scale)

    return run.drive(steps(), nonfinite_fatal=False)


def solve_sda_scalar(a: float, q: float, config: SolverConfig | None = None) -> SolveReport:
    """Scalar doubling for x + a^2/x = q (q > 0).

        a_{k+1} = a_k^2 / (q_k - p_k);  q_{k+1} = q_k - a_{k+1};
        p_{k+1} = p_k + a_{k+1}

    Agrees with :func:`solve_sda` on 1-by-1 inputs to roundoff.  The report
    stores the scalar sequences as 1-by-1 arrays in ``iterates`` (q_k) and
    ``aux_iterates`` ("A" for a_k, "P" for p_k).
    """
    a = float(a)
    q = float(q)
    if q <= 0:
        raise NotPositiveDefinite("q", f"q = {q!r}")
    run = _Run(np.array([[a]]), np.array([[q]]), config, "sda-scalar")

    def steps():
        ak, qk, pk = a, q, 0.0
        a_scale = abs(a)
        yield [[qk]], abs(q - qk - a * a / qk) / q, {"A": [[ak]], "P": [[pk]]}, a_scale == 0.0
        while True:
            d = qk - pk
            if d <= 0.0:
                raise run.failure(DoublingBreakdown, f"q_k - p_k = {d!r} at iteration {run.k}")
            an = ak * ak / d
            qn = qk - an
            step = abs(qn - qk)
            ak, qk, pk = an, qn, pk + an
            res = abs(q - qk - a * a / qk) / q if qk > 0 else math.inf
            yield ([[qk]], res, step, abs(ak), qk - pk, {"A": [[ak]], "P": [[pk]]},
                   abs(ak) <= run.config.tol * a_scale)

    return run.drive(steps(), nonfinite_fatal=False)


_DISPATCH = {
    Algorithm.FIXED_POINT: solve_fixed_point,
    Algorithm.INVERSION_FREE: solve_inversion_free,
    Algorithm.NEWTON: solve_newton,
    Algorithm.SDA: solve_sda,
}


def solve(problem: NmeProblem, algorithm: Algorithm,
          config: SolverConfig | None = None) -> SolveReport:
    """Run the solver of ``algorithm``."""
    return _DISPATCH[algorithm](problem, config)


def _fit_sse(x: np.ndarray, y: np.ndarray) -> float:
    basis = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    r = y - basis @ coef
    val = float(r @ r)
    return val if math.isfinite(val) else math.inf


def estimate_rate(history) -> RateEstimate:
    """Classify a positive, decreasing sequence as linear/quadratic/stalled.

    Fits the log of the tail half against k (linear model) and against 2^k
    (quadratic model) and reports the better fit; the linear rate is the
    geometric mean of successive ratios over the tail.  Entries at or below
    zero truncate the sequence (exact convergence carries no further
    information).  Raises :class:`InsufficientHistory` for fewer than 4
    usable entries.
    """
    vals = np.asarray([float(v) for v in history], dtype=float)
    bad = np.nonzero(~(vals > 0))[0]
    if bad.size:
        vals = vals[: bad[0]]
    if vals.size < 4:
        raise InsufficientHistory(f"need >= 4 positive samples, have {vals.size}")
    start = min(vals.size // 2, vals.size - 3)
    kk = np.arange(start, vals.size, dtype=float)
    logs = np.log(vals[start:])
    gmean = math.exp((logs[-1] - logs[0]) / (logs.size - 1))
    if gmean >= STALL_RATIO:
        return RateEstimate("stalled", None)
    sse_lin = _fit_sse(kk, logs)
    doubling = np.power(2.0, np.minimum(kk - kk[0], 1020.0))
    sse_quad = _fit_sse(doubling, logs)
    if sse_quad < sse_lin:
        return RateEstimate("quadratic", None)
    return RateEstimate("linear", gmean)


def write_history_csv(report: SolveReport, path) -> None:
    """Write the convergence history as CSV: k,rel_residual,step_norm,aux1,aux2."""
    rows = [(h.k, h.rel_residual, h.step_norm, h.aux1, h.aux2) for h in report.history]
    with open(path, "w", newline="\n") as fh:
        serialize.write_csv(fh, ["k", "rel_residual", "step_norm", "aux1", "aux2"], rows)
