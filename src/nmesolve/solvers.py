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
    ``solve_stein`` writes it as the generalized Sylvester pair
    L^T R - Z = 0, R - Z L = C (R = X, Z = L^T X); one real Schur form of
    L^T puts both coefficient pairs into LAPACK's generalized Schur form,
    and ``dtgsyl`` solves them in O(n^3) time and O(n^2) memory.  Quadratic
    when rho(X+^{-1}A) < 1, linear with rate 1/2 in the critical case.
    Iterates descend monotonically from X_0 = Q.

``solve_sda``
    Structure-preserving doubling: each step squares the effective spectral
    ratio, giving quadratic convergence for rho < 1 and linear rate 1/2 at
    rho = 1.  ``solve_sda_scalar`` is its 1-by-1 call, used by the shifted
    scalar pipeline.

Each solver supplies only its update; one loop (``_Run.drive``) runs them
all, so the stopping rule is shared, for fair benchmarking: relative residual
||Q - X_k - A^T X_k^{-1} A||_F / ||Q||_F <= tol.  Every solver takes it from
``problem.cholesky_residual``: X_k = C C^T, Y = C^{-1} A and
R = Q - X_k - Y^T Y.  An X_k without a Cholesky factor has residual inf, so
``converged=True`` means a finite X that has a Cholesky factor.  The
fixed-point and Newton solvers also need W = X_k^{-1} A; they get it from
the same factor with one more triangular solve.  Doubling's own test
||A_k||_F <= tol * ||A||_F also ends the run, but when it passes alone the
run raises :class:`~nmesolve.exceptions.Stagnated`.  Non-convergent runs, and
runs whose X is not finite, raise a
:class:`~nmesolve.exceptions.SolverFailure` subclass carrying the partial
report.
"""

import functools
import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsm

from . import serialize
from .exceptions import (
    Diverged,
    DoublingBreakdown,
    InsufficientHistory,
    LostPositiveDefiniteness,
    MaxIterationsExceeded,
    NonFiniteInput,
    NotPositiveDefinite,
    SingularSteinOperator,
    Stagnated,
)
from .problem import (
    NmeProblem,
    _cholesky,
    cholesky_residual,
    fro_norm,
    spectral_radius,
    symmetric_part,
)

__all__ = [
    "Algorithm",
    "SolverConfig",
    "HistoryRecord",
    "RateEstimate",
    "SolveReport",
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

#: Relative excess of tr(X_k) over tr(Q) at which Newton stops as diverged.
NEWTON_TRACE_RTOL = 1e-8


class Algorithm(Enum):
    FIXED_POINT = "fixed-point"
    INVERSION_FREE = "inversion-free"
    NEWTON = "newton"
    SDA = "sda"


@dataclass
class SolverConfig:
    """Shared solver options.

    ``record_history`` is opt-in: a default solve computes only what its
    stopping rule needs.  When it is on, the report also holds one
    :class:`HistoryRecord` per iteration, copies of every iterate and the
    estimated rate, and the solvers compute the history-only diagnostics
    (Newton's rho(L_k), doubling's min-eig(Q_k - P_k)).  X and the iteration
    count do not depend on it.
    """

    tol: float = 1e-12
    max_iter: int = 200
    record_history: bool = False
    #: Iterations to run before the stopping rule applies; lets closed-form
    #: tests observe a prescribed number of steps even when the residual
    #: reaches exact floating-point zero earlier.
    min_iter: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 <= self.min_iter <= self.max_iter:
            raise ValueError("min_iter must lie in [0, max_iter]")


@dataclass(frozen=True)
class HistoryRecord:
    """One iteration, recorded only with ``SolverConfig.record_history``:
    aux1/aux2 are algorithm specific (SDA: ||A_k||_F and min-eig(Q_k - P_k);
    Newton: rho(L_k) and 0; others: 0 and 0)."""

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

    ``history``, ``iterates``, ``aux_iterates`` and ``estimated_rate`` are
    filled only when the run had ``SolverConfig.record_history`` on; they are
    empty (None for the rate) otherwise.  ``history`` has one record per
    completed iteration, ``iterates`` holds the full X-sequence including the
    starting value, and ``aux_iterates`` holds algorithm-specific companion
    sequences ("Y" for the inversion-free solver, "A" and "P" for doubling).
    ``estimated_rate`` is fit to the step-size sequence ||X_k - X_{k-1}||_F,
    whose decay tracks the error decay for both linear and quadratic runs.
    ``rho_ratio`` is computed from X and the problem's ``A`` when first read.
    """

    X: np.ndarray
    iterations: int
    converged: bool
    history: list = field(default_factory=list)
    estimated_rate: RateEstimate | None = None
    failure: str | None = None
    iterates: list = field(default_factory=list)
    aux_iterates: dict = field(default_factory=dict)
    #: the problem's A, kept for ``rho_ratio``
    A: np.ndarray | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def rho_ratio(self) -> float:
        """rho(X^{-1} A); NaN when X is singular or not finite, or A is unknown."""
        if self.A is None:
            return math.nan
        try:
            return spectral_radius(np.linalg.solve(self.X, self.A))
        except np.linalg.LinAlgError:
            return math.nan


class _Run:
    """One solve: the iteration loop with its stopping rule, history and
    iterate capture, the divergence watch and the failure reports."""

    def __init__(self, A: np.ndarray, Q: np.ndarray, config: SolverConfig | None, name: str):
        self.A = A
        self.Q = Q
        self.q_fro = fro_norm(Q)
        self.config = config or SolverConfig()
        self.name = name
        self.history: list[HistoryRecord] = []
        self.iterates: list[np.ndarray] = []
        self.aux_iterates: dict[str, list[np.ndarray]] = {}
        self.best_res = math.inf
        self.k = 0
        #: iterations whose X was accepted; lags k while X_k is being computed
        self.accepted = 0
        self.X = None

    def drive(self, steps, nonfinite_fatal: bool = True) -> SolveReport:
        """Run the update generator ``steps``: it yields (X_0, res_0 or None
        when X_0 is not tested, aux_0, stop_0), then one (X_k, res_k, aux1,
        aux2, aux_k, stop_k) per iteration, with ``aux`` the companion
        iterates by name (or None) and ``stop`` the solver's own stopping test
        besides res <= tol.  The step norm ||X_k - X_{k-1}||_F is taken here,
        and only when history or DEBUG logging wants it."""
        cfg = self.config
        track_step = cfg.record_history or logger.isEnabledFor(logging.DEBUG)
        self.X, res, aux, stop = next(steps)
        self.capture(aux)
        if res is not None:
            if cfg.min_iter == 0 and (res <= cfg.tol or stop):
                return self.stopped(res)
            self.best_res = min(self.best_res, res)
        for self.k in range(1, cfg.max_iter + 1):
            prev = self.X
            self.X, res, aux1, aux2, aux, stop = next(steps)
            self.accepted = self.k
            if track_step:
                step = fro_norm(self.X - prev)
                logger.debug("%s k=%d rel_residual=%.3e step=%.3e", self.name, self.k, res, step)
                if cfg.record_history:
                    self.history.append(
                        HistoryRecord(self.k, float(res), float(step), float(aux1), float(aux2)))
            self.capture(aux)
            self.best_res = min(self.best_res, res)
            if self.k >= cfg.min_iter and (res <= cfg.tol or stop):
                return self.stopped(res)
            if nonfinite_fatal and not math.isfinite(res):
                detail = ("is not positive definite or its residual overflows"
                          if np.all(np.isfinite(self.X)) else "is not finite")
                raise self.failure(Diverged, f"iterate {self.k} {detail}")
            if (math.isfinite(res) and 0 < self.best_res < math.inf
                    and res > DIVERGENCE_FACTOR * self.best_res):
                raise self.failure(
                    Diverged,
                    f"residual {res:.3e} grew beyond {DIVERGENCE_FACTOR:g} x "
                    f"minimum {self.best_res:.3e} at iteration {self.k}")
        raise self.failure(
            MaxIterationsExceeded,
            f"no convergence within {cfg.max_iter} iterations "
            f"(best relative residual {self.best_res:.3e})")

    def capture(self, aux: dict | None) -> None:
        if self.config.record_history:
            self.iterates.append(np.array(self.X, dtype=float))
            for key, val in (aux or {}).items():
                self.aux_iterates.setdefault(key, []).append(np.array(val, dtype=float))

    def stopped(self, res: float) -> SolveReport:
        """The report of a run whose stopping test passed: converged only when
        X is finite and the residual test passed."""
        if not np.all(np.isfinite(self.X)):
            raise self.failure(Diverged, f"iterate {self.k} met the stopping test but is not finite")
        if not res <= self.config.tol:
            raise self.failure(
                Stagnated,
                f"iterate {self.k} met the solver's own stopping test with relative "
                f"residual {res:.3e} above tol {self.config.tol:g}")
        logger.info("%s converged in %d iterations", self.name, self.k)
        return self.report(self.k, True)

    def residual(self, X: np.ndarray) -> float:
        """Relative residual of X; inf when X is not positive definite or it overflows."""
        try:
            return cholesky_residual(self.A, self.Q, X, self.q_fro)[0].rel_norm
        except NotPositiveDefinite:
            return math.inf

    def start_at_q(self) -> tuple[np.ndarray, np.ndarray]:
        """X_0 = Q and W_0 = Q^{-1} A; a Q that is not SPD raises NotPositiveDefinite."""
        return self.Q.copy(), scipy.linalg.cho_solve((_cholesky(self.Q, "Q"), True), self.A)

    def residual_and_w(self, X: np.ndarray) -> tuple[float, np.ndarray]:
        """Relative residual of X and W = X^{-1} A from one Cholesky factor;
        X_k must stay positive definite."""
        try:
            res, C, Y = cholesky_residual(self.A, self.Q, X, self.q_fro)
        except NotPositiveDefinite as exc:
            raise self.failure(LostPositiveDefiniteness,
                               f"iterate {self.k} is not positive definite") from exc
        return res.rel_norm, dtrsm(1.0, C, Y, lower=1, trans_a=1)

    def report(self, iterations: int, converged: bool) -> SolveReport:
        X = np.array(self.X, dtype=float)
        try:
            rate = estimate_rate([h.step_norm for h in self.history])
        except InsufficientHistory:
            rate = None
        return SolveReport(
            X=X,
            iterations=iterations,
            converged=converged,
            history=list(self.history),
            estimated_rate=rate,
            iterates=list(self.iterates),
            aux_iterates={k: list(v) for k, v in self.aux_iterates.items()},
            A=self.A,
        )

    def failure(self, exc_cls, detail: str):
        """The exception for iteration k, with the report of the last accepted X."""
        return exc_cls(f"{self.name}: {detail}",
                       report=self.report(self.accepted, False), iteration=self.k)


def solve_fixed_point(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Basic fixed-point iteration X_{k+1} = Q - A^T X_k^{-1} A from X_0 = Q.

    The iterate sequence descends monotonically in the semidefinite order on
    solvable problems.  Raises :class:`LostPositiveDefiniteness` when an
    iterate stops being SPD and :class:`MaxIterationsExceeded` when the
    budget runs out (both carry the partial report), and
    :class:`NotPositiveDefinite` when Q itself is not SPD.
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "fixed-point")

    def steps():
        X, W = run.start_at_q()
        yield X, None, None, False
        while True:
            X = symmetric_part(Q - A.T @ W)
            res, W = run.residual_and_w(X)
            yield X, res, 0.0, 0.0, None, False

    return run.drive(steps())


def solve_inversion_free(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Inversion-free fixed point with a Schulz inverse update.

    Y_{k+1} = Y_k (2I - X_k Y_k);  X_{k+1} = Q - A^T Y_k A, exactly in this
    form (the X-update consumes the previous Y).  X_0 = Q, Y_0 = I/||Q||_inf.
    On solvable problems X_0 >= X_1 >= ... and Y_0 <= Y_1 <= ... , so an
    iterate that is not positive definite ends the run as
    :class:`~nmesolve.exceptions.Diverged`.
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
            # the X-update consumes the previous Y
            X, Y = symmetric_part(Q - A.T @ Y @ A), symmetric_part(Y @ (two_eye - X @ Y))
            yield X, run.residual(X), 0.0, 0.0, {"Y": Y}, False

    return run.drive(steps())


def _quasi_triangular_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real Schur factor T, read from its 1x1 and 2x2 diagonal
    blocks (a 2x2 block starts at each nonzero subdiagonal entry)."""
    lam = np.diag(T).astype(complex)
    k = np.flatnonzero(np.diag(T, -1))
    a, b, c, d = T[k, k], T[k, k + 1], T[k + 1, k], T[k + 1, k + 1]
    half_trace = (a + d) / 2.0
    im = np.sqrt(np.maximum(-(((a - d) / 2.0) ** 2 + b * c), 0.0))
    lam[k] = half_trace + 1j * im
    lam[k + 1] = half_trace - 1j * im
    return lam


def solve_stein(L: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve X - L^T X L = C for symmetric X as a generalized Sylvester equation.

    With R = X and Z = L^T X the equation is the pair
    L^T R - Z I = 0,  I R - Z L = C,
    whose left coefficient pair is (L^T, I) and right pair is (I, L).  One
    real Schur form L^T = U T U^T turns the left pair into (T, I).  The same
    form gives L = W S W^T with W = U[:, ::-1] and S = T^T[::-1, ::-1], which
    is upper quasi-triangular; a block-diagonal Givens matrix G, one rotation
    per 2x2 block of S, makes G S upper triangular, so the right pair becomes
    (G, G S).  Both pairs are then in generalized real Schur form, and
    LAPACK's ``dtgsyl`` (Kagstrom & Poromaa 1996; Jonsson & Kagstrom 2002)
    solves T R' - Z' G = 0, R' - Z' G S = scale U^T C W, giving
    X = U R' W^T / scale.

    L is real, so its spectrum is closed under conjugation and the
    operator's eigenvalues are 1 - lambda_i conj(lambda_j) over the
    eigenvalues lambda of L, read off the diagonal blocks of T.  Raises
    :class:`SingularSteinOperator` when the smallest of their moduli is at
    most 1e-10 times the largest (some pair of eigenvalues of L has product
    one) or when ``dtgsyl`` reports close eigenvalues, and
    :class:`NonFiniteInput` when L or C holds NaN/Inf.  X is exactly
    symmetric.  Time is O(n^3) and memory O(n^2).
    """
    L = np.asarray(L, dtype=float)
    C = symmetric_part(np.asarray(C, dtype=float))
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(C))):
        raise NonFiniteInput("Stein data L or C contains NaN/Inf")
    n = L.shape[0]
    T, U = scipy.linalg.schur(L.T, check_finite=False)
    lam = _quasi_triangular_eigenvalues(T)
    gaps = np.abs(1.0 - np.outer(lam, lam.conj()))
    singular = "Stein operator is rank deficient (an eigenvalue pair of L has product one)"
    if gaps.min() <= 1e-10 * gaps.max():
        raise SingularSteinOperator(singular)
    W = U[:, ::-1]
    S = T.T[::-1, ::-1]
    # rotate rows (j, j+1) of each 2x2 block of S to zero S[j+1, j]
    j = np.flatnonzero(np.diag(S, -1))
    r = np.hypot(S[j, j], S[j + 1, j])
    cos, sin = S[j, j] / r, S[j + 1, j] / r
    G = np.eye(n)
    G[j, j] = G[j + 1, j + 1] = cos
    G[j, j + 1] = sin
    G[j + 1, j] = -sin
    R, _, scale, _, info = scipy.linalg.lapack.dtgsyl(
        T, G, np.zeros((n, n)), np.eye(n), np.triu(G @ S), U.T @ C @ W)
    if info > 0:
        raise SingularSteinOperator(singular)
    return symmetric_part(U @ R @ W.T / scale)


def solve_newton(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Newton's method with a Stein-equation inner solve, from X_0 = Q.

    With history on, each record stores rho(L_k) in aux1; these stay below
    one while the iteration is healthy.  The iterates descend monotonically
    from Q toward the maximal solution, so an iterate whose trace exceeds
    tr(Q) by more than :data:`NEWTON_TRACE_RTOL` raises
    :class:`~nmesolve.exceptions.Diverged`.
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "newton")
    # when X+ exists, Q >= X_k >= X+ for every k, so a trace above Q's
    # (beyond roundoff) means there is no X+ to descend to; traces are taken
    # of X / max diag(Q) and Q / max diag(Q), which cannot overflow for Q
    q_max = float(np.max(np.diag(Q)))
    tr_q = float(np.sum(np.diag(Q) / q_max))

    def steps():
        X, W = run.start_at_q()
        yield X, None, None, False
        while True:
            # L_k = X_{k-1}^{-1} A is the W of the previous iterate
            rho_L = spectral_radius(W) if run.config.record_history else 0.0
            C = symmetric_part(Q - 2.0 * W.T @ A)
            try:
                X = solve_stein(W, C)
            except SingularSteinOperator as exc:
                raise run.failure(SingularSteinOperator,
                                  f"Stein operator singular at iteration {run.k}") from exc
            except NonFiniteInput as exc:
                raise run.failure(Diverged, f"iterate {run.k} is not finite") from exc
            with np.errstate(over="ignore"):
                rise = float(np.sum(np.diag(X) / q_max)) / tr_q
            if rise > 1.0 + NEWTON_TRACE_RTOL:
                raise run.failure(
                    Diverged, f"iterate {run.k} rose above Q: tr(X) / tr(Q) = {rise:.6g}")
            res, W = run.residual_and_w(X)
            yield X, res, rho_L, 0.0, None, False

    return run.drive(steps())


def solve_sda(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Structure-preserving doubling from A_0 = A, Q_0 = Q, P_0 = 0.

        A_{k+1} = A_k (Q_k - P_k)^{-1} A_k
        Q_{k+1} = Q_k - A_k^T (Q_k - P_k)^{-1} A_k
        P_{k+1} = P_k + A_k (Q_k - P_k)^{-1} A_k^T

    The solution is the limit of Q_k.  With history on, each record stores
    ||A_k||_F (aux1) and the minimum eigenvalue of Q_k - P_k (aux2); the
    latter stays positive whenever a solution exists.  Raises
    :class:`DoublingBreakdown` when Q_k - P_k stops being SPD.
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "sda")

    def steps():
        Ak, Qk, Pk = A.copy(), Q.copy(), np.zeros_like(Q)
        a_scale = fro_norm(A)
        yield Qk, run.residual(Qk), {"A": Ak, "P": Pk}, a_scale == 0.0
        while True:
            D = symmetric_part(Qk - Pk)
            try:
                np.linalg.cholesky(D)
            except np.linalg.LinAlgError:
                raise run.failure(DoublingBreakdown,
                                  f"Q_k - P_k lost positive definiteness at iteration {run.k}")
            # LU, not Cholesky, for the step: LU is sqrt-free, so the 1x1
            # critical closed forms with dyadic data stay exact (a Cholesky step
            # misses them by 1.1e-8); on the matrices of the sda-dense and
            # critical-shift benchmarks (seeds 1-5) both gave the same iteration
            # counts and forward errors to three digits
            lu = scipy.linalg.lu_factor(D, check_finite=False)
            WA = scipy.linalg.lu_solve(lu, Ak, check_finite=False)
            WAT = scipy.linalg.lu_solve(lu, Ak.T, check_finite=False)
            Ak, Qk, Pk = (Ak @ WA, symmetric_part(Qk - Ak.T @ WA),
                          symmetric_part(Pk + Ak @ WAT))
            res = run.residual(Qk)
            gap_min = (float(np.linalg.eigvalsh(symmetric_part(Qk - Pk)).min())
                       if run.config.record_history else 0.0)
            a_norm = fro_norm(Ak)
            yield (Qk, res, a_norm, gap_min, {"A": Ak, "P": Pk},
                   a_norm <= run.config.tol * a_scale)

    return run.drive(steps(), nonfinite_fatal=False)


def solve_sda_scalar(a: float, q: float, config: SolverConfig | None = None) -> SolveReport:
    """Doubling for the scalar equation x + a^2/x = q (q > 0): the 1-by-1
    call of :func:`solve_sda`, so the report holds q_k in ``iterates`` and
    a_k, p_k in ``aux_iterates`` ("A", "P") as 1-by-1 arrays.  The problem is
    not validated beyond q > 0, so q = inf ends in a solver failure."""
    a = float(a)
    q = float(q)
    if not q > 0:
        raise NotPositiveDefinite("q", f"q = {q!r}")
    return solve_sda(NmeProblem(A=np.array([[a]]), Q=np.array([[q]])), config)


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
