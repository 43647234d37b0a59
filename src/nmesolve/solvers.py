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
    ``solve_stein`` sums X = sum_i (L^T)^i C L^i by doubling and keeps the
    sum when it certifies rho(L) < 1 and leaves a backward-stable residual;
    otherwise one real Schur form of L^T and LAPACK's ``dtgsyl`` solve the
    equation.  Both take O(n^3) time and O(n^2) memory.  Quadratic when
    rho(X+^{-1}A) < 1, linear with rate 1/2 in the critical case.  Iterates
    descend monotonically from X_0 = Q.

``solve_sda``
    Structure-preserving doubling: each step squares the effective spectral
    ratio, giving quadratic convergence for rho < 1 and linear rate 1/2 at
    rho = 1.  ``solve_sda_scalar`` is its 1-by-1 call, used by the shifted
    scalar pipeline.

Each solver supplies only its update; one loop (``_Run.drive``) runs them
all, so the stopping rule is shared, for fair benchmarking: relative residual
||Q - X_k - A^T X_k^{-1} A||_F / ||Q||_F <= tol.  Every solver takes it from
``problem.cholesky_residual``: X_k = C C^T, Y = C^{-1} A and
R = Q - X_k - Y^T Y.  Its norms, and those of doubling's own test
||A_k||_F <= tol * ||A||_F, are taken over the power of two s of max |Q|, so
none overflows.  An X_k without a Cholesky factor has residual inf, so
``converged=True`` means a finite X that has a Cholesky factor.  The
fixed-point and Newton solvers get W = X_k^{-1} A from the same factor with
one more triangular solve.  When doubling's test passes alone the run raises
:class:`~nmesolve.exceptions.Stagnated`.  Non-convergent runs, and runs whose
X is not finite, raise a :class:`~nmesolve.exceptions.SolverFailure`
subclass carrying the partial report.  Doubling takes the residual of Q_k
only at k = max_iter, when its own test passes, when history or DEBUG
logging is on, and once ||A_k||_F <= :data:`RESIDUAL_GATE` sqrt(tol) ||Q||_F
(or is not finite): the error Q_k - X+ = A_k^T (X+ - P_k)^{-1} A_k is large
before that.  No residual feeds an iterate, so the gate can only delay
a stop; X and every Q_k keep their bits.

The loops call LAPACK and BLAS themselves: ``dpotrf`` (through
``problem._cholesky``) for every Cholesky factor, ``dtrsm`` for the triangular
solves, ``dpotrs`` (in ``cho_solve``) for W_0 = Q^{-1} A (``_Run.start_at_q``)
and for the W of ``rho_ratio`` (``problem._candidate_w``), one Bunch-Kaufman
``dsytrf`` with ``dtrtri`` and one ``dtrmm`` for the SDA step (``dsyconv`` and
``dlaswp`` only after a row interchange), three GEMMs a step for the Stein doubling, and ``dgees`` and
``dtgsyl`` for the Stein solves it gives up.  At the sizes of a scalar or n = 8
solve, the dispatch of ``np.linalg.cholesky`` or ``scipy.linalg.lu_solve``
costs several times the arithmetic.  Each routine is looked up on
``scipy.linalg.lapack`` or ``scipy.linalg.blas`` when it is called, never bound
at import, so a tracer that wraps the module attribute sees it.
"""

import functools
import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from . import serialize
from .exceptions import (
    DimensionMismatch,
    Diverged,
    DoublingBreakdown,
    InsufficientHistory,
    LostPositiveDefiniteness,
    MaxIterationsExceeded,
    NonFiniteInput,
    NotPositiveDefinite,
    SingularSteinOperator,
    SolverFailure,
    Stagnated,
)
from .problem import (
    NmeProblem,
    _candidate_w,
    _cholesky,
    _matrix,
    _square_real,
    _unit_scaled,
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

#: Doubling steps (2^16 terms of the series) before solve_stein takes the Schur path.
STEIN_DOUBLINGS = 16

#: solve_sda takes the residual of Q_k only once ||A_k||_F <= RESIDUAL_GATE sqrt(tol) ||Q||_F
#: (or where Q_k can end the run otherwise); where the residual first passed on the
#: planted grid, normal and non-normal, ||A_k||_F was at most 0.53 sqrt(tol) ||Q||_F.
RESIDUAL_GATE = 10.0


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
    ``rho_ratio`` is ``spectral_radius_ratio`` of X and A, computed when first read.
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
        """rho(X^{-1} A); NaN when X is not finite or not SPD, or A is unknown."""
        if self.A is None:
            return math.nan
        try:
            return spectral_radius(_candidate_w(self.A, self.X)[1])
        except (NonFiniteInput, NotPositiveDefinite):
            return math.nan


class _Run:
    """One solve: the iteration loop with its stopping rule, history and
    iterate capture, the divergence watch and the failure reports."""

    def __init__(self, A: np.ndarray, Q: np.ndarray, config: SolverConfig | None, name: str):
        self.A = A
        self.Q = Q
        self.q_scale, Qu = _unit_scaled(Q)
        self.q_fro = fro_norm(Qu)
        self.config = config or SolverConfig()
        #: history or DEBUG logging reads every step's residual and step norm
        self.every_step = self.config.record_history or logger.isEnabledFor(logging.DEBUG)
        self.name = name
        self.history: list[HistoryRecord] = []
        self.iterates: list[np.ndarray] = []
        self.aux_iterates: dict[str, list[np.ndarray]] = {}
        self.best_res = math.inf
        #: iterations whose X was accepted; lags k while X_k is being computed
        self.accepted = 0
        self.X = None

    def drive(self, steps, nonfinite_fatal: bool = True) -> SolveReport:
        """Run the update generator ``steps``: it yields one (X_k, res_k,
        aux1, aux2, aux_k, stop_k) for each k from 0, with res_k None when X_k
        is not tested (aux1 and aux2 of X_0 are 0 and unused), ``aux`` the
        companion iterates by name (or None) and ``stop`` the solver's own
        stopping test besides res <= tol.  The step norm ||X_k - X_{k-1}||_F
        is taken here, and only when history or DEBUG logging wants it."""
        cfg = self.config
        # one context per solve: an overflow ends in a typed failure, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for self.k in range(cfg.max_iter + 1):
                prev = self.X
                self.X, res, aux1, aux2, aux, stop = next(steps)
                self.accepted = self.k
                if self.every_step and self.k:
                    step = fro_norm(self.X - prev)
                    logger.debug("%s k=%d rel_residual=%.3e step=%.3e", self.name, self.k, res, step)
                    if cfg.record_history:
                        self.history.append(
                            HistoryRecord(self.k, float(res), float(step), float(aux1), float(aux2)))
                self.capture(aux)
                if res is None:
                    continue
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
            return cholesky_residual(self.A, self.Q, X, self.q_fro, self.q_scale)[0].rel_norm
        except NotPositiveDefinite:
            return math.inf

    def start_at_q(self) -> tuple[np.ndarray, np.ndarray]:
        """X_0 = Q and W_0 = Q^{-1} A; a Q that is not SPD raises NotPositiveDefinite."""
        return self.Q.copy(), scipy.linalg.cho_solve((_cholesky(self.Q, "Q"), True), self.A)

    def residual_and_w(self, X: np.ndarray) -> tuple[float, np.ndarray]:
        """Relative residual of X and W = X^{-1} A from one Cholesky factor;
        X_k must stay positive definite."""
        try:
            res, C, Y = cholesky_residual(self.A, self.Q, X, self.q_fro, self.q_scale)
        except NotPositiveDefinite as exc:
            raise self.failure(LostPositiveDefiniteness,
                               f"iterate {self.k} is not positive definite") from exc
        return res.rel_norm, scipy.linalg.blas.dtrsm(1.0, C, Y, lower=1, trans_a=1)

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
        yield X, None, 0.0, 0.0, None, False
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
        # (I / s) / ||Q / s||_inf is I / ||Q||_inf, also where ||Q||_inf overflows
        Y = np.eye(n) / run.q_scale / float(np.linalg.norm(Q / run.q_scale, np.inf))
        yield X, None, 0.0, 0.0, {"Y": Y}, False
        two_eye = 2.0 * np.eye(n)
        while True:
            # the X-update consumes the previous Y
            X, Y = symmetric_part(Q - A.T @ Y @ A), symmetric_part(Y @ (two_eye - X @ Y))
            yield X, run.residual(X), 0.0, 0.0, {"Y": Y}, False

    return run.drive(steps())


def _no_sort(wr, wi):
    return None


@functools.lru_cache(maxsize=None)
def _dgees_lwork(n: int) -> int:
    """Optimal workspace of ``dgees`` for an n-by-n matrix, from a workspace
    query (it depends on n alone); the same size ``scipy.linalg.schur``
    queries, so the Schur form is the one it returns."""
    return int(scipy.linalg.lapack.dgees(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0])


def _stein_doubling(L: np.ndarray, C: np.ndarray) -> np.ndarray | None:
    """The doubling of :func:`solve_stein` (norms compared squared), or None."""
    s, C = _unit_scaled(C)
    eps = np.finfo(float).eps
    X, M = C, L
    with np.errstate(all="ignore"):
        for _ in range(STEIN_DOUBLINGS):
            T = M.T @ X @ M
            X = X + T
            t, x = np.vdot(T, T), np.vdot(X, X)
            if not math.isfinite(t + x):
                return None
            if t <= eps * eps * x and np.vdot(M, M) < 1.0:
                X = symmetric_part(X)
                LXL = L.T @ X @ L
                ok = np.linalg.norm(X - LXL - C) <= eps * (np.linalg.norm(X) + np.linalg.norm(LXL))
                return X * s if ok else None
            M = M @ M
    return None


def solve_stein(L: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve X - L^T X L = C for symmetric X, by doubling when it is safe.

    Doubling (Smith's squared iteration) sums X = sum_i (L^T)^i C L^i: on
    C / s, s the power of two of max |C|, X_0 = C, M_0 = L, X_{j+1} = X_j +
    M_j^T X_j M_j and M_{j+1} = M_j^2, until ||M_j^T X_j M_j||_F <= eps
    ||X_{j+1}||_F.  X is accepted only when ||M_j||_F < 1, which bounds
    rho(L)^(2^j) and so makes X unique, and ||X - L^T X L - C||_F <= eps
    (||X||_F + ||L^T X L||_F), the residual of a backward-stable solve.  When
    a test fails, a norm is not finite or the sum has not settled in
    :data:`STEIN_DOUBLINGS` steps, the Schur solve below runs; so rho(L) >= 1,
    a singular operator and a strongly non-normal L reach it.

    The Schur solve writes the equation, with R = X and Z = L^T X, as the pair
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
    eigenvalues lambda of L, which ``dgees`` returns with T.  Raises
    :class:`SingularSteinOperator` when the smallest of their moduli is at
    most 1e-10 times the largest (some pair of eigenvalues of L has product
    one) or when ``dtgsyl`` reports close eigenvalues,
    :class:`~nmesolve.exceptions.SolverFailure` when ``dgees`` finds no
    Schur form, :class:`DimensionMismatch` when L is not a non-empty square
    real matrix or C not of its shape, and :class:`NonFiniteInput` when L or
    C holds NaN/Inf.  X is exactly symmetric.  O(n^3) time, O(n^2) memory.
    """
    L, C = _square_real(L, "L"), _square_real(C, "C")
    if C.shape != L.shape:
        raise DimensionMismatch(f"Stein data L is {L.shape} and C is {C.shape}")
    C = symmetric_part(C)
    if (X := _stein_doubling(L, C)) is not None:
        return X
    n = L.shape[0]
    T, _, wr, wi, U, _, info = scipy.linalg.lapack.dgees(_no_sort, L.T, lwork=_dgees_lwork(n))
    if info:
        raise SolverFailure(f"dgees found no Schur form of L (info {info})")
    lam = wr + 1j * wi
    gaps = np.abs(1.0 - np.outer(lam, lam.conj()))
    singular = "Stein operator is rank deficient (an eigenvalue pair of L has product one)"
    if gaps.min() <= 1e-10 * gaps.max():
        raise SingularSteinOperator(singular)
    W = U[:, ::-1]
    S = T.T[::-1, ::-1]
    # rotate rows (j, j+1) of each 2x2 block of S to zero S[j+1, j]
    # (with no 2x2 block, G = I and S is already upper triangular)
    j = np.flatnonzero(np.diag(S, -1))
    G = np.eye(n)
    if j.size:
        r = np.hypot(S[j, j], S[j + 1, j])
        cos, sin = S[j, j] / r, S[j + 1, j] / r
        G[j, j] = G[j + 1, j + 1] = cos
        G[j, j + 1] = sin
        G[j + 1, j] = -sin
        S = np.triu(G @ S)
    R, _, scale, _, info = scipy.linalg.lapack.dtgsyl(
        T, G, np.zeros((n, n)), np.eye(n), S, U.T @ C @ W)
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
        yield X, None, 0.0, 0.0, None, False
        while True:
            # L_k = X_{k-1}^{-1} A is the W of the previous iterate
            rho_L = spectral_radius(W) if run.config.record_history else 0.0
            try:
                X = solve_stein(W, Q - 2.0 * W.T @ A)  # it symmetrizes C
            except SingularSteinOperator as exc:
                raise run.failure(SingularSteinOperator,
                                  f"Stein operator singular at iteration {run.k}") from exc
            except NonFiniteInput as exc:
                raise run.failure(Diverged, f"iterate {run.k} is not finite") from exc
            except SolverFailure as exc:
                raise run.failure(SolverFailure, f"{exc} at iteration {run.k}") from exc
            rise = float(np.sum(np.diag(X) / q_max)) / tr_q  # drive ignores its overflow
            if rise > 1.0 + NEWTON_TRACE_RTOL:
                raise run.failure(
                    Diverged, f"iterate {run.k} rose above Q: tr(X) / tr(Q) = {rise:.6g}")
            res, W = run.residual_and_w(X)
            yield X, res, rho_L, 0.0, None, False

    return run.drive(steps())


@functools.lru_cache(maxsize=None)
def _dsytrf_lwork(n: int) -> int:
    """Optimal workspace of the lower ``dsytrf`` for an n-by-n matrix, from a
    workspace query; the default workspace of n runs it unblocked."""
    return max(int(scipy.linalg.lapack.dsytrf_lwork(n, lower=1)[0]), 1)


def _spd_half_solve(D: np.ndarray, B: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """V = L^{-1} P^T B and d = diag(Lam) from one Bunch-Kaufman factorization
    D = P L Lam L^T P^T (``dsytrf`` of the lower triangle) of a symmetric D
    that must be SPD, so that C^T D^{-1} B = (L^{-1} P^T C)^T Lam^{-1} V; a
    Fortran-ordered B is overwritten by V.

    It is also the SPD test: a Bunch-Kaufman 2x2 pivot has a negative
    determinant, so by Sylvester's law of inertia D is SPD exactly when every
    pivot is 1x1 and positive.  Otherwise it raises
    :class:`NotPositiveDefinite` naming D, before ``dsyconv`` or ``dlaswp``
    sees the pivots.  It is sqrt-free, so a 1-by-1 D leaves V = B and d = D.
    L^{-1} is one ``dtrtri``, applied by one ``dtrmm``; ``dsyconv`` and
    ``dlaswp`` run only after a row interchange, as without one the factor's
    strict lower triangle already is the unit L, and P = I.
    """
    ldu, ipiv, info = scipy.linalg.lapack.dsytrf(D, lower=1, lwork=_dsytrf_lwork(D.shape[0]))
    d = ldu.diagonal().copy()
    if info or ipiv.min() <= 0 or not d.min() > 0:
        raise NotPositiveDefinite(
            name, f"dsytrf info {info}" if info else
            "a 2x2 pivot" if ipiv.min() <= 0 else f"a pivot is {float(d.min())}")
    if not np.array_equal(ipiv, np.arange(1, ipiv.size + 1)):
        ldu, _, _ = scipy.linalg.lapack.dsyconv(ldu, ipiv, lower=1, overwrite_a=1)
        B = scipy.linalg.lapack.dlaswp(B, ipiv - 1, overwrite_a=1)  # scipy's dlaswp is 0-based
    L_inv, _ = scipy.linalg.lapack.dtrtri(ldu, lower=1, unitdiag=1, overwrite_c=1)
    return scipy.linalg.blas.dtrmm(1.0, L_inv, B, lower=1, diag=1, overwrite_b=1), d


def solve_sda(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Structure-preserving doubling from A_0 = A, Q_0 = Q, P_0 = 0.

        A_{k+1} = A_k (Q_k - P_k)^{-1} A_k
        Q_{k+1} = Q_k - A_k^T (Q_k - P_k)^{-1} A_k
        P_{k+1} = P_k + A_k (Q_k - P_k)^{-1} A_k^T

    The solution is the limit of Q_k.  Each step factors D = Q_k - P_k =
    P L Lam L^T P^T once (also the test that D is SPD) and forms each update
    as U_i^T Lam^{-1} U_j from [U_1, U_2] = L^{-1} P^T [A_k, A_k^T] (see
    :func:`_spd_half_solve`).  With history on, each
    record stores ||A_k||_F (aux1) and the minimum eigenvalue of Q_k - P_k
    (aux2); the latter stays positive whenever a solution exists.  Raises
    :class:`DoublingBreakdown` when Q_k - P_k stops being SPD.
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "sda")

    def steps():
        Ak, Qk, Pk = A.copy(), Q.copy(), np.zeros_like(Q)
        n, cfg = A.shape[0], run.config
        a_scale = fro_norm(A / run.q_scale)
        a_gate = RESIDUAL_GATE * math.sqrt(cfg.tol) * run.q_fro
        # the residual is taken only where it can end the run (RESIDUAL_GATE)
        res = None if math.inf > a_scale > a_gate and not run.every_step else run.residual(Qk)
        yield Qk, res, 0.0, 0.0, {"A": Ak, "P": Pk}, a_scale == 0.0
        while True:
            # LDL^T, not Cholesky: it is sqrt-free, so the 1x1 critical closed
            # forms with dyadic data stay exact (a Cholesky step misses them by
            # 1.1e-8).  Q_k and P_k are exactly symmetric, so Q_k - P_k is too;
            # [A_k, A_k^T] is built in Fortran order for the kernel to overwrite
            try:
                V, d = _spd_half_solve(Qk - Pk, np.concatenate((Ak.T, Ak)).T, "Q_k - P_k")
            except NotPositiveDefinite as exc:
                raise run.failure(
                    DoublingBreakdown,
                    f"Q_k - P_k lost positive definiteness at iteration {run.k}") from exc
            U1, U2, S = V[:, :n], V[:, n:], V / d[:, None]
            Ak, Qk, Pk = (U2.T @ S[:, :n], symmetric_part(Qk - U1.T @ S[:, :n]),
                          symmetric_part(Pk + U2.T @ S[:, n:]))
            gap_min = (float(np.linalg.eigvalsh(symmetric_part(Qk - Pk)).min())
                       if cfg.record_history else 0.0)
            a_norm = fro_norm(Ak)
            stop = a_norm / run.q_scale <= cfg.tol * a_scale
            far = math.inf > a_norm / run.q_scale > a_gate
            res = (None if far and not (stop or run.every_step or run.k == cfg.max_iter)
                   else run.residual(Qk))
            yield Qk, res, a_norm, gap_min, {"A": Ak, "P": Pk}, stop

    return run.drive(steps(), nonfinite_fatal=False)


def solve_sda_scalar(a: float, q: float, config: SolverConfig | None = None) -> SolveReport:
    """Doubling for the scalar equation x + a^2/x = q (q > 0): the 1-by-1
    call of :func:`solve_sda`, so the report holds q_k in ``iterates`` and
    a_k, p_k in ``aux_iterates`` ("A", "P") as 1-by-1 arrays.  Only a and q are
    checked: real numbers, a finite and q > 0 (else :class:`DimensionMismatch`,
    :class:`NonFiniteInput`, :class:`NotPositiveDefinite`), so q = inf ends in a solver failure."""
    A, Q = _matrix([[a]], "a", float), _matrix([[q]], "q", float, finite=False)
    if not Q[0, 0] > 0:
        raise NotPositiveDefinite("q", f"q = {Q.item()!r}")
    return solve_sda(NmeProblem(A=A, Q=Q), config)


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
    geometric mean of successive ratios over the tail.  The sequence ends at
    its first entry that is not finite and positive (exact convergence and an
    overflow carry no information).  Raises :class:`InsufficientHistory` for
    fewer than 4 usable entries.
    """
    vals = np.asarray([float(v) for v in history], dtype=float)
    bad = np.nonzero(~((vals > 0) & (vals < math.inf)))[0]
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
