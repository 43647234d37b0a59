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
    equation E_k - L_k^T E_k L_k = R(X_k) with L_k = X_k^{-1} A, to the
    relative accuracy of a forcing term, and takes X_{k+1} = X_k + E_k.
    ``solve_stein`` scales and symmetrizes C once; on that C / s it sums
    X = sum_i (L^T)^i C L^i by doubling, stops once the power L^(2^j), formed
    or bounded by the square of the last norm, bounds the remainder, and keeps
    the sum when it leaves a backward-stable residual; otherwise one real Schur
    form of L^T and LAPACK's ``dtgsyl`` solve the equation.  Both take O(n^3)
    time and O(n^2) memory.  Quadratic when rho(X+^{-1}A) < 1, linear with
    rate 1/2 in the critical case.  Iterates descend monotonically from X_0 = Q.

``solve_sda``
    Structure-preserving doubling: each step squares the effective spectral
    ratio, giving quadratic convergence for rho < 1 and linear rate 1/2 at
    rho = 1.  ``solve_sda_scalar`` is its 1-by-1 call, used by the shifted
    scalar pipeline.

Each solver supplies only its update, as one loop with one yield of
(X_k, res_k, step_k, aux_k, stop_k) from X_0 = Q, and one driver
(``_Run.drive``) tests every X_k, X_0 included, by
one rule: relative residual ||Q - X_k - A^T X_k^{-1} A||_F / ||Q||_F <= tol,
taken from ``problem.cholesky_residual``: X_k = C C^T, Y = C^{-1} A, G = Y^T Y
and R = Q - X_k - G.  Its norms, and those of doubling's own test
||A_k||_F <= tol * ||A||_F, are taken over the power of two s of max |Q|, so
none overflows.  An X_k without a Cholesky factor has residual inf, so
``converged=True`` means a finite X that has a Cholesky factor.  Fixed point
takes A^T X_k^{-1} A as that exactly symmetric G, Newton R as its right side
and L = X_k^{-1} A by one more triangular solve.  When doubling's test passes
alone the run raises :class:`~nmesolve.exceptions.Stagnated`.  Non-convergent
runs, and runs whose X is not finite, raise a
:class:`~nmesolve.exceptions.SolverFailure` subclass carrying the partial
report.  Only doubling skips residuals: it tests that of Q_k at k = max_iter,
when its own test passes, and once ||A_k||_F <= :data:`RESIDUAL_GATE`
sqrt(tol) ||Q||_F (or is not finite): the error Q_k - X+ =
A_k^T (X+ - P_k)^{-1} A_k is large before that.  It yields a None residual
for each Q_k the gate holds out, and the driver tests no such Q_k.  No
residual feeds an iterate, so the gate can only delay a stop; X and every Q_k
keep their bits.  With history or DEBUG logging on, the driver takes the
residual of a gated Q_k, k >= 1, for the record only, so they change no
outcome; Q_0 has no record.  Each update yields the size of its step, from a
number it holds or by one ``ddot``: Newton ||E_k||_F, doubling ||W_1||_F^2 =
tr(Q_{k-1} - Q_k), fixed point ||R(X_{k-1})||_F, inversion-free
||X_k - X_{k-1}||_F.  Every run keeps them; the rate is fitted to them when read.
No loop computes a diagnostic or reads ``record_history``: with history on,
the driver takes each record's aux1 and aux2 from the iterates it keeps, so
a solve without history pays for none.  With the default config ``solve_sda`` returns
a copy of a certified run that ``problem.solvability_check`` kept on the problem.

The loops call LAPACK and BLAS themselves: ``dpotrf`` (through
``problem._cholesky``) for every Cholesky factor and SPD test, doubling's
included, ``dtrsm`` for the triangular solves, each from the right on a
Fortran view (A^T, then Y^T in place), so that neither routine is handed an
array it must copy transposed, ``dpotrs`` (in ``cho_solve``) for the W of
``rho_ratio`` (``problem._candidate_w``), the inverse Cholesky factor of
``problem._cholesky_inverse`` (``dtrtri`` of ``dpotrf``'s factor up to order
64, blocked by ``dtrmm`` and ``dsyrk`` above), ``dtrmm``, ``dgemm`` and two
``dsyrk`` a doubling step, three positional ``dgemm`` and one
``ddot`` a Stein doubling step (less a last squaring that cannot change the
stop) and two ``dgemm`` for its check, into one allocation per call (``ddot``
also takes its scale ||C||_F and the check's norms), ``scipy.linalg.schur``
and ``dtgsyl`` for the Stein solves it gives up.  Each routine is looked up
on its module (``scipy.linalg.lapack``, ``.blas`` or ``scipy.linalg``) when it
is called, never bound at import, so a tracer that wraps the module attribute
sees it.
"""

import copy
import functools
import logging
import math
import numbers
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
    _cholesky_inverse,
    _pow2_scale,
    _square_real,
    _sum_sq,
    _unit_scaled,
    cholesky_residual,
    fro_norm,
    new_problem,
    spectral_radius,
    spectral_radius_ratio,
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

#: Doubling steps (2^15 terms of the series) before solve_stein takes the Schur path; with
#: the stop on ||L^(2^j)||_F, 15 steps accept the same sums as 16 of a stop on the last term.
STEIN_DOUBLINGS = 15

#: solve_sda takes the residual of Q_k only once ||A_k||_F <= RESIDUAL_GATE sqrt(tol) ||Q||_F
#: (or where Q_k can end the run otherwise); where the residual first passed on the
#: planted grid, normal and non-normal, ||A_k||_F was at most 0.53 sqrt(tol) ||Q||_F.
RESIDUAL_GATE = 10.0

_EPS = np.finfo(float).eps
_PANEL_UPPER = ~np.tri(32, dtype=bool)  # _mirrored copies by panels: their reads stay in cache


class Algorithm(Enum):
    """The four solvers, also by name (``Algorithm("sda")``); another name raises ValueError."""

    FIXED_POINT = "fixed-point"
    INVERSION_FREE = "inversion-free"
    NEWTON = "newton"
    SDA = "sda"

    @classmethod
    def _missing_(cls, name):
        raise ValueError(f"unknown algorithm {name!r}; choose from {', '.join(a.value for a in cls)}")


def _integer(value) -> bool:
    """An integer other than a bool, which numbers.Integral passes as 0 or 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value) -> bool:
    """A real number other than a bool, which numbers.Real passes as 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class SolverConfig:
    """Shared solver options.

    ``record_history`` is opt-in: a default solve computes only what its
    stopping rule and step sizes need.  When it is on, the report also holds
    copies of every iterate and one :class:`HistoryRecord` per iteration, whose
    diagnostics the driver takes from those copies, not the solver loops.  X,
    the iteration count, the step sizes and the estimated rate do not depend on it.
    """

    tol: float = 1e-12
    max_iter: int = 200
    record_history: bool = False
    #: Iterations to run before the stopping rule applies; lets closed-form
    #: tests observe a prescribed number of steps even when the residual
    #: reaches exact floating-point zero earlier.
    min_iter: int = 0

    def __post_init__(self):
        if not (_real(self.tol) and 0.0 < self.tol < 1.0):  # tol >= 1 would pass an X that is not SPD
            raise ValueError("tol must lie in (0, 1)")
        if not _integer(self.max_iter) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")
        if not (_integer(self.min_iter) and 0 <= self.min_iter <= self.max_iter):
            raise ValueError("min_iter must be an integer in [0, max_iter]")


@dataclass(frozen=True)
class HistoryRecord:
    """One iteration, recorded only with ``SolverConfig.record_history``: step_norm is
    the report's ``step_norms[k - 1]``, aux1/aux2 algorithm specific, taken by the driver
    from the report's iterates (SDA: ||A_k||_F and min-eig(Q_k - P_k); Newton:
    rho(L_{k-1}) = ``spectral_radius_ratio`` of X_{k-1}, of the step to X_k, and 0; others: 0, 0)."""

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

    ``history``, ``iterates`` and ``aux_iterates`` are filled only when the
    run had ``SolverConfig.record_history`` on, and empty otherwise: one record
    per completed iteration, the full X-sequence including the starting value,
    and algorithm-specific companion sequences ("Y" for the inversion-free
    solver, "A" and "P" for doubling).  ``step_norms`` holds, on every run, the
    size of the step to each X_k, k >= 1 (see the module docstring).
    ``stop`` names the test that ended the run: "residual", "own-test" (doubling's,
    with the residual <= tol), "stagnated" (its own test with the residual above tol),
    "budget" (``MaxIterationsExceeded``) or "failure" (another ``SolverFailure``).
    ``estimated_rate`` and ``rho_ratio`` (``spectral_radius_ratio`` of X and A)
    are computed when first read.  ``rel_residual`` is the one the run took of X, bit for bit
    ``residual(problem, X).rel_norm`` (inf where X is not SPD or it overflows; NaN if hand-built).
    """

    X: np.ndarray
    iterations: int
    converged: bool
    rel_residual: float = math.nan
    history: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    failure: str | None = None
    stop: str | None = None
    iterates: list = field(default_factory=list)
    aux_iterates: dict = field(default_factory=dict)
    #: the problem's A, kept for ``rho_ratio``
    A: np.ndarray | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def rho_ratio(self) -> float:
        """rho(X^{-1} A); NaN when X or A is not finite, X is not SPD, X^{-1} A overflows or A is unknown."""
        if self.A is None:
            return math.nan
        try:
            return spectral_radius(_candidate_w(self.A, self.X)[1])
        except (NonFiniteInput, NotPositiveDefinite):
            return math.nan

    @functools.cached_property
    def estimated_rate(self) -> RateEstimate | None:
        """``estimate_rate`` of ``step_norms`` (whose decay tracks the error's); None under 4 steps."""
        try:
            return estimate_rate(self.step_norms)
        except InsufficientHistory:
            return None


class _Run:
    """One solve: the iteration loop with its stopping rule, the divergence
    watch and the failure reports.  The run fills the one report it returns
    (``out``) as it goes: history records, iterates and companion iterates
    when history is on, and in X, ``iterations`` and ``rel_residual`` the last
    accepted X_k, its k and its residual (X_0 = Q until one is)."""

    def __init__(self, A: np.ndarray, Q: np.ndarray, config: SolverConfig | None, name: str):
        self.A, self.Q = A, Q
        self.q_scale, Qu = _unit_scaled(Q)
        self.q_fro = fro_norm(Qu)
        self.config = config or SolverConfig()
        #: history or DEBUG logging reads every step's residual
        self.every_step = self.config.record_history or logger.isEnabledFor(logging.DEBUG)
        self.name = name
        self.out = SolveReport(X=Q, iterations=0, converged=False, A=A)
        #: the least residual, and the last later gated (k, X_k) with a positive diagonal
        self.best_res, self.untested = math.inf, None

    def drive(self, steps, nonfinite_fatal: bool = True, diagnose=None) -> SolveReport:
        """Run the update generator ``steps``, filling ``out``: one loop with one
        ``yield`` of (X_k, res_k, step_k, aux_k, stop_k) for each k from X_0 = Q,
        which is tested like every later iterate; the float step_k, the size of
        the step to X_k, goes to ``step_norms`` (X_0's is unused), ``aux`` holds
        the companion iterates by name (or None) and ``stop`` is the solver's own
        test besides res <= tol.  With history on, X_k is stored before its record,
        whose aux1 and aux2 are ``diagnose(k)`` (0 where it gives none).  X_k is
        accepted once it passes the tests here: a residual that is not finite
        or grew beyond DIVERGENCE_FACTOR x its minimum rejects it, also where
        ``nonfinite_fatal`` lets the run go on.  A None res_k is an X_k that
        doubling's gate holds out: it is not tested (history and DEBUG logging
        take its residual for the record of k >= 1 only), and a failure tests
        the last such X_k with a positive diagonal before its report holds it."""
        cfg, out = self.config, self.out
        # one context per solve: an overflow ends in a typed failure, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for self.k in range(cfg.max_iter + 1):
                X, res, step, aux, stop = next(steps)
                if cfg.record_history:
                    out.iterates.append(np.array(X, dtype=float))
                    for key, val in (aux or {}).items():
                        out.aux_iterates.setdefault(key, []).append(np.array(val, dtype=float))
                if self.k:
                    out.step_norms.append(step)
                if self.every_step and self.k:
                    # history and DEBUG logging take a gated X_k's residual for the record only
                    logged = self.residual(X) if res is None else res
                    logger.debug("%s k=%d rel_residual=%.3e step=%.3e", self.name, self.k, logged, step)
                    if cfg.record_history:
                        out.history.append(HistoryRecord(
                            self.k, float(logged), step, *(diagnose(self.k) if diagnose else ())))
                if res is None:
                    if X.diagonal().min() > 0.0:  # else its residual is not finite
                        self.untested = (self.k, X)
                    continue
                self.best_res = min(self.best_res, res)
                if not self.k:  # X_0 = Q is out.X until an X_k is accepted
                    out.rel_residual = res
                if self.k >= cfg.min_iter and (res <= cfg.tol or stop):
                    return self.stopped(X, res, stop)
                if not math.isfinite(res):  # X_k is not accepted
                    if not nonfinite_fatal:
                        continue
                    detail = ("is not positive definite or its residual overflows"
                              if np.all(np.isfinite(X)) else "is not finite")
                    raise self.failure(Diverged, f"iterate {self.k} {detail}")
                if 0 < self.best_res and res > DIVERGENCE_FACTOR * self.best_res:
                    raise self.failure(
                        Diverged,
                        f"residual {res:.3e} grew beyond {DIVERGENCE_FACTOR:g} x "
                        f"minimum {self.best_res:.3e} at iteration {self.k}")
                out.X, out.iterations, out.rel_residual, self.untested = X, self.k, res, None
            raise self.failure(
                MaxIterationsExceeded,
                f"no convergence within {cfg.max_iter} iterations "
                f"(best relative residual {self.best_res:.3e})")

    def stopped(self, X: np.ndarray, res: float, stop: bool) -> SolveReport:
        """The report of a run whose stopping test passed at X_k: converged only
        when X_k is finite and the residual test passed."""
        if not np.all(np.isfinite(X)):
            raise self.failure(Diverged, f"iterate {self.k} met the stopping test but is not finite")
        if math.isfinite(res):
            self.out.X, self.out.iterations, self.out.rel_residual, self.untested = X, self.k, res, None
        if not res <= self.config.tol:
            raise self.failure(
                Stagnated,
                f"iterate {self.k} met the solver's own stopping test with relative "
                f"residual {res:.3e} above tol {self.config.tol:g}")
        self.out.stop = "own-test" if stop else "residual"
        logger.info("%s converged in %d iterations (stop: %s)", self.name, self.k, self.out.stop)
        return self.report(True)

    def residual(self, X: np.ndarray) -> float:
        """Relative residual of X; inf when X is not positive definite or it overflows."""
        try:
            return cholesky_residual(self.A, self.Q, X, self.q_fro, self.q_scale)[2]
        except NotPositiveDefinite:
            return math.inf

    def factored_residual(self, X: np.ndarray) -> tuple:
        """``cholesky_residual`` of X: (R, ||R||_F, relative residual, C, Y, G) with
        X = C C^T, Y = C^{-1} A and G = A^T X^{-1} A; X_k must stay positive definite."""
        try:
            return cholesky_residual(self.A, self.Q, X, self.q_fro, self.q_scale)
        except NotPositiveDefinite as exc:
            raise self.failure(LostPositiveDefiniteness,
                               f"iterate {self.k} is not positive definite") from exc

    def report(self, converged: bool, failure: str | None = None) -> SolveReport:
        """``out`` ended: X copied (X_0 is the problem's own Q), its residual taken if none was."""
        out = self.out
        if math.isnan(out.rel_residual):
            out.rel_residual = self.residual(out.X)
        out.X, out.converged, out.failure = np.array(out.X, dtype=float), converged, failure
        return out

    def failure(self, exc_cls, detail: str):
        """The exception for iteration k, with the report of the last accepted X
        (an untested one if its residual, taken now, is finite or it is X_0 = Q,
        the report's X already), whose ``failure`` is the exception's message."""
        if self.untested and (math.isfinite(res := self.residual(self.untested[1]))
                              or not self.untested[0]):
            (self.out.iterations, self.out.X), self.out.rel_residual = self.untested, res
        message = f"{self.name}: {detail}"
        self.out.stop = {MaxIterationsExceeded: "budget", Stagnated: "stagnated"}.get(exc_cls, "failure")
        return exc_cls(message, report=self.report(False, message), iteration=self.k)


def solve_fixed_point(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Basic fixed-point iteration X_{k+1} = Q - A^T X_k^{-1} A from X_0 = Q.

    The iterate sequence descends monotonically in the semidefinite order on
    solvable problems.  Raises :class:`LostPositiveDefiniteness` when an
    iterate, X_0 = Q included, stops being SPD and
    :class:`MaxIterationsExceeded` when the budget runs out; both carry the
    partial report.
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "fixed-point")

    def steps():
        X, step = Q, 0.0
        while True:
            _, r_norm, res, _, _, G = run.factored_residual(X)
            yield X, res, step, None, False
            X, step = Q - G, r_norm  # exactly symmetric, as Q and G are; X - X_k = R(X_k)

    return run.drive(steps())


def solve_inversion_free(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Inversion-free fixed point with a Schulz inverse update.

    Y_{k+1} = Y_k (2I - X_k Y_k);  X_{k+1} = Q - A^T Y_k A, exactly in this
    form (the X-update consumes the previous Y).  X_0 = Q, Y_0 = I/||Q||_inf.
    On solvable problems X_0 >= X_1 >= ... and Y_0 <= Y_1 <= ... , so an
    iterate that is not positive definite ends the run as
    :class:`~nmesolve.exceptions.Diverged`.  It runs on (A, Q) / s, s the power of two
    of max |Q|, so that Y_0 fits also where max |Q| is subnormal."""
    run = _Run(problem.A, problem.Q, config, "inversion-free")

    def steps():
        s = run.q_scale
        A, Q = problem.A / s, problem.Q / s  # in the drive's errstate: A / s may overflow
        X, Y, Xp = Q, np.eye(problem.n) / float(np.linalg.norm(Q, np.inf)), Q
        two_eye = 2.0 * np.eye(problem.n)
        while True:
            yield (Xk := s * X), run.residual(Xk), s * fro_norm(X - Xp), {"Y": Y / s}, False
            # the X-update consumes the previous Y
            X, Y, Xp = symmetric_part(Q - A.T @ Y @ A), symmetric_part(Y @ (two_eye - X @ Y)), X

    return run.drive(steps())


def solve_stein(L: np.ndarray, C: np.ndarray, *, rtol: float = _EPS) -> np.ndarray:
    """Solve X - L^T X L = C for symmetric X, by doubling when it is safe.

    L and C are read once.  Both paths solve for X / s on C / s, made exactly
    symmetric, and one range test of X / s scales it back; s is the power of
    two of the largest of c = ||C||_F (max |C| where ||C||_F^2 is 0 or inf),
    min(c ||L||_F^2 / 2^1000, 1) and 2^-1024, so L^T (C / s) L fits wherever
    L^T C L does, also for a tiny C and a huge L.  ``rtol`` (default eps), the
    relative accuracy asked of X, sets the stop and the check below.
    Doubling (Smith's squared iteration) sums X = sum_i (L^T)^i C L^i: X_0 = C,
    M_0 = L, X_{j+1} = X_j + M_j^T X_j M_j and M_{j+1} = M_j^2 = L^(2^(j+1)),
    three ``dgemm`` called positionally and one ``ddot`` a step, writing into
    four Fortran n-by-n buffers (T = M^T X, two for M, the check's R) that one
    allocation per call gives (X in place, in a copy of C: L and C are not
    written), until ||M_{j+1}||_F^2 <= rtol / (4 (1 + ||L||_F^2)).  The power
    the step forms anyway bounds what is left: X_inf - X_{j+1} =
    M_{j+1}^T X_inf M_{j+1}, the residual of X_{j+1} is -M_{j+1}^T C M_{j+1}
    and ||C||_F <= (1 + ||L||_F^2) ||X||_F, so both are below about rtol
    ||X||_F / 4, and ||M_{j+1}||_F < 1 bounds rho(L)^(2^(j+1)) and so makes X
    unique.  A step whose m = ||M_j||_F^2 (||L||_F^2 at j = 0) has m^2 within
    that bound stops without forming M_j^2: ||M_j^2||_F <= ||M_j||_F^2, so the
    square would have passed, and the stop and X are those of a loop that
    squares.  X is accepted only when also ||X - L^T X L - C||_F <=
    rtol x / 4 + eps n (x + 2 y), x = ||X||_F and y = ||L^T X L||_F: the tail
    bound above plus the rounding of three products of inner dimension n, each
    about n eps times the size of what it forms (gamma_n, Higham 2002, sec.
    3.5): the last step's T M, at most x, and the check's two that form
    L^T X L.  It is taken once a ``ddot`` finds ||X||_F^2 finite: two
    ``dgemm`` form L^T X L in the call's buffers, and ``ddot`` takes the norms.
    When that test fails, a norm is not finite or the power is still large
    after :data:`STEIN_DOUBLINGS` steps, the Schur solve below runs; so
    rho(L) >= 1, a singular operator and a strongly non-normal L reach it.

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
    X = U R' W^T / scale, whose symmetric part is kept.

    L is real, so its spectrum is closed under conjugation and the
    operator's eigenvalues are 1 - lambda_i conj(lambda_j) over the
    eigenvalues lambda of L, read off S: its diagonal, and S[j, j] +- i
    sqrt(|S[j, j+1]|) sqrt(|S[j+1, j]|) for each 2x2 block.  Raises
    :class:`SingularSteinOperator` when the smallest of their moduli is at
    most 1e-10 times the largest (some pair of eigenvalues of L has product
    one) or when ``dtgsyl`` reports close eigenvalues,
    :class:`~nmesolve.exceptions.SolverFailure` when ``scipy.linalg.schur``
    finds no Schur form, :class:`~nmesolve.exceptions.Diverged` when X
    overflows, :class:`DimensionMismatch` when L is not a non-empty square
    real matrix or C not of its shape, and :class:`NonFiniteInput` when L or
    C holds NaN/Inf (float64 arrays of one shape are scanned only where
    ||C||_F^2 or ||L||_F^2 is not finite).  X is exactly symmetric.  O(n^3) time, O(n^2) memory.
    """
    if fast := (type(L) is type(C) is np.ndarray and L.dtype == C.dtype == float and L.ndim == 2
                and L.shape == C.shape and L.shape[0] == L.shape[1] > 0):
        L = np.asfortranarray(L)  # so both memory orders of L give the same bits
        c_sq, l_sq = _sum_sq(C), _sum_sq(L)
    if not (fast and math.isfinite(c_sq) and math.isfinite(l_sq)):  # NaN/Inf raise, not huge data
        L, C = np.asfortranarray(_square_real(L, "L")), _square_real(C, "C")
        if C.shape != L.shape:
            raise DimensionMismatch(f"Stein data L is {L.shape} and C is {C.shape}")
        c_sq, l_sq = _sum_sq(C), _sum_sq(L)
    c_norm = math.sqrt(c_sq) if 0.0 < c_sq < math.inf else float(np.abs(C).max())
    s = _pow2_scale(max(c_norm, min(c_norm * l_sq * 2.0 ** -1000, 1.0), 2.0 ** -1024))
    H = C * (0.5 / s)  # exact: s is a power of 2
    X = C = np.add(H, H.T, order="F")
    M, m, bound, n = L, l_sq, rtol / (4.0 * (1.0 + l_sq)), L.shape[0]
    gemm, ddot = scipy.linalg.blas.dgemm, scipy.linalg.blas.ddot
    # this call's four Fortran n-by-n buffers: T, the check's R and two for M
    T, R, *powers = np.empty((4, n, n)).transpose(0, 2, 1)
    for j in range(STEIN_DOUBLINGS):  # dgemm(alpha, a, b, beta, c, trans_a, trans_b, overwrite_c)
        gemm(1.0, M, X, 0.0, T, 1, 0, 1)  # T = M^T X: beta 0, so T's old entries are not read
        X = gemm(1.0, T, M, 1.0, X, 0, 0, j > 0)  # X += T M: in place, but at j = 0 in a copy of C
        if m * m <= bound:  # ||M^2||_F <= ||M||_F^2 = m: the square would pass, so it is not formed
            m *= m
            break
        M = gemm(1.0, M, M, 0.0, powers[j & 1], 0, 0, 1)  # M = M M in the buffer M is not in
        m = ddot(M, M)  # ||M||_F^2 over M's (Fortran) memory
        if m <= bound or not math.isfinite(m):
            break
    x = None  # ||X||_F of an accepted X / s
    if m <= bound and math.isfinite(_sum_sq(X)):  # so no op below can warn
        X = np.add(X, X.T, order="F") * 0.5  # X's symmetric part
        gemm(1.0, L, X, 0.0, T, 1, 0, 1)  # R = L^T X L by two dgemm, in this call's buffers
        gemm(1.0, T, L, 0.0, R, 0, 0, 1)
        x, y = math.sqrt(ddot(X, X)), math.sqrt(ddot(R, R))
        np.subtract(X, R, out=R)  # all Fortran-ordered
        R -= C
        if not math.sqrt(ddot(R, R)) <= rtol * x / 4.0 + _EPS * n * (x + 2.0 * y) < math.inf:
            x = None
    if x is None:  # the Schur solve
        try:
            T, U = scipy.linalg.schur(L.T)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"no Schur form of L ({exc})") from exc
        W = U[:, ::-1]
        S = T.T[::-1, ::-1]
        j = np.flatnonzero(np.diag(S, -1))  # rows j and j + 1 hold each 2x2 block of S
        wr, wi = np.diag(S), np.zeros(n)
        wi[j] = np.sqrt(np.abs(S[j, j + 1])) * np.sqrt(np.abs(S[j + 1, j]))
        wi[j + 1] = -wi[j]
        t = _pow2_scale(max(1.0, float(np.hypot(wr, wi).max())))  # the gaps / t^2 cannot overflow
        lam = wr / t + 1j * (wi / t)
        gaps = np.abs(1.0 / t / t - np.outer(lam, lam.conj()))
        singular = "Stein operator is rank deficient (an eigenvalue pair of L has product one)"
        if gaps.min() <= 1e-10 * gaps.max():
            raise SingularSteinOperator(singular)
        # rotate rows (j, j+1) of each 2x2 block of S to zero S[j+1, j]
        # (with no 2x2 block, G = I and S is already upper triangular)
        G = np.eye(n)
        if j.size:
            r = np.hypot(S[j, j], S[j + 1, j])
            cos, sin = S[j, j] / r, S[j + 1, j] / r
            G[j, j] = G[j + 1, j + 1] = cos
            G[j, j + 1] = sin
            G[j + 1, j] = -sin
            S = np.triu(G @ S)
        R, _, scale, _, info = scipy.linalg.lapack.dtgsyl(  # C.T: C / s in C order, which sets the bits
            T, G, np.zeros((n, n)), np.eye(n), S, U.T @ C.T @ W)
        if info > 0:
            raise SingularSteinOperator(singular)
        if not (scale and math.isfinite(_sum_sq(R) / scale / scale)):  # so forming X cannot warn
            raise Diverged("the solution of the Stein equation overflows")
        X = U @ R @ W.T / scale
        X = np.add(X, X.T, order="F") * 0.5
        x = math.sqrt(_sum_sq(X))
    if not math.isfinite(x * s) and not math.isfinite(float(np.abs(X).max()) * s):
        raise Diverged("the solution of the Stein equation overflows")
    return np.multiply(X, s, out=X)


def solve_newton(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Newton's method in correction form from X_0 = Q: X_{k+1} = X_k + E_k,
    E_k - L_k^T E_k L_k = R(X_k), L_k = X_k^{-1} A and R the residual kernel's.
    ``solve_stein`` solves it inexactly (Dembo, Eisenstat & Steihaug 1982), to
    rtol = eta_k = min(0.1, max(r_k, eps / r_k)), r_k the relative residual of
    X_k (eps / r_k is the relative accuracy of R(X_k) itself; 0.1 at r_k = 0,
    where E_k = 0): its doubling stops at ||M_j||_F^2 <= eta_k / (4 (1 +
    ||L_k||_F^2)), and its check allows eta_k ||E_k||_F / 4 besides rounding.
    A truncated sum of R(X_k) <= 0 lies between E_k and 0, so the iterates
    still descend monotonically from Q toward the maximal solution, and one
    whose trace exceeds tr(Q) by more than :data:`NEWTON_TRACE_RTOL` raises
    :class:`~nmesolve.exceptions.Diverged`.  With history on, record k's aux1
    is ``spectral_radius_ratio`` of the stored X_{k-1}, below one while healthy.
    """
    A, Q = problem.A, problem.Q
    run = _Run(A, Q, config, "newton")
    # when X+ exists, Q >= X_k >= X+ for every k, so a trace above Q's
    # (beyond roundoff) means there is no X+ to descend to; traces are taken over the
    # run's scale s of max |Q|, which an SPD Q has on its diagonal: diag(Q) / s < 2
    tr_q = float((Q.diagonal() / run.q_scale).sum())

    def steps():
        X, step = Q, 0.0
        while True:
            R, _, res, C, Y, _ = run.factored_residual(X)
            yield X, res, step, None, False
            # L_k^T = Y^T C^{-1}, in place on Y^T; the right side R(X_k) is exactly symmetric
            W = scipy.linalg.blas.dtrsm(1.0, C, Y.T, side=1, lower=1, overwrite_b=1).T
            try:  # the forcing term eta_k; at r_k = 0 (min_iter runs) E_k = 0 for any eta
                E = solve_stein(W, R, rtol=min(0.1, max(res, _EPS / res)) if res else 0.1)
            except SingularSteinOperator as exc:
                raise run.failure(SingularSteinOperator,
                                  f"Stein operator singular at iteration {run.k}") from exc
            except (NonFiniteInput, Diverged) as exc:
                raise run.failure(Diverged, f"iterate {run.k} is not finite") from exc
            except SolverFailure as exc:
                raise run.failure(SolverFailure, f"{exc} at iteration {run.k}") from exc
            X, step = X + E, math.sqrt(_sum_sq(E))
            rise = float((X.diagonal() / run.q_scale).sum()) / tr_q  # drive ignores its overflow
            if rise > 1.0 + NEWTON_TRACE_RTOL:
                raise run.failure(
                    Diverged, f"iterate {run.k} rose above Q: tr(X) / tr(Q) = {rise:.6g}")

    return run.drive(steps(), diagnose=lambda k: (spectral_radius_ratio(problem, run.out.iterates[k - 1]),))


def _mirrored(H: np.ndarray) -> np.ndarray:
    """H^T, exactly symmetric, once the lower triangle of a Fortran-ordered H is copied up."""
    n = H.shape[0]
    for j in range(0, n, 32):
        B = H[j:j + 32, j:j + 32]
        np.copyto(B, B.T, where=_PANEL_UPPER[:len(B), :len(B)])
        if j + 32 < n:  # the last panel has no columns right of it
            H[j:j + 32, j + 32:] = H[j + 32:, j:j + 32].T
    return H.T


def solve_sda(problem: NmeProblem, config: SolverConfig | None = None) -> SolveReport:
    """Structure-preserving doubling from A_0 = A, Q_0 = Q, P_0 = 0.

        A_{k+1} = A_k (Q_k - P_k)^{-1} A_k
        Q_{k+1} = Q_k - A_k^T (Q_k - P_k)^{-1} A_k
        P_{k+1} = P_k + A_k (Q_k - P_k)^{-1} A_k^T

    The solution is the limit of Q_k.  Each step factors D = Q_k - P_k = C C^T
    and inverts C once by ``problem._cholesky_inverse`` (``dtrtri`` of the
    ``dpotrf`` factor up to order 64; above, recursive and blocked, so that
    ``dtrmm`` and ``dsyrk`` do most of the work), whose ``dpotrf`` is also the
    test that D is SPD (a C^{-1} holding NaN on its diagonal, which ``dpotrf``
    passes, fails it too), and takes the updates as blocks of W^T W,
    [W_1, W_2] = C^{-1} [A_k, A_k^T] (``dtrmm``): W_2^T W_1 by ``dgemm``,
    Q_k - W_1^T W_1 and P_k + W_2^T W_2 by lower ``dsyrk`` copied to the upper
    triangle.  At n = 1 it factors D alone and stays sqrt-free,
    t = A_k (A_k / D): W^T W misses the dyadic critical closed forms by 1.1e-8.
    With history on, record k holds ||A_k||_F and min-eig(Q_k - P_k) of the stored
    iterates (aux1, aux2; NaN if not finite), positive whenever a solution exists.  Raises
    :class:`DoublingBreakdown` when Q_k - P_k stops being SPD.  With the default config, a
    problem whose A and Q (C-ordered) keep the bits of the run ``solvability_check`` kept for
    its verdict gets a deep copy of that run, bit for bit a fresh one.
    """
    A, Q = problem.A, problem.Q
    kept = vars(problem).get("_certified_run") if (config or SolverConfig()) == SolverConfig() else None
    if kept and all(F.flags.c_contiguous and F.tobytes() == K.tobytes()
                    for F, K in ((A, kept[0].A), (Q, kept[0].Q))):
        return copy.deepcopy(kept[1])
    run = _Run(A, Q, config, "sda")

    def steps():
        Ak, Qk, Pk = A.copy(), Q.copy(), np.zeros(Q.shape)
        n, cfg = A.shape[0], run.config
        a_k = a_scale = fro_norm(A / run.q_scale)  # a_k = ||A_k||_F / s
        a_gate = RESIDUAL_GATE * math.sqrt(cfg.tol) * run.q_fro
        step = 0.0
        while True:
            # doubling's own test; at k = 0 it is A = 0: the other form passes where a_scale overflows
            stop = a_k <= cfg.tol * a_scale if run.k else a_scale == 0.0
            # the residual is tested only where it can end the run (RESIDUAL_GATE)
            gated = math.inf > a_k > a_gate and not (stop or run.k == cfg.max_iter)
            res = None if gated else run.residual(Qk)
            yield Qk, res, step, {"A": Ak, "P": Pk}, stop
            try:  # Q_k.T - P_k.T is exactly Q_k - P_k, as both are symmetric, and Fortran-ordered;
                # C^{-1}, or at n = 1 C, whose diagonal holds NaN exactly where the other's does
                C = (_cholesky if n == 1 else _cholesky_inverse)(Qk.T - Pk.T, "Q_k - P_k")
                if math.isnan(C.diagonal().sum()):
                    raise NotPositiveDefinite("Q_k - P_k", "its Cholesky factor holds NaN")
            except NotPositiveDefinite as exc:
                raise run.failure(DoublingBreakdown, "Q_k - P_k lost positive definiteness "
                                  f"at iteration {run.k}") from exc
            if n == 1:  # sqrt-free, so the dyadic closed forms stay exact (see the docstring)
                Ak, Qk, Pk, step = (t := Ak * (Ak / (Qk - Pk))), Qk - t, Pk + t, float(t[0, 0])
            else:  # W = C^{-1} [A_k, A_k^T]; its operands, Q_k.T and P_k.T are Fortran-ordered
                blas = scipy.linalg.blas
                W = blas.dtrmm(1.0, C, np.concatenate((Ak.T, Ak)).T, lower=1, overwrite_b=1)
                Ak, step = blas.dgemm(1.0, W[:, n:], W[:, :n], trans_a=1), _sum_sq(W[:, :n])
                Qk = _mirrored(blas.dsyrk(-1.0, W[:, :n], beta=1.0, c=Qk.T, trans=1, lower=1))
                Pk = _mirrored(blas.dsyrk(1.0, W[:, n:], beta=1.0, c=Pk.T, trans=1, lower=1))
            a_k = fro_norm(Ak) / run.q_scale

    def diagnose(k):  # record k: ||A_k||_F and min-eig(Q_k - P_k), NaN where that is not finite
        A_k, D = run.out.aux_iterates["A"][k], run.out.iterates[k] - run.out.aux_iterates["P"][k]
        return fro_norm(A_k), float(np.linalg.eigvalsh(D).min()) if np.isfinite(D).all() else math.nan

    return run.drive(steps(), nonfinite_fatal=False, diagnose=diagnose)


def solve_sda_scalar(a: float, q: float, config: SolverConfig | None = None) -> SolveReport:
    """Doubling for the scalar equation x + a^2/x = q: :func:`solve_sda` on
    ``new_problem([[a]], [[q]])``, so a and q are read as its A and Q and the
    report holds q_k in ``iterates`` and a_k, p_k in ``aux_iterates`` ("A", "P")
    as 1-by-1 arrays."""
    return solve_sda(new_problem([[a]], [[q]]), config)


_DISPATCH = {
    Algorithm.FIXED_POINT: solve_fixed_point,
    Algorithm.INVERSION_FREE: solve_inversion_free,
    Algorithm.NEWTON: solve_newton,
    Algorithm.SDA: solve_sda,
}


def solve(problem: NmeProblem, algorithm: Algorithm | str,
          config: SolverConfig | None = None) -> SolveReport:
    """Run the solver of ``algorithm``, an :class:`Algorithm` or its name ("fixed-point",
    "inversion-free", "newton" or "sda"); another name raises ValueError."""
    return _DISPATCH[Algorithm(algorithm)](problem, config)


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
    geometric mean of successive ratios over the tail; a mean of STALL_RATIO or
    more, or last two ratios both above 1 (a growing tail), is stalled.  The
    sequence ends at its first entry that is not finite and positive (exact
    convergence and an overflow carry no information).  Raises
    :class:`InsufficientHistory` for fewer than 4 usable entries.
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
    if gmean >= STALL_RATIO or vals[-1] > vals[-2] > vals[-3]:
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
