"""Exception hierarchy for nmesolve.

Everything raised on purpose by this package derives from :class:`NmeError`,
so callers can catch one type at an API boundary.  Solver failures
additionally carry the partial :class:`~nmesolve.solvers.SolveReport`
accumulated before the failure (attribute ``report``), which is what the
benchmark harness records for runs that do not converge.
"""


class NmeError(Exception):
    """Base class for all nmesolve errors."""


class DimensionMismatch(NmeError):
    """Input matrices are not square or their dimensions disagree."""


class NonFiniteInput(NmeError):
    """An input matrix holds NaN or Inf entries."""


class NotSymmetric(NmeError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class NotPositiveDefinite(NmeError):
    """A symmetric factorization failed for a matrix required to be SPD."""

    def __init__(self, name: str = "matrix", detail: str = ""):
        msg = f"{name} is not positive definite"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.name = name


class OddDimension(NmeError):
    """A pencil operation needs an even-dimensional matrix pair."""


class ZeroLambda(NmeError):
    """The rational matrix function is undefined at lambda = 0."""


class ProblemFileError(NmeError):
    """A problem/pencil file is structurally invalid (bad keys, NaN/Inf, ...)."""


class InsufficientHistory(NmeError):
    """Not enough samples to fit a convergence-rate model."""


class SolverFailure(NmeError):
    """Numerical failure inside an iterative solver.

    ``report`` holds the partial solve report (``converged=False``); every
    failure of a ``solve_*`` function carries one, a bare :func:`solve_stein`
    failure does not.  ``iteration`` is the 1-based step at which the failure
    was detected.
    """

    def __init__(self, message: str, report=None, iteration: int | None = None):
        super().__init__(message)
        self.report = report
        self.iteration = iteration


class LostPositiveDefiniteness(SolverFailure):
    """An iterate that must stay SPD failed its factorization."""


class MaxIterationsExceeded(SolverFailure):
    """The iteration budget ran out before the residual tolerance was met."""


class SingularSteinOperator(SolverFailure):
    """The linear operator X -> X - L^T X L is (numerically) singular."""


class DoublingBreakdown(SolverFailure):
    """The doubling iteration produced a non-SPD pivot block."""


class Diverged(SolverFailure):
    """The relative residual grew by more than 1e6 from its running minimum,
    or an iterate that met the stopping test is not finite."""


class ShiftError(NmeError):
    """Base class for eigenvalue-shifting errors."""


class NotAnEigenpair(ShiftError):
    """A supplied (vector, value) pair does not satisfy Mv = lambda Lv."""


class NotNormalized(ShiftError):
    """The shift direction r does not satisfy r^T v = 1."""


class SpecInvariantViolated(ShiftError):
    """Shift factors do not satisfy R1^T V = target - current, R2^T V = 0."""


class RankDeficientV(ShiftError):
    """The eigenvector block V does not have full column rank."""


class RepeatedEigenvalue(ShiftError):
    """Simultaneous shifts require pairwise distinct current eigenvalues."""


class ConjugateClosureViolated(ShiftError):
    """Shifting a real pencil requires conjugate-closed eigenvalue sets."""


class EigensolverFailure(ShiftError):
    """The generalized eigenvalue computation did not converge."""


class InvalidR(ShiftError):
    """A shift ratio is outside (0, 1) or the schedule is not increasing."""


class NotCriticalCase(ShiftError):
    """The shifted scalar pipeline only applies when q = 2|a| (to 1e-8)."""


class ReciprocalPairingWarning(RuntimeWarning):
    """Requested target eigenvalues are not closed under lambda -> 1/lambda.

    Shifting a symplectic pencil to such targets destroys the reciprocal
    pairing of its spectrum; the operation is still performed.
    """
