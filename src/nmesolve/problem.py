"""Problem data, pencil construction, and diagnostics for X + A^T X^{-1} A = Q.

The equation is posed over real n-by-n matrices with Q symmetric positive
definite.  A problem instance pairs with a 2n-by-2n matrix pencil (M, L):

    M = [A  0 ]      L = [-P  I]        (P = 0 on construction)
        [Q  -I]          [A^T 0]

whose generalized eigenvalues carry the spectrum of X^{-1}A for any solution
X.  The pencil is symplectic, M J M^T = L J L^T, so its spectrum is closed
under lambda -> 1/lambda.  Solvability is decided through the rational matrix
function psi(lambda) = Q + lambda A + lambda^{-1} A^T: a positive definite
solution exists iff psi is positive semidefinite on the unit circle, and the
pencil's unimodular eigenvalues locate the points where psi is singular.

All symmetric intermediates are re-symmetrized as (X + X^T)/2: roundoff
destroys exact symmetry and downstream factorizations assume it.  The
residual needs no such step: ``cholesky_residual`` forms it exactly
symmetric.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.linalg import cho_solve

from . import serialize
from .exceptions import (
    DimensionMismatch,
    EigensolverFailure,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSSF2Pencil,
    NotSymmetric,
    OddDimension,
    ProblemFileError,
    ZeroLambda,
)

__all__ = [
    "NmeProblem",
    "SymplecticPencil",
    "Residual",
    "Verdict",
    "SolvabilityVerdict",
    "symmetric_part",
    "new_problem",
    "residual",
    "build_pencil",
    "canonical_skew",
    "is_symplectic_pencil",
    "ssf2_blocks",
    "psi",
    "solvability_check",
    "spectral_radius_ratio",
    "invariant_subspace_defect",
    "load_problem",
    "save_problem",
]

#: Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-12

#: How far |alpha| and |beta| of a pencil eigenvalue may differ, relative to
#: the larger, for its angle to be critical (``_critical_angles``).  Loose on
#: purpose: rounding moves a defective unimodular pair off the circle by about
#: sqrt(eps * condition), and an extra critical angle costs one evaluation of
#: psi but cannot change a correct verdict or a null vector of psi.
UNIMODULAR_RTOL = 1e-4

#: A pencil factor F with max |Im F| <= REAL_RTOL * ||F||_F is stored real.
REAL_RTOL = 1e-10
#: Tolerances of ``is_symplectic_pencil`` and ``ssf2_blocks``, and the grid
#: size and tolerance of ``solvability_check`` (see their docstrings).
SYMPLECTIC_RTOL = 1e-13
SSF2_RTOL = 1e-10
SOLVABILITY_SAMPLES = 64
SOLVABILITY_TOL = 1e-10


class Verdict(Enum):
    SOLVABLE = "solvable"
    NOT_SOLVABLE = "not-solvable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class NmeProblem:
    """A validated pair (A, Q): Q symmetric positive definite, same shape as A."""

    A: np.ndarray
    Q: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SymplecticPencil:
    """A 2n-by-2n pair (M, L) as ``_matrix`` reads them, real exactly when its
    arrays are real: a factor whose imaginary part is negligible
    (:data:`REAL_RTOL`) is stored real; other layers read realness from dtype."""

    M: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        M, L = _matrix(self.M, "M"), _matrix(self.L, "L")
        if M.shape[0] != M.shape[1] or M.shape != L.shape or not M.size:
            raise DimensionMismatch("pencil factors must be non-empty, square and equally sized")
        for name, F in (("M", M), ("L", L)):
            if np.iscomplexobj(F) and (np.max(np.abs(F.imag), initial=0.0)
                                       <= REAL_RTOL * fro_norm(F)):
                F = F.real
            object.__setattr__(self, name, F)

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    @property
    def half(self) -> int:
        return self.M.shape[0] // 2


@dataclass(frozen=True)
class Residual:
    """R(X) = Q - X - A^T X^{-1} A with its norms (see :func:`cholesky_residual`)."""

    matrix: np.ndarray
    fro_norm: float
    rel_norm: float


@dataclass(frozen=True)
class SolvabilityVerdict:
    regular: bool
    min_eig_on_circle: float
    verdict: Verdict


def symmetric_part(M: np.ndarray) -> np.ndarray:
    try:
        with np.errstate(over="raise"):
            return (M + M.T) / 2.0
    except FloatingPointError:
        # entries above ~9e307 whose mean fits: halve those, and only those
        # (halving rounds odd subnormals), before adding.  Only here: the
        # extra temporaries make the call slower
        with np.errstate(over="ignore"):
            S = (M + M.T) / 2.0
        big = np.isinf(S)
        S[big] = M[big] / 2.0 + M.T[big] / 2.0
        return S


def _pow2_scale(m: float) -> float:
    """The power of two s with m / s in [1, 2) for a finite m > 0 (1/2 for
    m = 0).  Unlike the next power of two above m, s cannot overflow."""
    return math.ldexp(1.0, math.frexp(m)[1] - 1)


def _unit_scaled(*Ms):
    """``(s, M_1 / s, M_2 / s, ...)``, s the ``_pow2_scale`` of the largest
    |entry| of the M_i: a test on them in these units cannot overflow."""
    s = _pow2_scale(max(np.max(np.abs(M), initial=0.0) for M in Ms))
    return (s, *(M / s for M in Ms))


def fro_norm(M) -> float:
    """||M||_F of a real or complex M, also where the sum of squares
    overflows or underflows.

    The value is ``np.linalg.norm(M)`` whenever that is positive and finite.
    Only when it reads 0 or inf for a finite, nonzero M is M first divided by
    ``_pow2_scale(max|M|)``, so norms stay homogeneous over the whole
    exponent range.
    """
    with np.errstate(over="ignore"):
        val = float(np.linalg.norm(M))
        if 0.0 < val < math.inf or not np.all(np.isfinite(M)):
            return val
        scale, Mu = _unit_scaled(M)
        return scale * float(np.linalg.norm(Mu))


def _matrix(M, name: str, dtype=None, finite=True) -> np.ndarray:
    """Caller data M as a 2-d float64 array, or complex128 where dtype is
    complex or (dtype None) M is complex; float64 data is not copied.  Complex
    data for dtype float, and non-numeric data, raise :class:`DimensionMismatch`;
    NaN/Inf raise :class:`NonFiniteInput` unless ``finite`` is False; an
    integer beyond the float range raises it always."""
    overflow = ""
    try:
        M = np.asarray(M)
        if M.ndim != 2 or M.dtype.kind not in ("biufO" if dtype is float else "biufcO"):
            raise TypeError(f"{M.dtype} data of shape {M.shape}")
        if M.dtype.kind == "O" and any(v is None for v in M.flat):
            raise TypeError("None is not a number")  # astype would read it as NaN
        M = M.astype(dtype or (complex if M.dtype.kind == "c" else float), copy=False)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name} is not a matrix of the required kind: {exc}") from exc
    except OverflowError as exc:  # a Python integer beyond the float range
        overflow = f" ({exc})"
    if overflow or (finite and not np.isfinite(M).all()):
        raise NonFiniteInput(f"{name} contains NaN/Inf{overflow}")
    return M


def _square_real(M, name: str) -> np.ndarray:
    M = _matrix(M, name, float)
    if M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be a non-empty square matrix, got shape {M.shape}")
    return M


def _cholesky(M: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of M, in Fortran order, from LAPACK ``dpotrf``
    (called directly: ``np.linalg.cholesky`` spends most of its time at small
    n in dispatch).  Failure is the SPD test: a nonpositive pivot raises
    :class:`NotPositiveDefinite` naming M.  As with ``np.linalg.cholesky``,
    NaN and inf pass ``dpotrf`` unflagged and show in the factor."""
    C, info = scipy.linalg.lapack.dpotrf(M, lower=1)
    if info:
        raise NotPositiveDefinite(name, f"the leading minor of order {info} is not positive")
    return C


def new_problem(A, Q) -> NmeProblem:
    """Validate and pack the data of X + A^T X^{-1} A = Q.

    A and Q must be real and finite (see ``_matrix``).  Q is checked for
    symmetry (max-abs asymmetry at most 1e-12 * ||Q||_F, both taken of Q / s
    for s = ``_pow2_scale(max|Q|)`` so that neither overflows), symmetrized,
    and then required to admit a Cholesky factorization.
    """
    A = _square_real(A, "A")
    Q = _square_real(Q, "Q")
    if A.shape != Q.shape:
        raise DimensionMismatch(f"A is {A.shape}, Q is {Q.shape}")
    _, Qu = _unit_scaled(Q)
    asym, q_fro = np.max(np.abs(Qu - Qu.T)), fro_norm(Qu)
    if asym > SYMMETRY_RTOL * q_fro:
        raise NotSymmetric(f"Q asymmetry {asym / q_fro:.3e} of ||Q||_F exceeds tolerance")
    Qs = symmetric_part(Q)
    _cholesky(Qs, "Q")
    return NmeProblem(A=A.copy(), Q=Qs)


def _candidate(A: np.ndarray, X) -> np.ndarray:
    """Validate the shape (A's) and finiteness of a candidate X; returns Xs = (X + X^T)/2."""
    X = _square_real(X, "X")
    if X.shape != A.shape:
        raise DimensionMismatch(f"X is {X.shape}, A is {A.shape}")
    return symmetric_part(X)


def _candidate_w(A: np.ndarray, X) -> tuple[np.ndarray, np.ndarray]:
    """Validate an SPD candidate X; returns Xs = (X + X^T)/2 and W = Xs^{-1} A by
    ``cho_solve`` (``dpotrs``) on the Cholesky factor that tests Xs."""
    Xs = _candidate(A, X)
    return Xs, cho_solve((_cholesky(Xs, "X"), True), A)


def cholesky_residual(A: np.ndarray, Q: np.ndarray, X: np.ndarray, q_fro: float,
                      q_scale: float = 1.0) -> tuple[Residual, np.ndarray, np.ndarray]:
    """R(X) = Q - X - A^T X^{-1} A from the lower Cholesky factor of X.

    With X = C C^T and Y = C^{-1} A (one triangular solve), A^T X^{-1} A is
    Y^T Y, which numpy forms as a symmetric rank-k update, so R is exactly
    symmetric when Q and X are.  ``q_fro`` is ||Q / q_scale||_F for a power
    of two ``q_scale``, and the relative norm is (||R||_F / q_scale) / q_fro,
    which stays finite when ||Q||_F overflows.  Returns
    ``(residual, C, Y)``, C in Fortran order as ``_cholesky`` returns it, so
    W = X^{-1} A is one more solve C^T W = Y, the pair of solves
    ``cho_solve`` makes.  An X without a Cholesky factor raises
    :class:`NotPositiveDefinite`; a residual that overflows or is NaN gives
    norms inf.
    """
    C = _cholesky(X, "X")
    Y = scipy.linalg.blas.dtrsm(1.0, C, A, lower=1)
    with np.errstate(invalid="ignore", over="ignore"):
        R = Q - X - Y.T @ Y
        fro = fro_norm(R)
        rel = fro / q_scale / q_fro
    if not math.isfinite(rel):
        fro = rel = math.inf
    return Residual(matrix=R, fro_norm=fro, rel_norm=rel), C, Y


def residual(problem: NmeProblem, X) -> Residual:
    """Evaluate R(X) = Q - X - A^T X^{-1} A for an SPD candidate X; raises
    :class:`NonFiniteInput` when X holds NaN/Inf and
    :class:`NotPositiveDefinite` when (X + X^T)/2 has no Cholesky factor."""
    Xs = _candidate(problem.A, X)
    s, Qu = _unit_scaled(problem.Q)
    return cholesky_residual(problem.A, problem.Q, Xs, fro_norm(Qu), s)[0]


def _pencil(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eye, zero = np.eye(A.shape[0]), np.zeros(A.shape)
    return np.block([[A, zero], [Q, -eye]]), np.block([[zero, eye], [A.T, zero]])


def build_pencil(problem: NmeProblem) -> SymplecticPencil:
    """Assemble the SSF-2 pencil of the problem (with P = 0), in real arrays."""
    return SymplecticPencil(*_pencil(problem.A, problem.Q))


def canonical_skew(n: int) -> np.ndarray:
    """The 2n-by-2n skew matrix J = [0 I; -I 0]."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def is_symplectic_pencil(pencil: SymplecticPencil) -> bool:
    """True iff ||M J M^T - L J L^T||_F <= SYMPLECTIC_RTOL * (||M||_F + ||L||_F)^2,
    tested on (M, L) divided by the ``_pow2_scale`` of their largest entry,
    so that the test is homogeneous."""
    if pencil.dim % 2 != 0:
        raise OddDimension(f"pencil dimension {pencil.dim} is odd")
    J = canonical_skew(pencil.half)
    _, M, L = _unit_scaled(pencil.M, pencil.L)
    defect = np.linalg.norm(M @ J @ M.T - L @ J @ L.T)
    scale = (np.linalg.norm(M) + np.linalg.norm(L)) ** 2
    return bool(defect <= SYMPLECTIC_RTOL * scale)


def ssf2_blocks(pencil: SymplecticPencil):
    """Extract (A, Q, P) from a real pencil that matches the SSF-2 layout.

    Raises :class:`NotSSF2Pencil` (a ``ValueError``) for a complex pencil, and
    when the fixed blocks (zeros, identities, the repeated A block) deviate
    by more than :data:`SSF2_RTOL` times the entry scale.
    """
    if pencil.dim % 2 != 0:
        raise OddDimension(f"pencil dimension {pencil.dim} is odd")
    n = pencil.half
    M, L = pencil.M, pencil.L
    if np.iscomplexobj(M) or np.iscomplexobj(L):
        raise NotSSF2Pencil("pencil has non-negligible imaginary parts")
    eye = np.eye(n)
    fixed = (M[:n, n:], M[n:, n:] + eye, L[:n, n:] - eye, L[n:, n:], L[n:, :n] - M[:n, :n].T)
    scale = max(np.max(np.abs(M)), np.max(np.abs(L)), 1.0)
    if max(np.max(np.abs(B)) for B in fixed) > SSF2_RTOL * scale:
        raise NotSSF2Pencil("pencil does not match the SSF-2 block pattern")
    return M[:n, :n].copy(), M[n:, :n].copy(), -L[:n, :n].copy()


def psi(problem: NmeProblem, lam: complex) -> np.ndarray:
    """Evaluate psi(lambda) = Q + lambda A + lambda^{-1} A^T (complex n-by-n).

    Hermitian whenever |lambda| = 1, since A and Q are real.  lambda must be
    a finite number (see ``_matrix``).
    """
    lam = complex(_matrix([[lam]], "lambda", complex)[0, 0])
    if lam == 0:
        raise ZeroLambda("psi is undefined at lambda = 0")
    return problem.Q.astype(complex) + lam * problem.A + (1.0 / lam) * problem.A.T


def _eigs_on_circle(A: np.ndarray, Q: np.ndarray, thetas) -> np.ndarray:
    """Every eigenvalue of psi(e^{i theta}), ascending, one row per theta, by
    stacked eigvalsh calls of SOLVABILITY_SAMPLES // 2 + 1 matrices at most
    (eigvalsh reads the lower triangle, so psi need not be re-symmetrized)."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty((thetas.size, A.shape[0]))
    chunk = SOLVABILITY_SAMPLES // 2 + 1
    for start in range(0, thetas.size, chunk):
        z = np.exp(1j * thetas[start:start + chunk])[:, None, None]
        H = z * A
        H += z.conj() * A.T
        H += Q
        out[start:start + chunk] = np.linalg.eigvalsh(H)
    return out


def _brent_min(f, x: float, fx: float, f_before: float, f_after: float,
               step: float, xtol: float, ftol: float, even: bool) -> float:
    """Smallest value of f met by Brent's minimization (Brent 1973, ch. 5)
    on [x - step, x + step], seeded with fx = f(x), f_before = f(x - step)
    and f_after = f(x + step).

    Each step fits a parabola through x (the best point so far), w (the
    second best) and v (the previous w) and moves to its vertex when that
    lies inside the bracket and moves less than half the step before last;
    otherwise it takes a golden-section step into the larger part of the
    bracket.  A move shorter than xtol / 2, or a vertex within xtol of an
    end, becomes a probe xtol / 2 from x toward the larger part, which
    shrinks the bracket most.  Stops when the bracket lies within xtol of x,
    or when f at x, w and v differs by at most ftol, f's own error, so that
    a parabola would fit noise.

    ``even`` says f is even about the seed x.  A parabola through the seeds
    then has its vertex at x and says nothing, so the first step is a
    golden-section one.  While x is still the seed, the model is a parabola
    in (theta - x)^2 through x, w and v: the step goes to its minimum when x
    is a maximum of the model, and is a probe xtol / 2 from x otherwise; and
    a probe that rises cuts the bracket on both sides of x.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    tol = xtol / 2.0
    centre = x
    a, b = x - step, x + step
    (fw, w), (fv, v) = sorted(((f_before, a), (f_after, b)))
    d = e = 0.0 if even else step  # step: as if x had been reached from its neighbours
    while True:
        mid = (a + b) / 2.0
        if abs(x - mid) <= xtol - (b - a) / 2.0 or max(fw, fv) - fx <= ftol:
            return fx
        last, e = e, d
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        sw, sv = (w - x) ** 2, (v - x) ** 2
        if even and x == centre and sw != sv:
            # f = fx + k s + m s^2 in s = (theta - x)^2 through w and v
            k = ((fw - fx) * sv * sv - (fv - fx) * sw * sw) / (sw * sv * (sv - sw))
            m = ((fv - fx) * sw - (fw - fx) * sv) / (sw * sv * (sv - sw))
            d = -math.sqrt(-k / (2.0 * m)) if k < 0.0 < m else 0.0
            if x + d <= a:
                e = a - x
                d = golden * e
        elif abs(last) > tol and abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - x - d) < xtol:
                d = math.copysign(tol, mid - x)
        else:
            e = (a if x >= mid else b) - x
            d = golden * e
        if abs(d) < tol:
            d = math.copysign(tol, mid - x)
        u = x + d
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if even and x == centre:
                a, b = max(a, 2.0 * x - b), min(b, 2.0 * x - a)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


#: The last ``_critical_angles`` result, read-only.  One entry: enough for
#: ``detect_unimodular`` after ``solvability_check`` of one (A, Q) to share it.
_last_qz = None


def _critical_angles(A: np.ndarray, Q: np.ndarray):
    """``(scale, A / scale, Q / scale, regular, angles, points, spectra)``:
    scale the ``_pow2_scale`` of max |A|, |Q|, regular and the angles from one
    real QZ of the scaled pencil (see :func:`solvability_check`; a failed QZ
    raises :class:`EigensolverFailure`), points 0, the angles and pi, unique,
    and spectra psi's eigenvalues at each angle, then at each arc midpoint of
    points.  The last result is remembered and, when the scale and the bits of
    the scaled pair equal it, returned as the QZ would give it again, read-only."""
    global _last_qz
    scale, A, Q = _unit_scaled(A, Q)
    last = _last_qz
    # bits, not values: -0.0 == 0.0, but the QZ may tell them apart
    if (last is not None and last[0] == scale and last[1].tobytes() == A.tobytes()
            and last[2].tobytes() == Q.tobytes()):
        return last
    M, L = _pencil(A, Q)
    try:
        alpha, beta = scipy.linalg.eigvals(M, L, homogeneous_eigvals=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverFailure(str(exc)) from exc
    mod_a, mod_b = np.abs(alpha), np.abs(beta)
    tiny = M.shape[0] * np.finfo(float).eps
    negligible = (mod_a <= tiny * np.linalg.norm(M)) & (mod_b <= tiny * np.linalg.norm(L))
    unimodular = ~negligible & (np.abs(mod_a - mod_b) <= UNIMODULAR_RTOL * np.maximum(mod_a, mod_b))
    # angle(mu) for mu = -conj(alpha / beta), folded into [0, pi]
    angles = np.unique(np.abs(np.angle(-alpha[unimodular].conj() * beta[unimodular])))
    points = np.unique(np.concatenate(([0.0], angles, [math.pi])))
    spectra = _eigs_on_circle(A, Q, np.concatenate((angles, (points[:-1] + points[1:]) / 2)))
    for F in (A, Q, angles, points, spectra):
        F.flags.writeable = False
    _last_qz = scale, A, Q, not np.any(negligible), angles, points, spectra
    return _last_qz


def solvability_check(problem: NmeProblem) -> SolvabilityVerdict:
    """Decide whether the maximal solution X+ exists, from the pencil.

    X+ exists iff psi(e^{i theta}) is positive semidefinite on the whole
    unit circle (Engwerda, Ran & Rijkeboer, LAA 186, 1993).  Its smallest
    eigenvalue can change sign only where psi is singular, and since
    det(M - lambda L) = +-lambda^n det psi(-1/lambda), psi is singular on the
    circle exactly at mu = -conj(lambda) for the unimodular eigenvalues
    lambda of the SSF-2 pencil.  One real QZ of the pencil gives these
    critical angles; psi(e^{-i theta}) = conj psi(e^{i theta}), so they fold
    into [0, pi].  lambda_min(psi) is then evaluated at

    * the angles 2 pi j / SOLVABILITY_SAMPLES in [0, pi] (a coarse grid),
    * each critical angle and the midpoint of each arc between them,
    * the steps of a Brent search (``_brent_min``) within one grid step of
      the best grid point, seeded with the values of that point and its two
      grid neighbours and run until it locates a minimizer to 1e-7 rad or
      its values agree to eigvalsh's error; at 0 and pi, where lambda_min is
      even, it starts with a golden-section step, so that a minimum off the
      grid angle on either side is searched too,

    and ``min_eig_on_circle`` is the smallest value found.  NOT_SOLVABLE
    when some value is below -SOLVABILITY_TOL; otherwise SOLVABLE when the
    pencil is regular (no eigenvalue pair (alpha, beta) with both entries
    negligible), INCONCLUSIVE when it is not.  A and Q are first divided by
    the power of two s with max |A|, |Q| / s in [1, 2), so the tolerance is
    relative to that scale and (A, Q) -> (2^k A, 2^k Q) keeps the verdict and
    scales the minimum by 2^k.  A failed QZ raises EigensolverFailure; the QZ
    and psi's spectra on the arcs come from ``_critical_angles``, as in ``detect_unimodular``."""
    scale, A, Q, regular, _, _, spectra = _critical_angles(problem.A, problem.Q)
    chunk = SOLVABILITY_SAMPLES // 2 + 1
    step = 2.0 * math.pi / SOLVABILITY_SAMPLES
    grid = step * np.arange(chunk)
    on_grid = _eigs_on_circle(A, Q, grid)[:, 0]
    # lambda_min is even about 0 and pi, so there the missing outer neighbour
    # of the best grid point has the value of its inner one.  eigvalsh's
    # error is about n eps ||psi||, and ||psi|| <= ||Q|| + 2 ||A||
    i = int(np.argmin(on_grid))
    even = i in (0, chunk - 1)
    ftol = A.shape[0] * np.finfo(float).eps * (np.linalg.norm(Q) + 2.0 * np.linalg.norm(A))
    refined = _brent_min(lambda t: float(_eigs_on_circle(A, Q, [t])[0, 0]),
                         grid[i], on_grid[i], on_grid[abs(i - 1)],
                         on_grid[i + 1 if i + 1 < chunk else i - 1], step, 1e-7, ftol, even)
    min_eig = min(float(on_grid.min()), float(spectra[:, 0].min()), refined)
    if min_eig < -SOLVABILITY_TOL:
        verdict = Verdict.NOT_SOLVABLE
    elif regular:
        verdict = Verdict.SOLVABLE
    else:
        verdict = Verdict.INCONCLUSIVE
    return SolvabilityVerdict(regular=regular, min_eig_on_circle=scale * min_eig,
                              verdict=verdict)


def spectral_radius(W: np.ndarray) -> float:
    """max |eig(W)|, zero for an empty matrix."""
    eigs = np.linalg.eigvals(W)
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def spectral_radius_ratio(problem: NmeProblem, X) -> float:
    """rho(X^{-1} A) for an SPD candidate X."""
    return spectral_radius(_candidate_w(problem.A, X)[1])


def invariant_subspace_defect(problem: NmeProblem, X) -> float:
    """|| M [I; X] - L [I; X] X^{-1} A ||_F, taken by blocks; zero exactly when X solves it."""
    Xs, W = _candidate_w(problem.A, X)
    return fro_norm(np.vstack((problem.A - Xs @ W, problem.Q - Xs - problem.A.T @ W)))


def load_problem(path) -> NmeProblem:
    """Read a problem file: {"n": int, "A": [n*n row-major], "Q": [n*n row-major]}.

    Entries must be finite JSON numbers (see ``serialize.read_numbers``).
    """
    data = serialize.load_json(path, ("n", "A", "Q"))
    n = data["n"]
    if type(n) is not int or n <= 0:
        raise ProblemFileError(f"{path}: n must be a positive integer")
    return new_problem(*(serialize.read_numbers(data[key], n * n, f"{path}: {key}").reshape(n, n)
                         for key in ("A", "Q")))


def problem_payload(problem: NmeProblem) -> dict:
    """The JSON object of a problem file (see :func:`load_problem`)."""
    return {
        "n": problem.n,
        "A": problem.A.ravel().tolist(),
        "Q": problem.Q.ravel().tolist(),
    }


def save_problem(problem: NmeProblem, path) -> None:
    serialize.dump_json(problem_payload(problem), path)
