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
pencil's unimodular eigenvalues locate the points where psi is singular; from
order SOLVE_FIRST_N a doubling run finds them, which the problem keeps for solve_sda.

Symmetric intermediates stay exactly symmetric, as downstream factorizations
assume: ``cholesky_residual`` and the doubling step form them so, and other
products are re-symmetrized as (X + X^T)/2.
"""

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.linalg import cho_solve

from . import serialize
from .exceptions import (
    DimensionMismatch,
    EigensolverFailure,
    NmeError,
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

#: The order from which ``_critical_angles`` solves before any QZ.  Below it the QZ alone
#: is the cheaper cold verdict at rho = 1 (one thread, Intel Xeon: 1.1 against 1.2 ms at
#: n = 28, 1.3 both at n = 30, 11.8 against 4.5 at n = 64).
SOLVE_FIRST_N = 30

#: A pencil factor F with max |Im F| <= REAL_RTOL * ||F||_F is stored real.
REAL_RTOL = 1e-10
#: Tolerances of ``is_symplectic_pencil``, ``ssf2_blocks`` and
#: ``solvability_check`` (see their docstrings).
SYMPLECTIC_RTOL = 1e-13
SSF2_RTOL = 1e-10
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
    """A 2n-by-2n pair (M, L) as ``_matrix`` reads them (an odd order raises :class:`OddDimension`),
    real exactly when its arrays are real: a factor F with negligible imaginary part
    (:data:`REAL_RTOL`, taken of F / s, s the power of two of its largest part) is stored real."""

    M: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        M, L = _matrix(self.M, "M"), _matrix(self.L, "L")
        if M.shape[0] != M.shape[1] or M.shape != L.shape or not M.size:
            raise DimensionMismatch("pencil factors must be non-empty, square and equally sized")
        if M.shape[0] % 2:
            raise OddDimension(f"pencil dimension {M.shape[0]} is odd")
        for name, F in (("M", M), ("L", L)):
            if np.iscomplexobj(F):
                _, mu = _unit_scaled(F.ravel("K").view(float))  # real, imaginary, ...
                if np.max(np.abs(mu[1::2]), initial=0.0) <= REAL_RTOL * fro_norm(mu):
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
    """See :func:`solvability_check`, which also says how ``min_eig_on_circle``
    is found and when: with the verdict where it decides, else at its first read."""

    regular: bool
    verdict: Verdict
    #: (scale, A / scale, Q / scale, lambda_min on the arcs, eigvalsh's error), read-only
    _circle: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def min_eig_on_circle(self) -> float:
        scale, *circle = self._circle
        return scale * _level_min(*circle)


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
    s = _pow2_scale(max(np.abs(M).max(initial=0.0) for M in Ms))
    return (s, *(M / s for M in Ms))


def _sum_sq(M) -> float:
    """Sum of squares of a real M, one ``ddot`` over its memory: no copy, no warning."""
    return scipy.linalg.blas.ddot(m, m) if (m := M.ravel("K")).size else 0.0


def fro_norm(M) -> float:
    """||M||_F of a real or complex M, also where the sum of squares
    overflows or underflows.

    It is sqrt ``_sum_sq`` of the real and imaginary parts of M; for a real M,
    numpy's ``norm`` of M bit for bit.  Only when it reads 0, inf or NaN for a
    finite, nonzero M is m first divided by ``_pow2_scale(max|m|)``, so norms
    stay homogeneous.
    """
    m = M.ravel("K").view(M.real.dtype)  # a complex |z| overflows where re, im do not
    val = math.sqrt(_sum_sq(m))
    if 0.0 < val < math.inf or not np.isfinite(m).all():
        return val
    scale, mu = _unit_scaled(m)
    return scale * math.sqrt(_sum_sq(mu))


def _matrix(M, name: str, dtype=None) -> np.ndarray:
    """Caller data M as a 2-d float64 array, or complex128 where dtype is
    complex or (dtype None) M is complex; float64 data is not copied.  Complex
    data for dtype float, and non-numeric data, raise :class:`DimensionMismatch`;
    NaN/Inf, and an integer beyond the float range, :class:`NonFiniteInput`."""
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
    # a finite vdot(M, M) shows M finite; only where it is not is M scanned
    if overflow or (not math.isfinite(abs(np.vdot(m := M.ravel("K"), m)))
                    and not np.isfinite(m).all()):
        raise NonFiniteInput(f"{name} contains NaN/Inf{overflow}")
    return M


def _square_real(M, name: str) -> np.ndarray:
    M = _matrix(M, name, float)
    if M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be a non-empty square matrix, got shape {M.shape}")
    return M


def _cholesky(M: np.ndarray, name: str, offset: int = 0) -> np.ndarray:
    """Lower Cholesky factor of M in the lower triangle of a Fortran-ordered array, from
    LAPACK ``dpotrf`` (``np.linalg.cholesky`` spends most of its time at small n in
    dispatch); the strict upper triangle, which no caller reads, keeps M's entries.  The SPD
    test: a nonpositive pivot raises :class:`NotPositiveDefinite` naming M and the order of
    its first nonpositive leading minor, plus ``offset`` when M is a trailing Schur
    complement of the named matrix.  As with ``np.linalg.cholesky``, NaN and inf pass
    ``dpotrf`` unflagged and show in the factor."""
    C, info = scipy.linalg.lapack.dpotrf(M, lower=1, clean=0)
    if info:
        raise NotPositiveDefinite(
            name, f"the leading minor of order {offset + info} is not positive")
    return C


#: The order up to which ``_cholesky_inverse`` is ``dpotrf`` and ``dtrtri`` alone.  Above
#: it a split pays, as OpenBLAS runs ``dtrtri`` at a sixth of the rate of ``dtrmm`` and
#: ``dsyrk`` (7 against 43 and 45 GFlop/s at n = 256, one thread, Intel Xeon): one split
#: takes 138 in place of 203 us at n = 128.  At n = 64 it gains at most 4% (34 against
#: 36 us), so every solve up to order 64 keeps the bits of the unsplit factor and inverse.
_INVERSE_LEAF = 64


def _cholesky_inverse(M: np.ndarray, name: str, offset: int = 0) -> np.ndarray:
    """C^{-1} in the lower triangle of a Fortran-ordered array, for the lower Cholesky
    factor C of M, whose lower triangle alone is read; M is not written.  Up to order
    :data:`_INVERSE_LEAF` it is ``dtrtri`` of ``_cholesky(M)``, and its strict upper
    triangle keeps M's entries.  Above, with M halved at k = n // 2, it is recursive and
    blocked (Gustavson 1997): I_11 = C_11^{-1}, C_21 = M_21 I_11^T (``dtrmm``), I_22 the
    inverse factor of S = M_22 - C_21 C_21^T (``dsyrk``) and I_21 = -I_22 C_21 I_11 (two
    ``dtrmm``); the strict upper triangle is left unset.  Each leaf's ``_cholesky`` is the
    SPD test, and names the order of M's own leading minor: M's leading minors are
    positive exactly when M_11's and S's are.  The diagonal of C^{-1} holds 1 / c_ii, so
    it holds NaN exactly where C does."""
    n = M.shape[0]
    if n <= _INVERSE_LEAF:
        return scipy.linalg.lapack.dtrtri(_cholesky(M, name, offset), lower=1, overwrite_c=1)[0]
    k, blas = n // 2, scipy.linalg.blas
    inverse = np.empty((n, n), order="F")
    inverse[:k, :k] = I11 = _cholesky_inverse(M[:k, :k], name, offset)
    C21 = blas.dtrmm(1.0, I11, M[k:, :k], side=1, lower=1, trans_a=1)
    inverse[k:, k:] = I22 = _cholesky_inverse(
        blas.dsyrk(-1.0, C21, beta=1.0, c=M[k:, k:], lower=1), name, offset + k)
    inverse[k:, :k] = blas.dtrmm(1.0, I11, blas.dtrmm(-1.0, I22, C21, lower=1, overwrite_b=1),
                                 side=1, lower=1, overwrite_b=1)
    return inverse


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
    ``cho_solve`` (``dpotrs``) on the Cholesky factor that tests Xs; NaN or inf in A shows in W."""
    Xs = _candidate(A, X)
    return Xs, cho_solve((_cholesky(Xs, "X"), True), A, check_finite=False)


def cholesky_residual(A: np.ndarray, Q: np.ndarray, X: np.ndarray, q_fro: float,
                      q_scale: float = 1.0) -> tuple:
    """R(X) = Q - X - A^T X^{-1} A from the lower Cholesky factor of X.

    X must be exactly symmetric: X = C C^T is factored through whichever of X
    and X^T is Fortran-ordered, so both orders give the same bits and
    ``dpotrf`` copies no transpose.  Y = C^{-1} A comes as Y^T = A^T C^{-T}, a
    right-side ``dtrsm`` on the Fortran view A^T, and G = A^T X^{-1} A is
    Y^T Y, which numpy forms as a symmetric rank-k update, so G is exactly
    symmetric, and so is R when Q and X are.  ``q_fro`` is ||Q / q_scale||_F
    for a power of two ``q_scale``, and the relative norm is (||R||_F /
    q_scale) / q_fro, which stays finite when ||Q||_F overflows.  Returns
    ``(R, ||R||_F, relative norm, C, Y, G)``, C in Fortran order as
    ``_cholesky`` returns it and Y a view of the Fortran Y^T, so W = X^{-1} A
    is one more right-side solve W^T = Y^T C^{-1}.  An X without a Cholesky
    factor raises :class:`NotPositiveDefinite`; a residual that overflows or
    is NaN gives norms inf, with no warning where the caller ignores over and
    invalid.
    """
    C = _cholesky(X.T if X.flags.c_contiguous else X, "X")
    Y = scipy.linalg.blas.dtrsm(1.0, C, A.T, side=1, lower=1, trans_a=1).T
    G = Y.T @ Y
    R = Q - X
    R -= G
    rel = (fro := fro_norm(R)) / q_scale / q_fro
    if not math.isfinite(rel):
        fro = rel = math.inf
    return R, fro, rel, C, Y, G


def residual(problem: NmeProblem, X) -> Residual:
    """Evaluate R(X) = Q - X - A^T X^{-1} A for an SPD candidate X; raises
    :class:`NonFiniteInput` when X holds NaN/Inf and
    :class:`NotPositiveDefinite` when (X + X^T)/2 has no Cholesky factor."""
    Xs = _candidate(problem.A, X)
    s, Qu = _unit_scaled(problem.Q)
    with np.errstate(invalid="ignore", over="ignore"):
        return Residual(*cholesky_residual(problem.A, problem.Q, Xs, fro_norm(Qu), s)[:3])


def _pencil(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eye, zero = np.eye(A.shape[0]), np.zeros(A.shape)
    return np.block([[A, zero], [Q, -eye]]), np.block([[zero, eye], [A.T, zero]])


def build_pencil(problem: NmeProblem) -> SymplecticPencil:
    """Assemble the SSF-2 pencil of the checked problem (P = 0), in real arrays."""
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
    J = canonical_skew(pencil.half)
    _, M, L = _unit_scaled(pencil.M, pencil.L)
    defect = fro_norm(M @ J @ M.T - L @ J @ L.T)
    scale = (fro_norm(M) + fro_norm(L)) ** 2
    return bool(defect <= SYMPLECTIC_RTOL * scale)


def ssf2_blocks(pencil: SymplecticPencil):
    """Extract (A, Q, P) from a real pencil that matches the SSF-2 layout.

    Raises :class:`NotSSF2Pencil` (a ``ValueError``) for a complex pencil, and
    when the fixed blocks (zeros, identities, the repeated A block) deviate
    by more than :data:`SSF2_RTOL` times the entry scale.
    """
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
    a finite number (see ``_matrix``); :class:`ZeroLambda` where 1 / lambda is
    not, :class:`NonFiniteInput` where an entry of psi (or of its partial sum
    Q + lambda A) is not: 4 times that entry of psi / 4, which cannot overflow
    once lambda A and A^T / lambda are finite, shows it without a warning.
    """
    lam = complex(_matrix([[lam]], "lambda", complex)[0, 0])
    r = 1.0 / lam if lam else complex(math.inf)
    if not math.isfinite(m := max(map(abs, (lam.real, lam.imag, r.real, r.imag)))):
        raise ZeroLambda(f"psi is undefined at lambda = {lam!r}: 1 / lambda is not finite")
    A = problem.A
    if math.isfinite(big := m * float(np.abs(A).max())):
        part = problem.Q / 4 + (lam / 4) * A
        big = 4.0 * max(float(np.abs(S.view(float)).max()) for S in (part, part + (r / 4) * A.T))
    if not math.isfinite(big):
        raise NonFiniteInput(f"psi({lam!r}) overflows: an entry is beyond the float range")
    return problem.Q.astype(complex) + lam * A + r * A.T


def _eigs_on_circle(A: np.ndarray, Q: np.ndarray, thetas) -> np.ndarray:
    """Every eigenvalue of psi(e^{i theta}), ascending, one row per theta, by
    stacked eigvalsh calls (eigvalsh reads the lower triangle, so psi need not
    be re-symmetrized)."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty((thetas.size, A.shape[0]))
    chunk = 33  # matrices per call: bounds the stack's memory at large n
    for start in range(0, thetas.size, chunk):
        z = np.exp(1j * thetas[start:start + chunk])[:, None, None]
        H = z * A
        H += z.conj() * A.T
        H += Q
        out[start:start + chunk] = np.linalg.eigvalsh(H)
    return out


def _crossings(A: np.ndarray, Q: np.ndarray):
    """``(regular, angles)`` of the pair from one real QZ of its pencil (see
    :func:`solvability_check`; a failed QZ raises :class:`EigensolverFailure`):
    the angles in [0, pi], unique, where psi is singular on the circle."""
    M, L = _pencil(A, Q)
    try:
        alpha, beta = scipy.linalg.eigvals(M, L, homogeneous_eigvals=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverFailure(str(exc)) from exc
    mod_a, mod_b = np.abs(alpha), np.abs(beta)
    tiny = M.shape[0] * np.finfo(float).eps
    negligible = (mod_a <= tiny * fro_norm(M)) & (mod_b <= tiny * fro_norm(L))
    unimodular = ~negligible & (np.abs(mod_a - mod_b) <= UNIMODULAR_RTOL * np.maximum(mod_a, mod_b))
    # angle(mu) for mu = -conj(alpha / beta), folded into [0, pi]
    mu = -alpha[unimodular].conj() * beta[unimodular]
    return not np.any(negligible), np.unique(np.abs(np.angle(mu)))


def _eig_error(A: np.ndarray, Q: np.ndarray) -> float:
    """eigvalsh's error on psi: about n eps ||psi||, and ||psi|| <= ||Q|| + 2 ||A||."""
    return A.shape[0] * np.finfo(float).eps * (fro_norm(Q) + 2.0 * fro_norm(A))


def _critical_angles(A: np.ndarray, Q: np.ndarray):
    """``(scale, A / scale, Q / scale, regular, angles, points, spectra)``: scale the
    ``_pow2_scale`` of max |A|, |Q|; the rest the analysis of the scaled pair that
    ``_psi_analysis`` keeps for the last pair, the same tuple on every call."""
    return _psi_analysis(A.tobytes(), Q.tobytes(), A.shape[0])[0]


@functools.lru_cache(maxsize=1)  # enough for detect_unimodular after solvability_check
def _psi_analysis(A: bytes, Q: bytes, n: int):
    """``(analysis, run)`` of the pair whose C-order bytes are A, Q, kept for the last pair:
    by its bits, not values, as -0.0 == 0.0 but the QZ may tell them apart.  analysis is
    ``_critical_angles``' tuple: regular and the angles in [0, pi], unique, where psi is
    singular on the circle, from a ``solve_sda`` of the pair that certifies them (see
    :func:`solvability_check`; run is then that problem and report, else None) or else, and
    below :data:`SOLVE_FIRST_N`, ``_crossings``' QZ; points 0, the angles and pi, unique;
    spectra psi's eigenvalues at each angle, then at each arc midpoint; all read-only."""
    from .solvers import solve_sda  # solvers imports this module
    pair = [np.frombuffer(F).reshape(n, n) for F in (A, Q)]
    scale, A, Q = _unit_scaled(*pair)
    regular, run = False, None
    try:
        rep = solve_sda(solved := new_problem(*pair)) if n >= SOLVE_FIRST_N else None
        if rep is not None and rep.rel_residual * fro_norm(Q) <= SOLVABILITY_TOL:  # ||R / scale||_F
            lam = np.linalg.eigvals(_candidate_w(solved.A, rep.X)[1])
            near = np.abs(np.abs(lam) - 1.0) <= UNIMODULAR_RTOL * np.maximum(np.abs(lam), 1.0)
            angles = np.unique(np.abs(np.angle(-lam[near])))  # _crossings' test, with beta = 1
            points = np.unique(np.concatenate(([0.0], angles, [math.pi])))
            spectra = _eigs_on_circle(A, Q, np.concatenate((angles, (points[:-1] + points[1:]) / 2)))
            regular = bool(spectra[:, 0].max() > _eig_error(A, Q))  # psi nonsingular at one angle
            run = (solved, rep) if regular else None
    except (NmeError, np.linalg.LinAlgError):
        pass
    if not regular:  # the fallback
        regular, angles = _crossings(A, Q)
        points = np.unique(np.concatenate(([0.0], angles, [math.pi])))
        spectra = _eigs_on_circle(A, Q, np.concatenate((angles, (points[:-1] + points[1:]) / 2)))
    for F in (A, Q, angles, points, spectra):
        F.flags.writeable = False
    return (scale, A, Q, regular, angles, points, spectra), run


def _level_min(A: np.ndarray, Q: np.ndarray, low: float, ftol: float) -> float:
    """The least lambda_min(psi) of the scaled pair on the circle by the level-set
    iteration of :func:`solvability_check`, from ``low``, a value it takes."""
    low = min(low, float(_eigs_on_circle(A, Q, [0.0, math.pi])[:, 0].min()))
    eye = np.eye(A.shape[0])
    while True:
        points = np.unique(np.concatenate(([0.0], _crossings(A, Q - low * eye)[1], [math.pi])))
        level = float(_eigs_on_circle(A, Q, (points[:-1] + points[1:]) / 2)[:, 0].min())
        if level >= low - ftol:
            return min(low, level)
        low = level


def solvability_check(problem: NmeProblem) -> SolvabilityVerdict:
    """Decide whether the maximal solution X+ exists.

    X+ exists iff psi(e^{i theta}) is positive semidefinite on the whole
    unit circle (Engwerda, Ran & Rijkeboer, LAA 186, 1993).  Its smallest
    eigenvalue can change sign only where psi is singular: for an SPD X with
    residual R and S = X^{-1} A, psi(mu) = (I + S^T / mu) X (I + mu S) + R, so
    where ``solve_sda`` reaches ||R||_F <= SOLVABILITY_TOL these critical angles
    are those of mu = -1/lambda for the unimodular eigenvalues lambda of S, and
    psi nonsingular at one angle taken shows the pencil regular.  Elsewhere,
    and below order SOLVE_FIRST_N, one real QZ of the SSF-2 pencil is the
    fallback: det(M - lambda L) = +-lambda^n det psi(-1/lambda) puts them at
    mu = -conj(lambda) for its unimodular eigenvalues lambda, and the pencil is
    regular when no pair (alpha, beta) has both entries negligible.  As
    psi(e^{-i theta}) = conj psi(e^{i theta}), the angles fold into [0, pi].
    On each arc between them lambda_min(psi) keeps its sign, so v, its least
    value at the critical angles and the arc midpoints, decides: NOT_SOLVABLE
    when v < -SOLVABILITY_TOL; otherwise SOLVABLE when the pencil is regular,
    INCONCLUSIVE when it is not.  Where v is below minus eigvalsh's error but
    not below -SOLVABILITY_TOL, or the pencil is singular (psi singular
    everywhere), ``min_eig_on_circle`` decides in v's place; elsewhere it is
    computed when first read.  It is found by the
    level-set iteration (Boyd & Balakrishnan; Bruinsma & Steinbuch, Syst.
    Control Lett. 15 and 14, 1990): from l, the least of v and lambda_min(psi)
    at 0 and pi, each step takes the angles where psi - l I is singular, from
    one QZ of the pencil of (A, Q - l I), and lowers l to the least
    lambda_min(psi) at the midpoints between consecutive points of 0, those
    angles and pi; it stops once l falls by no more than eigvalsh's error.
    An arc below l is bounded by such angles, so the minimum is global.

    A and Q are first divided by the power of two s with max |A|, |Q| / s in
    [1, 2), so the tolerance is relative to that scale and (A, Q) -> (2^k A,
    2^k Q) keeps the verdict and scales the minimum by 2^k, to eigvalsh's error
    where a solve decides.  That solve alone runs on (A, Q) itself, with the default
    config, its residual read as ||R / s||_F; the problem keeps a run that certifies
    the verdict for ``solve_sda`` (see there).  A failed QZ raises
    EigensolverFailure; the angles and arcs come from ``_psi_analysis``."""
    (scale, A, Q, regular, _, _, spectra), run = _psi_analysis(
        problem.A.tobytes(), problem.Q.tobytes(), problem.n)
    if run is not None:  # the doubling run that certified the analysis, for solve_sda
        vars(problem)["_certified_run"] = run
    on_arcs, ftol = float(spectra[:, 0].min()), _eig_error(A, Q)
    known = -SOLVABILITY_TOL <= on_arcs and (on_arcs < -ftol or not regular)
    low = _level_min(A, Q, on_arcs, ftol) if known else on_arcs
    verdict = (Verdict.NOT_SOLVABLE if low < -SOLVABILITY_TOL
               else Verdict.SOLVABLE if regular else Verdict.INCONCLUSIVE)
    result = SolvabilityVerdict(regular, verdict, (scale, A, Q, on_arcs, ftol))
    if known:  # the cache of min_eig_on_circle
        vars(result)["min_eig_on_circle"] = scale * low
    return result


def spectral_radius(W: np.ndarray) -> float:
    """max |eig(W)|, zero for an empty matrix, NaN for a W that is not finite."""
    return float(np.abs(np.linalg.eigvals(W)).max(initial=0.0)) if np.isfinite(W).all() else math.nan


def spectral_radius_ratio(problem: NmeProblem, X) -> float:
    """rho(X^{-1} A) for an SPD candidate X; NaN where X^{-1} A overflows."""
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
