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
from scipy.linalg.blas import dtrsm

from . import serialize
from .exceptions import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
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
#: the larger, for ``solvability_check`` to treat it as unimodular.  Loose on
#: purpose: rounding moves a defective unimodular pair off the circle by about
#: sqrt(eps * condition), and an extra critical angle costs one evaluation of
#: psi but cannot change a correct verdict.
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
    """A 2n-by-2n pair (M, L), real exactly when its arrays are real: a factor
    whose imaginary part is negligible (:data:`REAL_RTOL`) is stored real, and
    every other layer reads realness from the dtype."""

    M: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        M, L = self.M, self.L
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape != L.shape:
            raise DimensionMismatch("pencil factors must be square and equally sized")
        for name, F in (("M", M), ("L", L)):
            if np.iscomplexobj(F) and (np.max(np.abs(F.imag), initial=0.0)
                                       <= REAL_RTOL * np.linalg.norm(F)):
                object.__setattr__(self, name, F.real)

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
        # entries above ~9e307 whose mean fits: halve before adding.  Only
        # here, because the extra temporary makes the call about 1.5x slower
        # at n = 256, and halving first rounds odd subnormals
        return M / 2.0 + M.T / 2.0


def fro_norm(M) -> float:
    """||M||_F, also where the sum of squares overflows or underflows.

    The value is ``np.linalg.norm(M)`` whenever that is positive and finite.
    Only when it reads 0 or inf for a finite, nonzero M is M first divided by
    max|M|, so the solvers stay homogeneous over the whole exponent range.
    """
    with np.errstate(over="ignore"):
        val = float(np.linalg.norm(M))
    if 0.0 < val < math.inf:
        return val
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        return val
    scale = float(np.max(np.abs(M), initial=0.0))
    return scale * float(np.linalg.norm(M / scale)) if scale > 0.0 else val


def _square_real(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be a non-empty square matrix, got shape {M.shape}")
    return M


def _cholesky(M: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor; failure is the SPD test."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(name, str(exc)) from exc


def new_problem(A, Q) -> NmeProblem:
    """Validate and pack the data of X + A^T X^{-1} A = Q.

    A and Q must be finite.  Q is checked for symmetry (max-abs asymmetry at
    most 1e-12 * ||Q||_F), symmetrized, and then required to admit a
    Cholesky factorization.
    """
    A = _square_real(A, "A")
    Q = _square_real(Q, "Q")
    if A.shape != Q.shape:
        raise DimensionMismatch(f"A is {A.shape}, Q is {Q.shape}")
    for name, M in (("A", A), ("Q", Q)):
        if not np.all(np.isfinite(M)):
            raise NonFiniteInput(f"{name} contains NaN/Inf")
    asym = np.max(np.abs(Q - Q.T))
    if asym > SYMMETRY_RTOL * fro_norm(Q):
        raise NotSymmetric(f"Q asymmetry {asym:.3e} exceeds tolerance")
    Qs = symmetric_part(Q)
    _cholesky(Qs, "Q")
    return NmeProblem(A=A.copy(), Q=Qs)


def _candidate(problem: NmeProblem, X) -> np.ndarray:
    """Validate the shape of a candidate X; returns Xs = (X + X^T)/2."""
    X = _square_real(X, "X")
    if X.shape != problem.A.shape:
        raise DimensionMismatch(f"X is {X.shape}, problem is {problem.A.shape}")
    return symmetric_part(X)


def _candidate_w(problem: NmeProblem, X) -> tuple[np.ndarray, np.ndarray]:
    """Validate an SPD candidate X; returns Xs = (X + X^T)/2 and W = Xs^{-1} A."""
    Xs = _candidate(problem, X)
    return Xs, cho_solve((_cholesky(Xs, "X"), True), problem.A)


def cholesky_residual(A: np.ndarray, Q: np.ndarray, X: np.ndarray,
                      q_fro: float) -> tuple[Residual, np.ndarray, np.ndarray]:
    """R(X) = Q - X - A^T X^{-1} A from the lower Cholesky factor of X.

    With X = C C^T and Y = C^{-1} A (one triangular solve), A^T X^{-1} A is
    Y^T Y, which numpy forms as a symmetric rank-k update, so R is exactly
    symmetric when Q and X are.  ``q_fro`` is ||Q||_F.  Returns
    ``(residual, C, Y)``, C in Fortran order, so W = X^{-1} A is one more
    solve C^T W = Y, the pair of solves ``cho_solve`` makes.  An X without a
    Cholesky factor raises :class:`NotPositiveDefinite`; a residual that
    overflows or is NaN gives norms inf.
    """
    C = np.asfortranarray(_cholesky(X, "X"))
    Y = dtrsm(1.0, C, A, lower=1)
    with np.errstate(invalid="ignore", over="ignore"):
        R = Q - X - Y.T @ Y
        fro = fro_norm(R)
        rel = fro / q_fro
    if not math.isfinite(rel):
        fro = rel = math.inf
    return Residual(matrix=R, fro_norm=fro, rel_norm=rel), C, Y


def residual(problem: NmeProblem, X) -> Residual:
    """Evaluate R(X) = Q - X - A^T X^{-1} A for an SPD candidate X; raises
    :class:`NotPositiveDefinite` when (X + X^T)/2 has no Cholesky factor."""
    Xs = _candidate(problem, X)
    return cholesky_residual(problem.A, problem.Q, Xs, fro_norm(problem.Q))[0]


def build_pencil(problem: NmeProblem) -> SymplecticPencil:
    """Assemble the SSF-2 pencil of the problem (with P = 0), in real arrays."""
    n = problem.n
    eye = np.eye(n)
    zero = np.zeros((n, n))
    M = np.block([[problem.A, zero], [problem.Q, -eye]])
    L = np.block([[zero, eye], [problem.A.T, zero]])
    return SymplecticPencil(M=M, L=L)


def canonical_skew(n: int) -> np.ndarray:
    """The 2n-by-2n skew matrix J = [0 I; -I 0]."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def is_symplectic_pencil(pencil: SymplecticPencil) -> bool:
    """True iff ||M J M^T - L J L^T||_F <= SYMPLECTIC_RTOL * (||M||_F + ||L||_F)^2."""
    if pencil.dim % 2 != 0:
        raise OddDimension(f"pencil dimension {pencil.dim} is odd")
    J = canonical_skew(pencil.half)
    M, L = pencil.M, pencil.L
    defect = np.linalg.norm(M @ J @ M.T - L @ J @ L.T)
    scale = (np.linalg.norm(M) + np.linalg.norm(L)) ** 2
    return bool(defect <= SYMPLECTIC_RTOL * scale)


def ssf2_blocks(pencil: SymplecticPencil):
    """Extract (A, Q, P) from a real pencil that matches the SSF-2 layout.

    Raises ValueError for a complex pencil (see :class:`SymplecticPencil`),
    and when the fixed blocks (zeros, identities, the repeated A block)
    deviate by more than :data:`SSF2_RTOL` times the entry scale.
    """
    if pencil.dim % 2 != 0:
        raise OddDimension(f"pencil dimension {pencil.dim} is odd")
    n = pencil.half
    M, L = pencil.M, pencil.L
    if np.iscomplexobj(M) or np.iscomplexobj(L):
        raise ValueError("pencil has non-negligible imaginary parts")
    eye = np.eye(n)
    fixed = (M[:n, n:], M[n:, n:] + eye, L[:n, n:] - eye, L[n:, n:], L[n:, :n] - M[:n, :n].T)
    scale = max(np.max(np.abs(M)), np.max(np.abs(L)), 1.0)
    if max(np.max(np.abs(B)) for B in fixed) > SSF2_RTOL * scale:
        raise ValueError("pencil does not match the SSF-2 block pattern")
    return M[:n, :n].copy(), M[n:, :n].copy(), -L[:n, :n].copy()


def psi(problem: NmeProblem, lam: complex) -> np.ndarray:
    """Evaluate psi(lambda) = Q + lambda A + lambda^{-1} A^T (complex n-by-n).

    Hermitian whenever |lambda| = 1, since A and Q are real.
    """
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("psi is undefined at lambda = 0")
    return problem.Q.astype(complex) + lam * problem.A + (1.0 / lam) * problem.A.T


def _min_eigs_on_circle(A: np.ndarray, Q: np.ndarray, thetas, chunk: int) -> np.ndarray:
    """lambda_min(psi(e^{i theta})) for each theta, from stacked eigvalsh
    calls of at most ``chunk`` matrices each (eigvalsh reads the lower
    triangle, so psi need not be re-symmetrized)."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty(thetas.size)
    for start in range(0, thetas.size, chunk):
        z = np.exp(1j * thetas[start:start + chunk])[:, None, None]
        H = z * A
        H += z.conj() * A.T
        H += Q
        out[start:start + chunk] = np.linalg.eigvalsh(H)[:, 0]
    return out


def _golden_min(f, a: float, b: float, xtol: float) -> float:
    """Smallest value of f met by a golden-section search on [a, b]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return min(fc, fd)


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
    * each critical angle and one midpoint of each arc between them,
    * a golden-section search to 1e-7 rad around the best grid point,

    and ``min_eig_on_circle`` is the smallest value found.  NOT_SOLVABLE
    when some value is below -SOLVABILITY_TOL; otherwise SOLVABLE when the
    pencil is regular (no eigenvalue pair (alpha, beta) with both entries
    negligible), INCONCLUSIVE when it is not.  A and Q are first divided by
    the smallest power of two above their largest entry, so the tolerance is
    relative to that scale and (A, Q) -> (2^k A, 2^k Q) keeps the verdict and
    scales the minimum by 2^k.
    """
    scale = math.ldexp(1.0, math.frexp(max(np.max(np.abs(problem.A)),
                                           np.max(np.abs(problem.Q))))[1])
    A, Q = problem.A / scale, problem.Q / scale
    pen = build_pencil(NmeProblem(A=A, Q=Q))
    M, L = pen.M, pen.L
    alpha, beta = scipy.linalg.eigvals(M, L, homogeneous_eigvals=True)
    mod_a, mod_b = np.abs(alpha), np.abs(beta)
    tiny = pen.dim * np.finfo(float).eps
    negligible = (mod_a <= tiny * np.linalg.norm(M)) & (mod_b <= tiny * np.linalg.norm(L))
    regular = not np.any(negligible)
    unimodular = ~negligible & (np.abs(mod_a - mod_b) <= UNIMODULAR_RTOL * np.maximum(mod_a, mod_b))
    # angle(mu) for mu = -conj(alpha / beta), folded into [0, pi]
    critical = np.unique(np.abs(np.angle(-alpha[unimodular].conj() * beta[unimodular])))
    edges = np.concatenate(([0.0], critical, [math.pi]))
    chunk = SOLVABILITY_SAMPLES // 2 + 1
    step = 2.0 * math.pi / SOLVABILITY_SAMPLES
    grid = step * np.arange(chunk)
    on_grid = _min_eigs_on_circle(A, Q, grid, chunk)
    on_arcs = _min_eigs_on_circle(A, Q, np.concatenate((critical, (edges[:-1] + edges[1:]) / 2)),
                                  chunk)
    best = grid[np.argmin(on_grid)]
    refined = _golden_min(lambda t: float(_min_eigs_on_circle(A, Q, [t], 1)[0]),
                          best - step, best + step, 1e-7)
    min_eig = min(float(on_grid.min()), float(on_arcs.min()), refined)
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
    return spectral_radius(_candidate_w(problem, X)[1])


def invariant_subspace_defect(problem: NmeProblem, X) -> float:
    """|| M [I; X] - L [I; X] X^{-1} A ||_F; zero exactly when X solves the equation."""
    Xs, W = _candidate_w(problem, X)
    pen = build_pencil(problem)
    U = np.vstack([np.eye(problem.n), Xs])
    D = pen.M @ U - pen.L @ (U @ W)
    return float(np.linalg.norm(D))


def load_problem(path) -> NmeProblem:
    """Read a problem file: {"n": int, "A": [n*n row-major], "Q": [n*n row-major]}.

    NaN/Inf entries are rejected.
    """
    data = serialize.load_json(path)
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: expected a JSON object")
    for key in ("n", "A", "Q"):
        if key not in data:
            raise ProblemFileError(f"{path}: missing key {key!r}")
    n = data["n"]
    if not isinstance(n, int) or n <= 0:
        raise ProblemFileError(f"{path}: n must be a positive integer")
    mats = {}
    for key in ("A", "Q"):
        entries = data[key]
        if not isinstance(entries, list) or len(entries) != n * n:
            raise ProblemFileError(f"{path}: {key} must hold {n * n} numbers")
        arr = np.asarray(entries, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ProblemFileError(f"{path}: {key} contains NaN/Inf")
        mats[key] = arr.reshape(n, n)
    return new_problem(mats["A"], mats["Q"])


def problem_payload(problem: NmeProblem) -> dict:
    """The JSON object of a problem file (see :func:`load_problem`)."""
    return {
        "n": problem.n,
        "A": [float(v) for v in problem.A.ravel()],
        "Q": [float(v) for v in problem.Q.ravel()],
    }


def save_problem(problem: NmeProblem, path) -> None:
    serialize.dump_json(problem_payload(problem), path)
