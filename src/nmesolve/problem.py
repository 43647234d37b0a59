"""Problem data, pencil construction, and diagnostics for X + A^T X^{-1} A = Q.

The equation is posed over real n-by-n matrices with Q symmetric positive
definite.  A problem instance pairs with a 2n-by-2n matrix pencil (M, L):

    M = [A  0 ]      L = [-P  I]        (P = 0 on construction)
        [Q  -I]          [A^T 0]

whose generalized eigenvalues carry the spectrum of X^{-1}A for any solution
X.  The pencil is symplectic, M J M^T = L J L^T, so its spectrum is closed
under lambda -> 1/lambda.  Solvability is probed through the rational matrix
function psi(lambda) = Q + lambda A + lambda^{-1} A^T, which must be positive
semidefinite on the unit circle for a positive definite solution to exist.

All symmetric intermediates are re-symmetrized as (X + X^T)/2: roundoff
destroys exact symmetry and downstream factorizations assume it.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_solve

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
    "PencilForm",
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


class PencilForm(Enum):
    SSF2 = "ssf2"
    GENERAL = "general"


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
    """A 2n-by-2n complex pair (M, L); ``form`` records whether the SSF-2
    block layout is guaranteed."""

    M: np.ndarray
    L: np.ndarray
    form: PencilForm = PencilForm.GENERAL

    def __post_init__(self):
        M, L = self.M, self.L
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape != L.shape:
            raise DimensionMismatch("pencil factors must be square and equally sized")

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    @property
    def half(self) -> int:
        return self.M.shape[0] // 2


@dataclass(frozen=True)
class Residual:
    """R(X) = Q - X - A^T X^{-1} A (symmetrized) with its norms."""

    matrix: np.ndarray
    fro_norm: float
    rel_norm: float


@dataclass(frozen=True)
class SolvabilityVerdict:
    regular: bool
    min_eig_on_circle: float
    samples: int
    verdict: Verdict


def symmetric_part(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def _square_real(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {M.shape}")
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
    asym = np.max(np.abs(Q - Q.T)) if Q.size else 0.0
    if asym > SYMMETRY_RTOL * max(np.linalg.norm(Q), 1e-300):
        raise NotSymmetric(f"Q asymmetry {asym:.3e} exceeds tolerance")
    Qs = symmetric_part(Q)
    _cholesky(Qs, "Q")
    return NmeProblem(A=A.copy(), Q=Qs)


def _candidate(problem: NmeProblem, X):
    """Validate an SPD candidate X; returns Xs = (X + X^T)/2 and W = Xs^{-1} A."""
    X = _square_real(X, "X")
    if X.shape != problem.A.shape:
        raise DimensionMismatch(f"X is {X.shape}, problem is {problem.A.shape}")
    Xs = symmetric_part(X)
    return Xs, cho_solve((_cholesky(Xs, "X"), True), problem.A)


def residual_from(A: np.ndarray, Q: np.ndarray, X: np.ndarray, W: np.ndarray,
                  q_fro: float) -> Residual:
    """R(X) = Q - X - A^T W (symmetrized) for a given W = X^{-1} A and
    q_fro = ||Q||_F; how W is obtained is the caller's choice."""
    R = symmetric_part(Q - X - A.T @ W)
    fro = float(np.linalg.norm(R))
    return Residual(matrix=R, fro_norm=fro, rel_norm=fro / q_fro)


def residual(problem: NmeProblem, X) -> Residual:
    """Evaluate R(X) = Q - X - A^T X^{-1} A for an SPD candidate X."""
    Xs, W = _candidate(problem, X)
    return residual_from(problem.A, problem.Q, Xs, W, float(np.linalg.norm(problem.Q)))


def build_pencil(problem: NmeProblem) -> SymplecticPencil:
    """Assemble the SSF-2 pencil of the problem (with P = 0)."""
    n = problem.n
    eye = np.eye(n)
    zero = np.zeros((n, n))
    M = np.block([[problem.A, zero], [problem.Q, -eye]]).astype(complex)
    L = np.block([[zero, eye], [problem.A.T, zero]]).astype(complex)
    return SymplecticPencil(M=M, L=L, form=PencilForm.SSF2)


def canonical_skew(n: int) -> np.ndarray:
    """The 2n-by-2n skew matrix J = [0 I; -I 0]."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def is_symplectic_pencil(pencil: SymplecticPencil, tol: float = 1e-13) -> bool:
    """True iff ||M J M^T - L J L^T||_F <= tol * (||M||_F + ||L||_F)^2."""
    if pencil.dim % 2 != 0:
        raise OddDimension(f"pencil dimension {pencil.dim} is odd")
    J = canonical_skew(pencil.half)
    M, L = pencil.M, pencil.L
    defect = np.linalg.norm(M @ J @ M.T - L @ J @ L.T)
    scale = (np.linalg.norm(M) + np.linalg.norm(L)) ** 2
    return bool(defect <= tol * scale)


def ssf2_blocks(pencil: SymplecticPencil, rtol: float = 1e-10):
    """Extract (A, Q, P) from a pencil that matches the SSF-2 layout.

    Raises ValueError when the fixed blocks (zeros, identities, the repeated
    A block) deviate by more than ``rtol`` times the entry scale.
    """
    if pencil.dim % 2 != 0:
        raise OddDimension(f"pencil dimension {pencil.dim} is odd")
    n = pencil.half
    M, L = pencil.M, pencil.L
    scale = max(np.max(np.abs(M)), np.max(np.abs(L)), 1.0)
    tol = rtol * scale
    if max(np.max(np.abs(M.imag)), np.max(np.abs(L.imag))) > tol:
        raise ValueError("pencil has non-negligible imaginary parts")
    Mr, Lr = M.real, L.real
    eye = np.eye(n)
    checks = [
        np.max(np.abs(Mr[:n, n:])),
        np.max(np.abs(Mr[n:, n:] + eye)),
        np.max(np.abs(Lr[:n, n:] - eye)),
        np.max(np.abs(Lr[n:, n:])),
        np.max(np.abs(Lr[n:, :n] - Mr[:n, :n].T)),
    ]
    if max(checks) > tol:
        raise ValueError("pencil does not match the SSF-2 block pattern")
    A = Mr[:n, :n].copy()
    Q = Mr[n:, :n].copy()
    P = -Lr[:n, :n].copy()
    return A, Q, P


def psi(problem: NmeProblem, lam: complex) -> np.ndarray:
    """Evaluate psi(lambda) = Q + lambda A + lambda^{-1} A^T (complex n-by-n).

    Hermitian whenever |lambda| = 1, since A and Q are real.
    """
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("psi is undefined at lambda = 0")
    return problem.Q.astype(complex) + lam * problem.A + (1.0 / lam) * problem.A.T


def solvability_check(problem: NmeProblem, samples: int = 512, tol: float = 1e-10) -> SolvabilityVerdict:
    """Sampled positivity check of psi on the unit circle.

    The minimum eigenvalue of the Hermitian part of psi(e^{i theta}) is taken
    over ``samples`` equispaced angles.  NOT_SOLVABLE when some sample drops
    below -tol; SOLVABLE when all samples clear -tol and psi is regular
    (nonzero determinant at lambda = 1 or lambda = i); INCONCLUSIVE when the
    regularity probe fails.  This is a sampled necessary condition, not an
    exact certificate.
    """
    if samples < 8:
        raise ValueError("need at least 8 samples")
    min_eig = math.inf
    for j in range(samples):
        lam = cmath.exp(2j * math.pi * j / samples)
        H = psi(problem, lam)
        H = (H + H.conj().T) / 2.0
        min_eig = min(min_eig, float(np.linalg.eigvalsh(H).min()))
    regular = any(abs(np.linalg.det(psi(problem, lam))) > 1e-300 for lam in (1.0, 1j))
    if min_eig < -tol:
        verdict = Verdict.NOT_SOLVABLE
    elif regular:
        verdict = Verdict.SOLVABLE
    else:
        verdict = Verdict.INCONCLUSIVE
    return SolvabilityVerdict(regular=regular, min_eig_on_circle=min_eig,
                              samples=samples, verdict=verdict)


def spectral_radius(W: np.ndarray) -> float:
    """max |eig(W)|, zero for an empty matrix."""
    eigs = np.linalg.eigvals(W)
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def spectral_radius_ratio(problem: NmeProblem, X) -> float:
    """rho(X^{-1} A) for an SPD candidate X."""
    return spectral_radius(_candidate(problem, X)[1])


def invariant_subspace_defect(problem: NmeProblem, X) -> float:
    """|| M [I; X] - L [I; X] X^{-1} A ||_F; zero exactly when X solves the equation."""
    Xs, W = _candidate(problem, X)
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
