"""Eigenvalue relocation for matrix pencils, and the shifted scalar pipeline.

Given a pencil M - lambda L with an eigenpair M v = lambda0 L v and a vector
r normalized so r^T v = 1, the rank-one update

    (M + (lambda1 - lambda0) L v r^T) - lambda L

has the same spectrum except that one copy of lambda0 is replaced by lambda1.
The simultaneous version replaces k eigenvalues at once: with eigenvector
block V, current eigenvalues Lambda, targets LambdaHat, and factors
satisfying R1^T V = LambdaHat - Lambda and R2^T V = 0,

    (M + L V R1^T) - lambda (L + M V R2^T)

moves exactly the designated eigenvalues and keeps the rest.  The unimodular
eigenvalues of an SSF-2 pencil and their eigenvectors come from the null
vectors of psi at the critical angles of a certified solve, or else of one
QZ (``detect_unimodular``).

The critical equation, where S = X_+^{-1} A has an eigenvalue +-1 and every
solver slows to linear rate 1/2, is shifted on (A, Q) itself: the null vectors
of psi(-/+1) are those eigenvectors of S, and a closed form of them moves the
eigenvalue to 0 while keeping X_+ (``_critical_shift``, Brauer 1952).  On the
pencil this replaces the defective pair {+-1, +-1} by {0, inf}.  The scalar
pipeline ``solve_scalar_shifted`` is its 1-by-1 case.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import serialize
from .exceptions import (
    ConjugateClosureViolated,
    DimensionMismatch,
    EigensolverFailure,
    NotAnEigenpair,
    NotCriticalCase,
    NotNormalized,
    ProblemFileError,
    RankDeficientV,
    ReciprocalPairingWarning,
    RepeatedEigenvalue,
    SpecInvariantViolated,
)
from .problem import (SymplecticPencil, _cholesky, _critical_angles, _matrix, _unit_scaled,
                      fro_norm, ssf2_blocks)
from .solvers import SolverConfig, solve_sda_scalar

__all__ = [
    "ShiftSpec",
    "UnimodularReport",
    "ShiftedScalarResult",
    "shift_single",
    "shift_multi",
    "build_shift_factors",
    "detect_unimodular",
    "generalized_eigenvalues",
    "solve_scalar_shifted",
    "load_pencil",
    "save_pencil",
    "load_shift_spec",
    "write_spectra_csv",
]

#: Eigenpair residual tolerance, relative to (||M|| + |lambda| ||L||) ||v||.
EIGENPAIR_RTOL = 1e-8

#: Tolerance for the R1/R2 coupling identities.
FACTOR_RTOL = 1e-10

#: Relative tolerance of the reciprocal closure test of targets, which only warns.
CLOSURE_RTOL = 1e-8

#: Eigenvalues of psi within this of zero, relative to ||Q - P||_F + 2 ||A||_F,
#: give null vectors; planted rho_2 = 0.9998 leaves about 1e-9 on that scale.
NULL_RTOL = 1e-12


@dataclass(frozen=True)
class ShiftSpec:
    """Eigenvector block and correction factors for a simultaneous shift.

    Read by ``_matrix`` and shape-checked when built: V is complex with columns,
    ``lam``/``lam_hat`` (current and target eigenvalues) vectors of its column
    count, R1 and R2 of its shape.  An absent R2 is zero; an absent R1 is
    V (V^T V)^{-1} (LambdaHat - Lambda) for a V of full column rank, formed on
    V over its power of two (R1 scales as 1 / V): R1^T V is the displacement.
    """

    V: np.ndarray
    lam: np.ndarray
    lam_hat: np.ndarray
    R1: np.ndarray | None = None
    R2: np.ndarray | None = None

    def __post_init__(self):
        V = _matrix(self.V, "V", complex)
        lam = _matrix([self.lam], "lam", complex)[0]
        lam_hat = _matrix([self.lam_hat], "lam_hat", complex)[0]
        R1, R2 = (F if F is None else _matrix(F, name, complex)
                  for F, name in ((self.R1, "R1"), (self.R2, "R2")))
        k = V.shape[1]
        if (lam.size, lam_hat.size) != (k, k) \
                or {F.shape for F in (R1, R2) if F is not None} - {V.shape}:
            raise DimensionMismatch("lam/lam_hat must have V's column count, R1 and R2 its shape")
        if k == 0:
            raise RankDeficientV("V has no columns: there is no eigenvalue to shift")
        if R1 is None:
            sv = np.linalg.svd(V, compute_uv=False)
            if sv.size == 0 or not sv[-1] >= 1e-10 * sv[0]:
                raise RankDeficientV(f"smallest singular value {sv[-1] if sv.size else 0.0:.3e}")
            s, Vs = _unit_scaled(V)
            try:  # plain transpose: V^T V is complex symmetric
                R1 = Vs @ np.linalg.solve(Vs.T @ Vs, np.diag(lam_hat - lam)) / s
            except np.linalg.LinAlgError as exc:
                raise RankDeficientV(f"V^T V is singular: {exc}") from exc
        for name, F in (("V", V), ("lam", lam), ("lam_hat", lam_hat), ("R1", R1),
                        ("R2", np.zeros_like(V) if R2 is None else R2)):
            object.__setattr__(self, name, F)


@dataclass(frozen=True)
class UnimodularReport:
    """Unimodular generalized eigenvalues, one entry per null vector of psi
    (see :func:`detect_unimodular`), with one eigenvector column per entry."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ShiftedScalarResult:
    x_plus: float
    #: the one SolveReport, of doubling on the pair that ``_critical_shift`` leaves
    per_r: tuple


def _check_eigenpair(M, L, v, lam, index=None):
    """M v = lam L v to :data:`EIGENPAIR_RTOL`; (M, L) come from ``_unit_scaled``."""
    resid = fro_norm(M @ v - lam * L @ v)
    scale = (fro_norm(M) + abs(lam) * fro_norm(L)) * fro_norm(v)
    if not resid <= EIGENPAIR_RTOL * scale:
        where = "" if index is None else f" (column {index})"
        raise NotAnEigenpair(
            f"residual {resid:.3e} exceeds {EIGENPAIR_RTOL:g} * {scale:.3e}{where}")


def shift_single(pencil: SymplecticPencil, v, lambda0, lambda1, r) -> SymplecticPencil:
    """Replace the eigenvalue lambda0 (eigenvector v) by lambda1.

    Requires M v = lambda0 L v to roundoff accuracy and r^T v = 1 (plain
    transpose, no conjugation).  Returns (M + (lambda1 - lambda0) L v r^T, L),
    which :class:`SymplecticPencil` stores real when the update leaves only a
    negligible imaginary part.
    """
    M, L = pencil.M, pencil.L
    v = _matrix([v], "v", complex)[0]
    r = _matrix([r], "r", complex)[0]
    if v.size != pencil.dim or r.size != pencil.dim:
        raise DimensionMismatch("v and r must have the pencil dimension")
    lambda0, lambda1 = _matrix([[lambda0, lambda1]], "lambda0/lambda1", complex)[0]
    _check_eigenpair(*_unit_scaled(M, L)[1:], v, lambda0)
    rv = complex(np.dot(r, v))
    if not abs(rv - 1.0) <= 1e-10 * max(1.0, fro_norm(r) * fro_norm(v)):
        raise NotNormalized(f"r^T v = {rv!r}, expected 1")
    return SymplecticPencil(M=M + (lambda1 - lambda0) * np.outer(L @ v, r), L=L.copy())


def _reciprocal_closed(values: np.ndarray) -> bool:
    vals = list(values)
    for lam in vals:
        if lam == 0:
            return False
        target = 1.0 / lam
        if not any(abs(mu - target) <= CLOSURE_RTOL * max(1.0, abs(target)) for mu in vals):
            return False
    return True


def shift_multi(pencil: SymplecticPencil, spec: ShiftSpec) -> SymplecticPencil:
    """Replace the eigenvalues in ``spec.lam`` by ``spec.lam_hat`` at once.

    The spec checked its own fields when it was built.  In this order: V has
    the pencil's dimension, the entries of ``lam`` are pairwise distinct, each
    column of V is an eigenvector for its entry, and R1^T V = diag(lam_hat -
    lam) and R2^T V = 0 hold.  The shifted pencil is then built once, and of a
    real pencil (real arrays, see :class:`SymplecticPencil`) it must be stored
    real too, else :class:`ConjugateClosureViolated` names its imaginary part;
    only then is :class:`ReciprocalPairingWarning` emitted for targets not
    closed under lambda -> 1/lambda.
    """
    M, L = pencil.M, pencil.L
    V, lam, lam_hat, R1, R2 = spec.V, spec.lam, spec.lam_hat, spec.R1, spec.R2
    k = V.shape[1]
    if V.shape[0] != pencil.dim:
        raise DimensionMismatch("shift spec shapes are inconsistent with the pencil")

    lam_scale = max(1.0, float(np.max(np.abs(lam))))
    for i in range(k):
        for j in range(i + 1, k):
            if abs(lam[i] - lam[j]) <= FACTOR_RTOL * lam_scale:
                raise RepeatedEigenvalue(
                    f"lam[{i}] and lam[{j}] coincide; simultaneous shifts need distinct values")
    _, Mu, Lu = _unit_scaled(M, L)
    for i in range(k):
        _check_eigenpair(Mu, Lu, V[:, i], lam[i], index=i)

    D = np.diag(lam_hat - lam)
    defect1 = fro_norm(R1.T @ V - D)
    if not defect1 <= FACTOR_RTOL * (1.0 + fro_norm(D)):
        raise SpecInvariantViolated(f"||R1^T V - (target - current)|| = {defect1:.3e}")
    defect2 = fro_norm(R2.T @ V)
    if not defect2 <= FACTOR_RTOL * fro_norm(R2) * fro_norm(V):
        raise SpecInvariantViolated(f"||R2^T V|| = {defect2:.3e}")

    out = SymplecticPencil(M=M + L @ V @ R1.T, L=L + M @ V @ R2.T)
    imag = [np.max(np.abs(F.imag)) / fro_norm(F) for F in (out.M, out.L) if np.iscomplexobj(F)]
    if imag and not (np.iscomplexobj(M) or np.iscomplexobj(L)):
        raise ConjugateClosureViolated(
            f"the shift of a real pencil keeps max |Im F| = {max(imag):.2e} ||F||_F; "
            "it stays real only for conjugate-closed (lam, lam_hat) pairs and factors")
    if not _reciprocal_closed(lam_hat):
        warnings.warn(
            "target eigenvalues are not closed under lambda -> 1/lambda; "
            "the shifted pencil loses its reciprocal spectrum pairing",
            ReciprocalPairingWarning,
            stacklevel=2,
        )
    return out


def build_shift_factors(V, lam, lam_hat) -> ShiftSpec:
    """``ShiftSpec(V, lam, lam_hat)``: the spec whose R1 it builds, with R2 = 0."""
    return ShiftSpec(V, lam, lam_hat)


def generalized_eigenvalues(pencil: SymplecticPencil) -> np.ndarray:
    """All generalized eigenvalues of (M, L); may contain inf for singular L."""
    try:
        return scipy.linalg.eigvals(pencil.M, pencil.L)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverFailure(str(exc)) from exc


def detect_unimodular(pencil: SymplecticPencil) -> UnimodularReport:
    """The unimodular eigenvalues of an SSF-2 pencil, each with an eigenvector.

    With (A, Q, P) = ``ssf2_blocks(pencil)``, M v = lambda L v for v = [x;
    A x / lambda + P x] exactly when psi(mu) x = 0, with mu = -1/lambda and
    psi(mu) = Q - P + mu A + mu^{-1} A^T.  The points searched are 0, pi and
    the critical angles of ``solvability_check``: those of a solve whose
    residual certifies them, or else of the fallback QZ; adjacent points are one
    when psi is singular half way between them (a defective pair's two
    computed values), and a point that reaches 0 or pi is that end, where
    lambda is real.  At each point the eigenvectors x of psi for eigenvalues
    within :data:`NULL_RTOL` * (||Q - P||_F + 2 ||A||_F) of zero give lambda,
    and inside (0, pi) conj(x) gives conj(lambda).  A defective pair counts
    once, as its null space is a line.  The analysis runs on (A, Q - P) scaled
    by a power of two, so it is homogeneous.  The angles, the points and psi's
    spectra at the arc midpoints come from ``problem._critical_angles``, whose
    one-entry ``lru_cache`` holds them right after ``solvability_check`` of the
    same (A, Q - P): read, not redone.
    A complex or non-SSF-2 pencil raises :class:`NotSSF2Pencil`."""
    A, Q, P = ssf2_blocks(pencil)
    _, As, Qs, _, angles, points, spectra = _critical_angles(A, Q - P)
    tol = NULL_RTOL * (fro_norm(Qs) + 2.0 * fro_norm(As))
    apart = np.min(np.abs(spectra[angles.size:]), axis=1) > tol
    lams, vecs = [], []
    for group in np.split(points, np.flatnonzero(apart) + 1):
        mu = (-1.0 if group[-1] == math.pi else 1.0 if group[0] == 0.0
              else np.exp(0.5j * (group[0] + group[-1])))
        w, X = np.linalg.eigh(Qs + mu * As + np.conj(mu) * As.T)
        x = X[:, np.abs(w) <= tol]
        lam = np.full(x.shape[1], -1.0 / mu)
        if mu.imag:
            x, lam = np.hstack((x, x.conj())), np.concatenate((lam, lam.conj()))
        lams.append(lam)
        vecs.append(np.vstack((x, A @ x / lam + P @ x)))
    return UnimodularReport(np.concatenate(lams).astype(complex), np.hstack(vecs).astype(complex))


def _critical_shift(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, Q) with the eigenvalues +-1 of S = X_+^{-1} A moved to 0, keeping X_+
    (Brauer 1952), in closed form and with no QZ.  As psi(mu) = (I + S^T / mu)
    X_+ (I + mu S), the null vectors Y of psi(-/+1) = Q -/+ (A + A^T), by one
    stacked ``eigh`` of (A, Q) over their power of two and the null test of
    :func:`detect_unimodular`, are eigenvectors of S for R = +-1.  Then U = A Y
    R^{-1} = X_+ Y, G = Y^T U is SPD (else :class:`NotPositiveDefinite`), H = G^{-1}
    U^T and E = I - Y H give A_hat = A E and Q_hat = E^T Q E + U H.  With no null
    vector (A, Q) is returned as given."""
    _, As, Qs = _unit_scaled(A, Q)
    w, V = np.linalg.eigh(np.stack((Qs - (B := As + As.T), Qs + B)))
    null = np.abs(w) <= NULL_RTOL * (fro_norm(Qs) + 2.0 * fro_norm(As))
    if not null.any():
        return A, Q
    Y = V.transpose(0, 2, 1)[null].T
    U = A @ Y * (1.0 - 2.0 * np.nonzero(null)[0])  # R = 1 from psi(-1), -1 from psi(1)
    H = scipy.linalg.lapack.dpotrs(_cholesky(Y.T @ U, "Y^T A Y R^-1"), U.T, lower=1)[0]
    E = np.eye(len(Y)) - Y @ H
    return A @ E, E.T @ Q @ E + U @ H


def solve_scalar_shifted(a: float, q: float,
                         config: SolverConfig | None = None) -> ShiftedScalarResult:
    """Shifted solve of the critical scalar equation x + a^2/x = q.

    Applies only at 0 <= q - 2|a| <= 4 eps q (q = 2|a| up to its rounding, the
    critical case, where plain doubling degrades to linear rate 1/2); other
    finite inputs raise :class:`NotCriticalCase`, as q < 2|a| has no real
    solution and a larger q is for a direct solver.  A non-finite a or q raises
    :class:`NonFiniteInput`, a complex or non-numeric one
    :class:`DimensionMismatch`.  ``_critical_shift`` then moves the eigenvalue
    sign(a) of a / x_+ to 0, which leaves the pair (0, |a|) to roundoff, and its
    doubling stops at iteration 0 with x_plus = |a|.
    """
    a, q = _matrix([[a, q]], "a and q", float)[0].tolist()
    if a == 0.0:
        raise NotCriticalCase("a = 0: the equation is already linear")
    if q < 2.0 * abs(a):
        raise NotCriticalCase(f"q < 2|a| = {2.0 * abs(a)!r}: x + a^2/x = q has no real solution")
    if q - 2.0 * abs(a) > 4.0 * np.finfo(float).eps * q:
        raise NotCriticalCase(f"q - 2|a| = {q - 2.0 * abs(a):.3e}: the pipeline needs q = 2|a|")
    A_hat, Q_hat = _critical_shift(np.array([[a]]), np.array([[q]]))
    rep = solve_sda_scalar(A_hat[0, 0], Q_hat[0, 0], config)
    return ShiftedScalarResult(x_plus=float(rep.X[0, 0]), per_r=(rep,))


# ---------------------------------------------------------------------------
# file formats (pencil JSON with interleaved real/imag entries, spectra CSV)

def _interleaved(M: np.ndarray) -> list[float]:
    return np.ascontiguousarray(M, dtype=complex).ravel().view(float).tolist()


def _from_interleaved(data: dict, key: str, shape, path) -> np.ndarray:
    arr = serialize.read_numbers(data[key], 2 * int(np.prod(shape)), f"{path}: {key}")
    return arr.view(complex).reshape(shape)


def save_pencil(pencil: SymplecticPencil, path) -> None:
    serialize.dump_json(
        {"dim": pencil.dim, "M": _interleaved(pencil.M), "L": _interleaved(pencil.L)},
        path,
    )


def load_pencil(path) -> SymplecticPencil:
    """Read {"dim": 2n, "M": [...], "L": [...]} with interleaved re/im arrays."""
    data = serialize.load_json(path, ("dim", "M", "L"))
    dim = data["dim"]
    if type(dim) is not int or dim <= 0 or dim % 2 != 0:
        raise ProblemFileError(f"{path}: dim must be a positive even integer")
    M = _from_interleaved(data, "M", (dim, dim), path)
    L = _from_interleaved(data, "L", (dim, dim), path)
    return SymplecticPencil(M=M, L=L)


def load_shift_spec(path, dim: int) -> ShiftSpec:
    """Read a shift spec: V/lambda/lambda_hat (interleaved), optional R1/R2,
    an absent factor built as :class:`ShiftSpec` builds it."""
    data = serialize.load_json(path, ("V", "lambda", "lambda_hat"))
    k = len(data["lambda"]) // 2 if isinstance(data["lambda"], list) else 0
    lam = _from_interleaved(data, "lambda", (k,), path)
    V = _from_interleaved(data, "V", (dim, k), path)
    lam_hat = _from_interleaved(data, "lambda_hat", (k,), path)
    R1, R2 = (_from_interleaved(data, key, (dim, k), path) if key in data else None
              for key in ("R1", "R2"))
    return ShiftSpec(V, lam, lam_hat, R1, R2)


def _flag_nearest(values: np.ndarray, targets: np.ndarray) -> list[int]:
    flags = [0] * len(values)
    for t in targets:
        best, best_dist = None, math.inf
        for i, v in enumerate(values):
            if flags[i]:
                continue
            dist = abs(v - t) if np.isfinite(v) else math.inf
            if dist < best_dist:
                best, best_dist = i, dist
        if best is not None:
            flags[best] = 1
    return flags


def write_spectra_csv(fh, before: np.ndarray, after: np.ndarray, spec: ShiftSpec) -> None:
    """Emit before/after spectra as CSV rows ``re,im,moved``.

    The first dim rows are the sorted pre-shift spectrum (moved = 1 marks the
    eigenvalues designated for relocation), the remaining rows the sorted
    post-shift spectrum (moved = 1 marks the relocated targets).
    """
    def sort_key(z):
        return (math.isinf(abs(z)), z.real, z.imag)

    rows = []
    for spectrum, marks in ((before, spec.lam), (after, spec.lam_hat)):
        ordered = sorted((complex(z) for z in spectrum), key=sort_key)
        flags = _flag_nearest(np.asarray(ordered), marks)
        rows.extend((z.real, z.imag, flag) for z, flag in zip(ordered, flags))
    serialize.write_csv(fh, ["re", "im", "moved"], rows)
