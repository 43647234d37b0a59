"""Eigenvalue relocation for matrix pencils, and the shifted scalar pipeline.

Given a pencil M - lambda L with an eigenpair M v = lambda0 L v and a vector
r normalized so r^T v = 1, the rank-one update

    (M + (lambda1 - lambda0) L v r^T) - lambda L

has the same spectrum except that one copy of lambda0 is replaced by lambda1.
The simultaneous version replaces k eigenvalues at once: with eigenvector
block V, current eigenvalues Lambda, targets LambdaHat, and factors
satisfying R1^T V = LambdaHat - Lambda and R2^T V = 0,

    (M + L V R1^T) - lambda (L + M V R2^T)

moves exactly the designated eigenvalues and keeps the rest.

The scalar pipeline applies this to the critical equation x + a^2/x = 2|a|,
whose pencil carries a defective unit eigenvalue that slows every solver to
linear rate 1/2.  Relocating the eigenvalue pair {1, 1} to {r, 1/r} restores
an SSF-2 pencil belonging to x + a^2/x = a(r + 1/r), whose maximal solution
a/r is found quadratically; as r * (a/r) = a for every r in (0, 1), one
relocation with a fixed, well-conditioned r recovers the original solution
|a| exactly.
"""

import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import serialize
from .exceptions import (
    ConjugateClosureViolated,
    DimensionMismatch,
    EigensolverFailure,
    InvalidR,
    NonFiniteInput,
    NotAnEigenpair,
    NotCriticalCase,
    NotNormalized,
    ProblemFileError,
    RankDeficientV,
    ReciprocalPairingWarning,
    RepeatedEigenvalue,
    SpecInvariantViolated,
)
from .problem import SymplecticPencil
from .solvers import SolverConfig, solve_sda_scalar

__all__ = [
    "ShiftSpec",
    "UnimodularReport",
    "ScalarShiftStep",
    "ShiftedScalarResult",
    "shift_single",
    "shift_multi",
    "build_shift_factors",
    "detect_unimodular",
    "generalized_eigenvalues",
    "shifted_scalar_problem",
    "solve_scalar_shifted",
    "load_pencil",
    "save_pencil",
    "load_shift_spec",
    "write_spectra_csv",
]

logger = logging.getLogger(__name__)

#: Eigenpair residual tolerance, relative to (||M|| + |lambda| ||L||) ||v||.
EIGENPAIR_RTOL = 1e-8

#: Tolerance for the R1/R2 coupling identities.
FACTOR_RTOL = 1e-10

#: Relative tolerance of the reciprocal and conjugate closure tests of targets.
CLOSURE_RTOL = 1e-8

#: Computed eigenvalues closer than this are treated as one (possibly
#: defective) eigenvalue when hunting for unimodular values.
CLUSTER_TOL = 1e-6

#: Computed eigenvalues with |1 - |lambda|| at most this count as unimodular.
UNIMODULAR_TOL = 1e-6

#: Ratio r of the scalar relocation {1, 1} -> {r, 1/r}: the relocated
#: problem converges at rate r (about 5 doubling steps) with conditioning
#: 1/(1 - r^2) = 4/3, so a single solve is accurate to roundoff.
SCALAR_SHIFT_R = 0.5


@dataclass(frozen=True)
class ShiftSpec:
    """Eigenvector block and correction factors for a simultaneous shift.

    ``lam``/``lam_hat`` hold the diagonal entries (current and target
    eigenvalues) as 1-d complex arrays.
    """

    V: np.ndarray
    lam: np.ndarray
    lam_hat: np.ndarray
    R1: np.ndarray
    R2: np.ndarray


@dataclass(frozen=True)
class UnimodularReport:
    """Generalized eigenvalues with |1 - |lambda|| <= UNIMODULAR_TOL, each
    cluster of k computed values reported ceil(k/2) times (a defective pair
    appears once), with one eigenvector column per entry."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ScalarShiftStep:
    r: float
    x_hat: float
    iterations: int


@dataclass(frozen=True)
class ShiftedScalarResult:
    x_plus: float
    per_r: tuple


def _as_complex_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix")
    return M


def _check_eigenpair(M, L, v, lam, index=None):
    resid = float(np.linalg.norm(M @ v - lam * L @ v))
    scale = (np.linalg.norm(M) + abs(lam) * np.linalg.norm(L)) * np.linalg.norm(v)
    if resid > EIGENPAIR_RTOL * max(scale, 1e-300):
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
    v = np.asarray(v, dtype=complex).reshape(-1)
    r = np.asarray(r, dtype=complex).reshape(-1)
    if v.size != pencil.dim or r.size != pencil.dim:
        raise DimensionMismatch("v and r must have the pencil dimension")
    lambda0 = complex(lambda0)
    lambda1 = complex(lambda1)
    _check_eigenpair(M, L, v, lambda0)
    rv = complex(np.dot(r, v))
    if abs(rv - 1.0) > 1e-10 * max(1.0, float(np.linalg.norm(r) * np.linalg.norm(v))):
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


def _conjugate_closed(lam: np.ndarray, lam_hat: np.ndarray) -> bool:
    pairs = list(zip(lam, lam_hat))
    unused = list(range(len(pairs)))
    for a, b in pairs:
        hit = None
        for j in unused:
            c, d = pairs[j]
            if (abs(c - a.conjugate()) <= CLOSURE_RTOL * max(1.0, abs(a))
                    and abs(d - b.conjugate()) <= CLOSURE_RTOL * max(1.0, abs(b))):
                hit = j
                break
        if hit is None:
            return False
        unused.remove(hit)
    return True


def shift_multi(pencil: SymplecticPencil, spec: ShiftSpec) -> SymplecticPencil:
    """Replace the eigenvalues in ``spec.lam`` by ``spec.lam_hat`` at once.

    Validates that every column of V is an eigenvector for its entry of
    ``lam`` (entries must be pairwise distinct), that the coupling
    identities R1^T V = diag(lam_hat - lam) and R2^T V = 0 hold, and -- for a
    real pencil, one with real arrays (see :class:`SymplecticPencil`) -- that
    (lam, lam_hat) is conjugate closed so the updated pencil stays real.
    Emits :class:`ReciprocalPairingWarning` when the targets are not closed
    under lambda -> 1/lambda.
    """
    M, L = pencil.M, pencil.L
    V = _as_complex_matrix(spec.V, "V")
    lam = np.asarray(spec.lam, dtype=complex).reshape(-1)
    lam_hat = np.asarray(spec.lam_hat, dtype=complex).reshape(-1)
    R1 = _as_complex_matrix(spec.R1, "R1")
    R2 = _as_complex_matrix(spec.R2, "R2")
    k = V.shape[1]
    if V.shape[0] != pencil.dim or lam.size != k or lam_hat.size != k \
            or R1.shape != V.shape or R2.shape != V.shape:
        raise DimensionMismatch("shift spec shapes are inconsistent with the pencil")
    if k == 0:
        raise RankDeficientV("V has no columns: there is no eigenvalue to shift")

    lam_scale = max(1.0, float(np.max(np.abs(lam))))
    for i in range(k):
        for j in range(i + 1, k):
            if abs(lam[i] - lam[j]) <= FACTOR_RTOL * lam_scale:
                raise RepeatedEigenvalue(
                    f"lam[{i}] and lam[{j}] coincide; simultaneous shifts need distinct values")
    if not (np.iscomplexobj(M) or np.iscomplexobj(L)) and not _conjugate_closed(lam, lam_hat):
        raise ConjugateClosureViolated(
            "shifting a real pencil needs conjugate-closed (lam, lam_hat) pairs")
    for i in range(k):
        _check_eigenpair(M, L, V[:, i], lam[i], index=i)

    D = np.diag(lam_hat - lam)
    defect1 = float(np.linalg.norm(R1.T @ V - D))
    if defect1 > FACTOR_RTOL * (1.0 + float(np.linalg.norm(D))):
        raise SpecInvariantViolated(f"||R1^T V - (target - current)|| = {defect1:.3e}")
    defect2 = float(np.linalg.norm(R2.T @ V))
    bound2 = FACTOR_RTOL * float(np.linalg.norm(R2)) * float(np.linalg.norm(V))
    if defect2 > max(bound2, 1e-300):
        raise SpecInvariantViolated(f"||R2^T V|| = {defect2:.3e}")

    if not _reciprocal_closed(lam_hat):
        warnings.warn(
            "target eigenvalues are not closed under lambda -> 1/lambda; "
            "the shifted pencil loses its reciprocal spectrum pairing",
            ReciprocalPairingWarning,
            stacklevel=2,
        )
    return SymplecticPencil(M=M + L @ V @ R1.T, L=L + M @ V @ R2.T)


def build_shift_factors(V, lam, lam_hat) -> ShiftSpec:
    """Construct correction factors for :func:`shift_multi`.

    R1 = V (V^T V)^{-1} (LambdaHat - Lambda), so that R1^T V equals the
    diagonal eigenvalue displacement; R2 defaults to zero (no update on the
    L side).  V must have full column rank.
    """
    V = _as_complex_matrix(V, "V")
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    lam_hat = np.asarray(lam_hat, dtype=complex).reshape(-1)
    if lam.size != V.shape[1] or lam_hat.size != V.shape[1]:
        raise DimensionMismatch("lam/lam_hat length must match the column count of V")
    if V.shape[1] == 0:
        raise RankDeficientV("V has no columns: there is no eigenvalue to shift")
    sv = np.linalg.svd(V, compute_uv=False)
    if sv.size == 0 or sv[-1] < 1e-10 * sv[0]:
        raise RankDeficientV(f"smallest singular value {sv[-1] if sv.size else 0.0:.3e}")
    D = np.diag(lam_hat - lam)
    gram = V.T @ V  # plain transpose; complex symmetric
    try:
        R1 = V @ np.linalg.solve(gram, D)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientV(f"V^T V is singular: {exc}") from exc
    return ShiftSpec(V=V, lam=lam, lam_hat=lam_hat, R1=R1, R2=np.zeros_like(V))


def generalized_eigenvalues(pencil: SymplecticPencil) -> np.ndarray:
    """All generalized eigenvalues of (M, L); may contain inf for singular L."""
    try:
        return scipy.linalg.eigvals(pencil.M, pencil.L)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverFailure(str(exc)) from exc


def detect_unimodular(pencil: SymplecticPencil) -> UnimodularReport:
    """Find generalized eigenvalues on (or near) the unit circle.

    Computed eigenvalues within :data:`UNIMODULAR_TOL` of the circle are
    selected, and those within :data:`CLUSTER_TOL` of each other are merged
    and represented by their mean, which recovers a defective eigenvalue to
    roundoff.  A cluster of k computed values reports ceil(k/2) copies of
    its mean: when the maximal solution exists, [I; X+] spans exactly half
    of each unimodular root subspace (Lancaster & Rodman, Algebraic Riccati
    Equations, 1995), so a defective pair at lambda = 1 is reported once.
    The vectors are the right singular vectors of M - lambda L for its
    smallest singular values.
    """
    M, L = pencil.M, pencil.L
    eigs = generalized_eigenvalues(pencil)
    finite = eigs[np.isfinite(eigs)]
    selected = [complex(w) for w in finite if abs(1.0 - abs(w)) <= UNIMODULAR_TOL]
    # merge computed values that belong to one (possibly defective) eigenvalue
    clusters: list[list[complex]] = []
    for w in sorted(selected, key=lambda z: (z.real, z.imag)):
        for cluster in clusters:
            if any(abs(w - u) <= CLUSTER_TOL for u in cluster):
                cluster.append(w)
                break
        else:
            clusters.append([w])
    values: list[complex] = []
    vectors: list[np.ndarray] = []
    for cluster in sorted(clusters, key=lambda c: (np.mean(c).real, np.mean(c).imag)):
        rep = complex(np.mean(cluster))
        count = (len(cluster) + 1) // 2
        vh = np.linalg.svd(M - rep * L)[2]
        values += [rep] * count
        vectors.append(vh[-count:].conj().T)
    eigenvectors = (np.hstack(vectors) if vectors
                    else np.zeros((pencil.dim, 0), dtype=complex))
    return UnimodularReport(eigenvalues=np.asarray(values, dtype=complex),
                            eigenvectors=eigenvectors)


def shifted_scalar_problem(a: float, r: float) -> tuple[float, float]:
    """The scalar equation whose pencil is the double-shifted critical pencil.

    For a != 0 and 0 < r < 1 returns (a, a*(r + 1/r)); its maximal solution
    is a/r, with spectral ratio r < 1.
    """
    a = float(a)
    r = float(r)
    if not 0.0 < r < 1.0:
        raise InvalidR(f"r = {r!r} is not in (0, 1)")
    if a == 0.0:
        raise InvalidR("a must be nonzero")
    return a, a * (r + 1.0 / r)


def solve_scalar_shifted(a: float, q: float,
                         config: SolverConfig | None = None) -> ShiftedScalarResult:
    """Shift-accelerated solve of the critical scalar equation x + a^2/x = q.

    Applies only when q = 2|a| to within 1e-8 relative (the critical case,
    where the plain doubling iteration degrades to linear rate 1/2); other
    finite inputs raise :class:`NotCriticalCase` and should go to a direct
    solver, and a non-finite a or q raises :class:`NonFiniteInput`.  The
    relocated problem x + a^2/x = |a|(r + 1/r) with r = ``SCALAR_SHIFT_R``
    is solved once, quadratically, and since r * x_hat(r) = |a| for every
    r in (0, 1) the answer is r * x_hat.  The criticality test runs on the
    given a and q.  The equation is homogeneous, so a is then divided by the
    power of two s with |a|/s in [1, 2) and x_plus is scaled back by s; both
    steps are exact, and |a|(r + 1/r) cannot overflow.
    """
    a = float(a)
    q = float(q)
    if not (math.isfinite(a) and math.isfinite(q)):
        raise NonFiniteInput(f"a = {a!r}, q = {q!r}")
    if a == 0.0:
        raise NotCriticalCase("a = 0: the equation is already linear")
    if abs(q - 2.0 * abs(a)) > 1e-8 * abs(q):
        raise NotCriticalCase(
            f"q - 2|a| = {q - 2.0 * abs(a):.3e}; shifted pipeline applies only at the critical case")
    s = math.ldexp(1.0, math.frexp(a)[1] - 1)
    a = a / s
    r = SCALAR_SHIFT_R
    rep = solve_sda_scalar(*shifted_scalar_problem(abs(a), r), config)
    x_hat = float(rep.X[0, 0])
    step = ScalarShiftStep(r=r, x_hat=s * x_hat, iterations=rep.iterations)
    logger.debug("shifted solve r=%s x_hat=%.17g iterations=%d", r, step.x_hat, step.iterations)
    return ShiftedScalarResult(x_plus=s * (r * x_hat), per_r=(step,))


# ---------------------------------------------------------------------------
# file formats (pencil JSON with interleaved real/imag entries, spectra CSV)

def _interleaved(M: np.ndarray) -> list[float]:
    flat = np.asarray(M, dtype=complex).ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return [float(v) for v in out]


def _from_interleaved(values, shape, name: str) -> np.ndarray:
    count = 2 * int(np.prod(shape))
    if not isinstance(values, list) or len(values) != count:
        raise ProblemFileError(f"{name} must hold {count} interleaved numbers")
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ProblemFileError(f"{name} contains NaN/Inf")
    return (arr[0::2] + 1j * arr[1::2]).reshape(shape)


def save_pencil(pencil: SymplecticPencil, path) -> None:
    serialize.dump_json(
        {"dim": pencil.dim, "M": _interleaved(pencil.M), "L": _interleaved(pencil.L)},
        path,
    )


def load_pencil(path) -> SymplecticPencil:
    """Read {"dim": 2n, "M": [...], "L": [...]} with interleaved re/im arrays."""
    data = serialize.load_json(path)
    if not isinstance(data, dict) or any(k not in data for k in ("dim", "M", "L")):
        raise ProblemFileError(f"{path}: expected keys dim, M, L")
    dim = data["dim"]
    if not isinstance(dim, int) or dim <= 0 or dim % 2 != 0:
        raise ProblemFileError(f"{path}: dim must be a positive even integer")
    M = _from_interleaved(data["M"], (dim, dim), "M")
    L = _from_interleaved(data["L"], (dim, dim), "L")
    return SymplecticPencil(M=M, L=L)


def load_shift_spec(path, dim: int) -> ShiftSpec:
    """Read a shift spec: V/lambda/lambda_hat (interleaved), optional R1/R2.

    When R1 is absent the factors are constructed via
    :func:`build_shift_factors`; a supplied R2 overrides the zero default.
    """
    data = serialize.load_json(path)
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: expected a JSON object")
    for key in ("V", "lambda", "lambda_hat"):
        if key not in data:
            raise ProblemFileError(f"{path}: missing key {key!r}")
    if not isinstance(data["lambda"], list):
        raise ProblemFileError(f"{path}: lambda must be a list of interleaved numbers")
    lam = _from_interleaved(data["lambda"], (len(data["lambda"]) // 2,), "lambda")
    k = lam.size
    V = _from_interleaved(data["V"], (dim, k), "V")
    lam_hat = _from_interleaved(data["lambda_hat"], (k,), "lambda_hat")
    if "R1" in data:
        R1 = _from_interleaved(data["R1"], (dim, k), "R1")
        spec = ShiftSpec(V=V, lam=lam, lam_hat=lam_hat, R1=R1, R2=np.zeros((dim, k), dtype=complex))
    else:
        spec = build_shift_factors(V, lam, lam_hat)
    if "R2" in data:
        spec = replace(spec, R2=_from_interleaved(data["R2"], (dim, k), "R2"))
    return spec


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
