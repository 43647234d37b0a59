"""Shared test utilities: scalar oracles, SPD helpers, spectrum matching."""

import math
from dataclasses import replace

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from nmesolve import SymplecticPencil, build_shift_factors, new_problem, symmetric_part
from nmesolve.harness import _random_orthogonal


def scalar_x_plus(a: float, q: float) -> float:
    """Closed-form maximal solution of x + a^2/x = q (quadratic formula)."""
    disc = q * q - 4.0 * a * a
    assert disc >= 0, "no real solution"
    return (q + math.sqrt(disc)) / 2.0


def same_bits(x, y) -> bool:
    """x and y have one dtype and shape and the same bytes: -0.0 differs from 0.0."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def count_calls(monkeypatch, *names):
    """Calls made, by name, to the named routines from now on, each looked up
    on the first of ``scipy.linalg.blas``, ``scipy.linalg.lapack`` and
    ``scipy.linalg`` (for ``schur``) that has the name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        module = next(m for m in (scipy.linalg.blas, scipy.linalg.lapack, scipy.linalg)
                      if hasattr(m, name))

        def call(*args, _name=name, _routine=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _routine(*args, **kwargs)
        monkeypatch.setattr(module, name, call)
    return calls


def coupled_identity(n: int, order: int) -> np.ndarray:
    """The Fortran-ordered identity of order n with entries 2 at (order, 1) and
    (1, order), counted from 1: its leading minors are 1 below order ``order``
    and -3 from it on.  With order > n // 2 both halves of it are SPD, and only
    the Schur complement of its leading half fails."""
    M = np.eye(n, order="F")
    M[order - 1, 0] = M[0, order - 1] = 2.0
    return M


def min_eig(M) -> float:
    M = np.asarray(M, dtype=float)
    return float(np.linalg.eigvalsh((M + M.T) / 2.0).min())


def match_distance(xs, ys) -> float:
    """Max distance under a minimal-cost assignment between two spectra."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    assert xs.size == ys.size
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if xs.size else 0.0


def pencil_with_spectrum(rng, entries):
    """Build a real pencil with a prescribed finite spectrum.

    ``entries`` holds real numbers and/or complex numbers with positive
    imaginary part; each complex entry also contributes its conjugate.
    Returns ``(pencil, spectrum, pairs)`` where ``spectrum`` is the full
    eigenvalue list and ``pairs`` maps each entry as given to an exact
    eigenvector of the pencil.
    """
    blocks = []
    spectrum = []
    seeds = []
    offset = 0
    for z in entries:
        z = complex(z)
        if abs(z.imag) < 1e-14:
            blocks.append(np.array([[z.real]]))
            spectrum.append(complex(z.real))
            seeds.append((complex(z.real), offset, np.array([1.0 + 0j])))
            offset += 1
        else:
            a, b = z.real, abs(z.imag)
            blocks.append(np.array([[a, b], [-b, a]]))
            spectrum += [complex(a, b), complex(a, -b)]
            seeds.append((complex(a, b), offset, np.array([1.0 + 0j, 1j])))
            offset += 2
    D = scipy.linalg.block_diag(*blocks)
    dim = D.shape[0]

    def well_conditioned():
        while True:
            W = rng.standard_normal((dim, dim))
            if np.linalg.cond(W) < 100.0:
                return W

    P = well_conditioned()
    R = well_conditioned()
    M = P @ D @ R
    L = P @ R
    R_inv = np.linalg.inv(R)
    pairs = []
    for lam, off, emb in seeds:
        w = np.zeros(dim, dtype=complex)
        w[off:off + emb.size] = emb
        pairs.append((lam, R_inv @ w))
    pen = SymplecticPencil(M=M.astype(complex), L=L.astype(complex))
    return pen, np.asarray(spectrum, dtype=complex), pairs


def conjugate_inconsistent_shift():
    """A real pencil, conjugate-closed targets 1 +- 0.5i -> 0.6 +- 0.8i and a spec
    whose R1 = R1_0 + W has W^T V = 0 but W not conjugate-consistent.

    R1^T V is R1_0^T V, so every eigenpair and factor check passes, and the
    targets are reciprocal closed, yet M + L V R1^T has an imaginary part of
    0.18 ||M + L V R1^T||_F.  Returns ``(pencil, spec)``.
    """
    pen, _, pairs = pencil_with_spectrum(np.random.default_rng(8), [0.4, 1.0 + 0.5j, 2.1])
    lam_c, v_c = pairs[1]
    V = np.column_stack([v_c, v_c.conj()])
    spec = build_shift_factors(V, [lam_c, lam_c.conjugate()], [0.6 + 0.8j, 0.6 - 0.8j])
    # W = i (I - V (V^T V)^-1 V^T) Z, plain transposes, so W^T V = 0
    Z = np.random.default_rng(0).standard_normal(V.shape)
    W = 1j * (Z - V @ np.linalg.solve(V.T @ V, V.T @ Z))
    return pen, replace(spec, R1=spec.R1 + W)


def nonnormal_planted(n: int, rho: float, eta: float, seed: int):
    """Planted problem whose S = X^{-1} A is not normal; returns (problem, X).

    Draws like :func:`nmesolve.generate_problem` (same generator, same order,
    conditioning 10), then one more Gaussian N, and sets S = U T U^T with
    T = diag(s) + triu(eta N / sqrt(n), 1).  T is triangular, so rho(S) is
    still ``rho`` and X is still the maximal solution.
    """
    rng = np.random.default_rng(seed)
    u1 = _random_orthogonal(rng, n)
    x_eigs = np.exp(rng.uniform(0.0, np.log(10.0), n))
    X = symmetric_part(u1 @ np.diag(x_eigs) @ u1.T)
    s_eigs = np.empty(n)
    s_eigs[0] = rho
    s_eigs[1:] = rng.uniform(0.0, rho, n - 1)
    u2 = _random_orthogonal(rng, n)
    T = np.diag(s_eigs) + np.triu(eta * rng.standard_normal((n, n)) / math.sqrt(n), 1)
    S = u2 @ T @ u2.T
    A = X @ S
    return new_problem(A, symmetric_part(X + S.T @ X @ S)), X


#: Problem files that parse as JSON but do not hold a problem: each must end
#: in ProblemFileError, not in a raw TypeError, OverflowError, ValueError or
#: RecursionError, nor load a string as a number
MALFORMED_PROBLEMS = {
    "object-entry": '{"n": 1, "A": [{"x": 1}], "Q": [1.0]}',
    "boolean-n": '{"n": true, "A": [0.5], "Q": [1.0]}',
    "huge-integer": '{"n": 1, "A": [' + "1" * 400 + '], "Q": [1.0]}',
    "nested-list": '{"n": 1, "A": [[0.5, 1]], "Q": [1.0]}',
    "string-entry": '{"n": 1, "A": ["0.5"], "Q": [1.0]}',
    "deep-nesting": '{"n": 1, "A": ' + "[" * 100000 + "]" * 100000 + ', "Q": [1.0]}',
}
